//! The append-only fleet journal (`fleet.manifest.jsonl`).
//!
//! One JSON line per shard lifecycle event, in the same append-fsync
//! discipline as the per-run `run.manifest.jsonl`: the `committed` line is
//! a city's commit point, written only after its checkpoints are durably
//! on disk. Loading tolerates a torn tail (a final half-written line is
//! discarded), and events carry no timestamps or host state, so the
//! journal of a resumed fleet is byte-identical to the journal of an
//! uninterrupted one once canonicalized.
//!
//! Per-city event grammar:
//!
//! ```text
//! scheduled → started(1) → [retried(a) → started(a+1)]* → committed | abandoned
//! ```

use epc_journal::{sync_dir, write_atomic, ArtifactRecord};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// File name of the fleet journal inside a fleet run directory.
pub const FLEET_MANIFEST_FILE: &str = "fleet.manifest.jsonl";

/// One shard lifecycle event. The `kind` field is one of `scheduled`,
/// `started`, `retried`, `committed`, `abandoned`; fields not meaningful
/// for a kind are left at their empty defaults so every line serializes
/// with the same shape (stable bytes for the chaos gate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetEvent {
    /// City id this event belongs to.
    pub city: String,
    /// Event kind (see module docs for the grammar).
    pub kind: String,
    /// Attempt number the event refers to (1-based; 0 for `scheduled`).
    pub attempt: u32,
    /// Fleet config fingerprint — a mismatch on resume invalidates the
    /// city's journal group (it describes a different computation).
    pub fingerprint: String,
    /// Journaled (not slept) backoff delay for `retried` events.
    pub backoff_ms: u64,
    /// Whether the committed shard itself degraded (per-stage reasons).
    pub degraded: bool,
    /// Degradation or failure reasons (`retried`/`committed`/`abandoned`).
    pub reasons: Vec<String>,
    /// Small provenance map for `committed` events (records kept, chosen
    /// k, outcome string, …) — merged into the fleet report on resume.
    pub summary: BTreeMap<String, String>,
    /// Checkpoint files (paths relative to the fleet directory) that a
    /// resume must hash-verify before trusting the commit.
    pub checkpoints: Vec<ArtifactRecord>,
}

impl FleetEvent {
    fn blank(city: &str, kind: &str, attempt: u32, fingerprint: &str) -> Self {
        FleetEvent {
            city: city.to_owned(),
            kind: kind.to_owned(),
            attempt,
            fingerprint: fingerprint.to_owned(),
            backoff_ms: 0,
            degraded: false,
            reasons: Vec::new(),
            summary: BTreeMap::new(),
            checkpoints: Vec::new(),
        }
    }

    /// The city has been admitted to the fleet plan.
    pub fn scheduled(city: &str, fingerprint: &str) -> Self {
        Self::blank(city, "scheduled", 0, fingerprint)
    }

    /// Attempt `attempt` of the city's shard is about to run.
    pub fn started(city: &str, fingerprint: &str, attempt: u32) -> Self {
        Self::blank(city, "started", attempt, fingerprint)
    }

    /// Attempt `attempt` failed and a retry is scheduled after
    /// `backoff_ms` (journaled, not slept).
    pub fn retried(
        city: &str,
        fingerprint: &str,
        attempt: u32,
        backoff_ms: u64,
        reason: &str,
    ) -> Self {
        let mut e = Self::blank(city, "retried", attempt, fingerprint);
        e.backoff_ms = backoff_ms;
        e.reasons = vec![reason.to_owned()];
        e
    }

    /// The city's shard committed on attempt `attempt`. The commit line —
    /// checkpoints must already be durable.
    pub fn committed(
        city: &str,
        fingerprint: &str,
        attempt: u32,
        degraded: bool,
        reasons: Vec<String>,
        summary: BTreeMap<String, String>,
        checkpoints: Vec<ArtifactRecord>,
    ) -> Self {
        let mut e = Self::blank(city, "committed", attempt, fingerprint);
        e.degraded = degraded;
        e.reasons = reasons;
        e.summary = summary;
        e.checkpoints = checkpoints;
        e
    }

    /// The city exhausted its retry budget; `attempt` is the last attempt.
    pub fn abandoned(city: &str, fingerprint: &str, attempt: u32, reason: &str) -> Self {
        let mut e = Self::blank(city, "abandoned", attempt, fingerprint);
        e.reasons = vec![reason.to_owned()];
        e
    }

    /// Whether this event terminates its city's group (`committed` or
    /// `abandoned`).
    pub fn is_terminal(&self) -> bool {
        self.kind == "committed" || self.kind == "abandoned"
    }
}

/// Handle to a fleet directory's journal file.
#[derive(Debug, Clone)]
pub struct FleetJournal {
    dir: PathBuf,
}

impl FleetJournal {
    /// The fleet journal of `fleet_dir` (the file may not exist yet).
    pub fn at(fleet_dir: &Path) -> Self {
        FleetJournal {
            dir: fleet_dir.to_path_buf(),
        }
    }

    /// Full path of the fleet manifest file.
    pub fn path(&self) -> PathBuf {
        self.dir.join(FLEET_MANIFEST_FILE)
    }

    fn named(&self, what: &str, e: io::Error) -> io::Error {
        io::Error::new(e.kind(), format!("{what} {}: {e}", self.path().display()))
    }

    /// Loads all parsable events. A missing file is an empty journal; the
    /// first unparsable line truncates the result (torn tail).
    pub fn load(&self) -> io::Result<Vec<FleetEvent>> {
        let text = match std::fs::read_to_string(self.path()) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(self.named("reading fleet journal", e)),
        };
        let mut events = Vec::new();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<FleetEvent>(line) {
                Ok(event) => events.push(event),
                Err(_) => break,
            }
        }
        Ok(events)
    }

    /// Appends one event (one JSON line) and fsyncs.
    pub fn append(&self, event: &FleetEvent) -> io::Result<()> {
        let line = serde_json::to_string(event)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let append = || -> io::Result<()> {
            let mut f = OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.path())?;
            f.write_all(line.as_bytes())?;
            f.write_all(b"\n")?;
            f.sync_all()?;
            drop(f);
            sync_dir(&self.dir)
        };
        append().map_err(|e| self.named("appending to fleet journal", e))
    }

    /// Atomically replaces the journal with exactly `events` — used on
    /// resume to drop invalid groups and at fleet completion to
    /// canonicalize event order (grouped per city in plan order), so a
    /// resumed journal's bytes match an uninterrupted run's.
    pub fn rewrite(&self, events: &[FleetEvent]) -> io::Result<()> {
        let mut text = String::new();
        for event in events {
            let line = serde_json::to_string(event)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            text.push_str(&line);
            text.push('\n');
        }
        write_atomic(&self.dir, FLEET_MANIFEST_FILE, text.as_bytes())
            .map(|_| ())
            .map_err(|e| self.named("rewriting fleet journal", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn temp_dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "epc-coord-journal-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn append_then_load_round_trips() {
        let dir = temp_dir();
        let j = FleetJournal::at(&dir);
        assert!(j.load().unwrap().is_empty());
        j.append(&FleetEvent::scheduled("00-torino", "fp")).unwrap();
        j.append(&FleetEvent::started("00-torino", "fp", 1))
            .unwrap();
        let got = j.load().unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], FleetEvent::scheduled("00-torino", "fp"));
        assert!(got[1].kind == "started" && got[1].attempt == 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded() {
        let dir = temp_dir();
        let j = FleetJournal::at(&dir);
        j.append(&FleetEvent::scheduled("a", "fp")).unwrap();
        j.append(&FleetEvent::started("a", "fp", 1)).unwrap();
        let text = fs::read_to_string(j.path()).unwrap();
        fs::write(j.path(), &text[..text.len() - 20]).unwrap();
        let got = j.load().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].kind, "scheduled");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_replaces_contents() {
        let dir = temp_dir();
        let j = FleetJournal::at(&dir);
        j.append(&FleetEvent::scheduled("a", "fp")).unwrap();
        j.append(&FleetEvent::scheduled("b", "fp")).unwrap();
        let all = j.load().unwrap();
        j.rewrite(&all[..1]).unwrap();
        assert_eq!(j.load().unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_bytes_are_deterministic() {
        let dirs = [temp_dir(), temp_dir()];
        for dir in &dirs {
            let j = FleetJournal::at(dir);
            j.append(&FleetEvent::scheduled("a", "fp")).unwrap();
            j.append(&FleetEvent::retried("a", "fp", 1, 120, "stage panicked"))
                .unwrap();
        }
        let a = fs::read(FleetJournal::at(&dirs[0]).path()).unwrap();
        let b = fs::read(FleetJournal::at(&dirs[1]).path()).unwrap();
        assert_eq!(a, b);
        for dir in &dirs {
            fs::remove_dir_all(dir).unwrap();
        }
    }

    #[test]
    fn load_error_names_journal_path() {
        let dir = temp_dir();
        // Make the journal path unreadable by making it a directory.
        fs::create_dir_all(dir.join(FLEET_MANIFEST_FILE)).unwrap();
        let err = FleetJournal::at(&dir).load().unwrap_err();
        assert!(
            err.to_string().contains(FLEET_MANIFEST_FILE),
            "error should name the journal file: {err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
