//! The append-only JSONL journal, generic over its entry type.
//!
//! One JSON line per committed unit of work — a pipeline stage
//! ([`StageEntry`] in `run.manifest.jsonl`), a fleet shard event, or a
//! sealed ingest generation — appended *after* everything the line
//! references is durably on disk: the journal line is the commit point.
//! Loading tolerates a torn tail: the first line that does not parse (the
//! classic crash-during-append artifact) truncates the result, and
//! [`LoadedJournal::recovered_torn_tail`] reports that it happened.
//!
//! Entries are pure functions of the run's inputs and configuration — no
//! timestamps, no host names, no durations — so the journal of a resumed
//! run is byte-identical to the journal of an uninterrupted run.

use crate::atomic::{sync_dir, write_atomic, ArtifactRecord};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

/// File name of the journal inside a run directory.
pub const MANIFEST_FILE: &str = "run.manifest.jsonl";

/// One committed stage: everything a resuming run needs to decide whether
/// the stage can be skipped and, if so, to rehydrate its product.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageEntry {
    /// Zero-based position in the stage sequence.
    pub seq: usize,
    /// Stage name (`preprocess` / `analytics` / `dashboard`).
    pub stage: String,
    /// Fingerprint of the effective configuration and stakeholder; a
    /// mismatch invalidates the entry (the run is a different computation).
    pub config_fingerprint: String,
    /// Hash of the run's inputs (dataset, street map, hierarchy).
    pub input_hash: String,
    /// `true` when the supervisor degraded this stage (no product; the
    /// checkpoint list is empty and resuming re-registers the degradation
    /// instead of re-running the stage).
    pub degraded: bool,
    /// Degradation reasons this stage contributed to the run outcome.
    pub reasons: Vec<String>,
    /// Records entering the stage (for resumed stage reports).
    pub records_in: usize,
    /// Records (or artifacts) leaving the stage.
    pub records_out: usize,
    /// Records this stage quarantined.
    pub quarantined: usize,
    /// Fault histogram of the quarantined records.
    pub faults: BTreeMap<String, usize>,
    /// Checkpoint files capturing the stage product, hash-validated on
    /// resume. Paths are relative to the run directory.
    pub checkpoints: Vec<ArtifactRecord>,
}

/// What [`Journal::load`] recovered: the parsable prefix plus a flag
/// telling the caller whether anything was silently lost getting there.
///
/// A torn tail is the *expected* crash-during-append artifact and the
/// recovery is sound — but it must be surfaced, not swallowed: the CLI
/// warns, the observability layer counts it, and operators can tell a
/// clean resume from one that discarded a half-written commit line.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedJournal<E = StageEntry> {
    /// The valid entry prefix (everything up to the first unparsable
    /// line).
    pub entries: Vec<E>,
    /// `true` when the file held trailing bytes that did not parse as an
    /// entry — a torn append (or interior corruption) was discarded to
    /// recover `entries`.
    pub recovered_torn_tail: bool,
}

/// Handle to one journal file. `E` is the entry type, one JSON line each.
#[derive(Debug, Clone)]
pub struct Journal<E = StageEntry> {
    dir: PathBuf,
    file: String,
    entry: PhantomData<fn() -> E>,
}

impl Journal<StageEntry> {
    /// The run journal (`run.manifest.jsonl`) of `run_dir` (the file
    /// itself may not exist yet).
    pub fn at(run_dir: &Path) -> Self {
        Journal::open(run_dir, MANIFEST_FILE)
    }
}

impl<E: Serialize + Deserialize> Journal<E> {
    /// The journal stored as `file` inside `dir` (the file itself may not
    /// exist yet).
    pub fn open(dir: &Path, file: &str) -> Self {
        Journal {
            dir: dir.to_path_buf(),
            file: file.to_owned(),
            entry: PhantomData,
        }
    }

    /// Full path of the journal file.
    pub fn path(&self) -> PathBuf {
        self.dir.join(&self.file)
    }

    /// Prefixes an I/O error with what was being done and the journal
    /// path, so multi-directory runs say *where* they failed.
    fn named(&self, what: &str, e: io::Error) -> io::Error {
        io::Error::new(e.kind(), format!("{what} {}: {e}", self.path().display()))
    }

    /// Loads all parsable entries. A missing file is an empty journal;
    /// the first unparsable line truncates the result (torn tail) and
    /// sets [`LoadedJournal::recovered_torn_tail`] so the recovery is
    /// visible to the caller instead of silently discarded.
    pub fn load(&self) -> io::Result<LoadedJournal<E>> {
        let text = match std::fs::read_to_string(self.path()) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(self.named("reading journal", e)),
        };
        let mut entries = Vec::new();
        let mut recovered_torn_tail = false;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            match serde_json::from_str::<E>(line) {
                Ok(entry) => entries.push(entry),
                Err(_) => {
                    recovered_torn_tail = true;
                    break;
                }
            }
        }
        Ok(LoadedJournal {
            entries,
            recovered_torn_tail,
        })
    }

    /// Appends one entry (one JSON line) and fsyncs the file and its
    /// directory — the commit point. Everything the entry references must
    /// already be durable when this is called.
    pub fn append(&self, entry: &E) -> io::Result<()> {
        let append = || -> io::Result<()> {
            let line = Self::encode(std::slice::from_ref(entry))?;
            let mut f = OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.path())?;
            f.write_all(line.as_bytes())?;
            f.sync_all()?;
            drop(f);
            sync_dir(&self.dir)
        };
        append().map_err(|e| self.named("appending to journal", e))
    }

    /// Atomically replaces the journal with exactly `entries` (write, fsync,
    /// rename) — used when resume validation rejects a suffix, and by the
    /// fleet to canonicalize event order.
    pub fn rewrite(&self, entries: &[E]) -> io::Result<()> {
        Self::encode(entries)
            .and_then(|text| write_atomic(&self.dir, &self.file, text.as_bytes()))
            .map(|_| ())
            .map_err(|e| self.named("rewriting journal", e))
    }

    /// The journal bytes for `entries`: one compact JSON line each, every
    /// line newline-terminated. The only JSONL writer — [`Journal::append`]
    /// and [`Journal::rewrite`] go through it, and so does any caller that
    /// composes a journal file in memory.
    pub fn encode(entries: &[E]) -> io::Result<String> {
        let mut text = String::new();
        for entry in entries {
            let line = serde_json::to_string(entry)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            text.push_str(&line);
            text.push('\n');
        }
        Ok(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;
    use std::fs;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    /// Journal file name the generic cases use for every entry type.
    const FILE: &str = "entries.jsonl";

    fn temp_dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "epc-journal-manifest-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn entry(seq: usize, stage: &str) -> StageEntry {
        StageEntry {
            seq,
            stage: stage.to_owned(),
            config_fingerprint: "cfg".into(),
            input_hash: "in".into(),
            degraded: false,
            reasons: Vec::new(),
            records_in: 10,
            records_out: 9,
            quarantined: 1,
            faults: BTreeMap::from([("non_finite".to_owned(), 1usize)]),
            checkpoints: vec![ArtifactRecord {
                file: format!("{stage}.json"),
                sha256: "00".into(),
                bytes: 2,
            }],
        }
    }

    fn stage_entries() -> Vec<StageEntry> {
        vec![
            entry(0, "preprocess"),
            entry(1, "analytics"),
            entry(2, "dashboard"),
        ]
    }

    /// A second entry type, so the generic path is exercised with a shape
    /// other than [`StageEntry`] (the fleet and ingest journals use their
    /// own entry types).
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Event {
        city: String,
        kind: String,
        attempt: u32,
    }

    fn events() -> Vec<Event> {
        [
            ("a", "scheduled", 0),
            ("a", "started", 1),
            ("b", "retried", 1),
        ]
        .iter()
        .map(|&(city, kind, attempt)| Event {
            city: city.to_owned(),
            kind: kind.to_owned(),
            attempt,
        })
        .collect()
    }

    /// Appends every entry to a fresh journal in a fresh directory.
    fn journal_with<E: Serialize + Deserialize>(entries: &[E]) -> (PathBuf, Journal<E>) {
        let dir = temp_dir();
        let j = Journal::open(&dir, FILE);
        for e in entries {
            j.append(e).unwrap();
        }
        (dir, j)
    }

    #[test]
    fn append_then_load_round_trips() {
        let dir = temp_dir();
        let j = Journal::at(&dir);
        assert_eq!(j.path(), dir.join(MANIFEST_FILE));
        let loaded = j.load().unwrap();
        assert!(loaded.entries.is_empty(), "missing file = empty journal");
        assert!(!loaded.recovered_torn_tail);
        j.append(&entry(0, "preprocess")).unwrap();
        j.append(&entry(1, "analytics")).unwrap();
        let loaded = j.load().unwrap();
        assert_eq!(loaded.entries.len(), 2);
        assert_eq!(loaded.entries[0], entry(0, "preprocess"));
        assert_eq!(loaded.entries[1], entry(1, "analytics"));
        assert!(!loaded.recovered_torn_tail, "clean journal reports no tear");
        fs::remove_dir_all(&dir).unwrap();
    }

    fn torn_tail_case<E: Serialize + Deserialize + PartialEq + Debug>(entries: &[E]) {
        let (dir, j) = journal_with(&entries[..2]);
        // Simulate a crash mid-append: chop the last line in half.
        let text = fs::read_to_string(j.path()).unwrap();
        let last_start = text[..text.len() - 1].rfind('\n').unwrap() + 1;
        let cut = last_start + (text.len() - last_start) / 2;
        fs::write(j.path(), &text[..cut]).unwrap();
        let loaded = j.load().unwrap();
        assert_eq!(loaded.entries, entries[..1]);
        assert!(
            loaded.recovered_torn_tail,
            "discarding a torn tail must be surfaced, not silent"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded_and_reported() {
        torn_tail_case(&stage_entries());
        torn_tail_case(&events());
    }

    fn interior_garbage_case<E: Serialize + Deserialize + PartialEq + Debug>(entries: &[E]) {
        let (dir, j) = journal_with(&entries[..1]);
        let mut text = fs::read_to_string(j.path()).unwrap();
        text.push_str("{not json}\n");
        fs::write(j.path(), &text).unwrap();
        j.append(&entries[2]).unwrap();
        // The entry after the garbage line is unreachable.
        let loaded = j.load().unwrap();
        assert_eq!(loaded.entries, entries[..1]);
        assert!(loaded.recovered_torn_tail, "interior garbage is a tear too");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_interior_line_truncates_from_there() {
        interior_garbage_case(&stage_entries());
        interior_garbage_case(&events());
    }

    #[test]
    fn rewrite_truncates_to_prefix() {
        let (dir, j) = journal_with(&stage_entries());
        let all = j.load().unwrap().entries;
        j.rewrite(&all[..1]).unwrap();
        let loaded = j.load().unwrap();
        assert_eq!(loaded.entries.len(), 1);
        assert_eq!(loaded.entries[0].stage, "preprocess");
        assert!(!loaded.recovered_torn_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A crash *during* `rewrite` must never lose committed entries.
    /// `rewrite` goes through `write_atomic` (tmp + fsync + rename),
    /// so every intermediate state a kill can leave behind is either the
    /// old journal or the new one. This case walks the protocol's crash
    /// windows explicitly.
    fn rewrite_crash_window_case<E: Serialize + Deserialize + PartialEq + Debug + Clone>(
        entries: &[E],
    ) {
        let (dir, j) = journal_with(entries);
        let committed = j.load().unwrap().entries;
        assert_eq!(committed, entries);

        // Crash window 1: the replacement text was written to the tmp
        // file (possibly torn), but the rename never happened. The live
        // journal must still hold every committed entry.
        let tmp = dir.join(format!("{FILE}.tmp"));
        fs::write(&tmp, b"{\"seq\":0,\"stage\":\"prep").unwrap();
        let loaded = j.load().unwrap();
        assert_eq!(
            loaded.entries, committed,
            "tmp file must not shadow the journal"
        );
        assert!(!loaded.recovered_torn_tail);

        // Crash window 2: the kill landed after the rename. The journal
        // is exactly the rewritten prefix — complete lines, no tear.
        j.rewrite(&committed[..2]).unwrap();
        let loaded = j.load().unwrap();
        assert_eq!(loaded.entries, committed[..2]);
        assert!(!loaded.recovered_torn_tail);

        // A stale tmp from window 1 must not break later appends either.
        fs::write(&tmp, b"stale garbage").unwrap();
        j.append(&committed[2]).unwrap();
        assert_eq!(j.load().unwrap().entries, committed);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_interrupted_midway_never_loses_committed_entries() {
        rewrite_crash_window_case(&stage_entries());
        rewrite_crash_window_case(&events());
    }

    /// Re-running an interrupted rewrite (the resume path re-validates
    /// and rewrites again) converges to the same bytes as a rewrite that
    /// was never interrupted.
    fn rewrite_after_interruption_case<E: Serialize + Deserialize>(entries: &[E]) {
        let (dir_clean, j_clean) = journal_with(&entries[..2]);
        let (dir_crashed, j_crashed) = journal_with(&entries[..2]);
        // Interrupted attempt: tmp written, rename lost.
        fs::write(dir_crashed.join(format!("{FILE}.tmp")), b"half a li").unwrap();
        // Both sides now perform the rewrite to the same prefix.
        for j in [&j_clean, &j_crashed] {
            let prefix = j.load().unwrap().entries;
            j.rewrite(&prefix[..1]).unwrap();
        }
        let a = fs::read(j_clean.path()).unwrap();
        let b = fs::read(j_crashed.path()).unwrap();
        assert_eq!(a, b);
        fs::remove_dir_all(&dir_clean).unwrap();
        fs::remove_dir_all(&dir_crashed).unwrap();
    }

    #[test]
    fn rewrite_after_interrupted_rewrite_is_byte_identical() {
        rewrite_after_interruption_case(&stage_entries());
        rewrite_after_interruption_case(&events());
    }

    /// Appending entries one by one and encoding them in memory produce
    /// the same bytes — in every directory.
    fn byte_determinism_case<E: Serialize + Deserialize>(entries: &[E]) {
        let (dir_a, j_a) = journal_with(entries);
        let (dir_b, j_b) = journal_with(entries);
        let a = fs::read(j_a.path()).unwrap();
        let b = fs::read(j_b.path()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, Journal::encode(entries).unwrap().into_bytes());
        fs::remove_dir_all(&dir_a).unwrap();
        fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn journal_bytes_are_deterministic() {
        byte_determinism_case(&stage_entries());
        byte_determinism_case(&events());
    }

    #[test]
    fn load_error_names_journal_path() {
        let dir = temp_dir();
        // Make the journal path unreadable by making it a directory.
        fs::create_dir_all(dir.join(FILE)).unwrap();
        let err = Journal::<Event>::open(&dir, FILE).load().unwrap_err();
        assert!(
            err.to_string()
                .contains(&dir.join(FILE).display().to_string()),
            "error should name the journal path: {err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
