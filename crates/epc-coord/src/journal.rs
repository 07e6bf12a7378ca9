//! The fleet journal's entry type (`fleet.manifest.jsonl`).
//!
//! The fleet journal is an [`epc_journal::Journal<FleetEvent>`]: one JSON
//! line per shard lifecycle event, in the same append-fsync discipline and
//! with the same torn-tail policy as the per-run `run.manifest.jsonl`. The
//! `committed` line is a city's commit point, written only after its
//! checkpoints are durably on disk. Events carry no timestamps or host
//! state, so the journal of a resumed fleet is byte-identical to the
//! journal of an uninterrupted one once canonicalized.
//!
//! Per-city event grammar:
//!
//! ```text
//! scheduled → started(1) → [retried(a) → started(a+1)]* → committed | abandoned
//! ```

use epc_journal::ArtifactRecord;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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
