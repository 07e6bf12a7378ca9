//! # epc-journal
//!
//! Run durability for the INDICE pipeline, in the WAL/crash-recovery
//! spirit: a killed process must lose at most the stage it was inside,
//! never the whole run, and a restarted run must produce artifacts
//! byte-identical to an uninterrupted one.
//!
//! Three building blocks:
//!
//! * **Atomic artifact writes** — [`write_atomic`] writes to `<name>.tmp`,
//!   fsyncs, renames over the final path, and fsyncs the directory. A
//!   crash mid-write leaves either the old content or the new content on
//!   disk, never a torn mix. Every write returns an [`ArtifactRecord`]
//!   carrying the content's SHA-256, so readers can *detect* corruption
//!   that slipped past the rename protocol (disk faults, manual edits,
//!   injected torn writes).
//! * **The journal** — [`Journal<E>`] is an append-only JSONL file of
//!   entries of type `E`, one line per commit. One format, one torn-tail
//!   policy and one writer serve every durable surface: the run journal
//!   `run.manifest.jsonl` records one [`StageEntry`] per committed
//!   pipeline stage (config fingerprint, input hash, and the checkpoint
//!   files with hashes that capture the stage's product), the fleet
//!   journal records shard lifecycle events, and the ingest manifest
//!   records sealed generations. A resuming run replays the journal,
//!   skips every entry that validates, and re-executes from the first
//!   invalid entry onward.
//! * **Crash points** — [`Crash<K>`] names where a commit dies in
//!   durability tests: before it, after its journal line, or torn (first
//!   checkpoint truncated under a journal line that promises the full
//!   bytes). The key `K` is a stage name for a durable run, a batch index
//!   for an ingest run and a city index for the fleet coordinator; one
//!   parser serves the `--crash-at`, `--crash-at-batch` and
//!   `--crash-at-city` flags.
//!
//! Entries deliberately contain no timestamps or host state: the journal
//! of a resumed run is byte-identical to the journal of an uninterrupted
//! run, so the chaos gate can hash the whole run directory.

mod atomic;
mod crash;
mod journal;
mod sha256;

pub use atomic::{sync_dir, write_atomic, write_atomic_path, ArtifactRecord};
pub use crash::{Crash, CrashGrammar, CrashPoint, BATCH_CRASH, CITY_CRASH, STAGE_CRASH};
pub use journal::{Journal, LoadedJournal, StageEntry, MANIFEST_FILE};
pub use sha256::hash_hex;
