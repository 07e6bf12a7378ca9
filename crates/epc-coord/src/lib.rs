//! # epc-coord
//!
//! The fleet coordinator: runs N per-city pipeline shards under
//! supervision, so one bad city degrades the fleet run instead of killing
//! it. The ROADMAP north-star is every region's registry at once; at that
//! scale shard failure is the common case, and the coordinator is the
//! layer that turns it into provenance instead of an abort.
//!
//! Three guarantees, mirroring the single-city pipeline's:
//!
//! * **Isolation** — each shard attempt runs behind `catch_unwind`; a
//!   panicking shard becomes a failed attempt, never a crashed fleet.
//! * **Bounded deterministic retry** — failed shards are retried up to a
//!   budget ([`RetryPolicy`]); the backoff schedule is a pure function of
//!   `(seed, city_id, attempt)` ([`Backoff::delay_ms`]), so chaos runs
//!   replay bit-for-bit at any thread count or shard order. Delays are
//!   *journaled, not slept*: in-process shards are deterministic, so
//!   waiting changes nothing — a multi-process transport would honour the
//!   recorded schedule.
//! * **Crash-safe partial results** — shard lifecycle events
//!   (`scheduled`/`started`/`retried`/`committed`/`abandoned`) are
//!   journaled through the same [`epc_journal::Journal`] as every other
//!   durable surface; a committed city's artifacts are hash-verified on
//!   resume and only abandoned/unfinished cities replay. Shards that
//!   exhaust the budget degrade the [`FleetOutcome`] to a partial result
//!   with per-city provenance instead of failing the run.
//!
//! The crate is engine-agnostic: the caller supplies a [`ShardRunner`]
//! that executes one deterministic attempt of one city. The `indice`
//! crate provides the EPC-pipeline runner and the cross-city dashboard.

mod backoff;
mod coordinator;
mod journal;

pub use backoff::{Backoff, RetryPolicy};
pub use coordinator::{
    run_fleet, CoordCrash, CoordError, FleetOptions, FleetOutcome, FleetResult, ShardAttempt,
    ShardReport, ShardRunner, ShardStatus,
};
pub use journal::{FleetEvent, FLEET_MANIFEST_FILE};
