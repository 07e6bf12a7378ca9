//! Fleet coordinator chaos suite (PR 7).
//!
//! The contract under test: a multi-city fleet run is a set of
//! *supervised, isolated* shards. Faults aimed at one city — a stage
//! kill, record corruption, even exhausting the city's whole retry
//! budget — must leave every other city's on-disk output **byte-
//! identical** to a fault-free run, at any thread count. A coordinator
//! that crashes between shard commits must resume from the fleet
//! journal, replay only the unfinished cities, and finish with a fleet
//! directory byte-identical to an uninterrupted run's.
// Test/demo code: panicking on malformed setup is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use epc_coord::{CoordCrash, FleetOutcome, RetryPolicy, ShardStatus, FLEET_MANIFEST_FILE};
use epc_faults::{CityFaultSpec, FleetFaults, StageKillSpec};
use epc_runtime::{ManualClock, RuntimeConfig};
use epc_synth::FleetConfig;
use indice::fleet::{run_fleet, FleetRunOptions, FleetRunOutput, CITIES_DIR};
use indice::IndiceError;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const THREAD_MATRIX: [usize; 3] = [1, 2, 8];

static NEXT_DIR: AtomicUsize = AtomicUsize::new(0);

/// A fresh, unique fleet directory under the system temp dir.
fn fleet_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "indice-fleet-{}-{}-{}",
        std::process::id(),
        tag,
        NEXT_DIR.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A small 3-city plan (sizes stay test-friendly on one core).
fn plan() -> FleetConfig {
    FleetConfig {
        n_cities: 3,
        records_per_city: 300,
        seed: 41,
    }
}

fn city_id(index: usize) -> String {
    plan().city(index).id
}

/// Every file under `dir`, relative path → content bytes.
fn tree(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in fs::read_dir(dir).expect("read_dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .expect("under root")
                    .to_string_lossy()
                    .replace('\\', "/");
                out.insert(rel, fs::read(&path).expect("read file"));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

/// Runs a fleet with the given knobs, returning the output.
fn run_with(
    dir: &Path,
    threads: usize,
    resume: bool,
    faults: Option<&FleetFaults>,
    crash: Option<CoordCrash>,
    max_attempts: u32,
) -> Result<FleetRunOutput, IndiceError> {
    let clock = ManualClock::advancing(1_000);
    let mut opts = FleetRunOptions::new(dir, plan(), &clock);
    opts.resume = resume;
    opts.policy = RetryPolicy {
        max_attempts,
        ..RetryPolicy::default()
    };
    opts.faults = faults;
    opts.crash = crash;
    opts.runtime = RuntimeConfig::new(threads);
    run_fleet(&opts)
}

/// A fault-free baseline fleet at the given thread count.
fn baseline(tag: &str, threads: usize) -> (PathBuf, FleetRunOutput) {
    let dir = fleet_dir(tag);
    let out = run_with(&dir, threads, false, None, None, 2).expect("baseline fleet");
    assert!(matches!(out.result.outcome, FleetOutcome::Complete));
    (dir, out)
}

#[test]
fn clean_fleet_is_thread_invariant() {
    let (dir1, out) = baseline("clean-t1", 1);
    assert_eq!(out.result.shards.len(), 3);
    for shard in &out.result.shards {
        assert!(matches!(shard.status, ShardStatus::Committed));
        assert_eq!(shard.attempts, 1);
    }
    assert_eq!(out.metrics.counters.get("fleet_cities_committed"), Some(&3));
    let reference = tree(&dir1);
    for threads in [2, 8] {
        let (dir_n, _) = baseline(&format!("clean-t{threads}"), threads);
        assert_eq!(
            tree(&dir_n),
            reference,
            "fleet tree must be bitwise thread-invariant at {threads} threads"
        );
    }
}

#[test]
fn city_kill_on_attempt_one_recovers_within_budget() {
    let victim = city_id(1);
    let faults = FleetFaults::new(9).with_city(
        &victim,
        CityFaultSpec {
            kill: Some(StageKillSpec {
                stage: "preprocess".to_owned(),
                attempt: Some(1),
            }),
            ..CityFaultSpec::default()
        },
    );
    let dir = fleet_dir("kill-recover");
    let out = run_with(&dir, 2, false, Some(&faults), None, 2).expect("fleet");
    assert!(matches!(out.result.outcome, FleetOutcome::Complete));
    for shard in &out.result.shards {
        let expected = if shard.city == victim { 2 } else { 1 };
        assert_eq!(shard.attempts, expected, "{}", shard.city);
        assert!(matches!(shard.status, ShardStatus::Committed));
    }
    // The recovered attempt ran fresh, so even the victim's output is
    // byte-identical to a fault-free run's.
    let (base_dir, _) = baseline("kill-recover-base", 2);
    assert_eq!(
        tree(&dir.join(CITIES_DIR)),
        tree(&base_dir.join(CITIES_DIR)),
        "a recovered shard leaves no trace of its failed attempt"
    );
}

#[test]
fn city_kill_every_attempt_degrades_and_isolates() {
    let victim = city_id(1);
    let faults = FleetFaults::new(9).with_city(
        &victim,
        CityFaultSpec {
            kill: Some(StageKillSpec {
                stage: "preprocess".to_owned(),
                attempt: None,
            }),
            ..CityFaultSpec::default()
        },
    );
    let mut reference: Option<BTreeMap<String, Vec<u8>>> = None;
    for threads in THREAD_MATRIX {
        let dir = fleet_dir(&format!("kill-degrade-t{threads}"));
        let out = run_with(&dir, threads, false, Some(&faults), None, 2).expect("fleet");
        match &out.result.outcome {
            FleetOutcome::Degraded { failed_cities, .. } => {
                assert_eq!(failed_cities, std::slice::from_ref(&victim));
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        assert_eq!(out.result.outcome.exit_code(), 3);
        assert_eq!(out.metrics.counters.get("fleet_cities_abandoned"), Some(&1));
        assert_eq!(out.metrics.counters.get("fleet_retries_total"), Some(&1));
        let victim_shard = out.result.shards.iter().find(|s| s.city == victim).unwrap();
        assert_eq!(victim_shard.attempts, 2, "budget exhausted");
        assert!(matches!(victim_shard.status, ShardStatus::Abandoned { .. }));
        // The dashboard carries an explicit unavailable panel.
        let html = fs::read_to_string(dir.join("fleet_dashboard.html")).unwrap();
        assert!(html.contains("city unavailable"), "{html}");

        // Isolation proof: every surviving city is byte-identical to the
        // fault-free baseline at the same thread count.
        let (base_dir, _) = baseline(&format!("kill-degrade-base-t{threads}"), threads);
        for index in [0usize, 2] {
            let id = city_id(index);
            assert_eq!(
                tree(&dir.join(CITIES_DIR).join(&id)),
                tree(&base_dir.join(CITIES_DIR).join(&id)),
                "city {id} must be untouched by city {victim}'s faults"
            );
        }
        // And the faulted fleet itself is thread-invariant.
        let full = tree(&dir);
        match &reference {
            None => reference = Some(full),
            Some(reference) => assert_eq!(&full, reference, "threads = {threads}"),
        }
    }
}

#[test]
fn city_corruption_is_isolated_to_its_city() {
    let victim = city_id(2);
    let faults = FleetFaults::new(5).with_city(
        &victim,
        CityFaultSpec {
            record_rate: 0.3,
            ..CityFaultSpec::default()
        },
    );
    for threads in THREAD_MATRIX {
        let dir = fleet_dir(&format!("corrupt-t{threads}"));
        let out = run_with(&dir, threads, false, Some(&faults), None, 2).expect("fleet");
        // Corruption is quarantined, not fatal: the shard still commits.
        assert!(matches!(out.result.outcome, FleetOutcome::Complete));
        let (base_dir, _) = baseline(&format!("corrupt-base-t{threads}"), threads);
        for index in [0usize, 1] {
            let id = city_id(index);
            assert_eq!(
                tree(&dir.join(CITIES_DIR).join(&id)),
                tree(&base_dir.join(CITIES_DIR).join(&id)),
                "city {id} must be untouched by city {victim}'s corruption"
            );
        }
        assert_ne!(
            tree(&dir.join(CITIES_DIR).join(&victim)),
            tree(&base_dir.join(CITIES_DIR).join(&victim)),
            "the corrupted city's outputs must actually differ"
        );
        let victim_shard = out.result.shards.iter().find(|s| s.city == victim).unwrap();
        assert_ne!(
            victim_shard.summary.get("quarantined").map(String::as_str),
            Some("0"),
            "corruption must show up in the victim's quarantine"
        );
    }
}

/// Runs the crash → resume loop for one crash point and asserts the
/// resumed fleet is byte-identical to an uninterrupted one, with the
/// journal-verified hit/replay split.
fn assert_crash_resume(tag: &str, crash: CoordCrash, expect_hits: &[usize], threads: usize) {
    let (base_dir, _) = baseline(&format!("{tag}-base"), threads);
    let dir = fleet_dir(tag);
    let err = run_with(&dir, threads, false, None, Some(crash), 2)
        .expect_err("injected coordinator crash must surface as an error");
    match err {
        IndiceError::CrashInjected { ref stage, .. } => assert_eq!(stage, "fleet"),
        other => panic!("expected CrashInjected, got {other:?}"),
    }

    let out = run_with(&dir, threads, true, None, None, 2).expect("resume");
    assert!(matches!(out.result.outcome, FleetOutcome::Complete));
    assert!(
        !out.recovered_torn_tail,
        "a clean crash leaves no torn tail"
    );
    let hits: Vec<String> = expect_hits.iter().map(|&i| city_id(i)).collect();
    assert_eq!(out.result.journal_hits, hits, "journal-verified hit set");
    let replayed: Vec<String> = (0..3)
        .map(city_id)
        .filter(|id| !hits.contains(id))
        .collect();
    assert_eq!(out.result.replayed, replayed, "replay set");
    for shard in &out.result.shards {
        assert_eq!(
            shard.from_journal,
            hits.contains(&shard.city),
            "{}",
            shard.city
        );
    }
    assert_eq!(
        tree(&dir),
        tree(&base_dir),
        "resumed fleet must be byte-identical to an uninterrupted one"
    );
}

#[test]
fn coordinator_crash_between_shard_commits_resumes_byte_identically() {
    for threads in THREAD_MATRIX {
        assert_crash_resume(
            &format!("crash-after0-t{threads}"),
            CoordCrash::AfterCommit(0),
            &[0],
            threads,
        );
    }
}

#[test]
fn coordinator_crash_before_last_city_resumes_byte_identically() {
    assert_crash_resume("crash-before2", CoordCrash::BeforeCity(2), &[0, 1], 2);
}

#[test]
fn torn_fleet_journal_is_reported_and_resumes_byte_identically() {
    let (base_dir, _) = baseline("torn-base", 2);
    let dir = fleet_dir("torn");
    run_with(&dir, 2, false, None, Some(CoordCrash::AfterCommit(1)), 2)
        .expect_err("injected coordinator crash must surface as an error");
    // Cut the journal's last line (city 1's commit) mid-line: the state a
    // kill during the append leaves behind.
    let journal = dir.join(FLEET_MANIFEST_FILE);
    let text = fs::read_to_string(&journal).unwrap();
    let last_start = text[..text.len() - 1].rfind('\n').unwrap() + 1;
    fs::write(
        &journal,
        &text[..last_start + (text.len() - last_start) / 2],
    )
    .unwrap();

    let out = run_with(&dir, 2, true, None, None, 2).expect("resume");
    assert!(out.recovered_torn_tail, "the torn tail must be reported");
    assert!(out.result.recovered_torn_tail);
    assert!(matches!(out.result.outcome, FleetOutcome::Complete));
    assert_eq!(out.result.journal_hits, vec![city_id(0)]);
    assert_eq!(out.result.replayed, vec![city_id(1), city_id(2)]);
    assert_eq!(
        tree(&dir),
        tree(&base_dir),
        "a fleet resumed over a torn journal must be byte-identical to an uninterrupted one"
    );
}

#[test]
fn abandoned_city_replays_with_a_fresh_budget_on_resume() {
    let victim = city_id(0);
    // Kill `preprocess` — the one stage the shard cannot degrade around —
    // so the city exhausts its budget and is abandoned. (An `analytics`
    // kill would merely degrade the shard, which still commits.)
    let faults = FleetFaults::new(9).with_city(
        &victim,
        CityFaultSpec {
            kill: Some(StageKillSpec {
                stage: "preprocess".to_owned(),
                attempt: None,
            }),
            ..CityFaultSpec::default()
        },
    );
    let dir = fleet_dir("abandon-resume");
    let out = run_with(&dir, 2, false, Some(&faults), None, 2).expect("fleet");
    assert!(matches!(out.result.outcome, FleetOutcome::Degraded { .. }));

    // Resume without the fault plan: the journal fingerprint changes, so
    // *every* city replays (committed shards included) rather than
    // trusting results produced under a different fault plan.
    let out = run_with(&dir, 2, true, None, None, 2).expect("resume");
    assert!(matches!(out.result.outcome, FleetOutcome::Complete));
    assert!(out.result.journal_hits.is_empty());
    assert_eq!(out.result.replayed.len(), 3);

    // Resume *with* the same fault plan: committed shards are journal
    // hits; only the abandoned city replays (and fails again).
    let dir2 = fleet_dir("abandon-resume-same");
    let out = run_with(&dir2, 2, false, Some(&faults), None, 2).expect("fleet");
    assert!(matches!(out.result.outcome, FleetOutcome::Degraded { .. }));
    let out = run_with(&dir2, 2, true, Some(&faults), None, 2).expect("resume");
    assert!(matches!(out.result.outcome, FleetOutcome::Degraded { .. }));
    assert_eq!(out.result.journal_hits, vec![city_id(1), city_id(2)]);
    assert_eq!(out.result.replayed, vec![victim.clone()]);
    let victim_shard = out.result.shards.iter().find(|s| s.city == victim).unwrap();
    assert_eq!(
        victim_shard.attempts, 2,
        "replayed city gets a fresh budget"
    );
}

#[test]
fn merged_metrics_conserve_per_city_counters() {
    let (dir, out) = baseline("metrics-merge", 2);
    // The merged snapshot equals the sum of the per-city snapshots for
    // every counter (the conservation property of the metrics merge).
    let mut summed: BTreeMap<String, u64> = BTreeMap::new();
    for index in 0..3 {
        let text = fs::read_to_string(
            dir.join(CITIES_DIR)
                .join(city_id(index))
                .join("metrics.json"),
        )
        .unwrap();
        #[derive(serde::Deserialize)]
        struct CountersOnly {
            counters: BTreeMap<String, u64>,
        }
        let snapshot: CountersOnly = serde_json::from_str(&text).unwrap();
        for (name, v) in snapshot.counters {
            *summed.entry(name).or_default() += v;
        }
    }
    for (name, expected) in &summed {
        assert_eq!(
            out.metrics.counters.get(name),
            Some(expected),
            "counter {name} must be conserved across the merge"
        );
    }
    // Fleet-level counters ride on top.
    assert_eq!(out.metrics.counters.get("fleet_cities_total"), Some(&3));
    assert_eq!(out.metrics.counters.get("fleet_retries_total"), Some(&0));
}
