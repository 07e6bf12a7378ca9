//! Smoke-sized runs of every workload through the benchmark binary.
//!
//! They check that each run prints every metric `BENCHMARK.json` names,
//! with its unit, that the traced run emits every per-layer name, that a
//! tampered pinned digest counts as a failed operation, and that work
//! counters and digests do not depend on the thread budget.

use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Every workload, including those `BENCHMARK.json` does not list.
const WORKLOADS: [&str; 3] = ["batch-50k", "ingest-trickle", "explore-25k"];

/// Per-layer names the traced run prints for every workload, including
/// the times some workloads never exercise.
const NAMED: [&str; 36] = [
    "epc-model.csv_load_s",
    "epc-model.csv_bytes",
    "epc-geo.clean_s",
    "epc-geo.geocoder_requests",
    "epc-geo.exact_match_ratio",
    "epc-stats.univariate_s",
    "epc-mining.kdistance_s",
    "epc-mining.dbscan_s",
    "epc-mining.dbscan_neighbour_links",
    "epc-mining.dbscan_region_queries",
    "epc-mining.elbow_s",
    "epc-mining.kmeans_s",
    "epc-mining.kmeans_iterations",
    "epc-mining.apriori_s",
    "epc-mining.apriori_candidates",
    "epc-mining.apriori_frequent_ratio",
    "epc-query.filter_s",
    "epc-query.group_by_s",
    "epc-query.rows_scanned",
    "epc-viz.dashboard_build_s",
    "epc-viz.render_html_s",
    "epc-viz.markers",
    "epc-viz.html_bytes",
    "indice.preprocess_s",
    "indice.analytics_s",
    "indice.dashboard_s",
    "indice.checkpoint_encode_s",
    "indice.checkpoint_decode_s",
    "indice.checkpoint_bytes",
    "epc-journal.write_s",
    "epc-journal.files_written",
    "epc-journal.bytes_written",
    "epc-ingest.ingest_call_s",
    "epc-ingest.unattributed_s",
    "epc-ingest.carried_ratio",
    "bench.tracing_overhead_s",
];

struct Run {
    stdout: String,
    result: Value,
}

static NEXT: AtomicUsize = AtomicUsize::new(0);

fn run(workload: &str, trace: bool, extra: &[&str]) -> Run {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{workload}-{}",
        NEXT.fetch_add(1, Ordering::SeqCst)
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--work-dir")
        .arg(&work)
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}",
        out.status
    );
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("result line is JSON");
    Run { stdout, result }
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let bench: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    bench
        .get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_metrics(r: &Run, list: &[(String, String)], context: &str) {
    let metrics = r
        .result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    assert_eq!(metrics.len(), list.len(), "{context}: metric count");
    for (name, unit) in list {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{context}: {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{context}: {name}"
        );
        assert!(
            m.get("value").and_then(Value::as_f64).is_some(),
            "{context}: {name} value"
        );
        assert!(
            r.stdout.contains(&format!("metric {name} "))
                && r.stdout.contains(&format!(" {unit}\n")),
            "{context}: {name} not printed with its unit"
        );
    }
}

fn passed(r: &Run) -> bool {
    r.result.get("correct").and_then(Value::as_bool) == Some(true)
        && r.result.get("failed").and_then(Value::as_u64) == Some(0)
        && r.result
            .get("attempted")
            .and_then(Value::as_u64)
            .is_some_and(|n| n > 0)
}

/// The counter and digest lines of a run, which must not depend on time.
fn deterministic_lines(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter(|l| l.starts_with("counts ") || l.starts_with("digest "))
        .collect()
}

#[test]
fn timed_runs_print_every_end_to_end_metric_and_pass_their_checks() {
    let aliases = [
        ("batch-50k", vec!["run_s"]),
        ("ingest-trickle", vec!["commit_p50_s", "commit_tail_s"]),
        ("explore-25k", vec!["request_p50_ms", "request_tail_ms"]),
    ];
    for (workload, names) in aliases {
        let r = run(workload, false, &[]);
        assert!(passed(&r), "{workload}:\n{}", r.stdout);
        assert_metrics(&r, &listed("end_to_end"), workload);
        for name in names {
            assert!(
                r.stdout.contains(&format!("{name} ")),
                "{workload}: {name} not printed"
            );
        }
    }
}

#[test]
fn traced_runs_emit_every_per_layer_name_and_pass_the_cross_checks() {
    for workload in WORKLOADS {
        let r = run(workload, true, &[]);
        assert!(passed(&r), "{workload}:\n{}", r.stdout);
        assert_metrics(&r, &listed("per_layer"), workload);
        for name in NAMED {
            assert!(
                r.stdout.contains(&format!("metric {name} ")),
                "{workload}: {name} not emitted"
            );
        }
        assert!(
            r.stdout.contains("accounting traced_e2e_s="),
            "{workload}: no accounting line"
        );
    }
}

#[test]
fn a_tampered_pinned_digest_is_a_failed_operation() {
    let bogus = "0".repeat(64);
    for workload in WORKLOADS {
        let r = run(workload, false, &["--pin-digest", &bogus]);
        assert_eq!(
            r.result.get("correct").and_then(Value::as_bool),
            Some(false),
            "{workload}"
        );
        assert!(
            r.result
                .get("failed")
                .and_then(Value::as_u64)
                .is_some_and(|n| n >= 1),
            "{workload}:\n{}",
            r.stdout
        );
    }
}

#[test]
fn counters_and_digests_do_not_depend_on_the_thread_budget() {
    let nproc = std::thread::available_parallelism()
        .map_or(2, |n| n.get().max(2))
        .to_string();
    for workload in WORKLOADS {
        let one = run(workload, true, &["--threads", "1"]);
        let many = run(workload, true, &["--threads", &nproc]);
        assert!(passed(&one) && passed(&many), "{workload}");
        let lines = deterministic_lines(&one.stdout);
        assert!(
            lines.iter().any(|l| l.starts_with("counts ")),
            "{workload}: no counters"
        );
        assert_eq!(lines, deterministic_lines(&many.stdout), "{workload}");
    }
}

#[test]
fn the_workload_record_matches_the_benchmark() {
    let read = |path: &str| -> Value {
        serde_json::from_str(&std::fs::read_to_string(path).expect("record file")).expect("JSON")
    };
    let bench = read(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
    let record = read(concat!(env!("CARGO_MANIFEST_DIR"), "/workloads.json"));
    let names = |v: &Value, key: &str| -> Vec<String> {
        v.get(key)
            .and_then(Value::as_array)
            .expect("workload list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect()
    };
    assert_eq!(names(&bench, "workloads"), perfbench::WORKLOADS);
    assert_eq!(names(&record, "workloads"), WORKLOADS);
    let workloads = record
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads");
    let listed: Vec<&str> = workloads
        .iter()
        .filter(|w| w.get("in_benchmark").and_then(Value::as_bool) == Some(true))
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    assert_eq!(listed, perfbench::WORKLOADS);
    for name in perfbench::UNLISTED {
        assert!(WORKLOADS.contains(&name) && !listed.contains(&name));
    }
    let tails = [
        (100.0, perfbench::batch::MIN_RUNS as f64),
        (
            perfbench::ingest::TAIL * 100.0,
            perfbench::ingest::MIN_ARRIVALS as f64,
        ),
        (
            perfbench::explore::TAIL * 100.0,
            perfbench::explore::checked(false) as f64,
        ),
    ];
    for (w, (percentile, min)) in workloads.iter().zip(tails) {
        let tail = w.get("tail").expect("tail record");
        assert_eq!(
            tail.get("percentile").and_then(Value::as_f64),
            Some(percentile)
        );
        assert_eq!(tail.get("min_samples").and_then(Value::as_f64), Some(min));
    }
}
