//! Outside-in benchmark for INDICE.
//!
//! Three workloads drive the library paths behind `indice run`
//! ([`batch`]), `indice ingest --resume` ([`ingest`]) and the dashboard
//! drill-down ([`explore`]); `BENCHMARK.json` gates the first two, and
//! explore-25k runs on request only. A timed run (`--trace 0`) measures the
//! end-to-end metrics with tracing off; a traced run (`--trace 1`) records
//! spans around the library calls and reports per-layer metrics. Every run
//! checks its outputs and counts failed operations against attempted ones.

pub mod batch;
pub mod explore;
pub mod ingest;
pub mod inputs;
pub mod pipeline;
pub mod report;
pub mod trace;
pub mod util;

use pipeline::Counts;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The workloads `BENCHMARK.json` lists, in its order.
pub const WORKLOADS: [&str; 2] = ["batch-50k", "ingest-trickle"];

/// Workloads that run on request but are not in `BENCHMARK.json`: a run
/// of explore-25k spends a third of its time in set-up, and three
/// workloads leave each run too short a window to be steady within the
/// benchmark's total time.
pub const UNLISTED: [&str; 1] = ["explore-25k"];

/// How many times a timed run of batch-50k or explore-25k repeats its
/// set-up; `setup_s` is the median. ingest-trickle sets its own count.
pub const SETUPS: usize = 3;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs are generated from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Thread budget (defaults to the available parallelism).
    pub threads: usize,
    /// Run the smoke-sized configuration.
    pub smoke: bool,
    /// Replaces the pinned digest for this seed (for testing the check).
    pub pin_digest: Option<String>,
    /// Scratch directory for inputs and run directories.
    pub work_dir: PathBuf,
}

/// A reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (runs, arrivals, requests, output checks).
    pub attempted: u64,
    /// Operations that failed or whose output check mismatched.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// End-to-end metrics (timed run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Lines printed before the result (workload-specific names, sample
    /// counts, digests, span totals).
    pub notes: Vec<String>,
    /// Deterministic work counters.
    pub counts: Counts,
    /// The traced run's spans, one JSON object per line.
    pub spans: String,
}

impl Outcome {
    /// Records one operation and whether it passed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all its digits. A non-finite value (a median of no
/// samples, when every operation failed) prints as 0; the failures are
/// already counted.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".to_owned()
    }
}

/// Pinned digests: workload (with `-smoke` for the smoke configuration) →
/// seed → digest of the workload's checked output.
pub fn pinned_digest(workload: &str, smoke: bool, seed: u64) -> Option<String> {
    let table: BTreeMap<String, BTreeMap<String, String>> =
        serde_json::from_str(include_str!("../pinned.json")).ok()?;
    let key = if smoke {
        format!("{workload}-smoke")
    } else {
        workload.to_owned()
    };
    table.get(&key)?.get(&seed.to_string()).cloned()
}

/// Reports `digest` and compares it against the pin for this run (the
/// `--pin-digest` override first), recording the check when a pin exists.
pub fn check_pinned(args: &Args, out: &mut Outcome, what: &str, digest: &str) {
    out.notes.push(format!("digest {what} {digest}"));
    let pinned = args
        .pin_digest
        .clone()
        .or_else(|| pinned_digest(&args.workload, args.smoke, args.seed));
    match pinned {
        Some(pin) => out.check(pin == digest, || {
            format!(
                "{what} digest {digest} != pinned {pin} for seed {}",
                args.seed
            )
        }),
        None => out
            .notes
            .push(format!("no pinned {what} digest for seed {}", args.seed)),
    }
}

/// Starts the window `peak_rss_mb` covers: the timed operations, without
/// the set-ups before them. Notes when the kernel refuses the reset, since
/// the peak then covers the set-ups too.
pub fn start_peak_window(out: &mut Outcome) {
    if !util::reset_peak_rss() {
        out.notes.push(
            "peak_rss_mb covers the set-ups too: /proc/self/clear_refs refused the reset"
                .to_owned(),
        );
    }
}

/// Adds the ratios derived from raw counters and reports every counter.
pub fn finish_counts(out: &mut Outcome) {
    let c = &out.counts;
    let ratio = |num: &str, den: &str| {
        let d = c.get(den).copied().unwrap_or(0.0);
        if d > 0.0 {
            c.get(num).copied().unwrap_or(0.0) / d
        } else {
            0.0
        }
    };
    let exact = ratio("epc-geo.exact_matches", "epc-geo.addresses");
    let frequent = ratio(
        "epc-mining.apriori_frequent",
        "epc-mining.apriori_candidates",
    );
    let carried = ratio("epc-ingest.artifacts_carried", "epc-ingest.artifacts_total");
    out.counts.insert("epc-geo.exact_match_ratio", exact);
    out.counts
        .insert("epc-mining.apriori_frequent_ratio", frequent);
    out.counts.insert("epc-ingest.carried_ratio", carried);
    let line: Vec<String> = out.counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
    out.notes.push(format!("counts {}", line.join(" ")));
}

/// Merges the traced run's counters into the untraced ones: counters only
/// the traced run sees (DBSCAN, Apriori, markers) are added, the others
/// must agree.
pub fn merge_traced_counts(out: &mut Outcome, traced: Counts) {
    for (k, v) in traced {
        match out.counts.get(k).copied() {
            None => {
                out.counts.insert(k, v);
            }
            Some(u) => out.check(u == v, || {
                format!("counter {k} = {v} in the traced run, {u} untraced")
            }),
        }
    }
}

/// Runs one workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    util::clear_dir(&args.work_dir).map_err(|e| format!("clearing work dir: {e}"))?;
    std::fs::create_dir_all(&args.work_dir).map_err(|e| format!("creating work dir: {e}"))?;
    let out = match args.workload.as_str() {
        "batch-50k" => batch::run(args),
        "ingest-trickle" => ingest::run(args),
        "explore-25k" => explore::run(args),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {}, {}",
            WORKLOADS.join(", "),
            UNLISTED.join(", ")
        )),
    };
    util::clear_dir(&args.work_dir).map_err(|e| format!("clearing work dir: {e}"))?;
    out
}
