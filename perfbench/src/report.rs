//! Per-layer metrics of a traced run.
//!
//! A time metric `<module>.<call>_s` is the summed self time of the spans
//! named `<module>.<call>`, over every traced operation of the run: the
//! workload's operations, the traced set-up (explore) and the replays.
//! The three stage metrics `indice.preprocess_s`, `indice.analytics_s` and
//! `indice.dashboard_s` are the stage spans' total time instead, since
//! their children are the stage's own calls. Count metrics come from the
//! run's deterministic counters.

use crate::trace::{by_name, root_total, self_times, Tracer};
use crate::Outcome;

/// The per-layer metrics `BENCHMARK.json` lists: name, unit, and whether
/// the value is a span time (`true`) or a counter (`false`).
pub const PER_LAYER: [(&str, &str, bool); 32] = [
    ("epc-model.csv_load_s", "s", true),
    ("epc-geo.clean_s", "s", true),
    ("epc-stats.univariate_s", "s", true),
    ("epc-mining.kdistance_s", "s", true),
    ("epc-mining.dbscan_s", "s", true),
    ("epc-mining.elbow_s", "s", true),
    ("epc-mining.kmeans_s", "s", true),
    ("epc-mining.apriori_s", "s", true),
    ("epc-query.filter_s", "s", true),
    ("epc-viz.dashboard_build_s", "s", true),
    ("epc-viz.render_html_s", "s", true),
    ("indice.preprocess_s", "s", true),
    ("indice.analytics_s", "s", true),
    ("indice.dashboard_s", "s", true),
    ("indice.checkpoint_encode_s", "s", true),
    ("epc-journal.write_s", "s", true),
    ("bench.tracing_overhead_s", "s", true),
    ("epc-model.csv_bytes", "bytes", false),
    ("epc-geo.geocoder_requests", "count", false),
    ("epc-geo.exact_match_ratio", "ratio", false),
    ("epc-mining.dbscan_neighbour_links", "count", false),
    ("epc-mining.dbscan_region_queries", "count", false),
    ("epc-mining.kmeans_iterations", "count", false),
    ("epc-mining.apriori_candidates", "count", false),
    ("epc-mining.apriori_frequent_ratio", "ratio", false),
    ("epc-query.rows_scanned", "count", false),
    ("epc-viz.markers", "count", false),
    ("epc-viz.html_bytes", "bytes", false),
    ("indice.checkpoint_bytes", "bytes", false),
    ("epc-journal.files_written", "count", false),
    ("epc-journal.bytes_written", "bytes", false),
    ("epc-ingest.carried_ratio", "ratio", false),
];

/// Per-layer times only some workloads exercise (zero elsewhere).
const NOTED: [&str; 4] = [
    "epc-query.group_by_s",
    "indice.checkpoint_decode_s",
    "epc-ingest.ingest_call_s",
    "epc-ingest.unattributed_s",
];

/// Stage spans reported by total rather than self time.
const STAGES: [&str; 3] = ["indice.preprocess", "indice.analytics", "indice.dashboard"];

/// Fills the per-layer metrics from the tracer's spans and the counters.
/// `ops` are the operation kinds whose roots make up the traced
/// end-to-end time; `untraced_s` is the same work measured with tracing
/// off. `extra` gives the workload's own values of the [`NOTED`] times.
pub fn per_layer(
    out: &mut Outcome,
    tr: &Tracer,
    ops: &[&str],
    untraced_s: f64,
    extra: &[(&str, f64)],
) {
    let spans = tr.spans();
    let names = by_name(&spans);

    // Accounting: over the workload's operations, self times sum to the
    // traced end-to-end time by construction (spans nest on one thread);
    // the root spans' self time is the remainder no stage span covers.
    let traced_s: f64 = ops.iter().map(|k| root_total(&spans, k)).sum();
    let own = self_times(&spans);
    let (mut accounted, mut unattributed) = (0.0, 0.0);
    for (s, own) in spans.iter().zip(&own) {
        if ops.contains(&s.op_kind) {
            accounted += own;
            if s.parent.is_none() {
                unattributed += own;
            }
        }
    }
    out.notes.push(format!(
        "accounting traced_e2e_s={traced_s} self_sum_s={accounted} unattributed_s={unattributed} untraced_e2e_s={untraced_s} tracing_overhead_s={}",
        traced_s - untraced_s
    ));
    for (name, (own, total, n)) in &names {
        out.notes.push(format!(
            "span {name} self_s={own} total_s={total} calls={n}"
        ));
    }

    for (metric, unit, is_time) in PER_LAYER {
        let value = if metric == "bench.tracing_overhead_s" {
            traced_s - untraced_s
        } else if is_time {
            let span = metric.trim_end_matches("_s");
            let (own, total, _) = names.get(span).copied().unwrap_or_default();
            if STAGES.contains(&span) {
                total
            } else {
                own
            }
        } else {
            out.counts.get(metric).copied().unwrap_or(0.0)
        };
        out.metric(metric, value, unit);
    }
    // Named per-layer times that some workload never exercises: printed
    // for every workload, kept out of the result line.
    for metric in NOTED {
        let value = extra
            .iter()
            .find(|(n, _)| *n == metric)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| {
                names
                    .get(metric.trim_end_matches("_s"))
                    .map_or(0.0, |v| v.0)
            });
        out.notes.push(format!("metric {metric} {value} s"));
    }
    out.spans = tr.to_jsonl();
}
