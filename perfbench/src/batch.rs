//! `batch-50k`: one durable run through the `indice run` path, from the
//! CSV on disk to the dashboard stage's journal commit.
//!
//! Set-up synthesises the collection and writes the CSV, street map and
//! regions. Each operation loads them, runs `Indice::run_durable` into a
//! fresh run directory and checks the outcome and the run directory's
//! digest (pinned per seed, and equal across the operations of a run).
//! The traced run recomposes the same run from the public stage calls
//! (`pipeline::traced_durable_run`), checks it produces the same directory,
//! and replays the kernels on the stage inputs.

use crate::inputs::{load_csv, load_reference, synthesize, write_inputs};
use crate::pipeline::{count, count_products, replay_run, traced_durable_run, Counts, Env};
use crate::trace::Tracer;
use crate::util::{bytes_under, clear_dir, median, peak_rss_mb, percentile, tree, tree_digest};
use crate::{check_pinned, finish_counts, start_peak_window, Args, Outcome, SETUPS};
use epc_query::Stakeholder;
use epc_runtime::RuntimeConfig;
use indice::durable::DurableOptions;
use indice::{Indice, IndiceConfig, RunOutcome};
use std::path::Path;
use std::time::Instant;

/// Certificates in the collection.
pub fn records(smoke: bool) -> usize {
    if smoke {
        2_000
    } else {
        50_000
    }
}

/// Fewest durable runs a timed invocation makes; a 30 s window on 2 CPUs
/// holds three or four.
pub const MIN_RUNS: usize = 3;

/// Counters every run directory yields: checkpoint, journal and HTML bytes.
pub fn count_run_dir(dir: &Path, counts: &mut Counts) -> Result<(), String> {
    let io = |e: std::io::Error| format!("reading run directory: {e}");
    let (ckpt_bytes, _) = bytes_under(dir, "checkpoints/").map_err(io)?;
    let (all_bytes, files) = bytes_under(dir, "").map_err(io)?;
    let html: u64 = tree(dir)
        .map_err(io)?
        .iter()
        .filter(|(rel, _)| rel.ends_with(".html"))
        .map(|(_, b)| b.len() as u64)
        .sum();
    count(counts, "indice.checkpoint_bytes", ckpt_bytes as f64);
    count(counts, "epc-journal.files_written", files as f64);
    count(counts, "epc-journal.bytes_written", all_bytes as f64);
    count(counts, "epc-viz.html_bytes", html as f64);
    Ok(())
}

/// One untraced durable run through the library, the timed loop's
/// operation. Returns its wall time, run-directory digest and counters.
fn durable_op(
    data_dir: &Path,
    run_dir: &Path,
    runtime: RuntimeConfig,
) -> Result<(f64, String, Counts), String> {
    clear_dir(run_dir).map_err(|e| format!("clearing run dir: {e}"))?;
    let off = Tracer::new(false);
    let t0 = Instant::now();
    let csv = load_csv(&off, &data_dir.join("epcs.csv"))?;
    let (street_map, hierarchy) = load_reference(data_dir)?;
    let engine = Indice::new(csv.dataset, street_map, hierarchy, IndiceConfig::default())
        .with_runtime(runtime);
    let out = engine
        .run_durable(
            Stakeholder::PublicAdministration,
            &DurableOptions::new(run_dir),
        )
        .map_err(|e| format!("durable run: {e}"))?;
    let wall = t0.elapsed().as_secs_f64();
    if !matches!(out.outcome, RunOutcome::Complete) {
        return Err(format!("run outcome {} (expected complete)", out.outcome));
    }
    let digest = tree_digest(run_dir).map_err(|e| format!("digesting run dir: {e}"))?;
    let mut counts = Counts::new();
    count(&mut counts, "epc-model.csv_bytes", csv.bytes as f64);
    count(
        &mut counts,
        "epc-query.rows_scanned",
        engine.dataset().n_rows() as f64,
    );
    if let (Some(pre), Some(a)) = (&out.preprocess, &out.analytics) {
        count_products(&mut counts, &pre.cleaning, a.kmeans.n_iter);
    }
    count_run_dir(run_dir, &mut counts)?;
    Ok((wall, digest, counts))
}

/// Synthesises and writes the inputs; returns the set-up time.
fn setup(args: &Args, data_dir: &Path) -> Result<f64, String> {
    clear_dir(data_dir).map_err(|e| format!("clearing data dir: {e}"))?;
    let t0 = Instant::now();
    let collection = synthesize(records(args.smoke), args.seed);
    write_inputs(data_dir, &collection)?;
    Ok(t0.elapsed().as_secs_f64())
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let data_dir = args.work_dir.join("data");
    let run_dir = args.work_dir.join("run");
    let runtime = RuntimeConfig::new(args.threads);
    let mut out = Outcome::default();

    if args.trace {
        setup(args, &data_dir)?;
        return traced(args, &data_dir, &run_dir, runtime, out);
    }

    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| setup(args, &data_dir))
        .collect::<Result<_, _>>()?;
    start_peak_window(&mut out);
    let window = Instant::now();
    let mut walls = Vec::new();
    let mut first: Option<(String, Counts)> = None;
    for runs in 1.. {
        match durable_op(&data_dir, &run_dir, runtime) {
            Ok((wall, digest, counts)) => {
                walls.push(wall);
                match &first {
                    None => {
                        out.attempted += 1;
                        check_pinned(args, &mut out, "run-directory", &digest);
                        first = Some((digest, counts));
                    }
                    Some((d0, c0)) => out.check(*d0 == digest && *c0 == counts, || {
                        format!(
                            "run {} differs from the first run of this seed",
                            walls.len()
                        )
                    }),
                }
            }
            Err(e) => out.check(false, || e),
        }
        // At least three runs, so the median is one run's time rather
        // than the mean of two, and a slow machine still measures as many.
        if runs >= MIN_RUNS && window.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let peak = peak_rss_mb();
    clear_dir(&run_dir).map_err(|e| format!("clearing run dir: {e}"))?;
    if let Some((_, counts)) = first {
        out.counts = counts;
    }
    finish_counts(&mut out);

    let p50 = median(&walls);
    let (tail, beyond) = percentile(&walls, 1.0);
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", peak, "MB");
    out.metric("latency_p50_s", p50, "s");
    out.metric("latency_tail_s", tail, "s");
    out.notes
        .push(format!("run_s {p50} s (median of {} runs)", walls.len()));
    out.notes.push(format!(
        "latency_tail_s is p100 of {} runs ({beyond} beyond)",
        walls.len()
    ));
    Ok(out)
}

/// The traced run: one untraced operation, then the recomposed run under
/// spans, then the kernel replays.
fn traced(
    args: &Args,
    data_dir: &Path,
    run_dir: &Path,
    runtime: RuntimeConfig,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let (untraced, digest, counts) = durable_op(data_dir, run_dir, runtime)?;
    out.attempted += 1;
    check_pinned(args, &mut out, "run-directory", &digest);
    out.counts = counts;
    clear_dir(run_dir).map_err(|e| format!("clearing run dir: {e}"))?;

    let tr = Tracer::new(true);
    let config = IndiceConfig::default();
    let mut counts = Counts::new();
    let (street_map, hierarchy) = load_reference(data_dir)?;
    let env = Env {
        street_map: &street_map,
        hierarchy: &hierarchy,
        config: &config,
        runtime,
        stakeholder: Stakeholder::PublicAdministration,
    };
    let products = tr.op("run", "bench.run", || {
        let csv = load_csv(&tr, &data_dir.join("epcs.csv"))?;
        // The reference files are read again so the traced operation does
        // the same work as the timed one.
        tr.span("epc-geo.load_reference", || load_reference(data_dir))?;
        traced_durable_run(&tr, &env, &csv.dataset, run_dir, &mut counts)
    })?;
    let traced_digest = tree_digest(run_dir).map_err(|e| format!("digesting run dir: {e}"))?;
    out.check(traced_digest == digest, || {
        format!("recomposed run directory {traced_digest} != library run {digest}")
    });
    let mismatches = replay_run(&tr, &env, &products, &mut counts)?;
    out.check(mismatches.is_empty(), || mismatches.join("; "));
    crate::merge_traced_counts(&mut out, counts);
    clear_dir(run_dir).map_err(|e| format!("clearing run dir: {e}"))?;
    finish_counts(&mut out);
    crate::report::per_layer(&mut out, &tr, &["run"], untraced, &[]);
    Ok(out)
}
