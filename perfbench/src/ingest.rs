//! `ingest-trickle`: micro-batches folded one at a time, the way
//! `indice ingest --resume` folds them.
//!
//! Set-up synthesises the collection, writes the base and every batch as
//! CSV files plus the street map and regions, and seals the base
//! generation. One *episode* copies the sealed base into a fresh run
//! directory and lets the batches arrive one by one: each arrival loads its
//! CSV, then makes one `indice::ingest` call with resume, in exact
//! recompute mode, over the full batch list so far. The commit latency is
//! that call's wall time. Episodes repeat until the window is used up.
//!
//! Checks: every arrival seals exactly one new generation without a resume
//! rejection; every episode ends with the same `current/` tree; after the
//! window, `current/` is byte-identical to a one-shot durable run over the
//! concatenated batches.
//!
//! The traced run replays each arrival's stage calls on the arrival's
//! inputs (decoding the sealed deltas, the new batch's clean phase, the
//! outlier phase over the merged phases, analytics, dashboard, checkpoint
//! encoding and writes), checks they reproduce the files the ingest call
//! wrote, and reports the part of the call they do not cover as
//! `epc-ingest.unattributed_s`.

use crate::inputs::{load_csv, load_reference, synthesize, write_csv, write_reference};
use crate::pipeline::{
    build_dashboard, count, count_products, replay_analytics, replay_cleaning, replay_outliers,
    select_category, Counts, Env,
};
use crate::trace::{root_total, Tracer};
use crate::util::{clear_dir, copy_tree, median, peak_rss_mb, percentile, tree_digest};
use crate::{check_pinned, finish_counts, start_peak_window, Args, Outcome};
use epc_geo::region::RegionHierarchy;
use epc_geo::streetmap::StreetMap;
use epc_journal::write_atomic;
use epc_model::Dataset;
use epc_query::Stakeholder;
use epc_runtime::RuntimeConfig;
use indice::checkpoint;
use indice::durable::DurableOptions;
use indice::preprocess::{clean_phase, merge_clean_phases, outlier_phase};
use indice::{
    ingest, Indice, IndiceConfig, IngestBatch, IngestInputs, IngestOptions, IngestOutcome,
    RecomputeMode, RunOutcome,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Sizes of one episode: base records, records per batch, arrivals.
pub fn shape(smoke: bool) -> (usize, usize, usize) {
    if smoke {
        (300, 50, 4)
    } else {
        (1_000, 50, 10)
    }
}

/// Set-ups a timed run makes; `setup_s` is their median. One set-up takes
/// a few tenths of a second, much of it waiting on fsync, so it varies
/// more from one to the next than the longer set-ups of the other
/// workloads and takes more repetitions to steady.
pub const SETUPS: usize = 11;

/// Fraction of arrivals at or below `commit_tail_s`.
pub const TAIL: f64 = 0.75;

/// Fewest arrivals a timed run measures, so the tail has ten samples
/// beyond it.
pub const MIN_ARRIVALS: usize = 40;

fn batch_name(i: usize) -> String {
    if i == 0 {
        "base.csv".to_owned()
    } else {
        format!("batch-{i:04}.csv")
    }
}

fn ingest_inputs<'a>(
    street_map: &'a StreetMap,
    hierarchy: &'a RegionHierarchy,
    runtime: RuntimeConfig,
) -> IngestInputs<'a> {
    IngestInputs {
        street_map,
        hierarchy,
        config: IndiceConfig::default(),
        runtime,
    }
}

/// One invocation's settings and directories.
struct Ctx<'a> {
    args: &'a Args,
    runtime: RuntimeConfig,
    /// Batch CSVs, street map and regions.
    data: PathBuf,
    /// The sealed base generation.
    base: PathBuf,
    /// The run directory episodes fold into.
    run: PathBuf,
}

impl<'a> Ctx<'a> {
    fn new(args: &'a Args) -> Self {
        Ctx {
            args,
            runtime: RuntimeConfig::new(args.threads),
            data: args.work_dir.join("data"),
            base: args.work_dir.join("base"),
            run: args.work_dir.join("run"),
        }
    }
}

/// Writes the inputs and seals the base generation; returns the set-up
/// time.
fn setup(ctx: &Ctx<'_>) -> Result<f64, String> {
    let (args, data_dir, runtime) = (ctx.args, &ctx.data, ctx.runtime);
    clear_dir(data_dir).map_err(|e| format!("clearing data dir: {e}"))?;
    clear_dir(&ctx.base).map_err(|e| format!("clearing base dir: {e}"))?;
    let t0 = Instant::now();
    let (base, per_batch, arrivals) = shape(args.smoke);
    let collection = synthesize(base + per_batch * arrivals, args.seed);
    for i in 0..=arrivals {
        let rows: Vec<usize> = if i == 0 {
            (0..base).collect()
        } else {
            (base + (i - 1) * per_batch..base + i * per_batch).collect()
        };
        let part = collection
            .dataset
            .select_rows(&rows)
            .map_err(|e| format!("splitting batches: {e}"))?;
        write_csv(&data_dir.join(batch_name(i)), &part)?;
    }
    write_reference(data_dir, &collection)?;
    let off = Tracer::new(false);
    let (street_map, hierarchy) = load_reference(data_dir)?;
    let base = load_csv(&off, &data_dir.join(batch_name(0)))?;
    let out = ingest(
        &[IngestBatch::new(batch_name(0), base.dataset)],
        ingest_inputs(&street_map, &hierarchy, runtime),
        Stakeholder::PublicAdministration,
        &IngestOptions::new(&ctx.base).with_recompute(RecomputeMode::Exact),
    )
    .map_err(|e| format!("sealing the base generation: {e}"))?;
    if out.outcome != IngestOutcome::Complete || out.entries.len() != 1 {
        return Err(format!("base generation not sealed: {:?}", out.outcome));
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// What one episode measured.
struct Episode {
    latencies: Vec<f64>,
    digest: String,
    counts: Counts,
}

/// One episode: copy the sealed base, then fold every batch in turn.
/// `replay` runs after each arrival with the arrival's inputs.
fn episode(
    ctx: &Ctx<'_>,
    tr: &Tracer,
    out: &mut Outcome,
    mut replay: impl FnMut(&[IngestBatch], &Path, &mut Counts, &mut Outcome) -> Result<(), String>,
) -> Result<Episode, String> {
    let (args, data_dir, run_dir, runtime) = (ctx.args, &ctx.data, &ctx.run, ctx.runtime);
    clear_dir(run_dir).map_err(|e| format!("clearing run dir: {e}"))?;
    copy_tree(&ctx.base, run_dir).map_err(|e| format!("copying the sealed base: {e}"))?;
    let (street_map, hierarchy) = load_reference(data_dir)?;
    let (_, _, arrivals) = shape(args.smoke);
    let off = Tracer::new(false);
    let mut batches = vec![IngestBatch::new(
        batch_name(0),
        load_csv(&off, &data_dir.join(batch_name(0)))?.dataset,
    )];
    let mut latencies = Vec::with_capacity(arrivals);
    let mut counts = Counts::new();
    for i in 1..=arrivals {
        let result = tr.op("arrival", "bench.arrival", || {
            let csv = load_csv(tr, &data_dir.join(batch_name(i)))?;
            count(&mut counts, "epc-model.csv_bytes", csv.bytes as f64);
            batches.push(IngestBatch::new(batch_name(i), csv.dataset));
            let opts = IngestOptions::new(run_dir)
                .resuming()
                .with_recompute(RecomputeMode::Exact);
            let t0 = Instant::now();
            let result = tr.span("epc-ingest.ingest_call", || {
                ingest(
                    &batches,
                    ingest_inputs(&street_map, &hierarchy, runtime),
                    Stakeholder::PublicAdministration,
                    &opts,
                )
            });
            Ok::<_, String>((t0.elapsed().as_secs_f64(), result))
        });
        let (latency, result) = result?;
        latencies.push(latency);
        let sealed = match result {
            Ok(o) => o,
            Err(e) => {
                out.check(false, || format!("arrival {i}: ingest failed: {e}"));
                continue;
            }
        };
        let ok = sealed.outcome == IngestOutcome::Complete
            && sealed.resume_rejection.is_none()
            && sealed.entries.len() == i + 1
            && sealed.processed == [batch_name(i)]
            && sealed.sealed_skipped.len() == i;
        out.check(ok, || {
            format!(
                "arrival {i}: outcome {:?}, rejection {:?}, {} generations, processed {:?}",
                sealed.outcome,
                sealed.resume_rejection,
                sealed.entries.len(),
                sealed.processed
            )
        });
        if let [.., prev, entry] = sealed.entries.as_slice() {
            count_generation(&prev.current, entry, &mut counts);
        }
        replay(&batches, run_dir, &mut counts, out)?;
    }
    let current = run_dir.join(epc_ingest::CURRENT_DIR);
    let digest = tree_digest(&current).map_err(|e| format!("digesting current/: {e}"))?;
    Ok(Episode {
        latencies,
        digest,
        counts,
    })
}

/// Counters of one sealed generation: artifacts carried and written, and
/// the files and bytes it wrote (the sealed delta plus every `current/`
/// file whose bytes changed since the previous generation), HTML among
/// them.
fn count_generation(
    prev: &[epc_journal::ArtifactRecord],
    entry: &epc_ingest::GenerationEntry,
    counts: &mut Counts,
) {
    count(
        counts,
        "epc-ingest.artifacts_carried",
        entry.artifacts_carried as f64,
    );
    count(
        counts,
        "epc-ingest.artifacts_total",
        (entry.artifacts_written + entry.artifacts_carried) as f64,
    );
    let written: Vec<_> = entry.current.iter().filter(|r| !prev.contains(r)).collect();
    let delta: u64 = entry.checkpoints.iter().map(|r| r.bytes).sum();
    let ckpt: u64 = written
        .iter()
        .filter(|r| r.file.starts_with(indice::durable::CHECKPOINT_DIR))
        .map(|r| r.bytes)
        .sum();
    let bytes: u64 = written.iter().map(|r| r.bytes).sum();
    let html: u64 = written
        .iter()
        .filter(|r| r.file.ends_with(".html"))
        .map(|r| r.bytes)
        .sum();
    count(counts, "indice.checkpoint_bytes", (delta + ckpt) as f64);
    count(
        counts,
        "epc-journal.files_written",
        (written.len() + entry.checkpoints.len()) as f64,
    );
    count(counts, "epc-journal.bytes_written", (delta + bytes) as f64);
    count(counts, "epc-viz.html_bytes", html as f64);
}

/// One-shot durable run over the concatenated batches into `dir`;
/// returns the digest of the run directory.
fn one_shot(ctx: &Ctx<'_>, dir: &Path) -> Result<String, String> {
    let (args, data_dir, runtime) = (ctx.args, &ctx.data, ctx.runtime);
    clear_dir(dir).map_err(|e| format!("clearing one-shot dir: {e}"))?;
    let (_, _, arrivals) = shape(args.smoke);
    let off = Tracer::new(false);
    let mut all: Option<Dataset> = None;
    for i in 0..=arrivals {
        let part = load_csv(&off, &data_dir.join(batch_name(i)))?.dataset;
        match &mut all {
            Some(d) => d
                .append(&part)
                .map_err(|e| format!("concatenating batches: {e}"))?,
            None => all = Some(part),
        }
    }
    let dataset = all.ok_or("no batches")?;
    let (street_map, hierarchy) = load_reference(data_dir)?;
    let out = Indice::new(dataset, street_map, hierarchy, IndiceConfig::default())
        .with_runtime(runtime)
        .run_durable(Stakeholder::PublicAdministration, &DurableOptions::new(dir))
        .map_err(|e| format!("one-shot durable run: {e}"))?;
    if !matches!(out.outcome, RunOutcome::Complete) {
        return Err(format!("one-shot outcome {}", out.outcome));
    }
    tree_digest(dir).map_err(|e| format!("digesting one-shot dir: {e}"))
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let ctx = Ctx::new(args);
    let mut out = Outcome::default();

    if args.trace {
        setup(&ctx)?;
        return traced(&ctx, out);
    }

    let setups: Vec<f64> = (0..SETUPS).map(|_| setup(&ctx)).collect::<Result<_, _>>()?;
    start_peak_window(&mut out);
    let off = Tracer::new(false);
    let window = Instant::now();
    let mut latencies = Vec::new();
    let mut first: Option<Episode> = None;
    let mut episodes = 0;
    loop {
        let ep = episode(&ctx, &off, &mut out, |_, _, _, _| Ok(()))?;
        episodes += 1;
        latencies.extend_from_slice(&ep.latencies);
        match &first {
            None => first = Some(ep),
            Some(f) => out.check(f.digest == ep.digest && f.counts == ep.counts, || {
                format!("episode {episodes} ended with a different current/ or counters")
            }),
        }
        let enough = args.smoke || latencies.len() >= MIN_ARRIVALS;
        if enough && window.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let peak = peak_rss_mb();
    let first = first.ok_or("no episode ran")?;
    finish_checks(&ctx, &first, &mut out)?;
    out.counts = first.counts;
    finish_counts(&mut out);

    let p50 = median(&latencies);
    let (tail, beyond) = percentile(&latencies, TAIL);
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", peak, "MB");
    out.metric("latency_p50_s", p50, "s");
    out.metric("latency_tail_s", tail, "s");
    out.notes.push(format!(
        "commit_p50_s {p50} s (median of {} arrivals in {episodes} episodes)",
        latencies.len()
    ));
    out.notes.push(format!(
        "commit_tail_s {tail} s (p{} of {} arrivals, {beyond} beyond)",
        TAIL * 100.0,
        latencies.len()
    ));
    Ok(out)
}

/// The output checks after the window: the one-shot equivalence and the
/// pinned digest of `current/`.
fn finish_checks(ctx: &Ctx<'_>, first: &Episode, out: &mut Outcome) -> Result<(), String> {
    let shot = one_shot(ctx, &ctx.args.work_dir.join("one-shot"))?;
    out.check(shot == first.digest, || {
        format!("current/ {} != one-shot run {shot}", first.digest)
    });
    check_pinned(ctx.args, out, "current/", &first.digest);
    Ok(())
}

/// The traced run: one untraced episode, then a traced one whose arrivals
/// are each followed by a replay of their stage calls and kernels.
fn traced(ctx: &Ctx<'_>, mut out: Outcome) -> Result<Outcome, String> {
    let off = Tracer::new(false);
    let untraced = episode(ctx, &off, &mut out, |_, _, _, _| Ok(()))?;
    finish_checks(ctx, &untraced, &mut out)?;
    out.counts = untraced.counts.clone();

    let tr = Tracer::new(true);
    let config = IndiceConfig::default();
    let (street_map, hierarchy) = load_reference(&ctx.data)?;
    let env = Env {
        street_map: &street_map,
        hierarchy: &hierarchy,
        config: &config,
        runtime: ctx.runtime,
        stakeholder: Stakeholder::PublicAdministration,
    };
    let scratch = ctx.args.work_dir.join("replay");
    let traced_ep = episode(ctx, &tr, &mut out, |batches, dir, counts, out| {
        let mismatches = tr.op("replay", "bench.replay_arrival", || {
            replay_arrival(&tr, &env, batches, dir, &scratch, counts)
        })?;
        out.check(mismatches.is_empty(), || mismatches.join("; "));
        Ok(())
    })?;
    out.check(traced_ep.digest == untraced.digest, || {
        "traced episode ended with a different current/".to_owned()
    });
    // The call's traced sub-calls are the stage calls its replay made
    // (the replay root's direct children, less the benchmark's own spans).
    let spans = tr.spans();
    let call_s: f64 = spans
        .iter()
        .filter(|s| s.name == "epc-ingest.ingest_call")
        .map(|s| s.duration())
        .sum();
    let replayed_s: f64 = spans
        .iter()
        .filter(|s| {
            s.op_kind == "replay"
                && s.parent.is_some_and(|p| spans[p].parent.is_none())
                && !s.name.starts_with("bench.")
        })
        .map(|s| s.duration())
        .sum();
    crate::merge_traced_counts(&mut out, traced_ep.counts);
    finish_counts(&mut out);
    // Tracing overhead compares the ingest calls only: the untraced episode
    // timed nothing else of an arrival.
    let untraced_s: f64 = untraced.latencies.iter().sum();
    let arrivals_untraced = root_total(&spans, "arrival") - (call_s - untraced_s);
    crate::report::per_layer(
        &mut out,
        &tr,
        &["arrival"],
        arrivals_untraced,
        &[
            ("epc-ingest.ingest_call_s", call_s),
            ("epc-ingest.unattributed_s", call_s - replayed_s),
        ],
    );
    Ok(out)
}

/// Replays one arrival's stage calls on its inputs and checks they
/// reproduce what the ingest call wrote. Kernel replays run inside a
/// `bench.kernels` span so they can be told apart from the stage calls.
fn replay_arrival(
    tr: &Tracer,
    env: &Env<'_>,
    batches: &[IngestBatch],
    run_dir: &Path,
    scratch: &Path,
    counts: &mut Counts,
) -> Result<Vec<String>, String> {
    let mut mismatches = Vec::new();
    let seq = batches.len() - 1;
    let delta_path = |i: usize| -> PathBuf {
        run_dir
            .join(epc_ingest::GENS_DIR)
            .join(epc_ingest::gen_dir_name(i))
            .join(indice::CLEAN_DELTA_FILE)
    };
    let read =
        |p: PathBuf| fs::read_to_string(&p).map_err(|e| format!("reading {}: {e}", p.display()));

    // Decode the sealed deltas of the earlier generations.
    let mut phases = Vec::with_capacity(batches.len());
    let mut quota_used = 0;
    for i in 0..seq {
        let text = read(delta_path(i))?;
        let phase = tr
            .span("indice.checkpoint_decode", || {
                checkpoint::decode_clean_phase(&text)
            })
            .map_err(|e| format!("decoding delta {i}: {e}"))?;
        quota_used += phase.cleaning.geocoder_requests;
        phases.push(phase);
    }
    // The new batch's clean phase, and its sealed delta.
    let batch = &batches[seq].dataset;
    let selected = select_category(tr, env, batch)?;
    count(counts, "epc-query.rows_scanned", batch.n_rows() as f64);
    let quota = env.config.geocoder_quota.saturating_sub(quota_used);
    let input = tr.span("bench.copy", || selected.clone());
    let phase = tr
        .span("indice.clean_phase", || {
            clean_phase(
                input,
                env.street_map,
                env.config,
                &env.runtime,
                None,
                None,
                quota,
            )
        })
        .map_err(|e| format!("clean phase: {e}"))?;
    let delta = tr.span("indice.checkpoint_encode", || {
        checkpoint::encode_clean_phase(&phase)
    });
    if delta != read(delta_path(seq))? {
        mismatches.push(format!("replayed clean delta of generation {seq} differs"));
    }
    let mut written = vec![(format!("gen-{seq}.delta"), delta)];
    phases.push(phase);

    // Global outlier phase, analytics and dashboard over the merged data.
    let validated = selected
        .select_rows(&phases[seq].orig_of)
        .map_err(|e| format!("validated rows: {e}"))?;
    let merged = tr
        .span("indice.merge_clean_phases", || {
            merge_clean_phases(phases.clone())
        })
        .map_err(|e| format!("merging phases: {e}"))?;
    let (pre, quarantine) = tr
        .span("indice.preprocess", || {
            let input = tr.span("bench.copy", || merged.clone());
            tr.span("indice.outlier_phase", || {
                outlier_phase(input, env.config, &env.runtime, None)
            })
        })
        .map_err(|e| format!("outlier phase: {e}"))?;
    let analytics = tr
        .span("indice.analytics", || {
            indice::analytics::analyze_observed_from(
                &pre.dataset,
                env.config,
                &env.runtime,
                None,
                None,
            )
        })
        .map_err(|e| format!("analytics: {e}"))?;
    let (dashboard, artifacts) = tr.span("indice.dashboard", || {
        build_dashboard(tr, env, &pre.dataset, &analytics, counts)
    })?;
    let html = tr.span("epc-viz.render_html", || dashboard.render_html());
    let current = run_dir.join(epc_ingest::CURRENT_DIR);
    let ckpt = indice::durable::CHECKPOINT_DIR;
    let files = [
        (
            format!("{ckpt}/preprocess.ckpt.json"),
            tr.span("indice.checkpoint_encode", || {
                checkpoint::encode_preprocess(&pre, &quarantine)
            }),
        ),
        (
            format!("{ckpt}/analytics.ckpt.json"),
            tr.span("indice.checkpoint_encode", || {
                checkpoint::encode_analytics(&analytics)
            }),
        ),
        (indice::durable::DASHBOARD_FILE.to_owned(), html),
    ];
    for (rel, text) in files.into_iter().chain(artifacts) {
        if read(current.join(&rel))? != text {
            mismatches.push(format!("replayed {rel} differs from current/{rel}"));
        }
        written.push((rel.replace('/', "_"), text));
    }
    // The writes: every replayed file, atomically, into a scratch dir.
    fs::create_dir_all(scratch).map_err(|e| format!("creating replay dir: {e}"))?;
    for (name, text) in &written {
        tr.span("epc-journal.write", || {
            write_atomic(scratch, name, text.as_bytes())
        })
        .map_err(|e| format!("replaying writes: {e}"))?;
    }
    clear_dir(scratch).map_err(|e| format!("clearing replay dir: {e}"))?;
    count_products(counts, &phases[seq].cleaning, analytics.kmeans.n_iter);

    // Kernel replays on the same inputs.
    tr.span("bench.kernels", || {
        mismatches.extend(replay_cleaning(
            tr,
            env,
            &validated,
            quota,
            &phases[seq].cleaning,
        )?);
        mismatches.extend(replay_outliers(tr, env, &merged, &pre, counts)?);
        mismatches.extend(replay_analytics(tr, env, &pre.dataset, &analytics, counts)?);
        Ok::<_, String>(())
    })?;
    Ok(mismatches)
}
