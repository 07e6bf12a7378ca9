//! Durable pipeline execution: journaled checkpoint/resume.
//!
//! A durable run owns a *run directory*. After each stage completes, its
//! product is serialized ([`crate::checkpoint`]) and committed with the
//! atomic write-fsync-rename protocol of [`epc_journal`]; the stage's
//! journal line (appended to `run.manifest.jsonl` *after* the checkpoints
//! are durable) is the commit point. An interrupted run — crash, kill,
//! power loss, torn write — resumes with [`DurableOptions::resume`]: every
//! journal entry is validated (sequence position, stage name, config
//! fingerprint, input hash, and a byte-level hash check of every
//! checkpoint file) and the pipeline replays from the first entry that
//! fails validation. Because the pipeline is bitwise-deterministic and the
//! journal carries no timestamps, a resumed run's directory — artifacts,
//! checkpoints, and the journal itself — is byte-identical to an
//! uninterrupted run's.
//!
//! This module is also the one commit protocol behind every journaled
//! pipeline run: `stage_files` is the run-directory layout (which files
//! capture each stage's product), `stage_entry` builds a stage's journal
//! line, and `commit_entry` appends a journal line and honours injected
//! crash points ([`epc_journal::Crash`]). Incremental ingest
//! ([`crate::generations`]) rebuilds its `current/` directory from the same
//! three, so it cannot drift from a one-shot run's layout.
//!
//! The runner also hosts the stage deadline watchdog
//! ([`crate::pipeline::StageDeadline`]).

use crate::analytics::AnalyticsOutput;
use crate::checkpoint;
use crate::config::IndiceConfig;
use crate::error::IndiceError;
use crate::pipeline::{
    execute_stage_supervised, finish_outcome, supervised_stages, PipelineContext, RunOutcome,
    StageDeadline, StageExec,
};
use crate::preprocess::PreprocessOutput;
use epc_faults::FaultInjector;
use epc_geo::region::RegionHierarchy;
use epc_geo::streetmap::StreetMap;
use epc_journal::{
    hash_hex, write_atomic_path, ArtifactRecord, Crash, CrashPoint, Journal, StageEntry,
};
use epc_model::{csv::to_csv, Dataset, Quarantine};
use epc_query::stakeholder::Stakeholder;
use epc_runtime::{PipelineReport, RuntimeConfig, StageReport};
use epc_viz::dashboard::Dashboard;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Subdirectory of the run directory holding stage checkpoints.
pub const CHECKPOINT_DIR: &str = "checkpoints";

/// Name of the rendered dashboard artifact at the run-directory root.
pub const DASHBOARD_FILE: &str = "dashboard.html";

/// How a durable run executes.
pub struct DurableOptions<'a> {
    /// The run directory (journal, checkpoints, and artifacts live here).
    pub run_dir: PathBuf,
    /// Resume from the directory's journal instead of starting over.
    pub resume: bool,
    /// Optional per-stage deadline watchdog.
    pub deadline: Option<StageDeadline<'a>>,
    /// Optional injected crash point, keyed by stage name (durability
    /// testing).
    pub crash: Option<&'a Crash<String>>,
    /// Optional fault injector (chaos testing).
    pub injector: Option<&'a dyn FaultInjector>,
    /// Optional observability bundle: stage spans, journal hit/commit
    /// points, and checkpoint byte counters land here.
    pub obs: Option<&'a epc_obs::Obs<'a>>,
}

impl<'a> DurableOptions<'a> {
    /// Fresh (non-resuming) options for a run directory.
    pub fn new(run_dir: impl Into<PathBuf>) -> Self {
        DurableOptions {
            run_dir: run_dir.into(),
            resume: false,
            deadline: None,
            crash: None,
            injector: None,
            obs: None,
        }
    }

    /// Resume from the directory's journal (builder style).
    pub fn resuming(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Attaches a deadline watchdog (builder style).
    pub fn with_deadline(mut self, deadline: StageDeadline<'a>) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches an injected crash point (builder style).
    pub fn with_crash(mut self, crash: &'a Crash<String>) -> Self {
        self.crash = Some(crash);
        self
    }

    /// Attaches a fault injector (builder style).
    pub fn with_injector(mut self, injector: &'a dyn FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Attaches an observability bundle (builder style).
    pub fn with_obs(mut self, obs: &'a epc_obs::Obs<'a>) -> Self {
        self.obs = Some(obs);
        self
    }
}

/// The result of a durable run.
#[derive(Debug)]
pub struct DurableOutput {
    /// How the run ended (identical to an uninterrupted supervised run).
    pub outcome: RunOutcome,
    /// Per-stage instrumentation. Stages satisfied from the journal appear
    /// with zero wall time and their journaled counts.
    pub report: PipelineReport,
    /// Stage-1 product (run or rehydrated).
    pub preprocess: Option<PreprocessOutput>,
    /// Stage-2 product (run or rehydrated).
    pub analytics: Option<AnalyticsOutput>,
    /// Stage-3 dashboard — only when the stage ran in this process (a
    /// journal-hit dashboard stage leaves its artifacts on disk instead).
    pub dashboard: Option<Dashboard>,
    /// Standalone artifacts, file name → content.
    pub artifacts: BTreeMap<String, String>,
    /// Records diverted out of the run, with their faults.
    pub quarantine: Quarantine,
    /// Stages the supervisor degraded.
    pub degraded_stages: Vec<String>,
    /// Stages satisfied from the journal without re-running.
    pub journal_hits: Vec<String>,
    /// Stages actually executed by this process.
    pub replayed: Vec<String>,
    /// Why resume validation dropped a journal suffix, when it did — the
    /// message names the run directory and the offending seq.
    pub resume_rejection: Option<String>,
    /// `true` when loading the journal discarded a torn trailing line (a
    /// crash-during-append artifact). The recovery is sound — the run
    /// replays from the last committed stage — but it is surfaced here so
    /// the CLI can warn instead of swallowing it.
    pub recovered_torn_tail: bool,
}

/// Borrowed engine state a durable run needs ([`crate::engine::Indice`]
/// fields are private to the engine module).
pub(crate) struct DurableInputs<'a> {
    pub dataset: &'a Dataset,
    pub street_map: &'a StreetMap,
    pub hierarchy: &'a RegionHierarchy,
    pub config: IndiceConfig,
    pub runtime: RuntimeConfig,
}

/// Maps a durability I/O error to [`IndiceError::Durability`], prefixed
/// with what was being done.
pub(crate) fn dur<T>(r: std::io::Result<T>, what: &str) -> Result<T, IndiceError> {
    r.map_err(|e| IndiceError::Durability(format!("{what}: {e}")))
}

/// Fingerprint of the effective computation: configuration, stakeholder,
/// and the reference inputs (street map, hierarchy). Deliberately excludes
/// the runtime thread budget — outputs are bitwise thread-count-invariant,
/// so a run may be resumed at a different parallelism.
pub(crate) fn config_fingerprint(
    config: &IndiceConfig,
    stakeholder: Stakeholder,
    street_map: &StreetMap,
    hierarchy: &RegionHierarchy,
) -> Result<String, IndiceError> {
    let streets = street_map
        .to_text()
        .map_err(|e| IndiceError::Durability(format!("street map not serializable: {e}")))?;
    let regions = serde_json::to_string(hierarchy)
        .map_err(|e| IndiceError::Durability(format!("hierarchy not serializable: {e}")))?;
    let text = format!("{config:?}|{stakeholder:?}|{streets}|{regions}");
    Ok(hash_hex(text.as_bytes()))
}

/// Validates journal entries against the expected stage sequence and the
/// current inputs; returns the length of the longest trustworthy prefix
/// plus, when a suffix is dropped, a rejection message naming the run
/// directory and the offending seq — multi-directory fleet runs are
/// undebuggable when the message only says *why*, not *where*.
fn validate_prefix(
    entries: &[StageEntry],
    expected: &[&str],
    config_fp: &str,
    input_hash: &str,
    run_dir: &Path,
) -> (usize, Option<String>) {
    let reject = |i: usize, entry: &StageEntry, why: String| {
        (
            i,
            Some(format!(
                "run {}: journal entry seq {} ({}) rejected: {why}",
                run_dir.display(),
                entry.seq,
                entry.stage
            )),
        )
    };
    for (i, entry) in entries.iter().enumerate() {
        if i >= expected.len() || entry.seq != i {
            return reject(
                i,
                entry,
                format!("expected seq {i} of {} stages", expected.len()),
            );
        }
        if entry.stage != expected[i] {
            return reject(i, entry, format!("expected stage '{}'", expected[i]));
        }
        if entry.config_fingerprint != config_fp {
            return reject(i, entry, "stale config fingerprint".to_owned());
        }
        if entry.input_hash != input_hash {
            return reject(i, entry, "stale input hash".to_owned());
        }
        for rec in &entry.checkpoints {
            if let Err(e) = rec.read_verified(run_dir) {
                return reject(i, entry, e.to_string());
            }
        }
    }
    (entries.len(), None)
}

/// The files capturing stage `name`'s product, as `(path relative to the
/// run directory, content)` pairs in commit order — the one statement of
/// the run-directory layout. `None` when the product is absent (the
/// supervisor degraded the stage). [`rehydrate`] is the inverse.
pub(crate) fn stage_files<'c>(
    name: &str,
    ctx: &'c PipelineContext<'_>,
) -> Option<Vec<(String, Cow<'c, str>)>> {
    let checkpoint = |file: &str, text: String| (format!("{CHECKPOINT_DIR}/{file}"), text.into());
    match name {
        "preprocess" => {
            let p = ctx.preprocess.as_ref()?;
            let text = checkpoint::encode_preprocess(p, &ctx.quarantine);
            Some(vec![checkpoint("preprocess.ckpt.json", text)])
        }
        "analytics" => {
            let text = checkpoint::encode_analytics(ctx.analytics.as_ref()?);
            Some(vec![checkpoint("analytics.ckpt.json", text)])
        }
        "dashboard" => {
            let html = ctx.dashboard.as_ref()?.render_html();
            let mut files = vec![(DASHBOARD_FILE.to_owned(), Cow::Owned(html))];
            files.extend(
                ctx.artifacts
                    .iter()
                    .map(|(file, content)| (file.clone(), Cow::Borrowed(content.as_str()))),
            );
            Some(files)
        }
        _ => None,
    }
}

/// Atomically writes `content` to `rel` under `root` (parent directories
/// created as needed) and returns its record, path kept relative to
/// `root`.
pub(crate) fn write_file(
    root: &Path,
    rel: &str,
    content: &str,
) -> Result<ArtifactRecord, IndiceError> {
    let rec = dur(
        write_atomic_path(&root.join(rel), content.as_bytes()),
        &format!("writing {rel}"),
    )?;
    Ok(ArtifactRecord {
        file: rel.to_owned(),
        ..rec
    })
}

/// The journal line committing stage `name` at position `seq`, from its
/// report row. `checkpoints` is `None` for a degraded (product-less)
/// stage.
pub(crate) fn stage_entry(
    seq: usize,
    name: &str,
    report: &StageReport,
    reasons: Vec<String>,
    checkpoints: Option<Vec<ArtifactRecord>>,
    config_fingerprint: &str,
    input_hash: &str,
) -> StageEntry {
    StageEntry {
        seq,
        stage: name.to_owned(),
        config_fingerprint: config_fingerprint.to_owned(),
        input_hash: input_hash.to_owned(),
        degraded: checkpoints.is_none(),
        reasons,
        records_in: report.records_in,
        records_out: report.records_out,
        quarantined: report.quarantined,
        faults: report.faults.clone(),
        checkpoints: checkpoints.unwrap_or_default(),
    }
}

/// The error an injected crash at `unit` returns.
pub(crate) fn crashed(unit: &str, point: CrashPoint) -> IndiceError {
    IndiceError::CrashInjected {
        stage: unit.to_owned(),
        point: point.as_str().to_owned(),
    }
}

/// The commit step of a durable stage or an ingest generation: everything
/// `entry` references is already durable, and appending its journal line
/// is the commit point. An injected crash at `unit` fires here: `torn`
/// truncates the first of `checkpoints` (relative to `root`) before the
/// append, and `torn` and `after` abort once the line is durable.
pub(crate) fn commit_entry<E: Serialize + Deserialize>(
    journal: &Journal<E>,
    entry: &E,
    checkpoints: &[ArtifactRecord],
    root: &Path,
    crash: Option<CrashPoint>,
    unit: &str,
) -> Result<(), IndiceError> {
    if crash == Some(CrashPoint::Torn) {
        if let Some(first) = checkpoints.first() {
            tear_checkpoint(root, first)?;
        }
    }
    dur(journal.append(entry), &format!("committing {unit}"))?;
    match crash {
        Some(point @ (CrashPoint::After | CrashPoint::Torn)) => Err(crashed(unit, point)),
        _ => Ok(()),
    }
}

/// Truncates a committed checkpoint to half its recorded length — the torn
/// write a [`CrashPoint::Torn`] leaves behind. The journal entry keeps the
/// full-content hash, so resume validation must catch the mismatch.
fn tear_checkpoint(run_dir: &Path, rec: &ArtifactRecord) -> Result<(), IndiceError> {
    let path = run_dir.join(&rec.file);
    let f = dur(
        fs::OpenOptions::new().write(true).open(&path),
        "opening checkpoint for torn-write injection",
    )?;
    dur(f.set_len(rec.bytes / 2), "truncating checkpoint")?;
    dur(f.sync_all(), "syncing torn checkpoint")?;
    Ok(())
}

/// Rehydrates a journal-hit stage's product into the context.
fn rehydrate(
    entry: &StageEntry,
    ctx: &mut PipelineContext<'_>,
    run_dir: &Path,
) -> Result<(), IndiceError> {
    let where_ = format!("seq {} of run {}", entry.seq, run_dir.display());
    let read = |rec: &ArtifactRecord| -> Result<String, IndiceError> {
        let bytes = dur(
            rec.read_verified(run_dir),
            &format!("re-reading checkpoint for {where_}"),
        )?;
        String::from_utf8(bytes)
            .map_err(|e| IndiceError::Durability(format!("checkpoint for {where_} not UTF-8: {e}")))
    };
    let decode_err = |e: serde::Error| {
        IndiceError::Durability(format!(
            "decoding {} checkpoint at {where_}: {e}",
            entry.stage
        ))
    };
    match entry.stage.as_str() {
        "preprocess" => {
            let rec = entry.checkpoints.first().ok_or_else(|| {
                IndiceError::Durability("preprocess journal entry has no checkpoint".into())
            })?;
            let (out, quarantine) =
                checkpoint::decode_preprocess(&read(rec)?).map_err(decode_err)?;
            ctx.preprocess = Some(out);
            ctx.quarantine = quarantine;
        }
        "analytics" => {
            let rec = entry.checkpoints.first().ok_or_else(|| {
                IndiceError::Durability("analytics journal entry has no checkpoint".into())
            })?;
            ctx.analytics = Some(checkpoint::decode_analytics(&read(rec)?).map_err(decode_err)?);
        }
        "dashboard" => {
            for rec in &entry.checkpoints {
                if rec.file != DASHBOARD_FILE {
                    ctx.artifacts.insert(rec.file.clone(), read(rec)?);
                }
            }
        }
        other => {
            return Err(IndiceError::Durability(format!(
                "journal names unknown stage '{other}'"
            )))
        }
    }
    Ok(())
}

pub(crate) fn run_durable_inner(
    inputs: DurableInputs<'_>,
    stakeholder: Stakeholder,
    opts: &DurableOptions<'_>,
) -> Result<DurableOutput, IndiceError> {
    let run_dir = opts.run_dir.as_path();
    dur(
        fs::create_dir_all(run_dir.join(CHECKPOINT_DIR)),
        "creating run directory",
    )?;

    let config_fp = config_fingerprint(
        &inputs.config,
        stakeholder,
        inputs.street_map,
        inputs.hierarchy,
    )?;
    let input_hash = hash_hex(to_csv(inputs.dataset).as_bytes());

    let stages = supervised_stages();
    let expected: Vec<&str> = stages.iter().map(|(s, _)| s.name()).collect();

    let journal = Journal::at(run_dir);
    let loaded = dur(
        journal.load(),
        &format!("loading journal of run {}", run_dir.display()),
    )?;
    let entries = loaded.entries;
    let recovered_torn_tail = loaded.recovered_torn_tail;
    if recovered_torn_tail {
        if let Some(obs) = opts.obs {
            obs.metrics().inc("journal_torn_tail_recovered", 1);
        }
    }
    let (valid, resume_rejection) = if opts.resume {
        validate_prefix(&entries, &expected, &config_fp, &input_hash, run_dir)
    } else {
        (0, None)
    };
    if valid < entries.len() {
        dur(
            journal.rewrite(&entries[..valid]),
            &format!(
                "rewriting journal of run {} to drop entries from seq {valid}",
                run_dir.display()
            ),
        )?;
    }

    let mut ctx = PipelineContext::new(
        inputs.dataset,
        inputs.street_map,
        inputs.hierarchy,
        inputs.config,
        stakeholder,
        inputs.runtime,
    );
    if let Some(injector) = opts.injector {
        ctx = ctx.with_injector(injector);
    }
    if let Some(obs) = opts.obs {
        ctx = ctx.with_obs(obs);
    }
    let mut report = PipelineReport::new(ctx.runtime.threads);
    let mut reasons: Vec<String> = Vec::new();
    let mut journal_hits = Vec::new();
    let mut replayed = Vec::new();

    for (i, (stage, policy)) in stages.iter().enumerate() {
        let name = stage.name();
        if let Some(entry) = entries[..valid].get(i) {
            // Journal hit: the stage's commit is on disk and validated.
            if entry.degraded {
                ctx.degraded_stages.push(name.to_owned());
            } else {
                rehydrate(entry, &mut ctx, run_dir)?;
            }
            reasons.extend(entry.reasons.iter().cloned());
            if let Some(obs) = ctx.obs {
                let bytes: u64 = entry.checkpoints.iter().map(|r| r.bytes).sum();
                obs.point(
                    "journal:hit",
                    &[("bytes", bytes.into()), ("stage", name.into())],
                );
                let m = obs.metrics();
                m.inc("resume_journal_hits", 1);
                m.inc("resume_rehydrated_bytes", bytes);
            }
            report.push(StageReport {
                name: name.to_owned(),
                wall: Duration::ZERO,
                records_in: entry.records_in,
                records_out: entry.records_out,
                quarantined: entry.quarantined,
                faults: entry.faults.clone(),
            });
            journal_hits.push(name.to_owned());
            continue;
        }

        let crash_here = opts.crash.and_then(|c| c.point_for(name));
        if crash_here == Some(CrashPoint::Before) {
            return Err(crashed(name, CrashPoint::Before));
        }

        let exec = execute_stage_supervised(
            *stage,
            *policy,
            &mut ctx,
            &mut report,
            opts.deadline.as_ref(),
        );
        replayed.push(name.to_owned());
        if let Some(obs) = ctx.obs {
            obs.metrics().inc("resume_replayed", 1);
        }
        let stage_reasons = match &exec {
            StageExec::Succeeded => Vec::new(),
            StageExec::Degraded(reason) => vec![reason.clone()],
            StageExec::Failed(e) => {
                // A failed required stage commits nothing; the journal keeps
                // the prefix so a rerun replays from here.
                let outcome = RunOutcome::Failed(e.clone());
                return Ok(DurableOutput {
                    outcome,
                    report,
                    preprocess: ctx.preprocess,
                    analytics: ctx.analytics,
                    dashboard: ctx.dashboard,
                    artifacts: ctx.artifacts,
                    quarantine: ctx.quarantine,
                    degraded_stages: ctx.degraded_stages,
                    journal_hits,
                    replayed,
                    resume_rejection: resume_rejection.clone(),
                    recovered_torn_tail,
                });
            }
        };
        reasons.extend(stage_reasons.iter().cloned());

        // Commit: the stage's files first, then its journal line.
        let checkpoints = stage_files(name, &ctx)
            .map(|files| {
                files
                    .iter()
                    .map(|(rel, content)| write_file(run_dir, rel, content))
                    .collect::<Result<Vec<_>, _>>()
            })
            .transpose()?;
        let sr = report
            .stages
            .last()
            .ok_or_else(|| IndiceError::Internal("stage executed without a report entry".into()))?;
        let entry = stage_entry(
            i,
            name,
            sr,
            stage_reasons,
            checkpoints,
            &config_fp,
            &input_hash,
        );
        if let Some(obs) = ctx.obs {
            let bytes: u64 = entry.checkpoints.iter().map(|r| r.bytes).sum();
            obs.point(
                "journal:commit",
                &[
                    ("bytes", bytes.into()),
                    ("files", entry.checkpoints.len().into()),
                    ("stage", name.into()),
                ],
            );
            let m = obs.metrics();
            m.inc("checkpoint_files_total", entry.checkpoints.len() as u64);
            m.inc("checkpoint_bytes_total", bytes);
        }
        commit_entry(
            &journal,
            &entry,
            &entry.checkpoints,
            run_dir,
            crash_here,
            name,
        )?;
    }

    let outcome = finish_outcome(&ctx, reasons);
    Ok(DurableOutput {
        outcome,
        report,
        preprocess: ctx.preprocess,
        analytics: ctx.analytics,
        dashboard: ctx.dashboard,
        artifacts: ctx.artifacts,
        quarantine: ctx.quarantine,
        degraded_stages: ctx.degraded_stages,
        journal_hits,
        replayed,
        resume_rejection,
        recovered_torn_tail,
    })
}
