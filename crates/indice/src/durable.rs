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
//! The runner also hosts the stage deadline watchdog
//! ([`crate::pipeline::StageDeadline`]) and honours injected crash points
//! ([`epc_faults::CrashSpec`]) for durability testing.

use crate::analytics::AnalyticsOutput;
use crate::checkpoint;
use crate::config::IndiceConfig;
use crate::error::IndiceError;
use crate::pipeline::{
    execute_stage_supervised, finish_outcome, supervised_stages, PipelineContext, RunOutcome,
    StageDeadline, StageExec,
};
use crate::preprocess::PreprocessOutput;
use epc_faults::{CrashSpec, FaultInjector};
use epc_geo::region::RegionHierarchy;
use epc_geo::streetmap::StreetMap;
use epc_journal::{hash_hex, write_atomic, ArtifactRecord, Journal, StageEntry};
use epc_model::{csv::to_csv, Dataset, Quarantine};
use epc_query::stakeholder::Stakeholder;
use epc_runtime::{PipelineReport, RuntimeConfig, StageReport};
use epc_viz::dashboard::Dashboard;
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
    /// Optional injected crash point (durability testing).
    pub crash: Option<&'a CrashSpec>,
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
    pub fn with_crash(mut self, crash: &'a CrashSpec) -> Self {
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

/// Writes the checkpoints capturing a stage's product, if the product is
/// present in the context. File paths in the returned records are relative
/// to the run directory.
fn commit_checkpoints(
    name: &str,
    ctx: &PipelineContext<'_>,
    run_dir: &Path,
) -> Result<Option<Vec<ArtifactRecord>>, IndiceError> {
    let ckpt_dir = run_dir.join(CHECKPOINT_DIR);
    let under_ckpt = |rec: ArtifactRecord| ArtifactRecord {
        file: format!("{CHECKPOINT_DIR}/{}", rec.file),
        ..rec
    };
    match name {
        "preprocess" => {
            let Some(p) = ctx.preprocess.as_ref() else {
                return Ok(None);
            };
            let text = checkpoint::encode_preprocess(p, &ctx.quarantine);
            let rec = dur(
                write_atomic(&ckpt_dir, "preprocess.ckpt.json", text.as_bytes()),
                "writing preprocess checkpoint",
            )?;
            Ok(Some(vec![under_ckpt(rec)]))
        }
        "analytics" => {
            let Some(a) = ctx.analytics.as_ref() else {
                return Ok(None);
            };
            let text = checkpoint::encode_analytics(a);
            let rec = dur(
                write_atomic(&ckpt_dir, "analytics.ckpt.json", text.as_bytes()),
                "writing analytics checkpoint",
            )?;
            Ok(Some(vec![under_ckpt(rec)]))
        }
        "dashboard" => {
            let Some(d) = ctx.dashboard.as_ref() else {
                return Ok(None);
            };
            let mut records = Vec::with_capacity(ctx.artifacts.len() + 1);
            records.push(dur(
                write_atomic(run_dir, DASHBOARD_FILE, d.render_html().as_bytes()),
                "writing dashboard.html",
            )?);
            for (file, content) in &ctx.artifacts {
                records.push(dur(
                    write_atomic(run_dir, file, content.as_bytes()),
                    "writing artifact",
                )?);
            }
            Ok(Some(records))
        }
        other => Err(IndiceError::Internal(format!(
            "no checkpoint codec for stage '{other}'"
        ))),
    }
}

/// Truncates a committed checkpoint to half its recorded length — the torn
/// write a [`CrashSpec::Torn`] leaves behind. The journal entry keeps the
/// full-content hash, so resume validation must catch the mismatch.
pub(crate) fn tear_checkpoint(run_dir: &Path, rec: &ArtifactRecord) -> Result<(), IndiceError> {
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

/// Whether the stage's product is present in the context (used to decide
/// between a checkpointed and a product-less degraded journal entry).
pub(crate) fn product_present(ctx: &PipelineContext<'_>, name: &str) -> bool {
    match name {
        "preprocess" => ctx.preprocess.is_some(),
        "analytics" => ctx.analytics.is_some(),
        "dashboard" => ctx.dashboard.is_some(),
        _ => false,
    }
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

        let crash_here = opts.crash.filter(|spec| spec.stage() == name);
        if let Some(spec @ CrashSpec::Before { .. }) = crash_here {
            return Err(IndiceError::CrashInjected {
                stage: name.to_owned(),
                point: spec.point().to_owned(),
            });
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

        // Commit: checkpoint files first, then the journal line.
        let checkpoints = commit_checkpoints(name, &ctx, run_dir)?;
        let sr = report
            .stages
            .last()
            .ok_or_else(|| IndiceError::Internal("stage executed without a report entry".into()))?;
        let entry = StageEntry {
            seq: i,
            stage: name.to_owned(),
            config_fingerprint: config_fp.clone(),
            input_hash: input_hash.clone(),
            degraded: !product_present(&ctx, name),
            reasons: stage_reasons,
            records_in: sr.records_in,
            records_out: sr.records_out,
            quarantined: sr.quarantined,
            faults: sr.faults.clone(),
            checkpoints: checkpoints.unwrap_or_default(),
        };
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
        if let Some(spec @ CrashSpec::Torn { .. }) = crash_here {
            if let Some(first) = entry.checkpoints.first() {
                tear_checkpoint(run_dir, first)?;
            }
            dur(journal.append(&entry), "appending journal entry")?;
            return Err(IndiceError::CrashInjected {
                stage: name.to_owned(),
                point: spec.point().to_owned(),
            });
        }
        dur(journal.append(&entry), "appending journal entry")?;
        if let Some(spec @ CrashSpec::After { .. }) = crash_here {
            return Err(IndiceError::CrashInjected {
                stage: name.to_owned(),
                point: spec.point().to_owned(),
            });
        }
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
