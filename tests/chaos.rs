//! Chaos suite: the fault-tolerant pipeline under deterministic fault
//! injection. Asserts that (1) a zero-fault supervised run is
//! byte-identical to the strict pipeline, (2) runs with ≤20% record
//! corruption plus geocode failures still produce output, with *exact*
//! quarantine accounting, (3) chaos outputs are bitwise identical across
//! thread budgets for a fixed fault seed, and (4) stage kills degrade or
//! fail the run according to the stage's supervision policy.
// Test/demo code: panicking on malformed setup is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use epc_faults::{corrupt_dataset, Corruption, DeterministicInjector};
use epc_model::wellknown as wk;
use epc_query::predicate::Predicate;
use epc_query::query::Query;
use epc_query::Stakeholder;
use epc_runtime::RuntimeConfig;
use epc_synth::city::CityConfig;
use epc_synth::epcgen::{EpcGenerator, SynthConfig, SyntheticCollection};
use epc_synth::noise::{apply_noise, NoiseConfig};
use indice::config::IndiceConfig;
use indice::engine::{Indice, SupervisedOutput};
use indice::pipeline::RunOutcome;

const FAULT_SEED: u64 = 0xC1A05;

fn collection() -> SyntheticCollection {
    let mut c = EpcGenerator::new(SynthConfig {
        n_records: 900,
        city: CityConfig {
            n_districts: 4,
            neighbourhoods_per_district: 2,
            streets_per_neighbourhood: 3,
            houses_per_street: 8,
            ..CityConfig::default()
        },
        ..SynthConfig::default()
    })
    .generate();
    apply_noise(&mut c, &NoiseConfig::default());
    c
}

fn engine_at(threads: usize) -> Indice {
    Indice::from_collection(collection(), IndiceConfig::default())
        .with_runtime(RuntimeConfig::new(threads))
}

fn injector(record_rate: f64, geocode_rate: f64) -> DeterministicInjector {
    DeterministicInjector::new(FAULT_SEED)
        .with_record_rate(record_rate)
        .with_corruption(Corruption::NonFinite {
            attribute: wk::ASPECT_RATIO.to_owned(),
        })
        .with_geocode_rate(geocode_rate)
}

/// The record keys the injector will corrupt, predicted independently by
/// replaying category selection + corruption on a fresh copy of the data.
fn predicted_corrupt_keys(record_rate: f64) -> Vec<String> {
    let c = collection();
    let mut selected = Query::filtered(Predicate::eq(wk::BUILDING_CATEGORY, "E.1.1"))
        .run(&c.dataset)
        .expect("category selection");
    corrupt_dataset(&mut selected, &injector(record_rate, 0.0)).expect("corruption applies")
}

#[test]
fn zero_fault_supervised_run_is_byte_identical_to_strict_run() {
    let engine = engine_at(2);
    let strict = engine
        .run(Stakeholder::PublicAdministration)
        .expect("strict run succeeds");
    let supervised = engine.run_supervised(Stakeholder::PublicAdministration, None, None);

    assert!(matches!(supervised.outcome, RunOutcome::Complete));
    assert_eq!(supervised.outcome.exit_code(), 0);
    assert!(supervised.quarantine.is_empty());
    assert!(supervised.degraded_stages.is_empty());

    // Every product byte-identical: the fault-tolerant machinery is pure
    // overhead-free delegation when no injector is attached.
    let sup_pre = supervised.preprocess.as_ref().expect("preprocess present");
    assert_eq!(strict.preprocess.kept_rows, sup_pre.kept_rows);
    assert_eq!(strict.preprocess.removed_rows, sup_pre.removed_rows);
    assert_eq!(strict.preprocess.cleaning, sup_pre.cleaning);
    let sup_analytics = supervised.analytics.as_ref().expect("analytics present");
    assert_eq!(
        strict.analytics.kmeans.assignments,
        sup_analytics.kmeans.assignments
    );
    assert_eq!(
        strict.analytics.kmeans.sse.to_bits(),
        sup_analytics.kmeans.sse.to_bits()
    );
    assert_eq!(strict.analytics.rules, sup_analytics.rules);
    assert_eq!(
        strict.dashboard.render_html(),
        supervised
            .dashboard
            .as_ref()
            .expect("dashboard present")
            .render_html()
    );
    assert_eq!(strict.artifacts, supervised.artifacts);
}

#[test]
fn fault_rates_up_to_twenty_percent_still_produce_output() {
    for rate in [0.0, 0.05, 0.2] {
        let inj = injector(rate, 0.1);
        let out = engine_at(2).run_supervised(Stakeholder::PublicAdministration, Some(&inj), None);
        assert!(
            out.outcome.produced_output(),
            "rate {rate}: run failed: {}",
            out.outcome
        );
        assert!(out.dashboard.is_some(), "rate {rate}: no dashboard");
        assert!(out.preprocess.is_some(), "rate {rate}: no preprocess");
        assert!(!out.artifacts.is_empty(), "rate {rate}: no artifacts");
        if rate > 0.0 {
            assert!(
                !out.quarantine.is_empty(),
                "rate {rate}: expected quarantined records"
            );
            assert_eq!(out.outcome.exit_code(), 3, "rate {rate}: expected degraded");
        }
    }
}

#[test]
fn quarantine_accounting_is_exact() {
    let rate = 0.2;
    let predicted = predicted_corrupt_keys(rate);
    assert!(
        !predicted.is_empty(),
        "corruption rate 0.2 must hit records"
    );

    let inj = injector(rate, 0.0);
    let out = engine_at(1).run_supervised(Stakeholder::PublicAdministration, Some(&inj), None);
    assert!(out.outcome.produced_output());

    // Every corrupted record — and nothing else — lands in the quarantine.
    let quarantined: Vec<&str> = out.quarantine.keys();
    let predicted_refs: Vec<&str> = predicted.iter().map(String::as_str).collect();
    assert_eq!(quarantined, predicted_refs);
    let histogram = out.quarantine.histogram();
    assert_eq!(histogram.get("non_finite"), Some(&predicted.len()));
    assert_eq!(histogram.len(), 1, "only non-finite faults were injected");

    // The stage report accounts for the same records.
    let stage = out.report.stage("preprocess").expect("preprocess stage");
    assert_eq!(stage.quarantined, predicted.len());
    assert_eq!(out.report.total_quarantined(), predicted.len());
}

#[test]
fn chaos_outputs_are_identical_across_thread_counts() {
    let run = |threads: usize| -> SupervisedOutput {
        let inj = injector(0.2, 0.1);
        engine_at(threads).run_supervised(Stakeholder::PublicAdministration, Some(&inj), None)
    };
    let reference = run(1);
    assert!(reference.outcome.produced_output());
    for threads in [2, 8] {
        let other = run(threads);
        assert_eq!(
            reference.outcome.exit_code(),
            other.outcome.exit_code(),
            "outcome differs at {threads} threads"
        );
        assert_eq!(
            reference.quarantine.keys(),
            other.quarantine.keys(),
            "quarantine set differs at {threads} threads"
        );
        assert_eq!(
            reference.quarantine.histogram(),
            other.quarantine.histogram(),
            "fault histogram differs at {threads} threads"
        );
        let ref_pre = reference.preprocess.as_ref().expect("preprocess");
        let other_pre = other.preprocess.as_ref().expect("preprocess");
        assert_eq!(
            ref_pre.kept_rows, other_pre.kept_rows,
            "kept rows differ at {threads} threads"
        );
        assert_eq!(
            ref_pre.degraded_rows, other_pre.degraded_rows,
            "degraded rows differ at {threads} threads"
        );
        assert_eq!(
            reference.artifacts, other.artifacts,
            "artifacts differ at {threads} threads"
        );
    }
}

#[test]
fn analytics_stage_kill_degrades_but_dashboard_survives() {
    let inj = DeterministicInjector::new(FAULT_SEED).kill_stage("analytics", 1);
    let out = engine_at(2).run_supervised(Stakeholder::PublicAdministration, Some(&inj), None);

    let RunOutcome::Degraded(reasons) = &out.outcome else {
        panic!("expected degraded outcome, got {}", out.outcome);
    };
    assert!(reasons.iter().any(|r| r.contains("analytics")));
    assert_eq!(out.outcome.exit_code(), 3);
    assert_eq!(out.degraded_stages, vec!["analytics".to_owned()]);
    assert!(out.analytics.is_none());

    // The dashboard still renders maps and distributions, and says what
    // is missing.
    let dashboard = out.dashboard.expect("degraded dashboard present");
    let html = dashboard.render_html();
    assert!(html.contains("Analytics unavailable"));
    assert!(!out.artifacts.is_empty());
}

#[test]
fn required_stage_kill_fails_the_run() {
    let inj = DeterministicInjector::new(FAULT_SEED).kill_stage("preprocess", 1);
    let out = engine_at(2).run_supervised(Stakeholder::PublicAdministration, Some(&inj), None);
    let RunOutcome::Failed(err) = &out.outcome else {
        panic!("expected failed outcome, got {}", out.outcome);
    };
    assert!(err.to_string().contains("preprocess"));
    assert_eq!(out.outcome.exit_code(), 1);
    assert!(out.dashboard.is_none());
    // The report still covers the attempted stage.
    assert_eq!(out.report.stages.len(), 1);
    assert_eq!(out.report.stages[0].name, "preprocess");
}
