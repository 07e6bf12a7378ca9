//! End-to-end pipeline integration: all three stakeholders, determinism,
//! and serialization round-trips on a noisy mid-size collection.
// Test/demo code: panicking on malformed setup is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use epc_model::wellknown as wk;
use epc_model::Value;
use epc_query::Stakeholder;
use epc_synth::city::CityConfig;
use epc_synth::epcgen::{EpcGenerator, SynthConfig, SyntheticCollection};
use epc_synth::noise::{apply_noise, NoiseConfig};
use indice::config::IndiceConfig;
use indice::engine::Indice;

fn collection(n: usize, seed: u64) -> SyntheticCollection {
    let mut c = EpcGenerator::new(SynthConfig {
        n_records: n,
        seed,
        city: CityConfig {
            n_districts: 6,
            neighbourhoods_per_district: 3,
            streets_per_neighbourhood: 4,
            houses_per_street: 10,
            ..CityConfig::default()
        },
        ..SynthConfig::default()
    })
    .generate();
    apply_noise(&mut c, &NoiseConfig::default());
    c
}

#[test]
fn every_stakeholder_gets_a_complete_run() {
    let engine = Indice::from_collection(collection(1_500, 1), IndiceConfig::default());
    for stakeholder in Stakeholder::ALL {
        let out = engine
            .run(stakeholder)
            .unwrap_or_else(|e| panic!("run failed for {}: {e}", stakeholder.name()));
        assert!(
            out.preprocess.dataset.n_rows() > 800,
            "{}",
            stakeholder.name()
        );
        assert!(out.analytics.chosen_k >= 2);
        assert!(out.dashboard.n_panels() >= 3);
        let html = out.dashboard.render_html();
        assert!(html.len() > 10_000, "dashboard should embed real content");
        assert!(html.contains(stakeholder.name()));
    }
}

#[test]
fn strict_run_reports_the_records_preprocessing_quarantined() {
    let mut c = collection(600, 3);
    let schema = c.dataset.schema();
    let category = schema.require(wk::BUILDING_CATEGORY).unwrap();
    let u_windows = schema.require(wk::U_WINDOWS).unwrap();
    // Plant a non-finite value in three rows the category filter keeps.
    let planted: Vec<usize> = (0..c.dataset.n_rows())
        .filter(|&row| c.dataset.cat(row, category) == Some("E.1.1"))
        .take(3)
        .collect();
    assert_eq!(planted.len(), 3);
    for &row in &planted {
        c.dataset
            .set_value(row, u_windows, Value::Num(f64::NAN))
            .unwrap();
    }
    let out = Indice::from_collection(c, IndiceConfig::default())
        .run(Stakeholder::PublicAdministration)
        .unwrap();
    let stage = out.report.stage("preprocess").unwrap();
    assert_eq!(stage.quarantined, planted.len());
    assert_eq!(stage.faults.get("non_finite"), Some(&planted.len()));
}

#[test]
fn pipeline_is_deterministic() {
    let a = Indice::from_collection(collection(1_000, 7), IndiceConfig::default())
        .run(Stakeholder::PublicAdministration)
        .unwrap();
    let b = Indice::from_collection(collection(1_000, 7), IndiceConfig::default())
        .run(Stakeholder::PublicAdministration)
        .unwrap();
    assert_eq!(a.preprocess.removed_rows, b.preprocess.removed_rows);
    assert_eq!(a.analytics.chosen_k, b.analytics.chosen_k);
    assert_eq!(
        a.analytics.kmeans.assignments,
        b.analytics.kmeans.assignments
    );
    assert_eq!(a.analytics.rules.len(), b.analytics.rules.len());
    assert_eq!(a.dashboard.render_html(), b.dashboard.render_html());
}

#[test]
fn different_seeds_give_different_data_same_shape() {
    let a = collection(1_000, 1);
    let b = collection(1_000, 2);
    assert_ne!(a.dataset, b.dataset);
    assert_eq!(a.dataset.n_cols(), b.dataset.n_cols());
}

#[test]
fn cleaned_dataset_round_trips_through_csv() {
    let engine = Indice::from_collection(collection(600, 3), IndiceConfig::default());
    let out = engine.run(Stakeholder::Citizen).unwrap();
    let csv = epc_model::csv::to_csv(&out.preprocess.dataset);
    let back = epc_model::csv::from_csv(out.preprocess.dataset.schema_arc(), &csv).unwrap();
    assert_eq!(back.n_rows(), out.preprocess.dataset.n_rows());
    let s = back.schema();
    let eph = s.require(wk::EPH).unwrap();
    for row in (0..back.n_rows()).step_by(97) {
        assert_eq!(back.num(row, eph), out.preprocess.dataset.num(row, eph));
    }
}

#[test]
fn category_filter_keeps_only_e11() {
    let engine = Indice::from_collection(collection(1_200, 4), IndiceConfig::default());
    let out = engine.run(Stakeholder::PublicAdministration).unwrap();
    let ds = &out.preprocess.dataset;
    let cat_id = ds.schema().require(wk::BUILDING_CATEGORY).unwrap();
    for row in 0..ds.n_rows() {
        assert_eq!(ds.cat(row, cat_id), Some("E.1.1"));
    }
}

#[test]
fn removed_plus_kept_equals_selected() {
    let engine = Indice::from_collection(collection(900, 5), IndiceConfig::default());
    let out = engine.run(Stakeholder::PublicAdministration).unwrap();
    assert_eq!(
        out.preprocess.kept_rows.len() + out.preprocess.removed_rows.len(),
        out.preprocess.cleaning.total
    );
    assert_eq!(
        out.preprocess.kept_rows.len(),
        out.preprocess.dataset.n_rows()
    );
}
