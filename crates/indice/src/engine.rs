//! The INDICE engine: the three pipeline stages behind one handle, plus the
//! expert-configuration suggestion loop of §2.1.2.

use crate::analytics::AnalyticsOutput;
use crate::config::IndiceConfig;
use crate::error::IndiceError;
use crate::outliers::UnivariateMethod;
use crate::pipeline::{run_stages, supervised_stages, PipelineContext, RunOutcome, StagePolicy};
use crate::preprocess::PreprocessOutput;
use epc_faults::FaultInjector;
use epc_geo::region::RegionHierarchy;
use epc_geo::streetmap::StreetMap;
use epc_model::{Dataset, Quarantine};
use epc_query::config_store::ExpertConfigStore;
use epc_query::stakeholder::Stakeholder;
use epc_runtime::{PipelineReport, RuntimeConfig};
use epc_synth::epcgen::SyntheticCollection;
use epc_viz::dashboard::Dashboard;
use std::collections::BTreeMap;

/// The result of one full pipeline run.
#[derive(Debug, Clone)]
pub struct IndiceOutput {
    /// Stage-1 output (cleaned dataset + reports).
    pub preprocess: PreprocessOutput,
    /// Stage-2 output (clusters, rules, correlations).
    pub analytics: AnalyticsOutput,
    /// Stage-3 dashboard.
    pub dashboard: Dashboard,
    /// Standalone artifacts (SVG/GeoJSON/text), file name → content.
    pub artifacts: BTreeMap<String, String>,
    /// Per-stage instrumentation: wall time, record counts, and the
    /// records each stage quarantined.
    pub report: PipelineReport,
}

/// The result of one supervised (fault-tolerant) pipeline run. Unlike
/// [`IndiceOutput`], every stage product is optional: a degraded run may
/// be missing analytics, a failed run most products.
#[derive(Debug)]
pub struct SupervisedOutput {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Per-stage instrumentation, including quarantine accounting.
    pub report: PipelineReport,
    /// Stage-1 output, when preprocessing succeeded.
    pub preprocess: Option<PreprocessOutput>,
    /// Stage-2 output, when analytics succeeded.
    pub analytics: Option<AnalyticsOutput>,
    /// Stage-3 dashboard, when it was rendered (possibly degraded).
    pub dashboard: Option<Dashboard>,
    /// Standalone artifacts, file name → content.
    pub artifacts: BTreeMap<String, String>,
    /// Records diverted out of the run, with their faults.
    pub quarantine: Quarantine,
    /// Stages the supervisor degraded (skipped after failure).
    pub degraded_stages: Vec<String>,
}

/// The INDICE engine.
pub struct Indice {
    dataset: Dataset,
    street_map: StreetMap,
    hierarchy: RegionHierarchy,
    config: IndiceConfig,
    runtime: RuntimeConfig,
    expert_store: ExpertConfigStore<UnivariateMethod>,
}

impl Indice {
    /// Creates an engine from its raw parts, executing on the machine's
    /// default thread budget (override with [`Indice::with_runtime`]).
    pub fn new(
        dataset: Dataset,
        street_map: StreetMap,
        hierarchy: RegionHierarchy,
        config: IndiceConfig,
    ) -> Self {
        Indice {
            dataset,
            street_map,
            hierarchy,
            config,
            runtime: RuntimeConfig::default(),
            expert_store: ExpertConfigStore::new(),
        }
    }

    /// Sets the execution runtime (builder style). Outputs are bitwise
    /// identical for any thread budget — the runtime only changes how fast
    /// they are produced.
    pub fn with_runtime(mut self, runtime: RuntimeConfig) -> Self {
        self.runtime = runtime;
        self
    }

    /// Replaces the execution runtime in place.
    pub fn set_runtime(&mut self, runtime: RuntimeConfig) {
        self.runtime = runtime;
    }

    /// The engine's execution runtime.
    pub fn runtime(&self) -> RuntimeConfig {
        self.runtime
    }

    /// Creates an engine directly from a synthetic collection (the usual
    /// entry point of examples and benchmarks).
    pub fn from_collection(collection: SyntheticCollection, config: IndiceConfig) -> Self {
        Indice::new(
            collection.dataset,
            collection.city.street_map,
            collection.city.hierarchy,
            config,
        )
    }

    /// The engine's configuration.
    pub fn config(&self) -> &IndiceConfig {
        &self.config
    }

    /// The input dataset (before any pipeline stage).
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The region hierarchy of the city under analysis.
    pub fn hierarchy(&self) -> &RegionHierarchy {
        &self.hierarchy
    }

    /// Records an expert user's outlier-method choice for an attribute;
    /// choices accumulate as suggested defaults for non-experts (§2.1.2).
    /// Calls from non-expert stakeholders are ignored.
    pub fn record_outlier_choice(
        &self,
        stakeholder: Stakeholder,
        attribute: &str,
        method: UnivariateMethod,
    ) {
        if stakeholder.is_expert() {
            self.expert_store.record(attribute, method);
        }
    }

    /// The outlier method most used by experts for `attribute`, if any —
    /// what a non-expert user is offered.
    pub fn suggested_outlier_method(&self, attribute: &str) -> Option<UnivariateMethod> {
        self.expert_store.suggest(attribute)
    }

    /// An effective configuration where attributes with recorded expert
    /// choices use the suggested method instead of the built-in default.
    pub fn config_with_suggestions(&self) -> IndiceConfig {
        let mut cfg = self.config.clone();
        for (attr, method) in &mut cfg.outliers.univariate {
            if let Some(suggested) = self.expert_store.suggest(attr) {
                *method = suggested;
            }
        }
        cfg
    }

    /// A fresh pipeline context over the engine's inputs, with expert
    /// suggestions applied to the configuration.
    fn context(&self, stakeholder: Stakeholder) -> PipelineContext<'_> {
        PipelineContext::new(
            &self.dataset,
            &self.street_map,
            &self.hierarchy,
            self.config_with_suggestions(),
            stakeholder,
            self.runtime,
        )
    }

    /// Runs the full pipeline for a stakeholder: category selection →
    /// pre-processing → analytics → dashboard. Every stage is required:
    /// the first failing stage (or panic) is the error.
    pub fn run(&self, stakeholder: Stakeholder) -> Result<IndiceOutput, IndiceError> {
        let stages = supervised_stages().map(|(stage, _)| (stage, StagePolicy::Required));
        let mut ctx = self.context(stakeholder);
        let (outcome, report) = run_stages(&stages, &mut ctx);
        if let RunOutcome::Failed(e) = outcome {
            return Err(e);
        }
        let missing = |what: &str| {
            IndiceError::Internal(format!("pipeline ran but produced no {what} output"))
        };
        Ok(IndiceOutput {
            preprocess: ctx.preprocess.ok_or_else(|| missing("preprocess"))?,
            analytics: ctx.analytics.ok_or_else(|| missing("analytics"))?,
            dashboard: ctx.dashboard.ok_or_else(|| missing("dashboard"))?,
            artifacts: ctx.artifacts,
            report,
        })
    }

    /// Runs the pipeline under the stage supervisor: stage panics are
    /// caught, analytics failures degrade the dashboard instead of
    /// aborting, and quarantined records are accounted for. Never returns
    /// `Err` — failure is [`RunOutcome::Failed`] inside the output.
    ///
    /// `injector` attaches a fault injector (chaos testing); `obs` records
    /// stage spans, kernel trace points, and metrics, with stage timers
    /// reading the bundle's clock. Neither changes the pipeline products
    /// of a fault-free run.
    pub fn run_supervised<'a>(
        &'a self,
        stakeholder: Stakeholder,
        injector: Option<&'a dyn FaultInjector>,
        obs: Option<&'a epc_obs::Obs<'a>>,
    ) -> SupervisedOutput {
        let mut ctx = self.context(stakeholder);
        if let Some(injector) = injector {
            ctx = ctx.with_injector(injector);
        }
        if let Some(obs) = obs {
            ctx = ctx.with_obs(obs);
        }
        let (outcome, report) = run_stages(&supervised_stages(), &mut ctx);
        SupervisedOutput {
            outcome,
            report,
            preprocess: ctx.preprocess,
            analytics: ctx.analytics,
            dashboard: ctx.dashboard,
            artifacts: ctx.artifacts,
            quarantine: ctx.quarantine,
            degraded_stages: ctx.degraded_stages,
        }
    }

    /// Runs the supervised pipeline *durably*: every completed stage is
    /// checkpointed into `opts.run_dir` with atomic writes and journaled
    /// in `run.manifest.jsonl`, so an interrupted run can be resumed
    /// ([`crate::durable::DurableOptions::resume`]) and completes with
    /// artifacts byte-identical to an uninterrupted run. `Err` is reserved
    /// for durability I/O failures and injected crash points; pipeline
    /// failures surface as [`RunOutcome::Failed`] inside the output.
    pub fn run_durable(
        &self,
        stakeholder: Stakeholder,
        opts: &crate::durable::DurableOptions<'_>,
    ) -> Result<crate::durable::DurableOutput, IndiceError> {
        crate::durable::run_durable_inner(
            crate::durable::DurableInputs {
                dataset: &self.dataset,
                street_map: &self.street_map,
                hierarchy: &self.hierarchy,
                config: self.config_with_suggestions(),
                runtime: self.runtime,
            },
            stakeholder,
            opts,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epc_model::wellknown as wk;
    use epc_synth::city::CityConfig;
    use epc_synth::epcgen::{EpcGenerator, SynthConfig};
    use epc_synth::noise::{apply_noise, NoiseConfig};

    fn engine() -> Indice {
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
        Indice::from_collection(c, IndiceConfig::default())
    }

    #[test]
    fn end_to_end_run_for_the_pa_stakeholder() {
        let engine = engine();
        let out = engine.run(Stakeholder::PublicAdministration).unwrap();
        // Category filter applied.
        assert!(out.preprocess.cleaning.total < engine.dataset().n_rows());
        assert!(out.analytics.chosen_k >= 2);
        assert!(!out.analytics.rules.is_empty());
        assert!(out.dashboard.n_panels() >= 5);
        let html = out.dashboard.render_html();
        assert!(html.contains("INDICE"));
        assert!(!out.artifacts.is_empty());
    }

    #[test]
    fn run_reports_the_three_stages() {
        let engine = engine();
        let out = engine.run(Stakeholder::PublicAdministration).unwrap();
        let report = &out.report;
        let names: Vec<&str> = report.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["preprocess", "analytics", "dashboard"]);
        // Counts line up with the pipeline products.
        assert_eq!(
            report.stage("preprocess").unwrap().records_out,
            out.preprocess.dataset.n_rows()
        );
        assert_eq!(
            report.stage("dashboard").unwrap().records_out,
            out.artifacts.len()
        );
        // The zoom drill-down pages ride along as artifacts.
        for level in epc_model::Granularity::ALL {
            assert!(out
                .artifacts
                .contains_key(&format!("dashboard_{level}.html")));
        }
    }

    #[test]
    fn category_filter_can_be_disabled() {
        let mut c = EpcGenerator::new(SynthConfig {
            n_records: 400,
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
        apply_noise(&mut c, &NoiseConfig::none());
        let engine = Indice::from_collection(
            c,
            IndiceConfig {
                building_category: None,
                ..IndiceConfig::default()
            },
        );
        let out = engine.run(Stakeholder::Citizen).unwrap();
        assert_eq!(out.preprocess.cleaning.total, 400);
    }

    #[test]
    fn expert_choices_flow_into_the_config() {
        let engine = engine();
        // Non-expert choices are ignored.
        engine.record_outlier_choice(
            Stakeholder::Citizen,
            wk::U_WINDOWS,
            UnivariateMethod::default_boxplot(),
        );
        assert_eq!(engine.suggested_outlier_method(wk::U_WINDOWS), None);

        // Expert choices become the suggestion.
        engine.record_outlier_choice(
            Stakeholder::EnergyScientist,
            wk::U_WINDOWS,
            UnivariateMethod::default_boxplot(),
        );
        engine.record_outlier_choice(
            Stakeholder::EnergyScientist,
            wk::U_WINDOWS,
            UnivariateMethod::default_boxplot(),
        );
        engine.record_outlier_choice(
            Stakeholder::EnergyScientist,
            wk::U_WINDOWS,
            UnivariateMethod::default_mad(),
        );
        assert_eq!(
            engine.suggested_outlier_method(wk::U_WINDOWS),
            Some(UnivariateMethod::default_boxplot())
        );
        let cfg = engine.config_with_suggestions();
        let (_, method) = cfg
            .outliers
            .univariate
            .iter()
            .find(|(a, _)| a == wk::U_WINDOWS)
            .unwrap();
        assert_eq!(method, &UnivariateMethod::default_boxplot());
        // Attributes without suggestions keep the default.
        let (_, other) = cfg
            .outliers
            .univariate
            .iter()
            .find(|(a, _)| a == wk::U_OPAQUE)
            .unwrap();
        assert_eq!(other, &UnivariateMethod::default_mad());
    }

    #[test]
    fn unknown_category_yields_empty_error() {
        let mut c = EpcGenerator::new(SynthConfig {
            n_records: 100,
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
        apply_noise(&mut c, &NoiseConfig::none());
        let engine = Indice::from_collection(
            c,
            IndiceConfig {
                building_category: Some("Z.9.9".into()),
                ..IndiceConfig::default()
            },
        );
        assert_eq!(
            engine.run(Stakeholder::Citizen).unwrap_err(),
            IndiceError::EmptyCollection("category selection")
        );
    }

    #[test]
    fn different_stakeholders_get_different_dashboards() {
        let engine = engine();
        let pa = engine.run(Stakeholder::PublicAdministration).unwrap();
        let citizen = engine.run(Stakeholder::Citizen).unwrap();
        assert!(pa.dashboard.n_panels() > citizen.dashboard.n_panels());
    }
}
