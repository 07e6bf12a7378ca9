//! The pipeline as the traced run sees it.
//!
//! [`traced_durable_run`] recomposes the durable run behind `indice run`
//! from the library's public stage calls, with a span around each one; its
//! run directory must be byte-identical to the library's own
//! `Indice::run_durable`, which the callers check. The `replay_*`
//! functions call the public kernels again on the exact inputs a stage
//! used, inside kernel spans, and report every way their results differ
//! from the stage's outputs.

use crate::trace::Tracer;
use epc_geo::cleaning::{clean_addresses_degradable, AddressQuery, CleaningReport};
use epc_geo::region::RegionHierarchy;
use epc_geo::streetmap::StreetMap;
use epc_geo::{Address, GeoPoint, Geocoder, QuotaGeocoder, SimulatedGeocoder};
use epc_journal::{hash_hex, write_atomic, ArtifactRecord, Journal, StageEntry};
use epc_mining::apriori::TransactionSet;
use epc_mining::dbscan::dbscan_with_runtime;
use epc_mining::elbow::sse_curve_with_runtime;
use epc_mining::kdistance::estimate_dbscan_params;
use epc_mining::rules::{mine_rules_traced_with_runtime, AssociationRule};
use epc_mining::{KMeans, KMeansConfig, Matrix, MinMaxScaler};
use epc_model::wellknown as wk;
use epc_model::{Dataset, Quarantine};
use epc_query::{Predicate, Query, Stakeholder};
use epc_runtime::RuntimeConfig;
use indice::analytics::AnalyticsOutput;
use indice::checkpoint;
use indice::dashboard::{build_dashboard_with_spec, drilldown_series_detailed_with_runtime};
use indice::preprocess::{clean_phase, outlier_phase, CleanPhase, PreprocessOutput};
use indice::{IndiceConfig, KSelection};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Deterministic work counters, keyed by per-layer metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// Adds `by` to counter `name`.
pub fn count(counts: &mut Counts, name: &'static str, by: f64) {
    *counts.entry(name).or_default() += by;
}

/// Counters read from a cleaning report and a K-means fit.
pub fn count_products(counts: &mut Counts, cleaning: &CleaningReport, kmeans_iterations: usize) {
    count(
        counts,
        "epc-geo.geocoder_requests",
        cleaning.geocoder_requests as f64,
    );
    count(
        counts,
        "epc-geo.exact_matches",
        cleaning.exact_matches as f64,
    );
    count(counts, "epc-geo.addresses", cleaning.total as f64);
    count(
        counts,
        "epc-mining.kmeans_iterations",
        kmeans_iterations as f64,
    );
}

/// The reference inputs and settings every stage call shares.
pub struct Env<'a> {
    /// Referenced street map (also the simulated geocoder's truth).
    pub street_map: &'a StreetMap,
    /// Region hierarchy of the city.
    pub hierarchy: &'a RegionHierarchy,
    /// Effective configuration (the library default).
    pub config: &'a IndiceConfig,
    /// Thread budget.
    pub runtime: RuntimeConfig,
    /// Stakeholder the dashboards are built for.
    pub stakeholder: Stakeholder,
}

/// What the recomposed run produced, kept for the kernel replays.
pub struct RunProducts {
    /// Category-selected input of the clean phase.
    pub selected: Dataset,
    /// The clean phase, before outlier removal.
    pub clean: CleanPhase,
    /// The preprocess stage product.
    pub pre: PreprocessOutput,
    /// The analytics stage product.
    pub analytics: AnalyticsOutput,
}

fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// The category selection of stage 1 (`Query::run`).
pub fn select_category(tr: &Tracer, env: &Env<'_>, dataset: &Dataset) -> Result<Dataset, String> {
    match &env.config.building_category {
        Some(cat) => tr
            .span("epc-query.filter", || {
                Query::filtered(Predicate::eq(wk::BUILDING_CATEGORY, cat)).run(dataset)
            })
            .map_err(err("category selection")),
        None => Ok(dataset.clone()),
    }
}

/// The durable run's configuration fingerprint: configuration,
/// stakeholder, street map and regions, hashed as the run journal records
/// them.
pub fn config_fingerprint(env: &Env<'_>) -> Result<String, String> {
    let streets = env.street_map.to_text()?;
    let regions = serde_json::to_string(env.hierarchy).map_err(err("serializing regions"))?;
    let text = format!("{:?}|{:?}|{streets}|{regions}", env.config, env.stakeholder);
    Ok(hash_hex(text.as_bytes()))
}

/// Writes `text` to `dir/name` (`epc-journal.write`); the record's path is
/// relative to the run directory.
fn commit_file(
    tr: &Tracer,
    dir: &Path,
    rel_dir: &str,
    name: &str,
    text: &str,
) -> Result<ArtifactRecord, String> {
    let rec = tr
        .span("epc-journal.write", || {
            write_atomic(dir, name, text.as_bytes())
        })
        .map_err(err("writing checkpoint"))?;
    Ok(ArtifactRecord {
        file: format!("{rel_dir}{}", rec.file),
        ..rec
    })
}

/// The durable run behind `indice run`, one public call per span.
pub fn traced_durable_run(
    tr: &Tracer,
    env: &Env<'_>,
    dataset: &Dataset,
    run_dir: &Path,
    counts: &mut Counts,
) -> Result<RunProducts, String> {
    let ckpt_dir = run_dir.join(indice::durable::CHECKPOINT_DIR);
    fs::create_dir_all(&ckpt_dir).map_err(err("creating run directory"))?;
    let (config_fp, input_hash) = tr.span("epc-journal.hash_inputs", || {
        config_fingerprint(env).map(|fp| (fp, hash_hex(epc_model::csv::to_csv(dataset).as_bytes())))
    })?;
    let journal = Journal::at(run_dir);
    let entry = |seq: usize,
                 stage: &str,
                 (records_in, records_out): (usize, usize),
                 q: Option<&Quarantine>,
                 checkpoints| StageEntry {
        seq,
        stage: stage.to_owned(),
        config_fingerprint: config_fp.clone(),
        input_hash: input_hash.clone(),
        degraded: false,
        reasons: Vec::new(),
        records_in,
        records_out,
        quarantined: q.map_or(0, Quarantine::len),
        faults: q.map_or_else(BTreeMap::new, |q| q.histogram_from(0)),
        checkpoints,
    };
    let append = |e: StageEntry| {
        tr.span("epc-journal.append", || journal.append(&e))
            .map_err(err("appending journal entry"))
    };
    let ckpt = format!("{}/", indice::durable::CHECKPOINT_DIR);

    // Stage 1: category selection, clean phase, outlier phase.
    let (selected, clean, pre, quarantine) = tr.span("indice.preprocess", || {
        let selected = select_category(tr, env, dataset)?;
        count(counts, "epc-query.rows_scanned", dataset.n_rows() as f64);
        let input = tr.span("bench.copy", || selected.clone());
        let clean = tr
            .span("indice.clean_phase", || {
                clean_phase(
                    input,
                    env.street_map,
                    env.config,
                    &env.runtime,
                    None,
                    None,
                    env.config.geocoder_quota,
                )
            })
            .map_err(err("clean phase"))?;
        let input = tr.span("bench.copy", || clean.clone());
        let (pre, quarantine) = tr
            .span("indice.outlier_phase", || {
                outlier_phase(input, env.config, &env.runtime, None)
            })
            .map_err(err("outlier phase"))?;
        Ok::<_, String>((selected, clean, pre, quarantine))
    })?;
    let text = tr.span("indice.checkpoint_encode", || {
        checkpoint::encode_preprocess(&pre, &quarantine)
    });
    let rec = commit_file(tr, &ckpt_dir, &ckpt, "preprocess.ckpt.json", &text)?;
    let sizes = (selected.n_rows(), pre.dataset.n_rows());
    append(entry(0, "preprocess", sizes, Some(&quarantine), vec![rec]))?;

    // Stage 2: analytics.
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
        .map_err(err("analytics"))?;
    let text = tr.span("indice.checkpoint_encode", || {
        checkpoint::encode_analytics(&analytics)
    });
    let rec = commit_file(tr, &ckpt_dir, &ckpt, "analytics.ckpt.json", &text)?;
    let sizes = (pre.dataset.n_rows(), analytics.feature_rows.len());
    append(entry(1, "analytics", sizes, None, vec![rec]))?;

    // Stage 3: dashboard, drill-down pages, artifacts.
    let (dashboard, artifacts) = tr.span("indice.dashboard", || {
        build_dashboard(tr, env, &pre.dataset, &analytics, counts)
    })?;
    let html = tr.span("epc-viz.render_html", || dashboard.render_html());
    let mut records = vec![commit_file(
        tr,
        run_dir,
        "",
        indice::durable::DASHBOARD_FILE,
        &html,
    )?];
    for (file, content) in &artifacts {
        records.push(commit_file(tr, run_dir, "", file, content)?);
    }
    let sizes = (pre.dataset.n_rows(), artifacts.len());
    append(entry(2, "dashboard", sizes, None, records))?;

    count_products(counts, &pre.cleaning, analytics.kmeans.n_iter);
    Ok(RunProducts {
        selected,
        clean,
        pre,
        analytics,
    })
}

/// The dashboard stage: main dashboard plus the drill-down pages, as the
/// file name → content artifacts map the stage commits.
pub fn build_dashboard(
    tr: &Tracer,
    env: &Env<'_>,
    cleaned: &Dataset,
    analytics: &AnalyticsOutput,
    counts: &mut Counts,
) -> Result<(epc_viz::Dashboard, BTreeMap<String, String>), String> {
    let top_k = env.config.rule_stage.top_k;
    let spec = epc_query::stakeholder::default_report_spec(env.stakeholder);
    let out = tr
        .span("epc-viz.dashboard_build", || {
            build_dashboard_with_spec(cleaned, env.hierarchy, analytics, &spec, top_k)
        })
        .map_err(err("dashboard"))?;
    let pages = tr
        .span("epc-viz.drilldown", || {
            drilldown_series_detailed_with_runtime(
                cleaned,
                env.hierarchy,
                analytics,
                env.stakeholder,
                top_k,
                &env.runtime,
            )
        })
        .map_err(err("drill-down pages"))?;
    count(counts, "epc-viz.markers", out.n_markers as f64);
    let mut artifacts = out.artifacts;
    for page in pages {
        count(counts, "epc-viz.markers", page.markers as f64);
        artifacts.insert(page.file, page.html);
    }
    Ok((out.dashboard, artifacts))
}

/// Maximum DBSCAN parameter-estimation sample of the preprocess stage.
const PARAM_ESTIMATION_SAMPLE: usize = 1_500;

/// Rows of `dataset` complete on `features`, and their values row-major.
fn complete_rows(dataset: &Dataset, features: &[String]) -> Result<(Vec<usize>, Matrix), String> {
    let ids: Vec<_> = features
        .iter()
        .map(|f| dataset.schema().require(f))
        .collect::<Result<_, _>>()
        .map_err(err("feature lookup"))?;
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for r in 0..dataset.n_rows() {
        let vals: Option<Vec<f64>> = ids.iter().map(|&id| dataset.num(r, id)).collect();
        if let Some(v) = vals {
            rows.push(r);
            data.extend(v);
        }
    }
    let n = rows.len();
    Ok((rows, Matrix::from_vec(data, n, ids.len())))
}

/// Replays the cleaning kernel over the validated rows a clean phase
/// cleaned, with the geocoder quota it was granted.
pub fn replay_cleaning(
    tr: &Tracer,
    env: &Env<'_>,
    validated: &Dataset,
    quota: usize,
    expected: &CleaningReport,
) -> Result<Vec<String>, String> {
    let s = validated.schema();
    let id = |name| s.require(name).map_err(err("address lookup"));
    let (addr, hn, zip, lat, lon) = (
        id(wk::ADDRESS)?,
        id(wk::HOUSE_NUMBER)?,
        id(wk::ZIP_CODE)?,
        id(wk::LATITUDE)?,
        id(wk::LONGITUDE)?,
    );
    let queries: Vec<AddressQuery> = (0..validated.n_rows())
        .map(|row| AddressQuery {
            id: row,
            address: Address {
                street: validated.cat(row, addr).unwrap_or("").to_owned(),
                house_number: validated.cat(row, hn).map(str::to_owned),
                zip: validated.cat(row, zip).map(str::to_owned),
            },
            point: match (validated.num(row, lat), validated.num(row, lon)) {
                (Some(lat), Some(lon)) => Some(GeoPoint { lat, lon }),
                _ => None,
            },
        })
        .collect();
    let geocoder = QuotaGeocoder::new(
        SimulatedGeocoder::new(env.street_map.clone(), 0.55, 0.02),
        quota,
    );
    let geocoder_ref: Option<&dyn Geocoder> = (env.config.geocoder_quota > 0).then_some(&geocoder);
    let (_, report) = tr.span("epc-geo.clean", || {
        clean_addresses_degradable(
            &queries,
            env.street_map,
            geocoder_ref,
            &env.config.cleaning,
            &env.runtime,
            None,
        )
    });
    Ok(if &report == expected {
        Vec::new()
    } else {
        vec![format!(
            "cleaning kernel report {report:?} != stage report {expected:?}"
        )]
    })
}

/// Replays the univariate detectors, the k-distance estimate and DBSCAN
/// over the clean phase that produced `pre`.
pub fn replay_outliers(
    tr: &Tracer,
    env: &Env<'_>,
    clean: &CleanPhase,
    pre: &PreprocessOutput,
    counts: &mut Counts,
) -> Result<Vec<String>, String> {
    let mut mismatches = Vec::new();
    let data = &clean.dataset;
    let to_input = |rows: Vec<usize>| -> Vec<usize> {
        rows.into_iter()
            .filter_map(|r| clean.orig_of.get(r).copied())
            .collect()
    };
    for (attr, method) in &env.config.outliers.univariate {
        let id = data
            .schema()
            .require(attr)
            .map_err(err("univariate attribute"))?;
        let (values, rows) = data.numeric_with_rows(id);
        let hits = tr.span("epc-stats.univariate", || method.detect(&values));
        let hits = to_input(
            hits.into_iter()
                .filter_map(|i| rows.get(i).copied())
                .collect(),
        );
        if pre.univariate_flagged.get(attr) != Some(&hits) {
            mismatches.push(format!(
                "univariate {attr}: kernel flags differ from the stage"
            ));
        }
    }
    if !env.config.outliers.multivariate {
        return Ok(mismatches);
    }
    let (rows, matrix) = complete_rows(data, &env.config.analytics.features)?;
    if rows.len() < 10 {
        return Ok(mismatches);
    }
    let (_, scaled) = MinMaxScaler::fit_transform(&matrix).ok_or("scaling an empty matrix")?;
    let stride = (rows.len() / PARAM_ESTIMATION_SAMPLE).max(1);
    let sample: Vec<Vec<f64>> = (0..rows.len())
        .step_by(stride)
        .map(|i| scaled.row(i).to_vec())
        .collect();
    let sample = Matrix::from_rows(&sample);
    let o = &env.config.outliers;
    let params = tr.span("epc-mining.kdistance", || {
        estimate_dbscan_params(&sample, &o.min_points_candidates, o.stability_tol)
    });
    if params != pre.dbscan_params {
        mismatches.push(format!(
            "k-distance estimate {params:?} != stage parameters {:?}",
            pre.dbscan_params
        ));
    }
    let Some(params) = params else {
        return Ok(mismatches);
    };
    let result = tr.span("epc-mining.dbscan", || {
        dbscan_with_runtime(&scaled, &params, &env.runtime)
    });
    count(
        counts,
        "epc-mining.dbscan_neighbour_links",
        result.neighbour_links as f64,
    );
    count(
        counts,
        "epc-mining.dbscan_region_queries",
        result.region_queries as f64,
    );
    let noise = to_input(
        result
            .noise_indices()
            .into_iter()
            .filter_map(|i| rows.get(i).copied())
            .collect(),
    );
    if noise != pre.multivariate_flagged {
        mismatches.push("DBSCAN noise rows differ from multivariate_flagged".to_owned());
    }
    Ok(mismatches)
}

/// Replays the elbow sweep, the final K-means fit and Apriori over the
/// cleaned dataset the analytics stage consumed.
pub fn replay_analytics(
    tr: &Tracer,
    env: &Env<'_>,
    cleaned: &Dataset,
    analytics: &AnalyticsOutput,
    counts: &mut Counts,
) -> Result<Vec<String>, String> {
    let mut mismatches = Vec::new();
    let a = &env.config.analytics;
    let (rows, matrix) = complete_rows(cleaned, &a.features)?;
    if rows != analytics.feature_rows {
        mismatches.push("feature rows differ from AnalyticsOutput".to_owned());
    }
    let (_, scaled) = MinMaxScaler::fit_transform(&matrix).ok_or("scaling an empty matrix")?;
    let base = KMeansConfig {
        k: 0,
        init: a.init,
        seed: a.seed,
        ..KMeansConfig::default()
    };
    if let KSelection::Elbow { k_min, k_max } = a.k {
        let curve = tr.span("epc-mining.elbow", || {
            sse_curve_with_runtime(&scaled, k_min..=k_max, &base, &env.runtime)
        });
        if curve != analytics.sse_curve {
            mismatches.push("SSE curve differs from AnalyticsOutput".to_owned());
        }
    }
    let fit = tr.span("epc-mining.kmeans", || {
        KMeans::new(KMeansConfig {
            k: analytics.chosen_k,
            ..base
        })
        .fit_traced(&scaled, &env.runtime)
    });
    match fit {
        Some((model, trace)) => {
            if model != analytics.kmeans || trace.round_inertia.len() != analytics.kmeans.n_iter {
                mismatches.push(format!(
                    "K-means refit at K = {} differs from AnalyticsOutput",
                    analytics.chosen_k
                ));
            }
        }
        None => mismatches.push("K-means refit failed".to_owned()),
    }

    let transactions = transactions(cleaned, analytics, env.config, &analytics.feature_rows)?;
    let rules = replay_apriori(tr, &transactions, env.config, &env.runtime, counts);
    if rules != analytics.rules {
        mismatches.push("mined rules differ from analytics.rules".to_owned());
    }
    Ok(mismatches)
}

/// The Apriori transactions of `rows`: each row's discretized features
/// and response, as the analytics stage and `rules_by_region` build them.
pub fn transactions(
    dataset: &Dataset,
    analytics: &AnalyticsOutput,
    config: &IndiceConfig,
    rows: &[usize],
) -> Result<TransactionSet, String> {
    let response = dataset
        .schema()
        .require(&config.analytics.response)
        .map_err(err("response"))?;
    let ids: Vec<_> = analytics
        .discretizers
        .iter()
        .map(|d| dataset.schema().require(&d.attribute))
        .collect::<Result<_, _>>()
        .map_err(err("discretizer attribute"))?;
    let mut transactions = TransactionSet::new();
    for &row in rows {
        let mut items: Vec<String> = Vec::with_capacity(ids.len() + 1);
        for (d, &id) in analytics.discretizers.iter().zip(&ids) {
            if let Some(x) = dataset.num(row, id) {
                items.push(d.item(x));
            }
        }
        if let Some(y) = dataset.num(row, response) {
            items.push(analytics.response_discretizer.item(y));
        }
        transactions.push_owned(&items);
    }
    Ok(transactions)
}

/// Mines `transactions` inside an `epc-mining.apriori` kernel span and
/// counts the candidates and frequent itemsets of every level.
pub fn replay_apriori(
    tr: &Tracer,
    transactions: &TransactionSet,
    config: &IndiceConfig,
    runtime: &RuntimeConfig,
    counts: &mut Counts,
) -> Vec<AssociationRule> {
    let (rules, trace) = tr.span("epc-mining.apriori", || {
        mine_rules_traced_with_runtime(transactions, &config.rule_stage.rules, runtime)
    });
    for level in &trace.levels {
        count(
            counts,
            "epc-mining.apriori_candidates",
            level.candidates as f64,
        );
        count(counts, "epc-mining.apriori_frequent", level.frequent as f64);
    }
    rules
}

/// All kernel replays of one recomposed run.
pub fn replay_run(
    tr: &Tracer,
    env: &Env<'_>,
    run: &RunProducts,
    counts: &mut Counts,
) -> Result<Vec<String>, String> {
    tr.op("replay", "bench.kernel_replay", || {
        let validated = run
            .selected
            .select_rows(&run.clean.orig_of)
            .map_err(err("selecting validated rows"))?;
        let mut m = replay_cleaning(
            tr,
            env,
            &validated,
            env.config.geocoder_quota,
            &run.clean.cleaning,
        )?;
        m.extend(replay_outliers(tr, env, &run.clean, &run.pre, counts)?);
        m.extend(replay_analytics(
            tr,
            env,
            &run.pre.dataset,
            &run.analytics,
            counts,
        )?);
        Ok(m)
    })
}
