//! `explore-25k`: one client exploring a finished run's dashboards.
//!
//! Set-up synthesises 25k certificates, writes and loads the inputs, and
//! runs the pipeline once (`Indice::run_durable`), keeping the cleaned
//! dataset and the analytics in memory. Then one client sends a seeded
//! request mix in a closed loop, each request ending with its HTML or text
//! in hand. Every block of the mix holds each request shape once:
//!
//! - zoom pages: a stakeholder's dashboard at one granularity;
//! - area pages: a citizen dashboard over the rows `Query` selects for one
//!   district or neighbourhood, with skewed region popularity;
//! - rankings: districts or neighbourhoods ranked by mean EPH (`group_by`);
//! - per-region rules: one region's association rules (`rules_by_region`).
//!
//! Checks: no request errors; identical requests get identical bytes; the
//! digest over the first [`checked`] responses, in order, is pinned per
//! seed. The traced run also recomposes the set-up run under spans, checks
//! it writes the same run directory, replays the kernels, runs the same
//! requests untraced and traced, and replays each traced rule request's
//! per-region Apriori runs.

use crate::batch::count_run_dir;
use crate::inputs::{load_csv, load_reference, synthesize, write_inputs};
use crate::pipeline::{
    count, count_products, replay_apriori, replay_run, traced_durable_run, transactions, Counts,
    Env,
};
use crate::trace::Tracer;
use crate::util::{clear_dir, median, peak_rss_mb, percentile, tree_digest, SplitMix};
use crate::{check_pinned, finish_counts, start_peak_window, Args, Outcome, SETUPS};
use epc_geo::region::RegionHierarchy;
use epc_journal::hash_hex;
use epc_mining::rules::AssociationRule;
use epc_model::wellknown as wk;
use epc_model::{Dataset, Granularity};
use epc_query::stakeholder::default_report_spec;
use epc_query::{group_by, AggFn, Predicate, Query, ReportSpec, Stakeholder};
use epc_runtime::RuntimeConfig;
use indice::analytics::{rules_by_region_with_runtime, AnalyticsOutput};
use indice::dashboard::build_dashboard_with_spec;
use indice::durable::DurableOptions;
use indice::{Indice, IndiceConfig, RunOutcome};
use std::collections::BTreeMap;
use std::time::Instant;

/// Certificates in the collection.
pub fn records(smoke: bool) -> usize {
    if smoke {
        2_000
    } else {
        25_000
    }
}

/// Responses covered by the pinned digest, the traced run's requests, and
/// the fewest requests a timed run makes (so the p95 tail of a full-size
/// run has at least ten samples beyond it).
pub fn checked(smoke: bool) -> usize {
    if smoke {
        40
    } else {
        200
    }
}

/// Fraction of requests at or below `request_tail_ms`.
pub const TAIL: f64 = 0.95;

/// Smallest region per-region rules are mined for.
const MIN_REGION_SIZE: usize = 100;

/// One request of the mix.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A stakeholder's dashboard at one granularity.
    Zoom(Stakeholder, Granularity),
    /// A citizen dashboard over one region's rows.
    Area(Granularity, String),
    /// Regions at a level ranked by mean EPH.
    Ranking(Granularity),
    /// One region's association rules.
    Rules(Granularity, String),
}

impl Request {
    /// The request's shape: its kind, stakeholder and level, without the
    /// region.
    pub fn shape(&self) -> String {
        match self {
            Request::Zoom(s, g) => format!("zoom-{s:?}-{g:?}"),
            Request::Area(g, _) => format!("area-{g:?}"),
            Request::Ranking(g) => format!("ranking-{g:?}"),
            Request::Rules(g, _) => format!("rules-{g:?}"),
        }
    }
}

/// A served request: the HTML or text, and for a rule request every
/// region's rules as `rules_by_region` returned them.
pub struct Response {
    /// The bytes the client receives.
    pub body: String,
    /// `rules_by_region`'s output, for a rule request.
    pub region_rules: Option<BTreeMap<String, Vec<AssociationRule>>>,
}

impl From<String> for Response {
    fn from(body: String) -> Self {
        Response {
            body,
            region_rules: None,
        }
    }
}

/// Levels that area pages, rankings and rule requests address.
const REGION_LEVELS: [Granularity; 2] = [Granularity::District, Granularity::Neighbourhood];

/// One slot of a request block; area and rule slots get their region when
/// served.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Zoom(Stakeholder, Granularity),
    Area(Granularity),
    Ranking(Granularity),
    Rules(Granularity),
}

/// Every request shape once, in a fixed order: the zoom page of each
/// stakeholder x granularity pair, then for districts and neighbourhoods
/// one area page, one ranking and one rule request. No traffic source
/// gives the shares of the shapes, so each shape counts the same.
fn block() -> Vec<Slot> {
    let zooms = Stakeholder::ALL
        .iter()
        .flat_map(|&s| Granularity::ALL.map(|g| Slot::Zoom(s, g)));
    let regional = REGION_LEVELS
        .iter()
        .flat_map(|&l| [Slot::Area(l), Slot::Ranking(l), Slot::Rules(l)]);
    zooms.chain(regional).collect()
}

/// Requests in one block of the mix.
pub fn block_len() -> usize {
    block().len()
}

/// Regions of one level, most popular first (a seeded order), with the
/// cumulative Zipf weights (exponent 1) of that order.
struct Popularity {
    names: Vec<String>,
    cumulative: Vec<f64>,
}

impl Popularity {
    fn new(rng: &mut SplitMix, regions: &[epc_geo::region::Region]) -> Self {
        let mut names: Vec<String> = regions.iter().map(|r| r.name.clone()).collect();
        for i in (1..names.len()).rev() {
            names.swap(i, rng.below(i + 1));
        }
        let cumulative = (1..=names.len())
            .scan(0.0, |acc, rank| {
                *acc += 1.0 / rank as f64;
                Some(*acc)
            })
            .collect();
        Popularity { names, cumulative }
    }

    fn pick(&self, rng: &mut SplitMix) -> String {
        let u = rng.unit() * self.cumulative.last().copied().unwrap_or(0.0);
        let i = self.cumulative.partition_point(|&c| c <= u);
        self.names[i.min(self.names.len() - 1)].clone()
    }
}

/// The seeded request stream: blocks of every request shape once, each
/// block in a seeded order; request `i` depends only on the seed and `i`'s
/// predecessors.
pub struct Mix {
    rng: SplitMix,
    block: Vec<Slot>,
    districts: Popularity,
    neighbourhoods: Popularity,
}

impl Mix {
    /// The stream for `seed` over `hierarchy`'s districts and
    /// neighbourhoods.
    pub fn new(seed: u64, hierarchy: &RegionHierarchy) -> Self {
        let mut rng = SplitMix(seed ^ 0x5EED_E2E0);
        let districts = Popularity::new(&mut rng, &hierarchy.districts);
        let neighbourhoods = Popularity::new(&mut rng, &hierarchy.neighbourhoods);
        Mix {
            rng,
            block: Vec::new(),
            districts,
            neighbourhoods,
        }
    }

    fn region(&mut self, level: Granularity) -> String {
        match level {
            Granularity::District => self.districts.pick(&mut self.rng),
            _ => self.neighbourhoods.pick(&mut self.rng),
        }
    }

    /// The next request.
    pub fn next_request(&mut self) -> Request {
        if self.block.is_empty() {
            self.block = block();
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i + 1);
                self.block.swap(i, j);
            }
        }
        match self.block.pop().expect("a block is never empty") {
            Slot::Zoom(s, g) => Request::Zoom(s, g),
            Slot::Area(level) => Request::Area(level, self.region(level)),
            Slot::Ranking(level) => Request::Ranking(level),
            Slot::Rules(level) => Request::Rules(level, self.region(level)),
        }
    }
}

/// What requests are served from.
pub struct Served<'a> {
    /// The cleaned, outlier-free dataset.
    pub cleaned: &'a Dataset,
    /// The analytics product.
    pub analytics: &'a AnalyticsOutput,
    /// Region hierarchy.
    pub hierarchy: &'a RegionHierarchy,
    /// Configuration the run used.
    pub config: &'a IndiceConfig,
    /// Thread budget.
    pub runtime: RuntimeConfig,
}

fn region_attr(level: Granularity) -> &'static str {
    match level {
        Granularity::District => wk::DISTRICT,
        _ => wk::NEIGHBOURHOOD,
    }
}

/// Serves one request.
pub fn serve(
    tr: &Tracer,
    s: &Served<'_>,
    req: &Request,
    counts: &mut Counts,
) -> Result<Response, String> {
    let top_k = s.config.rule_stage.top_k;
    let page = |data: &Dataset, spec: &ReportSpec, counts: &mut Counts| {
        let out = tr
            .span("epc-viz.dashboard_build", || {
                build_dashboard_with_spec(data, s.hierarchy, s.analytics, spec, top_k)
            })
            .map_err(|e| format!("{req:?}: {e}"))?;
        count(counts, "epc-viz.markers", out.n_markers as f64);
        let html = tr.span("epc-viz.render_html", || out.dashboard.render_html());
        count(counts, "epc-viz.html_bytes", html.len() as f64);
        Ok::<_, String>(html)
    };
    match req {
        Request::Zoom(stakeholder, level) => {
            let spec = ReportSpec {
                granularity: *level,
                ..default_report_spec(*stakeholder)
            };
            page(s.cleaned, &spec, counts).map(Response::from)
        }
        Request::Area(level, name) => {
            let rows = tr
                .span("epc-query.filter", || {
                    Query::filtered(Predicate::eq(region_attr(*level), name)).run(s.cleaned)
                })
                .map_err(|e| format!("{req:?}: {e}"))?;
            count(counts, "epc-query.rows_scanned", s.cleaned.n_rows() as f64);
            if rows.is_empty() {
                return Err(format!("{req:?}: no certificates in the area"));
            }
            page(&rows, &default_report_spec(Stakeholder::Citizen), counts).map(Response::from)
        }
        Request::Ranking(level) => {
            let mut groups = tr
                .span("epc-query.group_by", || {
                    group_by(
                        s.cleaned,
                        region_attr(*level),
                        wk::EPH,
                        &[AggFn::Mean, AggFn::Count],
                    )
                })
                .map_err(|e| format!("{req:?}: {e}"))?;
            count(counts, "epc-query.rows_scanned", s.cleaned.n_rows() as f64);
            groups.sort_by(|a, b| {
                let key = |g: &epc_query::GroupRow| g.values[0].unwrap_or(f64::INFINITY);
                key(a)
                    .total_cmp(&key(b))
                    .then_with(|| a.group.cmp(&b.group))
            });
            Ok(Response::from(
                groups
                    .iter()
                    .map(|g| format!("{} {:?} {}\n", g.group, g.values, g.n_rows))
                    .collect::<String>(),
            ))
        }
        Request::Rules(level, name) => {
            let by_region = tr
                .span("indice.rules_by_region", || {
                    rules_by_region_with_runtime(
                        s.cleaned,
                        s.analytics,
                        s.config,
                        *level,
                        MIN_REGION_SIZE,
                        &s.runtime,
                    )
                })
                .map_err(|e| format!("{req:?}: {e}"))?;
            let rules = by_region.get(name).map(Vec::as_slice).unwrap_or_default();
            Ok(Response {
                body: rules
                    .iter()
                    .take(top_k)
                    .map(|r| format!("{r:?}\n"))
                    .collect(),
                region_rules: Some(by_region),
            })
        }
    }
}

/// The set-up products requests are served from.
struct Setup {
    cleaned: Dataset,
    analytics: AnalyticsOutput,
    hierarchy: RegionHierarchy,
    digest: String,
    counts: Counts,
}

/// Synthesises, writes and loads the inputs, then runs the pipeline
/// durably; returns the products and the set-up time.
fn setup(args: &Args, runtime: RuntimeConfig) -> Result<(Setup, f64), String> {
    let data_dir = args.work_dir.join("data");
    let run_dir = args.work_dir.join("run");
    clear_dir(&data_dir).map_err(|e| format!("clearing data dir: {e}"))?;
    clear_dir(&run_dir).map_err(|e| format!("clearing run dir: {e}"))?;
    let t0 = Instant::now();
    write_inputs(&data_dir, &synthesize(records(args.smoke), args.seed))?;
    let csv = load_csv(&Tracer::new(false), &data_dir.join("epcs.csv"))?;
    let (street_map, hierarchy) = load_reference(&data_dir)?;
    let engine = Indice::new(
        csv.dataset,
        street_map,
        hierarchy.clone(),
        IndiceConfig::default(),
    )
    .with_runtime(runtime);
    let out = engine
        .run_durable(
            Stakeholder::PublicAdministration,
            &DurableOptions::new(&run_dir),
        )
        .map_err(|e| format!("durable run: {e}"))?;
    let took = t0.elapsed().as_secs_f64();
    if !matches!(out.outcome, RunOutcome::Complete) {
        return Err(format!("set-up run outcome {}", out.outcome));
    }
    let (Some(pre), Some(analytics)) = (out.preprocess, out.analytics) else {
        return Err("set-up run kept no products".to_owned());
    };
    let digest = tree_digest(&run_dir).map_err(|e| format!("digesting run dir: {e}"))?;
    let mut counts = Counts::new();
    count(&mut counts, "epc-model.csv_bytes", csv.bytes as f64);
    count_products(&mut counts, &pre.cleaning, analytics.kmeans.n_iter);
    count_run_dir(&run_dir, &mut counts)?;
    Ok((
        Setup {
            cleaned: pre.dataset,
            analytics,
            hierarchy,
            digest,
            counts,
        },
        took,
    ))
}

/// What a sequence of requests measured: per request, its latency, the
/// hash of its response (empty if it failed) and its shape.
#[derive(Default)]
struct Trail {
    latencies: Vec<f64>,
    hashes: Vec<String>,
    shapes: Vec<String>,
}

/// Serves requests from `mix` until `stop` says so, handing each response
/// to `after`. Every request is one checked operation.
#[allow(clippy::too_many_arguments)]
fn serve_loop(
    tr: &Tracer,
    served: &Served<'_>,
    mix: &mut Mix,
    out: &mut Outcome,
    counts: &mut Counts,
    memo: &mut BTreeMap<String, String>,
    mut stop: impl FnMut(usize) -> bool,
    mut after: impl FnMut(&Request, &Response, &mut Outcome) -> Result<(), String>,
) -> Result<Trail, String> {
    let mut trail = Trail::default();
    while !stop(trail.latencies.len()) {
        let req = mix.next_request();
        let t0 = Instant::now();
        let response = tr.op("request", "bench.request", || {
            serve(tr, served, &req, counts)
        });
        trail.latencies.push(t0.elapsed().as_secs_f64());
        trail.shapes.push(req.shape());
        let hash = match response {
            Ok(response) => {
                after(&req, &response, out)?;
                hash_hex(response.body.as_bytes())
            }
            Err(e) => {
                out.check(false, || e);
                String::new()
            }
        };
        let key = format!("{req:?}");
        let same = memo.entry(key).or_insert_with(|| hash.clone()) == &hash;
        if !hash.is_empty() {
            out.check(same, || {
                format!("{req:?}: response differs from an earlier identical request")
            });
        }
        trail.hashes.push(hash);
    }
    Ok(trail)
}

/// Digest over response hashes, in order.
fn responses_digest(hashes: &[String]) -> String {
    hash_hex(hashes.concat().as_bytes())
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let runtime = RuntimeConfig::new(args.threads);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        kept.take();
        let (s, took) = setup(args, runtime)?;
        setups.push(took);
        kept = Some(s);
    }
    let s = kept.ok_or("no set-up ran")?;
    let config = IndiceConfig::default();
    let served = Served {
        cleaned: &s.cleaned,
        analytics: &s.analytics,
        hierarchy: &s.hierarchy,
        config: &config,
        runtime,
    };
    out.counts = s.counts.clone();
    if args.trace {
        return traced(args, &s, &served, out);
    }

    start_peak_window(&mut out);
    let off = Tracer::new(false);
    let mut mix = Mix::new(args.seed, &s.hierarchy);
    let mut memo = BTreeMap::new();
    let mut counts = Counts::new();
    let window = Instant::now();
    let (min, seconds, block) = (checked(args.smoke), args.seconds, block_len());
    // Whole blocks only, so every run serves each shape equally often.
    let trail = serve_loop(
        &off,
        &served,
        &mut mix,
        &mut out,
        &mut counts,
        &mut memo,
        |n| n >= min && n % block == 0 && window.elapsed().as_secs_f64() >= seconds,
        |_, _, _| Ok(()),
    )?;
    let peak = peak_rss_mb();
    let latencies = &trail.latencies;
    let digest = responses_digest(&trail.hashes[..checked(args.smoke)]);
    check_pinned(args, &mut out, "responses", &digest);
    out.notes
        .push(format!("digest set-up run directory {}", s.digest));
    finish_counts(&mut out);

    let mut by_shape: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (shape, &latency) in trail.shapes.iter().zip(latencies) {
        by_shape.entry(shape).or_default().push(latency);
    }
    for (shape, xs) in by_shape {
        out.notes.push(format!(
            "request shape {shape} n={} p50_ms={}",
            xs.len(),
            median(&xs) * 1e3
        ));
    }
    let p50 = median(latencies);
    let (tail, beyond) = percentile(latencies, TAIL);
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", peak, "MB");
    out.metric("latency_p50_s", p50, "s");
    out.metric("latency_tail_s", tail, "s");
    out.notes.push(format!(
        "request_p50_ms {} ms (median of {} requests)",
        p50 * 1e3,
        latencies.len()
    ));
    out.notes.push(format!(
        "request_tail_ms {} ms (p{} of {} requests, {beyond} beyond)",
        tail * 1e3,
        TAIL * 100.0,
        latencies.len()
    ));
    Ok(out)
}

/// Mines every region of `level` again, each inside an
/// `epc-mining.apriori` kernel span on the transactions `rules_by_region`
/// builds, and reports how the rules differ from `expected`, the
/// request's own output.
fn replay_region_rules(
    tr: &Tracer,
    s: &Served<'_>,
    level: Granularity,
    expected: &BTreeMap<String, Vec<AssociationRule>>,
    counts: &mut Counts,
) -> Result<Vec<String>, String> {
    let attr = s
        .cleaned
        .schema()
        .require(region_attr(level))
        .map_err(|e| format!("region attribute: {e}"))?;
    let mut groups: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for row in 0..s.cleaned.n_rows() {
        if let Some(label) = s.cleaned.cat(row, attr) {
            groups.entry(label).or_default().push(row);
        }
    }
    let mut mined = BTreeMap::new();
    for (region, rows) in groups {
        if rows.len() >= MIN_REGION_SIZE {
            let transactions = transactions(s.cleaned, s.analytics, s.config, &rows)?;
            let rules = replay_apriori(tr, &transactions, s.config, &s.runtime, counts);
            mined.insert(region.to_owned(), rules);
        }
    }
    Ok(if &mined == expected {
        Vec::new()
    } else {
        vec![format!(
            "{level:?} rules mined per region differ from rules_by_region"
        )]
    })
}

/// The traced run: the set-up run recomposed under spans and replayed,
/// then the first [`checked`] requests untraced and traced, each traced
/// rule request followed by a replay of its per-region Apriori runs.
fn traced(
    args: &Args,
    s: &Setup,
    served: &Served<'_>,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let tr = Tracer::new(true);
    let data_dir = args.work_dir.join("data");
    let run_dir = args.work_dir.join("traced-run");
    let config = IndiceConfig::default();
    let (street_map, hierarchy) = load_reference(&data_dir)?;
    let env = Env {
        street_map: &street_map,
        hierarchy: &hierarchy,
        config: &config,
        runtime: served.runtime,
        stakeholder: Stakeholder::PublicAdministration,
    };
    let mut counts = Counts::new();
    let products = tr.op("setup", "bench.setup", || {
        let csv = load_csv(&tr, &data_dir.join("epcs.csv"))?;
        traced_durable_run(&tr, &env, &csv.dataset, &run_dir, &mut counts)
    })?;
    let digest = tree_digest(&run_dir).map_err(|e| format!("digesting run dir: {e}"))?;
    out.check(digest == s.digest, || {
        format!(
            "recomposed set-up run directory {digest} != library run {}",
            s.digest
        )
    });
    let mismatches = replay_run(&tr, &env, &products, &mut counts)?;
    out.check(mismatches.is_empty(), || mismatches.join("; "));

    let n = checked(args.smoke);
    let off = Tracer::new(false);
    let mut memo = BTreeMap::new();
    let mut request_counts = Counts::new();
    let untraced = serve_loop(
        &off,
        served,
        &mut Mix::new(args.seed, &s.hierarchy),
        &mut out,
        &mut request_counts,
        &mut memo,
        |i| i >= n,
        |_, _, _| Ok(()),
    )?;
    let digest = responses_digest(&untraced.hashes);
    check_pinned(args, &mut out, "responses", &digest);
    let mut traced_counts = Counts::new();
    serve_loop(
        &tr,
        served,
        &mut Mix::new(args.seed, &s.hierarchy),
        &mut out,
        &mut traced_counts,
        &mut memo,
        |i| i >= n,
        |req, response, out| {
            if let (Request::Rules(level, _), Some(expected)) = (req, &response.region_rules) {
                let mismatches = tr.op("replay", "bench.kernel_replay", || {
                    replay_region_rules(&tr, served, *level, expected, &mut counts)
                })?;
                out.check(mismatches.is_empty(), || mismatches.join("; "));
            }
            Ok(())
        },
    )?;
    out.check(traced_counts == request_counts, || {
        "traced requests counted different work".to_owned()
    });
    crate::merge_traced_counts(&mut out, counts);
    for (k, v) in request_counts {
        count(&mut out.counts, k, v);
    }
    finish_counts(&mut out);
    crate::report::per_layer(
        &mut out,
        &tr,
        &["request"],
        untraced.latencies.iter().sum(),
        &[],
    );
    Ok(out)
}
