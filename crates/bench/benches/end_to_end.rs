//! The dataset-scale experiment: the full three-stage pipeline at the
//! paper's 25 000-certificate scale (and below, for the scaling trend).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epc_query::Stakeholder;
use epc_runtime::RuntimeConfig;
use epc_synth::{EpcGenerator, NoiseConfig, SynthConfig};
use indice::config::IndiceConfig;
use indice::engine::Indice;

fn engine(n: usize) -> Indice {
    let mut c = EpcGenerator::new(SynthConfig {
        n_records: n,
        ..SynthConfig::default()
    })
    .generate();
    epc_synth::noise::apply_noise(&mut c, &NoiseConfig::default());
    Indice::from_collection(c, IndiceConfig::default())
}

fn bench_end_to_end(c: &mut Criterion) {
    // One full run at paper scale, with its headline numbers: serial
    // reference first, then the same pipeline on 4 threads. The staged
    // executor guarantees identical outputs; the reports show where the
    // wall time goes per block.
    let mut big = engine(25_000);
    big.set_runtime(RuntimeConfig::sequential());
    let out = big
        .run(Stakeholder::PublicAdministration)
        .expect("pipeline");
    let serial_report = &out.report;
    big.set_runtime(RuntimeConfig::new(4));
    let parallel_report = big
        .run(Stakeholder::PublicAdministration)
        .expect("pipeline")
        .report;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("\n== End-to-end (25 000 EPCs, PA stakeholder) ==");
    eprintln!("-- threads = 1 --\n{serial_report}");
    eprintln!("-- threads = 4 --\n{parallel_report}");
    eprintln!(
        "speedup at 4 threads: {:.2}x ({cores} hardware core(s) available; \
         outputs are identical either way)",
        serial_report.total_wall().as_secs_f64() / parallel_report.total_wall().as_secs_f64()
    );
    eprintln!(
        "selected E.1.1: {}; resolved addresses: {}/{}; outliers removed: {}",
        out.preprocess.cleaning.total,
        out.preprocess.cleaning.by_reference + out.preprocess.cleaning.by_geocoder,
        out.preprocess.cleaning.total,
        out.preprocess.removed_rows.len(),
    );
    eprintln!(
        "K = {}, rules = {}, dashboard panels = {}",
        out.analytics.chosen_k,
        out.analytics.rules.len(),
        out.dashboard.n_panels()
    );

    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    for n in [2_000usize, 5_000] {
        let e = engine(n);
        group.bench_with_input(BenchmarkId::new("full_pipeline", n), &e, |b, e| {
            b.iter(|| e.run(Stakeholder::PublicAdministration).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
