//! Ablation benches for the design choices called out in DESIGN.md:
//! component pruning, the damping factor γ, and the cost of building the
//! eager connection index.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use s3_core::{S3kEngine, S3kScore, SearchConfig};
use s3_datasets::{twitter, workload, Scale};

fn small_instance() -> s3_datasets::twitter::TwitterDataset {
    twitter::generate(&twitter::TwitterConfig::scaled(Scale::Small))
}

fn queries(inst: &s3_core::S3Instance) -> Vec<s3_core::Query> {
    workload::generate(
        inst,
        workload::WorkloadConfig {
            frequency: s3_text::FrequencyClass::Rare,
            keywords_per_query: 1,
            k: 10,
            queries: 8,
            seed: 5,
        },
    )
    .queries
    .into_iter()
    .map(|q| q.query)
    .collect()
}

fn bench_component_pruning(c: &mut Criterion) {
    let ds = small_instance();
    let inst = &ds.instance;
    let qs = queries(inst);
    let mut group = c.benchmark_group("component_pruning");
    for (name, pruning) in [("on", true), ("off", false)] {
        let engine = S3kEngine::new(
            inst,
            SearchConfig { component_pruning: pruning, ..SearchConfig::default() },
        );
        let mut i = 0usize;
        group.bench_function(name, |b| {
            b.iter(|| {
                let q = &qs[i % qs.len()];
                i += 1;
                engine.run(q).stats.candidates
            })
        });
    }
    group.finish();
}

fn bench_gamma(c: &mut Criterion) {
    let ds = small_instance();
    let inst = &ds.instance;
    let qs = queries(inst);
    let mut group = c.benchmark_group("gamma");
    for gamma in [1.25f64, 1.5, 2.0, 4.0] {
        let engine = S3kEngine::new(
            inst,
            SearchConfig { score: S3kScore::new(gamma, 0.5), ..SearchConfig::default() },
        );
        let mut i = 0usize;
        group.bench_function(format!("{gamma}"), |b| {
            b.iter(|| {
                let q = &qs[i % qs.len()];
                i += 1;
                engine.run(q).stats.iterations
            })
        });
    }
    group.finish();
}

fn bench_connection_index_build(c: &mut Criterion) {
    // Eager connection indexing is our stated deviation (DESIGN.md §3.5):
    // measure what it costs to build.
    let mut cfg = twitter::TwitterConfig::scaled(Scale::Tiny);
    cfg.tweets = 400;
    c.bench_function("instance_build_tiny_i1", |b| {
        b.iter_batched(
            || cfg.clone(),
            |cfg| twitter::generate(&cfg).instance.stats().connections,
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    name = ablation;
    config = Criterion::default().sample_size(10);
    targets = bench_component_pruning, bench_gamma, bench_connection_index_build
);
criterion_main!(ablation);
