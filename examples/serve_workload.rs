//! Serving a query workload through the `s3::engine` layer.
//!
//! Builds a synthetic Twitter-shaped instance, wraps it in an [`S3Engine`]
//! and drives it the way a server would: concurrent batches over a shared
//! engine, a result cache absorbing repeat queries, and a configuration
//! change invalidating served results.
//!
//! ```text
//! cargo run --release --example serve_workload
//! ```

use s3::core::{Query, SearchConfig};
use s3::datasets::{twitter, workload, Scale};
use s3::engine::{EngineConfig, OverloadConfig, OverloadPolicy, S3Engine, ServeOutcome};
use s3::text::FrequencyClass;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let dataset = twitter::generate(&twitter::TwitterConfig::scaled(Scale::Tiny));
    let instance = Arc::new(dataset.instance);
    println!(
        "instance: {} users, {} documents, {} tags",
        instance.num_users(),
        instance.num_documents(),
        instance.num_tags()
    );

    let engine = S3Engine::new(
        Arc::clone(&instance),
        EngineConfig::builder().threads(4).cache_capacity(1024).build(),
    );

    // A server sees overlapping traffic: generate a workload and replay it
    // with duplicates, as separate concurrent batches.
    let w = workload::generate(
        &instance,
        workload::WorkloadConfig {
            frequency: FrequencyClass::Common,
            keywords_per_query: 1,
            k: 5,
            queries: 40,
            seed: 42,
        },
    );
    let queries: Vec<Query> = w.queries.into_iter().map(|q| q.query).collect();

    let first = engine.run_batch(&queries);
    let answered = first.iter().filter(|r| !r.hits.is_empty()).count();
    println!("batch 1: {} queries, {} with non-empty answers", first.len(), answered);

    // The same batch again: served from cache, identical answers.
    let second = engine.run_batch(&queries);
    assert!(first
        .iter()
        .zip(second.iter())
        .all(|(a, b)| a.hits == b.hits && a.stats.stop == b.stats.stop));
    println!("batch 2: cache {}", engine.cache_stats());

    // Several client threads sharing one engine.
    let shared = Arc::new(engine);
    std::thread::scope(|scope| {
        for t in 0..3 {
            let engine = Arc::clone(&shared);
            let queries = &queries;
            scope.spawn(move || {
                let chunk = &queries[t * 10..(t + 1) * 10];
                let results = engine.run_batch(chunk);
                assert_eq!(results.len(), chunk.len());
            });
        }
    });
    println!("3 client threads served; cache hits now {}", shared.cache_stats().hits);

    // Retuning the score bumps the config epoch: nothing stale is served.
    shared.set_search_config(SearchConfig {
        score: s3::core::S3kScore::new(2.0, 0.5),
        ..SearchConfig::default()
    });
    let retuned = shared.run_batch(&queries[..10]);
    println!(
        "after config change (epoch {}): {} answers recomputed",
        shared.config_epoch(),
        retuned.len()
    );

    // --- Overload: more clients than the engine will carry. ---
    //
    // A fresh engine with a 2-slot admission gate and the DegradeAnytime
    // policy: arrivals past capacity are still answered, but under a
    // floor budget, and each degraded answer carries a certified
    // `QualityBound` saying how far from exact it provably is.
    let gated = Arc::new(S3Engine::new(
        Arc::clone(&instance),
        EngineConfig::builder()
            .threads(1)
            .cache_capacity(0) // every arrival reaches the gate
            .overload(OverloadConfig {
                max_inflight: 2,
                policy: OverloadPolicy::DegradeAnytime { floor_budget: Duration::ZERO },
            })
            .build(),
    ));
    let sample = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..6)
            .map(|_| {
                let engine = Arc::clone(&gated);
                let queries = &queries;
                scope.spawn(move || {
                    let mut degraded = None;
                    for q in queries {
                        match engine.serve(q, None) {
                            ServeOutcome::Answered(r) if !r.stats.quality.exact => {
                                degraded.get_or_insert(r);
                            }
                            ServeOutcome::Answered(_) => {}
                            outcome => panic!("DegradeAnytime never sheds, got {outcome:?}"),
                        }
                    }
                    degraded
                })
            })
            .collect();
        workers.into_iter().filter_map(|w| w.join().expect("client thread")).next()
    });
    println!("\n6 oversubscribed clients, DegradeAnytime: {}", gated.load_stats());
    if let Some(r) = sample {
        println!("sample degraded answer: {} hits, {}", r.hits.len(), r.stats.quality);
    }

    // The same pressure against Reject: overflow is shed at the door and
    // the queries that do get in keep their full budget (exact answers).
    let rejecting = Arc::new(S3Engine::new(
        Arc::clone(&instance),
        EngineConfig::builder()
            .threads(1)
            .cache_capacity(0)
            .overload(Some(OverloadConfig { max_inflight: 2, policy: OverloadPolicy::Reject }))
            .build(),
    ));
    std::thread::scope(|scope| {
        for _ in 0..6 {
            let engine = Arc::clone(&rejecting);
            let queries = &queries;
            scope.spawn(move || {
                for q in queries {
                    if let Some(r) = engine.serve(q, None).answer() {
                        assert!(r.stats.quality.exact, "admitted queries keep the full budget");
                    }
                }
            });
        }
    });
    println!("6 oversubscribed clients, Reject:         {}", rejecting.load_stats());

    // The final serving report: hits, evictions and the entries the
    // config change invalidated.
    println!("\nfinal cache stats: {}", shared.cache_stats());
}
