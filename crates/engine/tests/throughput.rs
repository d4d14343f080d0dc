//! Warm-cache serving must beat cold execution: replaying a batch against
//! the populated cache is pure LRU lookups, orders of magnitude faster
//! than running the search. This pins the acceptance bar for the serving
//! layer; s3bench's `serve_zipf` measures it end to end (`qps`,
//! `engine.cache.hit_us`).

use s3_core::Query;
use s3_datasets::{twitter, workload, Scale};
use s3_engine::{EngineConfig, S3Engine};
use s3_text::FrequencyClass;
use std::sync::Arc;
use std::time::Instant;

#[test]
fn warm_cache_beats_cold_execution() {
    let dataset = twitter::generate(&twitter::TwitterConfig::scaled(Scale::Tiny));
    let instance = Arc::new(dataset.instance);
    let w = workload::generate(
        &instance,
        workload::WorkloadConfig {
            frequency: FrequencyClass::Common,
            keywords_per_query: 1,
            k: 10,
            queries: 80,
            seed: 7,
        },
    );
    let queries: Vec<Query> = w.queries.into_iter().map(|q| q.query).collect();
    let engine = S3Engine::new(
        Arc::clone(&instance),
        EngineConfig::builder().threads(2).cache_capacity(1024).build(),
    );

    let t0 = Instant::now();
    let cold = engine.run_batch(&queries);
    let cold_elapsed = t0.elapsed();

    // Best-of-three warm passes: the warm path is ~80 LRU lookups
    // (microseconds), so a single scheduler stall on a loaded CI runner
    // could otherwise outweigh the whole measurement.
    let mut warm_elapsed = std::time::Duration::MAX;
    let mut warm = Vec::new();
    for _ in 0..3 {
        let t1 = Instant::now();
        warm = engine.run_batch(&queries);
        warm_elapsed = warm_elapsed.min(t1.elapsed());
    }

    for (c, w) in cold.iter().zip(warm.iter()) {
        assert_eq!(c.hits, w.hits);
    }
    assert!(engine.cache_stats().hits >= queries.len() as u64);
    // Pure cache lookups vs full searches: the real margin is orders of
    // magnitude; requiring 2x keeps the test robust on loaded machines.
    assert!(
        warm_elapsed.as_secs_f64() * 2.0 < cold_elapsed.as_secs_f64(),
        "warm batch ({warm_elapsed:?}) must be well under cold ({cold_elapsed:?})"
    );
}
