//! Cache effectiveness under a realistic skew: replaying a Zipf-distributed
//! query stream (the shape real serving traffic has) against the LRU must
//! yield a high hit rate even when the cache is much smaller than the
//! distinct-query population — the ROADMAP's "measure hit rates on Zipf
//! workloads" item, kept as a regression test.

use rand::rngs::StdRng;
use rand::SeedableRng;
use s3_core::Query;
use s3_datasets::{twitter, workload, zipf::Zipf, Scale};
use s3_engine::{EngineConfig, S3Engine, ShardedEngine};
use s3_text::FrequencyClass;
use std::sync::Arc;

/// A pool of distinct queries plus a Zipf-ordered replay stream over it.
fn zipf_stream(instance: &Arc<s3_core::S3Instance>, replays: usize) -> (Vec<Query>, Vec<usize>) {
    let w = workload::generate(
        instance,
        workload::WorkloadConfig {
            frequency: FrequencyClass::Common,
            keywords_per_query: 1,
            k: 5,
            queries: 120,
            seed: 7,
        },
    );
    let pool: Vec<Query> = w.queries.into_iter().map(|q| q.query).collect();
    let zipf = Zipf::new(pool.len(), 1.1);
    let mut rng = StdRng::seed_from_u64(99);
    let stream = (0..replays).map(|_| zipf.sample(&mut rng)).collect();
    (pool, stream)
}

#[test]
fn zipf_workload_hit_rate() {
    let dataset = twitter::generate(&twitter::TwitterConfig::scaled(Scale::Tiny));
    let instance = Arc::new(dataset.instance);
    let (pool, stream) = zipf_stream(&instance, 600);

    // A cache half the distinct-query population: the Zipf head dominates
    // the stream, so the hit rate must be well above the uniform-traffic
    // expectation (~capacity/population = 0.5) and evictions must occur.
    let engine = S3Engine::new(
        Arc::clone(&instance),
        EngineConfig::builder().threads(1).cache_capacity(60).build(),
    );
    for &i in &stream {
        engine.query(&pool[i]);
    }
    let stats = engine.cache_stats();
    let rate = stats.hit_rate();
    assert!(rate > 0.6, "Zipf skew must keep the small cache hot (rate {rate:.3})");
    assert!(rate < 1.0, "cold misses must exist (rate {rate:.3})");
    assert!(stats.evictions > 0, "capacity pressure expected on 120 distinct keys");
    assert_eq!(stats.hits + stats.misses, stream.len() as u64);

    // Caching disabled: identical answers, zero hit rate.
    let uncached = S3Engine::new(
        Arc::clone(&instance),
        EngineConfig::builder().threads(1).cache_capacity(0).build(),
    );
    for &i in &stream[..50] {
        assert_eq!(uncached.query(&pool[i]).hits, engine.query(&pool[i]).hits);
    }
    assert_eq!(uncached.cache_stats().hit_rate(), 0.0);

    // The sharded engine's front cache sees the same skew benefit: one
    // lookup per repeat, no scatter.
    let sharded = ShardedEngine::new(
        Arc::clone(&instance),
        EngineConfig::builder().threads(1).cache_capacity(60).build(),
        4,
    );
    for &i in &stream {
        sharded.query(&pool[i]);
    }
    let srate = sharded.cache_stats().hit_rate();
    assert!(srate > 0.6, "front cache must absorb the Zipf head (rate {srate:.3})");
}
