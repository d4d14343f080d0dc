//! Cache effectiveness under a realistic skew: replaying a Zipf-distributed
//! query stream (the shape real serving traffic has) against the LRU must
//! yield a high hit rate even when the cache is much smaller than the
//! distinct-query population — the ROADMAP's "measure hit rates on Zipf
//! workloads" item, kept as a regression test.

use rand::rngs::StdRng;
use rand::SeedableRng;
use s3_core::{IngestBatch, IngestDoc, Query};
use s3_datasets::{twitter, workload, zipf::Zipf, Scale};
use s3_engine::{EngineConfig, InvalidationScope, LiveShardedEngine, S3Engine, ShardedEngine};
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

/// Interleaved ingestion: replay a Zipf stream against the per-shard
/// caches of two identical live fleets, ingest the same detached batch
/// into both — scoped on one, forced-global on the other — and replay a
/// recovery window. Scoped invalidation drops only the touched shard's
/// entries, so the fleet's hit count during recovery must strictly beat
/// the globally-bumped twin's.
#[test]
fn interleaved_ingestion_scoped_bump_recovers_faster() {
    let builder = || {
        let mut c = twitter::TwitterConfig::scaled(Scale::Tiny);
        c.users = 50;
        c.tweets = 300;
        twitter::generate_builder(&c).0
    };
    let config = || EngineConfig::builder().threads(1).cache_capacity(256).build();
    let num_shards = 4;
    let scoped = LiveShardedEngine::new(builder(), config(), num_shards);
    let global = LiveShardedEngine::new(builder(), config(), num_shards);

    let (pool, stream) = zipf_stream(&scoped.instance(), 400);
    let shard_hits = |live: &LiveShardedEngine| -> u64 {
        let e = live.engine();
        (0..num_shards).map(|s| e.shard(s).cache_stats().hits).sum()
    };
    // Warm both fleets' per-shard caches with a round-robin direct-shard
    // replay of the stream (the per-shard caches are what scoped
    // invalidation preserves).
    for (i, &q) in stream.iter().enumerate() {
        scoped.engine().shard(i % num_shards).query(&pool[q]);
        global.engine().shard(i % num_shards).query(&pool[q]);
    }
    assert_eq!(shard_hits(&scoped), shard_hits(&global), "identical warmup");

    // The same detached batch: a new user posting a new document.
    let batch = {
        let mut b = IngestBatch::new();
        let u = b.add_user();
        let mut doc = IngestDoc::new("post");
        doc.set_text(doc.root(), "a brand new topic");
        b.add_document(doc, Some(u));
        b
    };
    let scoped_report = scoped.ingest(&batch);
    let global_report = global.ingest_with(&batch, true);
    let InvalidationScope::Scoped(ref touched) = scoped_report.scope else {
        panic!("detached batch must scope: {:?}", scoped_report.scope);
    };
    assert!(touched.len() < num_shards, "the delta lands on a strict shard subset");
    assert_eq!(global_report.scope, InvalidationScope::Global);
    assert!(
        global_report.results_invalidated > scoped_report.results_invalidated,
        "a global bump drops strictly more entries ({} vs {})",
        global_report.results_invalidated,
        scoped_report.results_invalidated
    );

    // Recovery window: replay the same stream; the scoped fleet still has
    // every untouched shard's entries.
    let (before_s, before_g) = (shard_hits(&scoped), shard_hits(&global));
    for (i, &q) in stream.iter().enumerate() {
        scoped.engine().shard(i % num_shards).query(&pool[q]);
        global.engine().shard(i % num_shards).query(&pool[q]);
    }
    let (hits_s, hits_g) = (shard_hits(&scoped) - before_s, shard_hits(&global) - before_g);
    assert!(
        hits_s > hits_g,
        "scoped invalidation must recover faster (scoped {hits_s} vs global {hits_g} hits)"
    );
}
