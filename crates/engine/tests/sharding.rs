//! The sharded serving invariant: for every query, `ShardedEngine` with
//! any shard count returns byte-identical results — hits (documents,
//! order, certified bounds), candidate lists, stop reason — to a single
//! `S3Engine` over the unsharded instance, across the cold scattered,
//! warm cached, batched and single-query paths.

mod common;

use common::{assert_identical, random_instance, random_queries};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use s3_engine::{EngineConfig, S3Engine, ShardedEngine};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig { cases: 25, ..ProptestConfig::default() })]

    /// Shard counts 1, 2 and 4, cold and warm, batched and single-query.
    #[test]
    fn sharded_engine_matches_unsharded(seed in 0u64..3000) {
        let (inst, pool) = random_instance(seed);
        let inst = Arc::new(inst);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5AA3D);
        let queries = random_queries(&mut rng, inst.num_users(), &pool, 10);

        let baseline = S3Engine::new(
            Arc::clone(&inst),
            EngineConfig::builder().threads(2).cache_capacity(64).build(),
        );
        let direct = baseline.run_batch_on(&queries, 2);

        for shards in [1usize, 2, 4] {
            let engine = ShardedEngine::new(
                Arc::clone(&inst),
                EngineConfig::builder().threads(2).cache_capacity(64).build(),
                shards,
            );
            prop_assert_eq!(engine.num_shards(), shards);

            // Cold, batched over 2 workers: scattered and merged.
            let cold = engine.run_batch_on(&queries, 2);
            for (c, d) in cold.iter().zip(direct.iter()) {
                assert_identical(c, d)?;
            }
            // Warm: served from the front cache with one lookup.
            let warm = engine.run_batch_on(&queries, 2);
            for (w, d) in warm.iter().zip(direct.iter()) {
                assert_identical(w, d)?;
            }
            let stats = engine.cache_stats();
            prop_assert!(
                stats.hits >= queries.len() as u64,
                "warm batch must be cache-served ({} hits)", stats.hits
            );
            // Single-query path (inline scatter).
            for q in queries.iter().take(3) {
                assert_identical(&engine.query(q), &baseline.query(q))?;
            }
        }
    }

    /// A churn-forcing front cache never changes scatter-gather results:
    /// capacities 1 and 4 stay byte-identical to the unsharded baseline
    /// for shard counts 1/2/4.
    #[test]
    fn front_cache_capacity_preserves_sharded_results(seed in 0u64..3000) {
        let (inst, pool) = random_instance(seed);
        let inst = Arc::new(inst);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7F1D);
        let queries = random_queries(&mut rng, inst.num_users(), &pool, 8);

        let baseline = S3Engine::new(
            Arc::clone(&inst),
            EngineConfig::builder().threads(1).cache_capacity(0).build(),
        );
        let direct = baseline.run_batch_on(&queries, 1);

        for (shards, capacity) in [1usize, 2, 4].into_iter().flat_map(|s| [(s, 1), (s, 4)]) {
            let engine = ShardedEngine::new(
                Arc::clone(&inst),
                EngineConfig::builder().threads(2).cache_capacity(capacity).build(),
                shards,
            );
            for _ in 0..2 {
                let results = engine.run_batch_on(&queries, 2);
                for (r, d) in results.iter().zip(direct.iter()) {
                    assert_identical(r, d)?;
                }
            }
            prop_assert!(engine.cache_stats().entries <= capacity);
        }
    }
}
