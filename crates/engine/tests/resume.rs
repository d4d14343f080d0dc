//! Seeker-skewed streams: serving-layer parity.
//!
//! Real social-search traffic repeats a few hot seekers. No engine carries
//! propagation work from one query to the next, so consecutive same-seeker
//! queries must each be answered exactly as a cold run would answer them
//! (hits with exact bounds, candidate lists, stop reasons) — across the
//! single-query session path, the batched engine and the sharded engine at
//! 1/2/4 shards.

mod common;

use common::{assert_identical, random_instance, skewed_queries};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use s3_core::{S3kEngine, SearchConfig};
use s3_engine::{EngineConfig, S3Engine, ShardedEngine};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig { cases: 30, ..ProptestConfig::default() })]

    /// A reused session returns byte-identical results to cold runs on a
    /// skewed stream.
    #[test]
    fn session_resume_matches_cold_runs(seed in 0u64..3000) {
        let (inst, pool) = random_instance(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4E5);
        let queries = skewed_queries(&mut rng, inst.num_users(), &pool, 14);
        let engine = S3kEngine::new(&inst, SearchConfig::default());
        let mut session = engine.session();
        for q in &queries {
            let warm = session.run(q);
            let cold = engine.run(q);
            assert_identical(&warm, &cold)?;
        }
    }

    /// The batched engine and the sharded engine at 1/2/4 shards return
    /// byte-identical results to direct cold runs on a skewed stream,
    /// replayed twice with the result cache off so every repeat recomputes.
    #[test]
    fn batched_and_sharded_resume_match_cold_runs(seed in 0u64..3000) {
        let (inst, pool) = random_instance(seed);
        let inst = Arc::new(inst);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C4);
        let queries = skewed_queries(&mut rng, inst.num_users(), &pool, 10);

        let direct_engine = S3kEngine::new(&inst, SearchConfig::default());
        let direct: Vec<_> = queries.iter().map(|q| direct_engine.run(q)).collect();

        let serving = S3Engine::new(
            Arc::clone(&inst),
            EngineConfig::builder().threads(2).cache_capacity(0).build(),
        );
        for _pass in 0..2 {
            let got = serving.run_batch_on(&queries, 2);
            for (g, d) in got.iter().zip(direct.iter()) {
                assert_identical(g, d)?;
            }
        }

        for shards in [1usize, 2, 4] {
            let sharded = ShardedEngine::new(
                Arc::clone(&inst),
                EngineConfig::builder().threads(2).cache_capacity(0).build(),
                shards,
            );
            for _pass in 0..2 {
                let got = sharded.run_batch_on(&queries, 2);
                for (g, d) in got.iter().zip(direct.iter()) {
                    assert_identical(g, d)?;
                }
            }
        }
    }
}
