//! Serving-layer parity: batched, cached and warm-scratch execution must
//! be result-identical to cold `S3kEngine::run` calls — same hits in the
//! same order with the same certified bounds, same candidate set, same
//! `StopReason` — and a reused scratch must never leak state between
//! queries.

mod common;

use common::{assert_identical, random_instance, random_queries};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use s3_core::{S3kEngine, SearchConfig, TopKResult};
use s3_engine::{EngineConfig, S3Engine};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// Batched execution on ≥4 threads, and the warm cached re-run, both
    /// return byte-identical results to direct cold S3kEngine runs.
    #[test]
    fn batched_and_cached_match_direct_runs(seed in 0u64..3000) {
        let (inst, pool) = random_instance(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE6617E);
        let queries = random_queries(&mut rng, inst.num_users(), &pool, 12);

        let direct_engine = S3kEngine::new(&inst, SearchConfig::default());
        let direct: Vec<TopKResult> =
            queries.iter().map(|q| direct_engine.run(q)).collect();

        let serving = S3Engine::new(
            Arc::new(inst),
            EngineConfig::builder().threads(4).cache_capacity(64).build(),
        );
        let cold = serving.run_batch_on(&queries, 4);
        for (c, d) in cold.iter().zip(direct.iter()) {
            assert_identical(c, d)?;
        }
        let warm = serving.run_batch_on(&queries, 4);
        for (w, d) in warm.iter().zip(direct.iter()) {
            assert_identical(w, d)?;
        }
        let stats = serving.cache_stats();
        prop_assert!(stats.hits >= queries.len() as u64, "warm batch must be cache-served");
    }

    /// The cache capacity only ever changes *whether* a lookup hits, never
    /// *what* is returned: at every capacity — down to 1, where almost
    /// every insert evicts — batched execution stays byte-identical to
    /// direct cold runs.
    #[test]
    fn cache_capacity_preserves_results(seed in 0u64..3000) {
        let (inst, pool) = random_instance(seed);
        let inst = Arc::new(inst);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xCAC4E);
        let queries = random_queries(&mut rng, inst.num_users(), &pool, 12);

        let direct_engine = S3kEngine::new(&inst, SearchConfig::default());
        let direct: Vec<TopKResult> =
            queries.iter().map(|q| direct_engine.run(q)).collect();

        for capacity in [1, 2, 4] {
            let serving = S3Engine::new(
                Arc::clone(&inst),
                EngineConfig::builder().threads(4).cache_capacity(capacity).build(),
            );
            for round in 0..2 {
                let results = serving.run_batch_on(&queries, 4);
                for (r, d) in results.iter().zip(direct.iter()) {
                    assert_identical(r, d)?;
                }
                prop_assert!(round == 0 || serving.cache_stats().misses > 0);
            }
            prop_assert!(serving.cache_stats().entries <= capacity);
        }
    }

    /// A reused scratch/session never leaks state between queries: every
    /// warm answer equals the cold answer for the same query, regardless
    /// of what ran before it in the session.
    #[test]
    fn session_scratch_never_leaks(seed in 0u64..3000) {
        let (inst, pool) = random_instance(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5C1A7C4);
        let queries = random_queries(&mut rng, inst.num_users(), &pool, 16);
        let engine = S3kEngine::new(&inst, SearchConfig::default());
        let mut session = engine.session();
        for q in &queries {
            let warm = session.run(q);
            let cold = engine.run(q);
            assert_identical(&warm, &cold)?;
        }
    }
}
