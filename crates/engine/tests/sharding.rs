//! Scatter-gather over 2 and 4 shards is byte-identical to cold
//! `S3kEngine` runs, with a roomy and a churning front cache.

mod common;
mod harness;

use common::Exec::InProcess;
use common::State::Frozen;
use common::{random_queries, Corpus, Shape};
use harness::{run, Schedule};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 25, ..ProptestConfig::default() })]

    /// Cold and warm, batched and single-query; one shard is
    /// `S3Engine`, whose rows are in `parity.rs`.
    #[test]
    fn sharded_engine_matches_unsharded(seed in 0u64..3000) {
        let mut s = Schedule::new(Corpus::random(seed));
        s.stream(random_queries, seed ^ 0x5AA3D, 10);
        for shards in [2, 4] {
            run(Shape(Frozen, InProcess, shards, 64), &s)?;
        }
    }

    /// A churn-forcing front cache (capacities 1 and 4) never changes
    /// scatter-gather results.
    #[test]
    fn front_cache_capacity_preserves_sharded_results(seed in 0u64..3000) {
        let mut s = Schedule::new(Corpus::random(seed));
        s.stream(random_queries, seed ^ 0x7F1D, 8);
        for (shards, cache) in [2, 4].into_iter().flat_map(|n| [(n, 1), (n, 4)]) {
            run(Shape(Frozen, InProcess, shards, cache), &s)?;
        }
    }
}
