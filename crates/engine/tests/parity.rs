//! Batched, cached and warm-session execution on one shard is
//! byte-identical to cold `S3kEngine` runs, at every cache capacity. The
//! batches run on four workers.

mod common;
mod harness;

use common::Exec::InProcess;
use common::State::Frozen;
use common::{random_queries, Corpus, Shape};
use harness::{run_on, session_matches_cold_runs, Schedule};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// A batch on the workers and its warm re-run equal direct cold
    /// runs, and the warm pass is cache-served.
    #[test]
    fn batched_and_cached_match_direct_runs(seed in 0u64..3000) {
        let mut s = Schedule::new(Corpus::random(seed));
        s.stream(random_queries, seed ^ 0xE6617E, 12);
        run_on(Shape(Frozen, InProcess, 1, 64), &s, 4)?;
    }

    /// The cache capacity only changes *whether* a lookup hits, never
    /// *what* is returned — down to 1, where almost every insert evicts.
    #[test]
    fn cache_capacity_preserves_results(seed in 0u64..3000) {
        let mut s = Schedule::new(Corpus::random(seed));
        s.stream(random_queries, seed ^ 0xCAC4E, 12);
        for cache in [1, 2, 4] {
            run_on(Shape(Frozen, InProcess, 1, cache), &s, 4)?;
        }
    }

    /// A reused session never leaks state between queries: every warm
    /// answer equals the cold one, whatever ran before it.
    #[test]
    fn session_scratch_never_leaks(seed in 0u64..3000) {
        session_matches_cold_runs(&Corpus::random(seed), random_queries, seed ^ 0x5C1A7C4, 16)?;
    }
}
