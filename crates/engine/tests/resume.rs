//! Seeker-skewed streams, where consecutive same-seeker queries must each
//! start their propagation afresh: a reused session, the batched engine
//! and the sharded engine all match cold runs.

mod common;
mod harness;

use common::Exec::InProcess;
use common::State::Frozen;
use common::{skewed_queries, Corpus, Shape};
use harness::{run, session_matches_cold_runs, Schedule};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 30, ..ProptestConfig::default() })]

    /// A reused session equals cold runs on a skewed stream.
    #[test]
    fn session_resume_matches_cold_runs(seed in 0u64..3000) {
        session_matches_cold_runs(&Corpus::random(seed), skewed_queries, seed ^ 0x4E5, 14)?;
    }

    /// The batched engine and the sharded engine at 2 and 4 shards, with
    /// the result cache off so every repeat recomputes.
    #[test]
    fn batched_and_sharded_resume_match_cold_runs(seed in 0u64..3000) {
        let mut s = Schedule::new(Corpus::random(seed));
        s.stream(skewed_queries, seed ^ 0xBA7C4, 10);
        for shards in [1, 2, 4] {
            run(Shape(Frozen, InProcess, shards, 0), &s)?;
        }
    }
}
