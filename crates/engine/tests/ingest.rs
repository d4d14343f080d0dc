//! Live ingestion: after any batch sequence, `LiveEngine` and
//! `LiveShardedEngine` answer byte-identically to a cold rebuild of the
//! same data, over a corpus written in `live_workload`'s own words so its
//! queries hit old and new documents alike.

mod common;
mod harness;

use common::Exec::InProcess;
use common::State::Live;
use common::{base_builder, Corpus, Shape};
use harness::{attach, plain, run, Schedule, Step};
use proptest::prelude::*;
use s3_datasets::workload::LiveWorkloadConfig;

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Unsharded and sharded {1, 2, 4}, at roomy and churning caches.
    #[test]
    fn live_engines_match_cold_rebuild(seed in 0u64..1000) {
        let mut s = Schedule::new(Corpus::new(move || base_builder(seed), Vec::new()));
        s.workload(&LiveWorkloadConfig {
            docs_per_batch: 2,
            k: 4,
            ..plain(seed ^ 0xF00D, 3, 6, attach(seed))
        });
        for (shards, cache) in [(1, 128), (1, 1), (2, 8), (4, 128)] {
            run(Shape(Live, InProcess, shards, cache), &s)?;
        }
    }

    /// Detached-only sequences are classified detached at every ingest,
    /// and results still match cold.
    #[test]
    fn detached_sequences_stay_scoped_and_exact(seed in 0u64..1000) {
        let mut s = Schedule::new(Corpus::new(move || base_builder(seed), Vec::new()));
        s.workload(&plain(seed ^ 0xD157, 3, 4, 0.0));
        prop_assert!(s.steps.iter().all(|s| !matches!(s, Step::Ingest(_, sum) if !sum.detached)));
        run(Shape(Live, InProcess, 2, 128), &s)?;
    }
}
