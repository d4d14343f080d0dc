//! Byte-identity over fleets and mutations: fleets over every transport
//! and shard count, snapshot-bootstrapped fleets, and live engines and
//! fleets through deletions, updates and a compaction epoch, each
//! replayed on the harness (`harness/mod.rs`) against its cold oracle.

mod common;
mod harness;

use common::Exec::{Boot, Fleet, InProcess};
use common::State::Live;
use common::Wire::{Local, Loopback, Unix};
use common::{random_queries, Corpus, Shape};
use harness::{mutating, plain, run, Schedule};
use proptest::prelude::*;
use s3_core::UserId;

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Fleets over every transport at 1, 2 and 4 shards.
    #[test]
    fn fleets_match_cold_runs(seed in 0u64..3000) {
        let mut s = Schedule::new(Corpus::random(seed));
        s.stream(random_queries, seed ^ 0xF1EE7, 8);
        let wires = [Local, Loopback, Unix].into_iter();
        for (wire, shards) in wires.flat_map(|w| [(w, 1), (w, 2), (w, 4)]) {
            run(Shape(Live, Fleet(wire), shards, 0), &s)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Fleets bootstrapped from a shipped snapshot (no shared builder)
    /// over every transport, then through one shipped batch.
    #[test]
    fn bootstrapped_fleets_match_cold_runs(seed in 0u64..500) {
        let mut s = Schedule::new(Corpus::random(seed));
        s.stream(random_queries, seed ^ 0xB007, 6).workload(&plain(seed ^ 0xB00, 1, 4, 0.3));
        let wires = [Local, Loopback, Unix].into_iter();
        for (wire, shards) in wires.flat_map(|w| [(w, 1), (w, 2), (w, 4)]) {
            run(Shape(Live, Boot(wire), shards, 0), &s)?;
        }
    }

    /// Live engines through appends, deletions and updates around a
    /// compaction epoch; the second phase's batches are generated
    /// against the compacted (densely renumbered) state.
    #[test]
    fn mutated_engines_match_a_cold_rebuild(seed in 0u64..1000) {
        let mut s = Schedule::new(Corpus::random(seed));
        s.workload(&mutating(seed ^ 0xDEAD, 2)).compact();
        s.texts(&[(UserId(0), "w0 w2"), (UserId(1), "w1"), (UserId(2), "ex:c0")]);
        s.workload(&mutating(seed ^ 0xDEAD ^ (1 << 17), 2));
        for shards in [1, 2, 4] {
            run(Shape(Live, InProcess, shards, 64), &s)?;
        }
    }

    /// Fleets through shipped retractions and a fleet-wide compaction
    /// epoch, a snapshot-bootstrapped one among them.
    #[test]
    fn mutated_fleets_match_a_cold_rebuild(seed in 0u64..1000) {
        let mut s = Schedule::new(Corpus::random(seed));
        s.workload(&mutating(seed ^ 0xF1EE, 1)).compact().texts(&[(UserId(0), "w0 w1")]);
        s.workload(&mutating(seed ^ 0xF1EE ^ (1 << 13), 1));
        let rows = [(Fleet(Local), 1), (Fleet(Loopback), 2), (Fleet(Unix), 4), (Boot(Loopback), 2)];
        for (exec, shards) in rows {
            run(Shape(Live, exec, shards, 0), &s)?;
        }
    }
}
