//! The four workloads and how much work a run of each does.
//!
//! Runs are bounded by operation **count**, not by a clock: the count is a
//! pure function of `(workload, --seconds, --smoke)`, sized so the timed
//! phase lasts about `--seconds` on the 2-core host the benchmark was
//! sized on. Both sides of a comparison therefore do identical work and
//! counters (hit rate, steps per query, wire bytes) repeat exactly for a
//! seed.

use crate::corpus::Corpus;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every query pays full expansion, propagation and discovery.
    SearchCold,
    /// Skewed repeat traffic through cache, warm pool and shard merge.
    ServeZipf,
    /// `SearchCold`'s queries over two shard servers on unix sockets.
    FleetUnix,
    /// Durable ingest batches beside reads, checkpoints and a restart.
    LiveMixed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] =
        [Workload::SearchCold, Workload::ServeZipf, Workload::FleetUnix, Workload::LiveMixed];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchCold => "search_cold",
            Workload::ServeZipf => "serve_zipf",
            Workload::FleetUnix => "fleet_unix",
            Workload::LiveMixed => "live_mixed",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The corpus this workload runs on.
    pub fn corpus(self) -> Corpus {
        match self {
            Workload::LiveMixed => Corpus::Social1k,
            _ => Corpus::Docs8k,
        }
    }

    /// Timed operations (queries; steps on `live_mixed`) that take 35 s on
    /// the sizing host: cold search ≈ 27 ms, Zipf serving ≈ 9 ms, a fleet
    /// query ≈ 36 ms, a live step (one batch + eight queries) ≈ 0.2 s —
    /// about 0.6 s when its batch reaches the corpus's giant component,
    /// as a third do, about 20 ms otherwise.
    fn ops_per_35s(self) -> usize {
        match self {
            Workload::SearchCold => 1280,
            Workload::ServeZipf => 4000,
            Workload::FleetUnix => 960,
            Workload::LiveMixed => 168,
        }
    }
}

/// Untimed operations that precede timing.
pub const WARMUP_OPS: usize = 100;

/// Queries re-answered through the reference path after the timed phase.
pub const CHECK_SAMPLE: usize = 64;

/// How much one pass of a workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Stream seed.
    pub seed: u64,
    /// Timed operations: queries, or steps on `live_mixed`.
    pub ops: usize,
    /// Untimed warm-up queries before them.
    pub warmup: usize,
    /// Queries re-answered through the reference path afterwards.
    pub sample: usize,
    /// `live_mixed`: steps between checkpoints; the last interval is left
    /// in the WAL as the tail the restart replays.
    pub checkpoint_every: usize,
}

impl Plan {
    /// The plan for `--seconds`; `smoke` divides every count by twenty so
    /// all four workloads run in seconds.
    pub fn new(workload: Workload, seed: u64, seconds: u32, smoke: bool) -> Plan {
        let shrink = if smoke { 20 } else { 1 };
        let mut plan = Plan {
            workload,
            seed,
            ops: 0,
            warmup: WARMUP_OPS / shrink,
            sample: CHECK_SAMPLE / if smoke { 4 } else { 1 },
            checkpoint_every: if smoke { 2 } else { 8 },
        };
        let per_unit = 35 * shrink * plan.unit();
        let units = (workload.ops_per_35s() * seconds as usize + per_unit / 2) / per_unit;
        plan.ops = units.max(plan.min_units()) * plan.unit();
        plan
    }

    /// The same plan with half the timed operations: a traced run spends
    /// its time on an untraced and a traced pass of this size.
    pub fn halved(self) -> Plan {
        let units = self.ops / self.unit() / 2;
        Plan { ops: units.max(self.min_units()) * self.unit(), ..self }
    }

    /// Operations come in whole units: `search_cold` runs its four query
    /// classes in equal shares and `fleet_unix` times three quarters of
    /// that list, so for equal `--seconds` both count the same units;
    /// `live_mixed` runs whole checkpoint intervals.
    fn unit(&self) -> usize {
        match self.workload {
            Workload::SearchCold => 4,
            Workload::FleetUnix => 3,
            Workload::ServeZipf => 1,
            Workload::LiveMixed => self.checkpoint_every,
        }
    }

    /// `live_mixed` needs its append-only first interval, checkpointed,
    /// and a mutating one left as the WAL tail.
    fn min_units(&self) -> usize {
        match self.workload {
            Workload::LiveMixed => 2,
            _ => 1,
        }
    }

    /// `fleet_unix`: length of the `search_cold` list (warm-up included)
    /// whose head this plan times.
    pub fn cold_list_len(&self) -> usize {
        self.warmup + self.ops / 3 * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_follow_seconds() {
        let full = Plan::new(Workload::SearchCold, 1, 35, false);
        assert_eq!(full.ops, 1280);
        assert_eq!(Plan::new(Workload::FleetUnix, 1, 35, false).ops, 960);
        assert_eq!(Plan::new(Workload::ServeZipf, 1, 35, false).ops, 4000);
        assert_eq!(Plan::new(Workload::LiveMixed, 1, 35, false).ops, 168);
        assert_eq!(Plan::new(Workload::LiveMixed, 1, 15, false).ops, 72);
        assert_eq!(Plan::new(Workload::SearchCold, 1, 15, false).ops, 548);
        assert_eq!(Plan::new(Workload::SearchCold, 1, 35, true).ops, 64);
        assert_eq!(Plan::new(Workload::ServeZipf, 1, 1, true).ops, 6);
    }

    #[test]
    fn fleet_counts_three_quarters_of_cold() {
        for seconds in [1, 7, 15, 35, 60] {
            for smoke in [false, true] {
                let cold = Plan::new(Workload::SearchCold, 1, seconds, smoke);
                let fleet = Plan::new(Workload::FleetUnix, 1, seconds, smoke);
                assert_eq!(fleet.ops * 4, cold.ops * 3);
                assert_eq!(fleet.cold_list_len(), cold.warmup + cold.ops);
                assert_eq!(fleet.halved().ops * 4, cold.halved().ops * 3);
            }
        }
    }

    #[test]
    fn live_runs_whole_checkpoint_intervals() {
        for seconds in [1, 5, 10, 15, 35, 60] {
            for smoke in [false, true] {
                for p in [Plan::new(Workload::LiveMixed, 3, seconds, smoke)] {
                    for p in [p, p.halved()] {
                        assert_eq!(p.ops % p.checkpoint_every, 0);
                        assert!(p.ops >= 2 * p.checkpoint_every);
                    }
                }
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
