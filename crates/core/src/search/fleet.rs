//! Per-shard round executor for the cross-process fleet.
//!
//! The fleet client runs the one driver (see [`super`]) on a remote
//! executor that sends one message per operation to every routed shard.
//! [`FleetShard`] is the other end: the local executor in its one-pool
//! form, driven one message at a time, with its propagation parked in the
//! scratch between messages. Every shard replays the identical propagation
//! over the full graph and counts every component trigger, owned or not,
//! into the global sequence that tags its admissions, so the driver's
//! merges rebuild the single-process answer exactly. A message that does
//! not fit the shard's state is refused with a static description, never
//! a panic.

use super::exec::{Local, Round, RoundExecutor};
use super::scratch::SearchScratch;
use super::stop;
use super::{Hit, Query, S3kEngine, SearchStats};
use crate::partition::ComponentPartition;
use crate::score::ScoreModel;
use s3_doc::DocNodeId;

/// A round request or stop check arrived with no query begun.
const NO_QUERY: &str = "no active query";

/// One shard's executor state between round messages. The owning server
/// keeps this alive across rounds and across queries (the scratch's
/// propagation buffers are `reset` in O(touched) on the next query).
#[derive(Debug, Default)]
pub struct FleetShard {
    scratch: SearchScratch,
    active: bool,
}

impl FleetShard {
    /// Run `op` on the local executor over this shard's pool, then park
    /// the propagation in the scratch for the next message.
    fn with<S: ScoreModel, R>(
        &mut self,
        engine: &S3kEngine<'_, S>,
        partition: &ComponentPartition,
        shard: usize,
        op: impl FnOnce(&mut Local<'_, '_, '_, S>) -> R,
    ) -> R {
        let SearchScratch { query: q, pool } = &mut self.scratch;
        let (pools, partition) = (&mut [pool], Some((partition, &[shard][..])));
        let exec = &mut Local { engine, q, pools, partition, prop: None };
        let result = op(exec);
        exec.park();
        result
    }

    /// Begin a query: expand it, start the propagation at step 0 and run
    /// round zero. Returns `false` when expansion fails (no shard can answer —
    /// the query is a `NoMatch` and no round state is kept).
    ///
    /// `engine` must carry the fleet client's configuration (same score
    /// model and epsilon); ownership is `partition`/`shard`.
    pub fn begin<S: ScoreModel>(
        &mut self,
        engine: &S3kEngine<'_, S>,
        partition: &ComponentPartition,
        shard: usize,
        query: &Query,
    ) -> Result<bool, &'static str> {
        self.active = false;
        self.active = self.with(engine, partition, shard, |x| x.begin(query))?;
        Ok(self.active)
    }

    /// Advance the propagation one step and run the next round.
    pub fn advance<S: ScoreModel>(
        &mut self,
        engine: &S3kEngine<'_, S>,
        partition: &ComponentPartition,
        shard: usize,
    ) -> Result<(), &'static str> {
        if !self.active {
            return Err(NO_QUERY);
        }
        self.with(engine, partition, shard, |x| x.advance())
    }

    /// This shard's input to the one stop rule: the local executor's pool
    /// sweep against the shard's share of the merged selection
    /// (`selected`, candidate-pool indices) — the largest upper bound
    /// among this shard's unselected, positive candidates not provably
    /// dominated by a selected vertical neighbor (0 when none).
    pub fn rival_upper<S: ScoreModel>(
        &mut self,
        engine: &S3kEngine<'_, S>,
        selected: &[u32],
    ) -> Result<f64, &'static str> {
        let pool = &mut self.scratch.pool;
        if !self.active {
            return Err(NO_QUERY);
        }
        let len = pool.candidates.as_slice().len();
        if selected.iter().any(|&i| i as usize >= len) {
            return Err("stop check names a candidate past the shard's pool");
        }
        pool.selection.clear();
        pool.selection.extend(selected.iter().map(|&i| i as usize));
        Ok(stop::pool_rival_upper(engine, pool))
    }

    /// The query is over: the client decided, or the instance was swapped
    /// under it. The propagation buffers stay for the next query.
    pub fn end(&mut self) {
        self.active = false;
    }

    /// What the last round left for the reply: the round's report, this
    /// shard's work counters and the documents it admitted, tagged with
    /// their global trigger sequence.
    pub fn report(&self) -> (Round, &SearchStats, &[(u32, DocNodeId)]) {
        let pool = &self.scratch.pool;
        (self.scratch.query.round, &pool.stats, &pool.admitted)
    }

    /// The shard's greedy selection, each entry with its index in the
    /// shard's candidate pool (stable for the query).
    pub fn selection(&self) -> impl Iterator<Item = (u32, Hit)> + '_ {
        let pool = &self.scratch.pool;
        pool.selection.iter().map(|&i| {
            let c = &pool.candidates.as_slice()[i];
            (i as u32, Hit { doc: c.doc, lower: c.lower, upper: c.upper })
        })
    }
}
