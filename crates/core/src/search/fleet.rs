//! Per-shard round executor for the cross-process fleet.
//!
//! The in-process driver (see [`super`]) runs one search loop over one
//! `Propagation` and N candidate pools. [`FleetShard`] is the same loop
//! cut along the process boundary: it owns *one shard's* pool and runs
//! the driver's own per-pool round for it, so a remote shard server can
//! play its part with only small per-round messages:
//!
//! * every shard replays the **identical propagation** over the full
//!   graph (proximity is a pure function of graph × γ × seeker × step,
//!   so replicas stay bit-identical without exchanging a single float);
//! * the round counts **every** component trigger — owned or foreign —
//!   into a global trigger sequence number; only owned components are
//!   discovered, and each admitted document is tagged with the sequence
//!   that admitted it. The client k-way merges the per-shard admitted
//!   lists by sequence, which reconstructs the single-process admission
//!   log exactly (one component belongs to one shard, so sequences never
//!   tie across shards);
//! * bounds, the undiscovered-document threshold and the greedy
//!   selection run shard-locally, in the same round function;
//! * the client merges the replies' selections and applies the shared
//!   stop rule ([`super::StopState::decide`]); its rival is the max of
//!   the shards' [`FleetShard::rival_upper`], each the driver's own pool
//!   sweep against the shard's share of the *merged* selection.
//!
//! Fleet queries always run cold (the client owns the resume policy and
//! does not use one yet); since same-seeker resume is exact, results
//! still match a possibly-resumed in-process engine byte for byte.

use super::scratch::SearchScratch;
use super::{expand, merge, stop};
use super::{Query, S3kEngine, SearchStats, StopReason};
use crate::partition::ComponentPartition;
use crate::score::ScoreModel;
use s3_doc::DocNodeId;
use s3_graph::{NodeId, Propagation, PropagationState};
use std::cmp::Ordering;

/// One selected candidate, as a shard reports it: the index addresses the
/// shard's candidate pool (stable for the query), the rest are the hit
/// fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectedCandidate {
    /// Index into this shard's candidate pool.
    pub index: u32,
    /// The selected document.
    pub doc: DocNodeId,
    /// Certified lower score bound.
    pub lower: f64,
    /// Certified upper score bound.
    pub upper: f64,
}

/// The ranking every selection merge uses: upper bound descending, then
/// document id ascending — the private `merge` module's order, re-exported
/// so the fleet client (a different crate) merges per-shard selections
/// exactly like the in-process driver.
pub fn selection_rank(a_upper: f64, a_doc: DocNodeId, b_upper: f64, b_doc: DocNodeId) -> Ordering {
    merge::rank(a_upper, a_doc, b_upper, b_doc)
}

/// One shard's executor state between round messages. The owning server
/// keeps this alive across rounds (and across queries — the propagation
/// state stays warm and is `reset` in O(touched) on the next seeker).
#[derive(Debug, Default)]
pub struct FleetShard {
    scratch: SearchScratch,
    state: Option<PropagationState>,
    stats: SearchStats,
    k: usize,
    seeker: NodeId,
    active: bool,
    threshold: f64,
    frontier_closed: bool,
}

impl FleetShard {
    /// Fresh executor.
    pub fn new() -> Self {
        FleetShard::default()
    }

    /// Begin a query: expand it, start a cold propagation and run round
    /// zero. Returns `false` when expansion fails (no shard can answer —
    /// the query is a `NoMatch` and no round state is kept).
    ///
    /// `engine` must carry the scatter configuration: no component
    /// filter (ownership is enforced by `partition`/`shard` here), same
    /// score model and epsilon as the fleet client.
    pub fn begin<S: ScoreModel>(
        &mut self,
        engine: &S3kEngine<'_, S>,
        partition: &ComponentPartition,
        shard: usize,
        query: &Query,
    ) -> bool {
        self.stats = SearchStats::default();
        self.k = query.k;
        let SearchScratch { query: q, pool } = &mut self.scratch;
        q.begin();
        pool.begin(engine.instance.graph().components().len());
        self.active = expand::expand_query(engine, query, q);
        if !self.active {
            self.stats.stop = StopReason::NoMatch;
            return false;
        }
        self.seeker = engine.instance.user_node(query.seeker);
        self.round(engine, partition, shard, true);
        true
    }

    /// Advance the propagation one step and run the next round.
    pub fn advance<S: ScoreModel>(
        &mut self,
        engine: &S3kEngine<'_, S>,
        partition: &ComponentPartition,
        shard: usize,
    ) {
        assert!(self.active, "advance without an active query");
        self.round(engine, partition, shard, false);
    }

    /// One round: the driver's per-pool round with this shard's pool
    /// owning the shard's components, over the seeker (`first`) or the
    /// nodes one more explore step reaches.
    fn round<S: ScoreModel>(
        &mut self,
        engine: &S3kEngine<'_, S>,
        partition: &ComponentPartition,
        shard: usize,
        first: bool,
    ) {
        let graph = engine.instance.graph();
        let state = self.state.take().unwrap_or_default();
        let mut prop = Propagation::attach(graph, engine.model.gamma(), self.seeker, state);
        let SearchScratch { query: q, pool } = &mut self.scratch;
        if first {
            // Fleet rounds always start cold; a warm same-seeker state
            // would otherwise resume where the last query left off.
            if prop.iteration() > 0 {
                prop.reset(self.seeker);
            }
            q.newly.push(self.seeker);
        } else {
            prop.step_into(1, false, &mut q.newly);
        }
        q.admitted.clear();
        let owner = |comp| (partition.shard_of(comp) == shard).then_some(0);
        self.threshold = engine.round(q, &mut [pool], &owner, &mut prop, self.k, &mut self.stats);
        self.frontier_closed = prop.frontier_closed();
        self.stats.iterations = prop.iteration();
        self.state = Some(prop.detach());
    }

    /// This shard's input to the shared stop rule: the driver's pool
    /// sweep against the shard's share of the merged selection
    /// (`selected`, candidate-pool indices) — the largest upper bound
    /// among this shard's unselected, positive candidates not provably
    /// dominated by a selected vertical neighbor (0 when none). The
    /// client takes the max over shards, exactly as the in-process
    /// driver does over its pools.
    pub fn rival_upper<S: ScoreModel>(
        &mut self,
        engine: &S3kEngine<'_, S>,
        selected: &[u32],
    ) -> f64 {
        let pool = &mut self.scratch.pool;
        pool.selection.clear();
        pool.selection.extend(selected.iter().map(|&i| i as usize));
        stop::pool_rival_upper(engine, pool)
    }

    /// The client decided the query is over. The propagation state stays
    /// warm for the next query's O(touched) reset.
    pub fn end(&mut self) {
        self.active = false;
    }

    /// The instance was swapped (ingest): drop state tied to the old
    /// graph.
    pub fn invalidate(&mut self) {
        self.state = None;
        self.active = false;
    }

    /// Whether a query is between `begin` and `end`.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Propagation iteration of the last round.
    pub fn iteration(&self) -> u32 {
        self.stats.iterations
    }

    /// Undiscovered-document threshold of the last round (identical on
    /// every shard).
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Whether the frontier had closed at the last round.
    pub fn frontier_closed(&self) -> bool {
        self.frontier_closed
    }

    /// Cumulative stats for the current query (this shard's share).
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }

    /// Documents admitted by the last round, tagged with their global
    /// trigger sequence.
    pub fn admitted(&self) -> &[(u32, DocNodeId)] {
        &self.scratch.query.admitted
    }

    /// The shard's current greedy selection, in selection order.
    pub fn selection(&self) -> impl Iterator<Item = SelectedCandidate> + '_ {
        let candidates = self.scratch.pool.candidates.as_slice();
        self.scratch.pool.selection.iter().map(move |&i| {
            let c = &candidates[i];
            SelectedCandidate { index: i as u32, doc: c.doc, lower: c.lower, upper: c.upper }
        })
    }
}
