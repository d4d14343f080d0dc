//! Per-shard round executor for the cross-process fleet.
//!
//! [`super::partitioned`] runs the iteration-synchronous scatter-gather
//! in one process: one `Propagation`, per-shard `SearchScratch`es, a
//! shared admission-order log, a merged selection, one global stop test.
//! [`FleetShard`] is the same algorithm cut along the process boundary:
//! it owns *one shard's* half of the round loop so a remote shard server
//! can play its part with only small per-round messages:
//!
//! * every shard replays the **identical propagation** over the full
//!   graph (proximity is a pure function of graph × γ × seeker × step,
//!   so replicas stay bit-identical without exchanging a single float);
//! * discovery walks the same `newly` list as the in-process scatter and
//!   counts **every** trigger — owned or foreign — into a global trigger
//!   sequence number; only owned components are discovered, and each
//!   admitted document is tagged with the sequence that admitted it. The
//!   client k-way merges the per-shard admitted lists by sequence, which
//!   reconstructs the single-process admission-order log exactly (one
//!   component belongs to one shard, so sequences never tie across
//!   shards);
//! * bounds, the undiscovered-document threshold and the greedy
//!   selection run shard-locally, exactly as the in-process shards do;
//! * the stop test's per-shard candidate sweep ([`FleetShard::rival_upper`])
//!   runs against the *merged* selection the client sends back —
//!   mirroring `partition_stop` term for term.
//!
//! Fleet queries always run cold (the client owns the resume policy and
//! does not use one yet); since same-seeker resume is exact, results
//! still match a possibly-resumed in-process engine byte for byte.

use super::scratch::SearchScratch;
use super::{bounds, discover, expand, merge, stop};
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
/// exactly like the in-process gather.
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
    /// Global trigger sequence: counts every component trigger this
    /// query dispatched, owned or foreign.
    seq: u32,
    k: usize,
    seeker: NodeId,
    active: bool,
    admitted: Vec<(u32, DocNodeId)>,
    threshold: f64,
    frontier_closed: bool,
    iteration: u32,
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
        let graph = engine.instance.graph();
        self.stats = SearchStats::default();
        self.seq = 0;
        self.k = query.k;
        self.scratch.begin(graph.components().len());
        if !expand::expand_query(engine, query, &mut self.scratch) {
            self.stats.stop = StopReason::NoMatch;
            self.active = false;
            return false;
        }
        self.active = true;
        self.seeker = engine.instance.user_node(query.seeker);
        let state = self.state.take().unwrap_or_default();
        let mut prop = Propagation::attach(graph, engine.model.gamma(), self.seeker, state);
        if prop.iteration() > 0 {
            // Fleet rounds always start cold; a warm same-seeker state
            // would otherwise resume where the last query left off.
            prop.reset(self.seeker);
        }
        self.scratch.newly.clear();
        self.scratch.newly.push(self.seeker);
        self.round(engine, partition, shard, &mut prop);
        self.state = Some(prop.detach());
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
        let graph = engine.instance.graph();
        let state = self.state.take().expect("active query keeps propagation state");
        let mut prop = Propagation::attach(graph, engine.model.gamma(), self.seeker, state);
        prop.step_into(1, false, &mut self.scratch.newly);
        self.round(engine, partition, shard, &mut prop);
        self.state = Some(prop.detach());
    }

    /// One round over the freshly-visited nodes: discovery of owned
    /// components (with global trigger sequencing), bounds, threshold and
    /// greedy selection — stages 2–4 of the staged search, shard-local.
    fn round<S: ScoreModel>(
        &mut self,
        engine: &S3kEngine<'_, S>,
        partition: &ComponentPartition,
        shard: usize,
        prop: &mut Propagation<'_>,
    ) {
        let graph = engine.instance.graph();
        self.admitted.clear();
        let newly = std::mem::take(&mut self.scratch.newly);
        for &v in &newly {
            discover::triggered_components(graph, v, &mut |comp| {
                // Count the trigger *before* the ownership filter: the
                // sequence must advance identically on every shard for
                // the merged admission order to be the in-process one.
                let seq = self.seq;
                self.seq += 1;
                if partition.shard_of(comp) != shard {
                    return;
                }
                let before = self.scratch.candidates.as_slice().len();
                discover::discover_component(engine, comp, &mut self.scratch, &mut self.stats);
                self.admitted.extend(
                    self.scratch.candidates.as_slice()[before..].iter().map(|c| (seq, c.doc)),
                );
            });
        }
        self.scratch.newly = newly;

        bounds::update_candidate_bounds(engine, &mut self.scratch, prop);
        self.threshold = {
            let SearchScratch { smax_ext, threshold_parts, .. } = &mut self.scratch;
            bounds::undiscovered_threshold(
                &engine.model,
                smax_ext,
                threshold_parts,
                prop,
                prop.frontier_closed(),
            )
        };
        stop::select(engine, &mut self.scratch, self.k);
        self.frontier_closed = prop.frontier_closed();
        self.iteration = prop.iteration();
        self.stats.iterations = prop.iteration();
    }

    /// This shard's half of the global stop test (`partition_stop`'s
    /// per-shard candidate sweep), reported as a *certified rival bound*
    /// rather than a bare vote: the largest upper bound among this
    /// shard's unselected, positive candidates not provably dominated by
    /// a selected vertical neighbor (0 when none). `selected` holds the
    /// candidate-pool indices of this shard's entries in the merged
    /// selection.
    ///
    /// The client reconstructs the old boolean vote exactly —
    /// `rival ≤ min_lower + ε` when the merged selection is full,
    /// `rival ≤ 0` otherwise — and additionally gets the quantity an
    /// anytime answer's [`super::QualityBound`] needs, in one reply.
    pub fn rival_upper<S: ScoreModel>(&self, engine: &S3kEngine<'_, S>, selected: &[u32]) -> f64 {
        let eps = engine.config.epsilon;
        let forest = engine.instance.forest();
        let candidates = self.scratch.candidates.as_slice();
        let mut rival = 0.0f64;
        for (i, c) in candidates.iter().enumerate() {
            if c.upper <= 0.0 || selected.contains(&(i as u32)) {
                continue;
            }
            let dominated = selected.iter().any(|&si| {
                let sel = &candidates[si as usize];
                forest.is_vertical_neighbor(sel.doc, c.doc) && sel.lower + eps >= c.upper
            });
            if !dominated {
                rival = rival.max(c.upper);
            }
        }
        rival
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
        self.iteration
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
        &self.admitted
    }

    /// The shard's current greedy selection, in selection order.
    pub fn selection(&self) -> impl Iterator<Item = SelectedCandidate> + '_ {
        let candidates = self.scratch.candidates.as_slice();
        self.scratch.selection.iter().map(move |&i| {
            let c = &candidates[i];
            SelectedCandidate { index: i as u32, doc: c.doc, lower: c.lower, upper: c.upper }
        })
    }
}
