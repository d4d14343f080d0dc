//! The round executor: what the one driver ([`S3kEngine::search`]) asks
//! of whatever runs its rounds, and [`Local`], the in-process one.

use super::scratch::{Pool, QueryScratch};
use super::stop::{self, MergeScratch};
use super::{bounds, discover, expand};
use super::{Hit, Query, S3kEngine, SearchStats};
use crate::partition::ComponentPartition;
use crate::score::ScoreModel;
use s3_doc::DocNodeId;
use s3_graph::Propagation;

/// What a round reports besides the pools (the same for every pool).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Round {
    /// Explore steps taken before this round's discovery.
    pub iteration: u32,
    /// Upper bound on the score of every undiscovered document.
    pub threshold: f64,
    /// The frontier stopped growing: no undiscovered document can have a
    /// positive score.
    pub frontier_closed: bool,
}

/// Runs the rounds of one query for [`S3kEngine::search`] over one or
/// more candidate pools. A round is discovery over the nodes the last
/// explore step reached, then bounds, then each pool's greedy selection;
/// the reads report the last round.
pub trait RoundExecutor {
    /// Why an operation failed.
    type Error;

    /// Expand `query` and run round 0, with the propagation at step 0.
    /// `false`: the query cannot match and no round state is kept.
    fn begin(&mut self, query: &Query) -> Result<bool, Self::Error>;

    /// One explore step, then one round.
    fn advance(&mut self) -> Result<(), Self::Error>;

    /// The largest upper bound, over every pool, of an unselected,
    /// positive candidate no selected vertical neighbor provably dominates
    /// (0 when none). The merged selection holds the first `shares[p]`
    /// entries of pool `p`'s selection; `min_lower` is its smallest lower
    /// bound and `full` says whether it holds `k` hits.
    fn rival(&mut self, shares: &[usize], min_lower: f64, full: bool) -> Result<f64, Self::Error>;

    /// The driver answered the query.
    fn end(&mut self) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Number of candidate pools.
    fn pools(&self) -> usize;

    /// The last round's report.
    fn round(&self) -> Round;

    /// Entry `j` of pool `pool`'s greedy selection, in rank order.
    fn hit(&self, pool: usize, j: usize) -> Option<Hit>;

    /// Entry `i` of what pool `pool` admitted in the last round, tagged
    /// with the global trigger sequence number that admitted it (in
    /// sequence order).
    fn admitted(&self, pool: usize, i: usize) -> Option<(u32, DocNodeId)>;

    /// Pool `pool`'s work counters for the query so far: `candidates`,
    /// `rejected`, `components` and `pruned_components`.
    fn work(&self, pool: usize) -> SearchStats;

    /// The driver's merge buffers, kept between queries.
    fn merge_scratch(&mut self) -> &mut MergeScratch;

    /// Test builds: check one stop decision against an oracle.
    #[cfg(test)]
    fn audit(&self, _: &[(usize, Hit)], _: &stop::StopState, _: stop::tests::Decision) {}
}

/// The in-process executor: one [`Propagation`] and N candidate pools.
/// With a partition, pool `i` owns the components of shard `shards[i]`
/// (sorted); without, pool 0 owns every component. The propagation runs
/// over the buffers of `q.prop`, attached by [`RoundExecutor::begin`]
/// and put back by [`Local::park`].
pub(crate) struct Local<'a, 'p, 'i, S: ScoreModel> {
    pub engine: &'a S3kEngine<'i, S>,
    pub q: &'a mut QueryScratch,
    pub pools: &'a mut [&'p mut Pool],
    pub partition: Option<(&'a ComponentPartition, &'a [usize])>,
    /// The attached propagation (`None` before `begin`, and while parked).
    pub prop: Option<Propagation<'i>>,
}

impl<S: ScoreModel> Local<'_, '_, '_, S> {
    /// Put the propagation's buffers back into the scratch. A later
    /// executor over the same scratch continues where this one stopped
    /// (how a fleet shard spans its messages) until the next `begin`.
    pub fn park(&mut self) {
        if let Some(prop) = self.prop.take() {
            self.q.prop = prop.detach();
        }
    }

    /// Stages 2–4 over the nodes in `q.newly`: dispatch every component
    /// they trigger to its owning pool, counting *every* trigger — owned
    /// or not — into the global sequence that tags each admission;
    /// refresh the bounds and the undiscovered threshold; select.
    fn run_round(&mut self) {
        let Local { engine, q, pools, partition, prop, .. } = self;
        let prop = prop.as_mut().expect("a begun query has a propagation");
        let graph = engine.instance.graph();
        for pool in pools.iter_mut() {
            pool.admitted.clear();
        }

        // ---- Stage 2: discovery (Algorithm GetDocuments). ----
        let QueryScratch { exts, newly, triggers, .. } = &mut **q;
        for &v in newly.iter() {
            discover::triggered_components(graph, v, &mut |comp| {
                let seq = *triggers;
                *triggers += 1;
                let owner = match partition {
                    None => Some(0),
                    Some((partition, shards)) => {
                        shards.binary_search(&partition.shard_of(comp)).ok()
                    }
                };
                if let Some(p) = owner {
                    discover::discover_component(engine, exts, comp, pools[p], seq);
                }
            });
        }

        // ---- Stage 3: bounds (Algorithm ComputeCandidatesBounds). ----
        for pool in pools.iter_mut() {
            bounds::update_candidate_bounds(engine, pool, prop);
        }
        let threshold = bounds::undiscovered_threshold(&engine.model, q, prop);

        // ---- Stage 4: greedy selection per pool. ----
        for pool in pools.iter_mut() {
            stop::select(engine, pool, q.k);
        }
        let (iteration, frontier_closed) = (prop.iteration(), prop.frontier_closed());
        q.round = Round { iteration, threshold, frontier_closed };
    }
}

impl<S: ScoreModel> RoundExecutor for Local<'_, '_, '_, S> {
    type Error = &'static str;

    fn begin(&mut self, query: &Query) -> Result<bool, Self::Error> {
        let (engine, graph) = (self.engine, self.engine.instance.graph());
        self.q.begin(query.k);
        for pool in self.pools.iter_mut() {
            pool.begin(graph.components().len());
        }
        // ---- Stage 1: keyword expansion (Definition 2.1). ----
        if !expand::expand_query(engine, query, self.q) {
            // Some keyword (or its whole extension) never occurs: the score
            // of every document is 0 and the (positive-score) answer is
            // empty — exact.
            return Ok(false);
        }
        if query.seeker.index() >= engine.instance.num_users() {
            return Err("query seeker is not a user of the instance");
        }
        let seeker = engine.instance.user_node(query.seeker);
        // The scratch's buffers only save allocations: whatever graph,
        // seeker or step they last held, the propagation starts at step 0.
        let state = std::mem::take(&mut self.q.prop);
        let prop =
            self.prop.insert(Propagation::attach(graph, engine.model.gamma(), seeker, state));
        if prop.iteration() > 0 {
            prop.reset(seeker);
        }
        // Discovery from the seed (the seeker may source tags/documents).
        self.q.newly.push(seeker);
        self.run_round();
        Ok(true)
    }

    fn advance(&mut self) -> Result<(), Self::Error> {
        // ---- Explore one more hop (Algorithm ExploreStep). ----
        let (graph, gamma) = (self.engine.instance.graph(), self.engine.model.gamma());
        let q = &mut *self.q;
        // Parked between a fleet shard's messages: re-attach where it was.
        let prop = self.prop.get_or_insert_with(|| {
            let state = std::mem::take(&mut q.prop);
            Propagation::attach(graph, gamma, state.seeker(), state)
        });
        prop.step_into(1, false, &mut q.newly);
        self.run_round();
        Ok(())
    }

    fn rival(&mut self, shares: &[usize], _: f64, _: bool) -> Result<f64, Self::Error> {
        let engine = self.engine;
        let rival = self.pools.iter_mut().zip(shares).map(|(pool, &share)| {
            pool.selection.truncate(share);
            stop::pool_rival_upper(engine, pool)
        });
        Ok(rival.fold(0.0, f64::max))
    }

    fn pools(&self) -> usize {
        self.pools.len()
    }

    fn round(&self) -> Round {
        self.q.round
    }

    fn hit(&self, pool: usize, j: usize) -> Option<Hit> {
        let pool = &self.pools[pool];
        let c = &pool.candidates.as_slice()[*pool.selection.get(j)?];
        Some(Hit { doc: c.doc, lower: c.lower, upper: c.upper })
    }

    fn admitted(&self, pool: usize, i: usize) -> Option<(u32, DocNodeId)> {
        self.pools[pool].admitted.get(i).copied()
    }

    fn work(&self, pool: usize) -> SearchStats {
        self.pools[pool].stats
    }

    fn end(&mut self) -> Result<(), Self::Error> {
        self.park();
        Ok(())
    }

    fn merge_scratch(&mut self) -> &mut MergeScratch {
        &mut self.q.merge
    }

    #[cfg(test)]
    fn audit(&self, merged: &[(usize, Hit)], state: &stop::StopState, d: stop::tests::Decision) {
        stop::tests::assert_matches_oracle(self.engine, self.pools, merged, state, d);
    }
}
