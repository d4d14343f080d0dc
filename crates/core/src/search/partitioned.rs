//! Exact scatter-gather search over a component partition.
//!
//! The sharded serving layer partitions content components across shards
//! (see [`crate::partition`]). A naive scatter — run every shard's
//! restricted search independently, merge the top-k lists — is *not*
//! result-identical to the unsharded engine: score intervals tighten as a
//! search iterates, and each shard, seeing fewer competitors, would stop
//! at its own (earlier) iteration with looser bounds. Exactness needs the
//! shards to stop together.
//!
//! [`S3kEngine::run_partitioned_with`] therefore keeps the scatter
//! *iteration-synchronous*:
//!
//! * one [`Propagation`] per query — proximity is a function of the full
//!   graph and the seeker, identical in every shard, so sharing it both
//!   removes redundant work and pins every shard to the same bounds;
//! * discovery dispatches each content component to its owning shard's
//!   [`SearchScratch`]: per-shard candidate pools partition the global
//!   candidate set (admission order is logged so the merged result lists
//!   candidates exactly like the unsharded run);
//! * each shard runs stage 3 (bounds) and stage 4's greedy selection over
//!   its own pool; the gather merges the per-shard selections with
//!   [`super::merge`]'s ranking. Definition 3.2's vertical-neighbor
//!   constraint only relates fragments of one tree — one component, one
//!   shard — so the merged prefix *is* the global greedy selection;
//! * the stop test runs against the merged selection (global `min lower`,
//!   global result count, shared threshold), making the stop iteration —
//!   and with it every returned bound — identical to the unsharded run.
//!
//! The result: for any shard count and any subset of shards covering the
//! query's matching components, the merged [`TopKResult`] is
//! byte-identical to [`S3kEngine::run`] on hits (documents, order,
//! certified bounds), candidate list and stop reason. Property-tested
//! here and end-to-end in `crates/engine/tests/sharding.rs`.

use super::scratch::SearchScratch;
use super::{bounds, discover, expand, merge, stop};
use super::{
    Hit, LifecycleScratch, Query, ResumeOutcome, S3kEngine, SearchStats, StopReason, TopKResult,
};
use crate::partition::ComponentPartition;
use crate::score::ScoreModel;
use s3_doc::DocNodeId;
use s3_graph::{NodeId, Propagation};
use std::time::Duration;

/// The partitioned scatter's query-local state, seen through the shared
/// propagation lifecycle: seeds go to the carrier's frontier list, and a
/// fallback rewind must clear the carrier *and* every active shard's
/// scratch (their cloned expansions survive).
struct ScatterCtx<'a> {
    carrier: &'a mut SearchScratch,
    scratches: &'a mut [Option<SearchScratch>],
    active: &'a [usize],
}

impl LifecycleScratch for ScatterCtx<'_> {
    fn newly_mut(&mut self) -> &mut Vec<NodeId> {
        &mut self.carrier.newly
    }

    fn rewind(&mut self) {
        self.carrier.rewind_search();
        for &s in self.active {
            self.scratches[s].as_mut().expect("active shard scratch").rewind_search();
        }
    }
}

impl<'i, S: ScoreModel> S3kEngine<'i, S> {
    /// One-shot [`Self::run_partitioned_with`] over every shard, with
    /// throwaway buffers.
    pub fn run_partitioned(&self, query: &Query, partition: &ComponentPartition) -> TopKResult {
        let active: Vec<usize> = (0..partition.num_shards()).collect();
        let mut carrier = SearchScratch::new();
        let mut scratches: Vec<Option<SearchScratch>> =
            (0..partition.num_shards()).map(|_| Some(SearchScratch::new())).collect();
        let mut prop = None;
        self.run_partitioned_with(
            query,
            partition,
            &active,
            &mut carrier,
            &mut scratches,
            &mut prop,
        )
    }

    /// Answer one query by iteration-synchronous scatter-gather over the
    /// partition's shards (see the module docs).
    ///
    /// `carrier` holds the query-global state (expansion, frontier,
    /// threshold and gather buffers); `scratches` has one slot per shard,
    /// and only the `active` shards' slots must be checked out (`Some`) —
    /// the serving layer borrows them lazily from the pools of the shards
    /// a query actually routes to, so warm memory scales with scatter
    /// width rather than workers × shards. `active` must be sorted and
    /// deduplicated; dropping a shard is exact as long as none of its
    /// components can match the query (the router's contract). A warm
    /// same-seeker propagation is resumed exactly like the unsharded
    /// path. Results are byte-identical to [`S3kEngine::run`] on hits,
    /// candidate list and stop reason; the per-component work counters
    /// (`SearchStats::components`, `pruned_components`, `rejected`) only
    /// reflect components of active shards, so they fall short of the
    /// unsharded run's whenever shards are dropped.
    pub fn run_partitioned_with(
        &self,
        query: &Query,
        partition: &ComponentPartition,
        active: &[usize],
        carrier: &mut SearchScratch,
        scratches: &mut [Option<SearchScratch>],
        prop: &mut Option<Propagation<'i>>,
    ) -> TopKResult {
        let inst = self.instance;
        let graph = inst.graph();
        let num_components = graph.components().len();
        assert_eq!(
            partition.num_components(),
            num_components,
            "partition built for a different instance"
        );
        assert_eq!(scratches.len(), partition.num_shards(), "one slot per shard");
        debug_assert!(
            active.windows(2).all(|w| w[0] < w[1]) && active.iter().all(|&s| s < scratches.len()),
            "active shard list must be sorted, deduplicated and in range"
        );
        let started = self.config.clock.now();

        // ---- Stage 1 once: expansion is instance-global, identical in
        // every shard. The carrier holds it; active shards get a copy.
        carrier.begin(num_components);
        if !expand::expand_query(self, query, carrier) {
            let stats = SearchStats { stop: StopReason::NoMatch, ..SearchStats::default() };
            return TopKResult { hits: Vec::new(), candidate_docs: Vec::new(), stats };
        }
        for &s in active {
            let sc = scratches[s].as_mut().expect("active shard scratch checked out");
            sc.begin(num_components);
            sc.keywords.clone_from(&carrier.keywords);
            sc.exts.clone_from(&carrier.exts);
            sc.smax_ext.clone_from(&carrier.smax_ext);
        }

        let seeker = inst.user_node(query.seeker);
        let gamma = self.model.gamma();
        let prop = match prop {
            Some(p) if p.gamma() == gamma && std::ptr::eq(p.graph(), graph) => p,
            slot => slot.insert(Propagation::new(graph, gamma, seeker)),
        };

        let mut ctx = ScatterCtx { carrier, scratches, active };
        self.drive_lifecycle(seeker, prop, &mut ctx, |ctx, prop, outcome| {
            self.scatter_drive(
                query,
                partition,
                ctx.active,
                ctx.carrier,
                ctx.scratches,
                prop,
                started,
                outcome,
            )
        })
    }

    /// The iteration-synchronous scatter loop over prepared scratches
    /// (`carrier.newly` holds the discovery seeds). Probe semantics match
    /// [`S3kEngine::drive`]: with `ResumeOutcome::Resumed`, a first stop
    /// evaluation that would return yields `None` and the caller replays
    /// the query cold. The admission-order log is the one fresh
    /// allocation: it becomes the result's candidate list.
    #[allow(clippy::too_many_arguments)] // internal: mirrors the public driver's parameter set
    fn scatter_drive(
        &self,
        query: &Query,
        partition: &ComponentPartition,
        active: &[usize],
        carrier: &mut SearchScratch,
        scratches: &mut [Option<SearchScratch>],
        prop: &mut Propagation<'i>,
        started: Duration,
        outcome: ResumeOutcome,
    ) -> Option<TopKResult> {
        let probe = outcome == ResumeOutcome::Resumed;
        let graph = self.instance.graph();
        let mut stats = SearchStats { resume: outcome, ..SearchStats::default() };
        let mut order_log: Vec<DocNodeId> = Vec::new();
        let mut first = true;
        loop {
            // ---- Stage 2: discovery, dispatched to the owning shard. ----
            for &v in &carrier.newly {
                discover::triggered_components(graph, v, &mut |comp| {
                    let shard = partition.shard_of(comp);
                    if !active.contains(&shard) {
                        return;
                    }
                    let sc = scratches[shard].as_mut().expect("active shard scratch");
                    let before = sc.candidates.as_slice().len();
                    discover::discover_component(self, comp, sc, &mut stats);
                    order_log.extend(sc.candidates.as_slice()[before..].iter().map(|c| c.doc));
                });
            }

            // ---- Stage 3: bounds per shard, threshold once. ----
            for &s in active {
                bounds::update_candidate_bounds(self, scratches[s].as_mut().expect("active"), prop);
            }
            let threshold = {
                let SearchScratch { smax_ext, threshold_parts, .. } = &mut *carrier;
                bounds::undiscovered_threshold(
                    &self.model,
                    smax_ext,
                    threshold_parts,
                    prop,
                    prop.frontier_closed(),
                )
            };

            // ---- Stage 4: per-shard selection, global gather + stop. ----
            for &s in active {
                stop::select(self, scratches[s].as_mut().expect("active"), query.k);
            }
            carrier.gather.clear();
            for &s in active {
                let sel = &scratches[s].as_ref().expect("active").selection;
                carrier.gather.extend(sel.iter().map(|&i| (s, i)));
            }
            carrier.gather.sort_unstable_by(|&(sa, ia), &(sb, ib)| {
                let a = &scratches[sa].as_ref().expect("active").candidates.as_slice()[ia];
                let b = &scratches[sb].as_ref().expect("active").candidates.as_slice()[ib];
                merge::rank(a.upper, a.doc, b.upper, b.doc)
            });
            carrier.gather.truncate(query.k);

            let stop_reason = if partition_stop(
                self,
                scratches,
                active,
                &carrier.gather,
                query.k,
                threshold,
                prop.frontier_closed(),
            ) {
                Some(StopReason::Converged)
            } else if prop.iteration() >= self.config.max_iterations {
                Some(StopReason::MaxIterations)
            } else if self
                .config
                .time_budget
                .is_some_and(|budget| self.config.clock.now().saturating_sub(started) >= budget)
            {
                Some(StopReason::TimeBudget)
            } else {
                None
            };
            if let Some(stop) = stop_reason {
                // Same probe semantics as the unsharded drive: divert to
                // a cold replay except on a blown time budget, where the
                // resumed best-effort answer (and the warm propagation)
                // is worth more than a colder, equally-truncated rerun.
                if probe && first && stop != StopReason::TimeBudget {
                    return None;
                }
                stats.stop = stop;
                stats.iterations = prop.iteration();
                stats.quality = partition_certify(
                    self,
                    scratches,
                    active,
                    &carrier.gather,
                    query.k,
                    threshold,
                    stop,
                );
                return Some(gather(scratches, &carrier.gather, order_log, stats));
            }
            first = false;

            // ---- Explore one more hop (shared across shards). ----
            prop.step_into(1, false, &mut carrier.newly);
        }
    }
}

/// The global stop test of Algorithm `StopCondition`, evaluated over
/// partitioned candidate pools: `merged` is the global greedy selection,
/// and every unselected candidate of every active shard must be provably
/// excluded. Semantically identical to `stop::stop_condition` over the
/// union of the pools (vertical-neighbor domination cannot cross shards).
fn partition_stop<S: ScoreModel>(
    engine: &S3kEngine<'_, S>,
    scratches: &[Option<SearchScratch>],
    active: &[usize],
    merged: &[(usize, usize)],
    k: usize,
    threshold: f64,
    frontier_closed: bool,
) -> bool {
    let eps = engine.config.epsilon;
    let forest = engine.instance.forest();
    let min_lower = merged
        .iter()
        .map(|&(s, i)| scratches[s].as_ref().expect("active").candidates.as_slice()[i].lower)
        .fold(f64::INFINITY, f64::min);

    if merged.len() == k {
        if threshold > min_lower + eps {
            return false;
        }
    } else if !frontier_closed {
        return false;
    }
    for &s in active {
        let candidates = scratches[s].as_ref().expect("active").candidates.as_slice();
        for (i, c) in candidates.iter().enumerate() {
            if c.upper <= 0.0 || merged.contains(&(s, i)) {
                continue;
            }
            if merged.len() == k && c.upper <= min_lower + eps {
                continue;
            }
            let dominated = merged.iter().any(|&(ss, si)| {
                ss == s && {
                    let sel = &candidates[si];
                    forest.is_vertical_neighbor(sel.doc, c.doc) && sel.lower + eps >= c.upper
                }
            });
            if !dominated {
                return false;
            }
        }
    }
    true
}

/// [`stop::certify`] over partitioned candidate pools: the floor comes
/// from the merged selection, the rival is the max of the undiscovered
/// threshold and each active shard's pool rival measured against its own
/// entries of the merged selection (vertical-neighbor domination cannot
/// cross shards, so per-shard sweeps compose exactly).
fn partition_certify<S: ScoreModel>(
    engine: &S3kEngine<'_, S>,
    scratches: &[Option<SearchScratch>],
    active: &[usize],
    merged: &[(usize, usize)],
    k: usize,
    threshold: f64,
    reason: StopReason,
) -> super::QualityBound {
    let floor = merged
        .iter()
        .map(|&(s, i)| scratches[s].as_ref().expect("active").candidates.as_slice()[i].lower)
        .fold(f64::INFINITY, f64::min);
    let floor = if floor.is_finite() { floor } else { 0.0 };
    match reason {
        StopReason::Converged | StopReason::NoMatch => super::QualityBound::exact(floor),
        StopReason::MaxIterations | StopReason::TimeBudget => {
            let mut rival = threshold;
            for &s in active {
                let candidates = scratches[s].as_ref().expect("active").candidates.as_slice();
                let selected: Vec<usize> =
                    merged.iter().filter(|&&(ss, _)| ss == s).map(|&(_, i)| i).collect();
                rival = rival.max(stop::pool_rival_upper(engine, candidates, &selected));
            }
            super::QualityBound::anytime(floor, rival, merged.len() == k)
        }
    }
}

/// Materialize the merged result from the global selection and the
/// admission-order log.
fn gather(
    scratches: &[Option<SearchScratch>],
    merged: &[(usize, usize)],
    order_log: Vec<DocNodeId>,
    stats: SearchStats,
) -> TopKResult {
    let hits = merged
        .iter()
        .map(|&(s, i)| {
            let c = &scratches[s].as_ref().expect("active").candidates.as_slice()[i];
            Hit { doc: c.doc, lower: c.lower, upper: c.upper }
        })
        .collect();
    TopKResult { hits, candidate_docs: order_log, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{TagSubject, UserId};
    use crate::instance::{InstanceBuilder, S3Instance};
    use crate::partition::ComponentFilter;
    use crate::search::SearchConfig;
    use s3_text::{KeywordId, Language};
    use std::sync::Arc;

    /// A multi-component instance: three document threads (a post with a
    /// comment, a tagged post, a lone post), five users, an ontology
    /// bridge and an endorsement.
    fn instance() -> (S3Instance, Vec<UserId>, Vec<KeywordId>) {
        let mut b = InstanceBuilder::new(Language::English);
        let users: Vec<UserId> = (0..5).map(|_| b.add_user()).collect();
        b.add_social_edge(users[0], users[1], 1.0);
        b.add_social_edge(users[1], users[2], 0.8);
        b.add_social_edge(users[2], users[3], 0.6);
        b.add_social_edge(users[3], users[0], 0.4);
        b.add_social_edge(users[4], users[0], 0.9);

        let ms = b.intern_entity_keyword("ex:MS");
        let degree = b.intern_entity_keyword("ex:degree");
        let (ms_uri, deg_uri) = {
            let d = b.rdf_mut().dictionary_mut();
            (d.intern("ex:MS"), d.intern("ex:degree"))
        };
        b.rdf_mut().insert(
            ms_uri,
            s3_rdf::vocabulary::RDFS_SUBCLASS_OF,
            s3_rdf::Term::Uri(deg_uri),
            1.0,
        );

        // Thread 1: post + reply (one component).
        let kws0 = b.analyze("a university degree matters");
        let mut d0 = s3_doc::DocBuilder::new("post");
        d0.set_content(d0.root(), kws0);
        let t0 = b.add_document(d0, Some(users[1]));
        let d0_root = b.doc_root(t0);
        let mut d1 = s3_doc::DocBuilder::new("reply");
        let sec = d1.child(d1.root(), "text");
        d1.set_content(sec, vec![ms]);
        let t1 = b.add_document(d1, Some(users[2]));
        b.add_comment_edge(t1, d0_root);

        // Thread 2: tagged post (its own component, bridged by a tag).
        let kws2 = b.analyze("university education is great");
        let mut d2 = s3_doc::DocBuilder::new("post");
        d2.set_content(d2.root(), kws2);
        let t2 = b.add_document(d2, Some(users[3]));
        let d2_root = b.doc_root(t2);
        let univers = b.analyzer_mut().vocabulary_mut().intern("univers");
        b.add_tag(TagSubject::Frag(d2_root), users[0], Some(univers));
        b.add_tag(TagSubject::Frag(d2_root), users[4], None);

        // Thread 3: lone post.
        let kws3 = b.analyze("degrees and education and universities");
        let mut d3 = s3_doc::DocBuilder::new("post");
        d3.set_content(d3.root(), kws3);
        b.add_document(d3, Some(users[2]));

        let inst = b.build();
        let mut pool = vec![degree, ms];
        pool.extend(inst.query_keywords("university education matters great"));
        (inst, users, pool)
    }

    fn queries(users: &[UserId], pool: &[KeywordId]) -> Vec<Query> {
        let mut out = Vec::new();
        for (qi, &u) in users.iter().enumerate() {
            for k in [1usize, 2, 4] {
                let kws: Vec<KeywordId> = match qi % 3 {
                    0 => vec![pool[qi % pool.len()]],
                    1 => vec![pool[qi % pool.len()], pool[(qi + 1) % pool.len()]],
                    _ => pool.to_vec(),
                };
                out.push(Query::new(u, kws, k));
            }
        }
        // Unanswerable and empty queries exercise the NoMatch path.
        out.push(Query::new(users[0], vec![KeywordId(99_999)], 3));
        out.push(Query::new(users[0], Vec::new(), 3));
        out
    }

    fn assert_same(a: &TopKResult, b: &TopKResult) {
        assert_eq!(a.stats.stop, b.stats.stop);
        assert_eq!(a.stats.quality, b.stats.quality, "certified quality must merge exactly");
        assert_eq!(a.candidate_docs, b.candidate_docs);
        assert_eq!(a.hits.len(), b.hits.len());
        for (x, y) in a.hits.iter().zip(b.hits.iter()) {
            assert_eq!(x.doc, y.doc);
            assert!(x.lower == y.lower, "lower {} != {}", x.lower, y.lower);
            assert!(x.upper == y.upper, "upper {} != {}", x.upper, y.upper);
        }
    }

    #[test]
    fn partitioned_run_is_byte_identical_to_unsharded() {
        let (inst, users, pool) = instance();
        for pruning in [true, false] {
            let config = SearchConfig { component_pruning: pruning, ..SearchConfig::default() };
            let engine = S3kEngine::new(&inst, config);
            for shards in [1usize, 2, 3, 4, 7] {
                let partition = ComponentPartition::balanced(&inst, shards);
                for q in queries(&users, &pool) {
                    let direct = engine.run(&q);
                    let merged = engine.run_partitioned(&q, &partition);
                    assert_same(&merged, &direct);
                    assert_eq!(merged.stats.candidates, direct.stats.candidates);
                    assert_eq!(merged.stats.iterations, direct.stats.iterations);
                }
            }
        }
    }

    #[test]
    fn partitioned_anytime_quality_matches_unsharded() {
        // Iteration-capped runs stop the scatter and the unsharded loop
        // at the same iteration, so the certified regret must merge to
        // the exact same bound, shard count notwithstanding.
        let (inst, users, pool) = instance();
        for cap in [0u32, 1, 2, 4] {
            let config = SearchConfig { max_iterations: cap, ..SearchConfig::default() };
            let engine = S3kEngine::new(&inst, config);
            for shards in [1usize, 2, 3] {
                let partition = ComponentPartition::balanced(&inst, shards);
                for q in queries(&users, &pool) {
                    let direct = engine.run(&q);
                    let merged = engine.run_partitioned(&q, &partition);
                    assert_same(&merged, &direct);
                    if direct.stats.stop == StopReason::MaxIterations {
                        assert!(!direct.stats.quality.exact);
                        assert!(direct.stats.quality.regret.is_finite());
                    }
                }
            }
        }
    }

    #[test]
    fn warm_partitioned_buffers_never_leak() {
        let (inst, users, pool) = instance();
        let engine = S3kEngine::new(&inst, SearchConfig::default());
        let partition = ComponentPartition::balanced(&inst, 3);
        let mut carrier = SearchScratch::new();
        let mut scratches: Vec<Option<SearchScratch>> =
            (0..3).map(|_| Some(SearchScratch::new())).collect();
        let mut prop = None;
        let active = vec![0usize, 1, 2];
        for q in queries(&users, &pool) {
            let warm = engine.run_partitioned_with(
                &q,
                &partition,
                &active,
                &mut carrier,
                &mut scratches,
                &mut prop,
            );
            assert_same(&warm, &engine.run(&q));
        }
    }

    #[test]
    fn inactive_unmatchable_shards_can_be_dropped() {
        let (inst, users, pool) = instance();
        let engine = S3kEngine::new(&inst, SearchConfig::default());
        let partition = ComponentPartition::balanced(&inst, 2);
        // Relevance by the router's conservative test: a shard whose
        // components' keyword sets miss every query keyword extension
        // can be dropped without changing the result.
        for q in queries(&users, &pool) {
            let mut exts: Vec<Arc<Vec<KeywordId>>> =
                q.keywords.iter().map(|&k| inst.expand_keyword(k)).collect();
            exts.dedup();
            let relevant: Vec<usize> = (0..2)
                .filter(|&s| {
                    partition.components_of(s).any(|c| {
                        let kws = inst.component_keywords(c);
                        exts.iter().all(|e| e.iter().any(|k| kws.contains(k)))
                    })
                })
                .collect();
            // Lazy checkout contract: only relevant shards get a scratch.
            let mut carrier = SearchScratch::new();
            let mut scratches: Vec<Option<SearchScratch>> =
                (0..2).map(|s| relevant.contains(&s).then(SearchScratch::new)).collect();
            let mut prop = None;
            let merged = engine.run_partitioned_with(
                &q,
                &partition,
                &relevant,
                &mut carrier,
                &mut scratches,
                &mut prop,
            );
            assert_same(&merged, &engine.run(&q));
        }
    }

    #[test]
    fn filtered_standalone_runs_partition_the_candidate_set() {
        let (inst, users, pool) = instance();
        let partition = ComponentPartition::balanced(&inst, 3);
        let unsharded = S3kEngine::new(&inst, SearchConfig::default());
        for q in queries(&users, &pool) {
            let full = unsharded.run(&q);
            let mut union: Vec<DocNodeId> = Vec::new();
            for s in 0..3 {
                let filter = Arc::new(ComponentFilter::for_shard(&partition, s));
                let engine = S3kEngine::new(
                    &inst,
                    SearchConfig { component_filter: Some(filter), ..SearchConfig::default() },
                );
                let part = engine.run(&q);
                for &d in &part.candidate_docs {
                    let node = inst.graph().node_of_frag(d).unwrap();
                    let comp = inst.graph().components().component_of(node);
                    assert_eq!(partition.shard_of(comp), s, "candidate outside its shard");
                }
                union.extend(part.candidate_docs.iter().copied());
            }
            union.sort_unstable();
            let before = union.len();
            union.dedup();
            assert_eq!(union.len(), before, "shard candidate sets must be disjoint");
            // A shard short of k local answers explores until its frontier
            // closes, so its standalone candidate set can exceed the
            // globally-stopped run's — the union covers the global set.
            for d in &full.candidate_docs {
                assert!(union.binary_search(d).is_ok(), "global candidate {d:?} missing");
            }
        }
    }
}
