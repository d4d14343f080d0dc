//! Stage 4 — selection, the merges and the stop rule (Algorithm
//! `StopCondition`).
//!
//! Each pool picks its greedy selection by upper bound while respecting
//! Definition 3.2's vertical-neighbor constraint; the merge ranks the
//! pools' selections into the global one (the constraint relates
//! fragments of one tree, hence of one pool, so the merged prefix *is* the
//! greedy selection over the union), and the admission merge interleaves
//! the pools' admission logs by trigger sequence. [`StopState::decide`] is
//! the one stop rule: it certifies that no unselected or undiscovered
//! document can displace the merged selection (Theorem 4.1), at which
//! point the answer is final, and it prices an any-time answer's
//! [`QualityBound`]. The one driver calls all three, whatever executor
//! runs its rounds.

use super::exec::RoundExecutor;
use super::scratch::Pool;
use super::{Hit, QualityBound, S3kEngine, SearchConfig, StopReason};
use crate::score::ScoreModel;
use s3_doc::DocNodeId;
use std::cmp::Ordering;
use std::time::Duration;

/// The one ranking on `(upper bound, document)`, used by every pool's
/// selection and by the merge: higher upper bound first, lower document
/// id breaking ties (the engine's de-facto finite-precision
/// tie-breaking; `NaN` bounds compare equal and fall through to the id).
/// A document lives in one component, hence one pool, so the merged
/// order is total and a partitioned search reproduces the single-pool
/// selection order bit for bit.
#[inline]
fn rank(a_upper: f64, a_doc: DocNodeId, b_upper: f64, b_doc: DocNodeId) -> Ordering {
    b_upper.partial_cmp(&a_upper).unwrap_or(Ordering::Equal).then(a_doc.cmp(&b_doc))
}

/// Greedy top-k selection by upper bound, skipping vertical neighbors of
/// already-selected documents (Definition 3.2's constraint). Fills
/// `pool.selection` in [`rank`] order — the order the merge uses.
pub(crate) fn select<S: ScoreModel>(engine: &S3kEngine<'_, S>, pool: &mut Pool, k: usize) {
    let forest = engine.instance.forest();
    let candidates = pool.candidates.as_slice();
    pool.order.clear();
    pool.order.extend(0..candidates.len());
    pool.order.sort_unstable_by(|&a, &b| {
        rank(candidates[a].upper, candidates[a].doc, candidates[b].upper, candidates[b].doc)
    });
    pool.selection.clear();
    for &i in &pool.order {
        if pool.selection.len() == k {
            break;
        }
        let d = candidates[i].doc;
        if candidates[i].upper <= 0.0 {
            break;
        }
        let conflict =
            pool.selection.iter().any(|&s| forest.is_vertical_neighbor(candidates[s].doc, d));
        if !conflict {
            pool.selection.push(i);
        }
    }
}

/// The driver's merge buffers, lent by the executor for each query
/// ([`RoundExecutor::merge_scratch`]) so warm queries do not allocate them.
#[derive(Debug, Default)]
pub struct MergeScratch {
    /// The merged selection, best first, each hit with its pool.
    pub(crate) merged: Vec<(usize, Hit)>,
    /// Each pool's share of `merged` (a prefix of the pool's selection).
    pub(crate) shares: Vec<usize>,
    /// Each pool's position in the admission merge.
    cursors: Vec<usize>,
    /// The query's admissions so far, in single-pool admission order.
    pub(crate) log: Vec<DocNodeId>,
}

impl MergeScratch {
    /// Merge the executor's pool selections into the global one: rank
    /// every selected entry, keep the best `k` and count each pool's
    /// share. Returns the merged selection's smallest lower bound
    /// (`INFINITY` when empty).
    pub(crate) fn selections<X: RoundExecutor>(&mut self, exec: &X, k: usize) -> f64 {
        let MergeScratch { merged, shares, .. } = self;
        merged.clear();
        for pool in 0..exec.pools() {
            merged.extend((0..).map_while(|j| exec.hit(pool, j)).map(|hit| (pool, hit)));
        }
        merged.sort_unstable_by(|(_, a), (_, b)| rank(a.upper, a.doc, b.upper, b.doc));
        merged.truncate(k);
        shares.clear();
        shares.resize(exec.pools(), 0);
        for &(pool, _) in merged.iter() {
            shares[pool] += 1;
        }
        merged.iter().map(|(_, hit)| hit.lower).fold(f64::INFINITY, f64::min)
    }

    /// Append the last round's admissions to `log` in global
    /// trigger-sequence order: a k-way merge of the pools' logs (each in
    /// sequence order). One component belongs to one pool, so sequences
    /// never tie across pools, and the merge reconstructs the admission
    /// order of one pool owning every component exactly.
    pub(crate) fn admissions<X: RoundExecutor>(&mut self, exec: &X) {
        let MergeScratch { cursors, log, .. } = self;
        cursors.clear();
        cursors.resize(exec.pools(), 0);
        let next = |cursors: &[usize]| {
            let heads =
                cursors.iter().enumerate().filter_map(|(p, &i)| Some((exec.admitted(p, i)?, p)));
            heads.min_by_key(|&((seq, _), _)| seq)
        };
        while let Some(((_, doc), pool)) = next(cursors) {
            log.push(doc);
            cursors[pool] += 1;
        }
    }
}

/// The strongest *candidate* rival of a pool's share of the merged
/// selection (`pool.selection`): the largest upper bound among unselected, positive
/// candidates not provably dominated by a selected vertical neighbor (0
/// when none). [`StopState::decide`] compares it with the bar the regret
/// is measured against, so it excludes nothing for being under that bar.
pub(crate) fn pool_rival_upper<S: ScoreModel>(engine: &S3kEngine<'_, S>, pool: &Pool) -> f64 {
    let eps = engine.config.epsilon;
    let forest = engine.instance.forest();
    let (candidates, selected) = (pool.candidates.as_slice(), &pool.selection);
    let mut rival = 0.0f64;
    for (i, c) in candidates.iter().enumerate() {
        if c.upper <= 0.0 || selected.contains(&i) {
            continue;
        }
        let dominated = selected.iter().any(|&s| {
            let sel = &candidates[s];
            forest.is_vertical_neighbor(sel.doc, c.doc) && sel.lower + eps >= c.upper
        });
        if !dominated {
            rival = rival.max(c.upper);
        }
    }
    rival
}

/// What one stop evaluation reads: the merged selection's size and
/// weakest hit, the undiscovered threshold, the frontier, the step count
/// and the query's start time.
#[derive(Debug, Clone, Copy)]
pub struct StopState {
    /// Requested answer size.
    pub k: usize,
    /// Length of the merged selection (at most `k`).
    pub selected: usize,
    /// Smallest lower bound in the merged selection (`INFINITY` when it
    /// is empty).
    pub min_lower: f64,
    /// Upper bound on the score of every undiscovered document.
    pub threshold: f64,
    /// The frontier stopped growing: no undiscovered document can have a
    /// positive score.
    pub frontier_closed: bool,
    /// Explore steps taken.
    pub iteration: u32,
    /// [`SearchConfig::clock`] reading when the query started.
    pub started: Duration,
}

impl StopState {
    /// The one stop rule (Algorithm 2 `StopCondition`, Theorem 4.1):
    /// `None` means "explore one more step", otherwise the answer is final
    /// with the returned reason and certified quality.
    ///
    /// `rival` returns the largest upper bound, over every candidate pool,
    /// of an unselected, positive candidate no selected vertical neighbor
    /// provably dominates (0 when none; [`RoundExecutor::rival`]). It
    /// runs at most once, when needed: if the
    /// precondition holds — full selection and `threshold ≤ min_lower + ε`,
    /// or short selection and a closed frontier — the answer converged iff
    /// the rival is at most `min_lower + ε` (full) or 0 (short); an
    /// any-time stop (iteration cap, time budget) prices its regret with it.
    pub fn decide<E>(
        &self,
        config: &SearchConfig,
        mut rival: impl FnMut() -> Result<f64, E>,
    ) -> Result<Option<(StopReason, QualityBound)>, E> {
        let full = self.selected == self.k;
        let floor = if self.min_lower.is_finite() { self.min_lower } else { 0.0 };
        let bar = if full { self.min_lower + config.epsilon } else { 0.0 };
        let mut pool_rival = None;
        if (full && self.threshold <= bar) || (!full && self.frontier_closed) {
            let r = rival()?;
            if r <= bar {
                return Ok(Some((StopReason::Converged, QualityBound::exact(floor))));
            }
            pool_rival = Some(r);
        }
        let reason = if self.iteration >= config.max_iterations {
            StopReason::MaxIterations
        } else if config
            .time_budget
            .is_some_and(|budget| config.clock.now().saturating_sub(self.started) >= budget)
        {
            StopReason::TimeBudget
        } else {
            return Ok(None);
        };
        let r = match pool_rival {
            Some(r) => r,
            None => rival()?,
        };
        Ok(Some((reason, QualityBound::anytime(floor, self.threshold.max(r), full))))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ids::{TagSubject, UserId};
    use crate::instance::{InstanceBuilder, S3Instance};
    use crate::partition::ComponentPartition;
    use crate::search::exec::Local;
    use crate::search::scratch::{Candidate, QueryScratch};
    use crate::search::Query;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use s3_doc::{DocBuilder, DocNodeId};
    use s3_text::{KeywordId, Language};
    use std::collections::HashSet;

    /// One stop evaluation's outcome, as [`StopState::decide`] returns it.
    pub(crate) type Decision = Option<(StopReason, QualityBound)>;

    /// The stop test before the drivers merged, verbatim but for taking
    /// one flat candidate list and selection instead of a scratch: the
    /// oracle the one stop rule is pinned against.
    fn stop_condition<S: ScoreModel>(
        engine: &S3kEngine<'_, S>,
        candidates: &[Candidate],
        selection: &[usize],
        k: usize,
        threshold: f64,
        frontier_closed: bool,
    ) -> bool {
        let eps = engine.config.epsilon;
        let forest = engine.instance.forest();
        let mut in_selection = HashSet::new();
        in_selection.extend(selection.iter().copied());
        let min_lower =
            selection.iter().map(|&i| candidates[i].lower).fold(f64::INFINITY, f64::min);

        if selection.len() == k {
            // Undiscovered documents must not be able to enter.
            if threshold > min_lower + eps {
                return false;
            }
        } else {
            // Fewer than k positive-score documents may exist; that is only
            // certain once the frontier stopped growing (no undiscovered
            // document can have positive score) — see module docs.
            if !frontier_closed {
                return false;
            }
        }
        // Every unselected candidate must be provably excluded: either it
        // cannot beat the selection's weakest member, or a selected vertical
        // neighbor provably dominates it.
        for (i, c) in candidates.iter().enumerate() {
            if in_selection.contains(&i) || c.upper <= 0.0 {
                continue;
            }
            let beaten_globally = selection.len() == k && c.upper <= min_lower + eps;
            if beaten_globally {
                continue;
            }
            let dominated = selection.iter().any(|&s| {
                forest.is_vertical_neighbor(candidates[s].doc, c.doc)
                    && candidates[s].lower + eps >= c.upper
            });
            if !dominated {
                return false;
            }
        }
        true
    }

    /// The old any-time quality, verbatim: `certify` with its candidate
    /// rival sweep inlined.
    fn certify<S: ScoreModel>(
        engine: &S3kEngine<'_, S>,
        candidates: &[Candidate],
        selection: &[usize],
        threshold: f64,
        k: usize,
        reason: StopReason,
    ) -> QualityBound {
        let floor = selection.iter().map(|&i| candidates[i].lower).fold(f64::INFINITY, f64::min);
        let floor = if floor.is_finite() { floor } else { 0.0 };
        match reason {
            StopReason::Converged | StopReason::NoMatch => QualityBound::exact(floor),
            StopReason::MaxIterations | StopReason::TimeBudget => {
                let eps = engine.config.epsilon;
                let forest = engine.instance.forest();
                let mut rival = 0.0f64;
                for (i, c) in candidates.iter().enumerate() {
                    if c.upper <= 0.0 || selection.contains(&i) {
                        continue;
                    }
                    let dominated = selection.iter().any(|&s| {
                        let sel = &candidates[s];
                        forest.is_vertical_neighbor(sel.doc, c.doc) && sel.lower + eps >= c.upper
                    });
                    if !dominated {
                        rival = rival.max(c.upper);
                    }
                }
                QualityBound::anytime(floor, threshold.max(rival), selection.len() == k)
            }
        }
    }

    /// Called by the driver at every stop evaluation of a test build:
    /// the merged selection must be the greedy selection over the union
    /// of the pools, and the decision must be the one the old driver made
    /// over that union — `stop_condition`, then the iteration cap, then
    /// the time budget, priced by the old `certify`.
    pub(crate) fn assert_matches_oracle<S: ScoreModel>(
        engine: &S3kEngine<'_, S>,
        pools: &[&mut Pool],
        merged: &[(usize, Hit)],
        state: &StopState,
        decision: Decision,
    ) {
        // Each pool's entries are a prefix of its selection, in order.
        let mut seen = vec![0; pools.len()];
        let merged: Vec<(usize, usize)> = merged
            .iter()
            .map(|&(p, _)| {
                seen[p] += 1;
                (p, pools[p].selection[seen[p] - 1])
            })
            .collect();
        let mut union = Pool::default();
        let mut base = Vec::new();
        for pool in pools {
            base.push(union.candidates.as_slice().len());
            for c in pool.candidates.as_slice() {
                *union.candidates.stage(0) = c.clone();
                union.candidates.commit();
            }
        }
        let selection: Vec<usize> = merged.iter().map(|&(p, i)| base[p] + i).collect();
        select(engine, &mut union, state.k);
        assert_eq!(union.selection, selection, "the merge is not the union's greedy selection");

        let config = &engine.config;
        let candidates = union.candidates.as_slice();
        let (threshold, k) = (state.threshold, state.k);
        let reason = if stop_condition(
            engine,
            candidates,
            &selection,
            k,
            threshold,
            state.frontier_closed,
        ) {
            Some(StopReason::Converged)
        } else if state.iteration >= config.max_iterations {
            Some(StopReason::MaxIterations)
        } else if config
            .time_budget
            .is_some_and(|budget| config.clock.now().saturating_sub(state.started) >= budget)
        {
            Some(StopReason::TimeBudget)
        } else {
            None
        };
        let expected =
            reason.map(|r| (r, certify(engine, candidates, &selection, threshold, k, r)));
        assert_eq!(decision, expected, "the stop rule diverged from the old sweep at {state:?}");
    }

    /// A random instance in the shape of the `partitioned.rs` fixture:
    /// weighted follows, threads of a post (with a nested section) and
    /// replies bridged to it by an ontology, keyword and endorsement tags.
    fn random_instance(rng: &mut StdRng) -> (S3Instance, Vec<UserId>, Vec<KeywordId>) {
        let mut b = InstanceBuilder::new(Language::English);
        let users: Vec<UserId> = (0..rng.gen_range(3..8usize)).map(|_| b.add_user()).collect();
        for &u in &users {
            for &v in &users {
                if u != v && rng.gen_bool(0.3) {
                    b.add_social_edge(u, v, f64::from(rng.gen_range(1..=4u32)) / 4.0);
                }
            }
        }
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
        let words = ["university", "degree", "education", "great", "matters"];
        let text = |rng: &mut StdRng| {
            let picked: Vec<&str> = words.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
            picked.join(" ")
        };
        for _ in 0..rng.gen_range(2..7usize) {
            let poster = users[rng.gen_range(0..users.len())];
            let mut post = DocBuilder::new("post");
            let root_text = text(rng);
            let root_kws = b.analyze(&root_text);
            post.set_content(post.root(), root_kws);
            if rng.gen_bool(0.6) {
                let sec = post.child(post.root(), "section");
                let sec_text = text(rng);
                let sec_kws = b.analyze(&sec_text);
                post.set_content(sec, sec_kws);
            }
            let tree = b.add_document(post, Some(poster));
            let root = b.doc_root(tree);
            if rng.gen_bool(0.5) {
                let mut reply = DocBuilder::new("reply");
                let body = reply.child(reply.root(), "text");
                reply.set_content(body, if rng.gen_bool(0.5) { vec![ms] } else { vec![degree] });
                let replier = users[rng.gen_range(0..users.len())];
                let t = b.add_document(reply, Some(replier));
                b.add_comment_edge(t, root);
            }
            if rng.gen_bool(0.5) {
                let tagger = users[rng.gen_range(0..users.len())];
                let kw = rng.gen_bool(0.5).then(|| b.analyze("university")[0]);
                b.add_tag(TagSubject::Frag(root), tagger, kw);
            }
        }
        let inst = b.build();
        let mut pool = vec![degree, ms];
        pool.extend(inst.query_keywords("university education matters great"));
        (inst, users, pool)
    }

    #[test]
    fn merge_ranks_by_upper_then_doc() {
        let mut hits = [(3u32, 0.9), (1, 0.5), (0, 0.9), (2, 0.7)];
        hits.sort_unstable_by(|a, b| rank(a.1, DocNodeId(a.0), b.1, DocNodeId(b.0)));
        let docs: Vec<u32> = hits.iter().map(|h| h.0).collect();
        assert_eq!(docs, vec![0, 3, 2, 1], "0.9 tie broken by doc id, then 0.7, then 0.5");
        assert_eq!(
            rank(f64::NAN, DocNodeId(1), 0.5, DocNodeId(2)),
            Ordering::Less,
            "a NaN bound compares equal and falls through to the id"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// The one stop rule decides exactly what the old sweep decided,
        /// at every stop evaluation (the driver calls
        /// `assert_matches_oracle` in test builds): real searches over
        /// 1–4 pools with iteration caps 0–4 and uncapped, and synthetic
        /// pools on a quarter grid with ε = ¼, where candidate upper
        /// bounds tie `min_lower + ε` exactly.
        #[test]
        fn stop_rule_matches_the_old_sweep(seed in 0u64..1 << 32) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (inst, users, pool) = random_instance(&mut rng);
            let partitions: Vec<_> =
                (1..=4).map(|n| ComponentPartition::balanced(&inst, n)).collect();
            for cap in [0u32, 1, 2, 3, 4, 256] {
                let config = SearchConfig { max_iterations: cap, ..SearchConfig::default() };
                let engine = S3kEngine::new(&inst, config);
                let mut session = engine.session();
                for &u in &users {
                    let kws = vec![pool[rng.gen_range(0..pool.len())], pool[rng.gen_range(0..pool.len())]];
                    for k in [1usize, 2, 4] {
                        let q = Query::new(u, kws.clone(), k);
                        let direct = session.run(&q);
                        for partition in &partitions {
                            let merged = engine.run_partitioned(&q, partition);
                            prop_assert_eq!(merged.hits, direct.hits.clone());
                            prop_assert_eq!(merged.stats.quality, direct.stats.quality);
                        }
                    }
                }
            }

            // Synthetic pools: every document a candidate or not, bounds on
            // the grid, pools by a balanced partition (vertical neighbors
            // share a tree, hence a pool).
            let forest = inst.forest();
            let quarter = |rng: &mut StdRng, hi: u32| f64::from(rng.gen_range(0..=hi)) / 4.0;
            for _ in 0..16 {
                let config = SearchConfig {
                    epsilon: 0.25,
                    max_iterations: rng.gen_range(0..5),
                    ..SearchConfig::default()
                };
                let engine = S3kEngine::new(&inst, config);
                let partition = &partitions[rng.gen_range(0..partitions.len())];
                let mut pools: Vec<Pool> =
                    (0..partition.num_shards()).map(|_| Pool::default()).collect();
                for d in (0..forest.num_nodes() as u32).map(DocNodeId) {
                    let Some(node) = inst.graph().node_of_frag(d) else { continue };
                    if !rng.gen_bool(0.7) {
                        continue;
                    }
                    let upper = quarter(&mut rng, 4);
                    let lower = upper - quarter(&mut rng, (upper * 4.0) as u32);
                    let p = partition.shard_of(inst.graph().components().component_of(node));
                    let slot = pools[p].candidates.stage(0);
                    (slot.doc, slot.lower, slot.upper) = (d, lower, upper);
                    pools[p].candidates.commit();
                }
                let k = [1usize, 2, 4][rng.gen_range(0..3usize)];
                let mut refs: Vec<&mut Pool> = pools.iter_mut().collect();
                for pool in refs.iter_mut() {
                    select(&engine, pool, k);
                }
                let (mut q, mut prop) = (QueryScratch::default(), None);
                let (q, pools, prop) = (&mut q, &mut refs[..], &mut prop);
                let mut exec = Local { engine: &engine, q, pools, partition: None, prop, resume: false };
                let mut merge = MergeScratch::default();
                let min_lower = merge.selections(&exec, k);
                let (merged, shares) = (&merge.merged, &merge.shares);
                let state = StopState {
                    k,
                    selected: merged.len(),
                    min_lower,
                    threshold: quarter(&mut rng, 4),
                    frontier_closed: rng.gen_bool(0.5),
                    iteration: rng.gen_range(0..5),
                    started: Duration::ZERO,
                };
                let full = merged.len() == k;
                let decision = state.decide(&engine.config, || exec.rival(shares, min_lower, full));
                exec.audit(merged, &state, decision.unwrap());
            }
        }
    }
}
