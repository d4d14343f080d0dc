//! Exact search over a component partition.
//!
//! The sharded serving layer partitions content components across shards
//! (see [`crate::partition`]). A naive scatter — run every shard's
//! restricted search independently, merge the top-k lists — is *not*
//! result-identical to the unsharded engine: score intervals tighten as a
//! search iterates, and each shard, seeing fewer competitors, would stop
//! at its own (earlier) iteration with looser bounds. Exactness needs the
//! shards to stop together.
//!
//! [`S3kEngine::run_partitioned_with`] therefore runs the one search
//! driver (see [`super`]) on the local executor with one candidate pool
//! per active shard: one [`Propagation`] per query (proximity is a
//! function of the full graph and the seeker, so sharing it pins every
//! shard to the same bounds), discovery dispatching each component to
//! its owning shard's pool, and the stop rule judging the merged
//! selection — which *is* the global greedy selection, since Definition
//! 3.2's vertical-neighbor constraint only relates fragments of one
//! tree, hence of one shard. For any shard
//! count and any subset of shards covering the query's matching
//! components, the [`TopKResult`] is byte-identical to [`S3kEngine::run`]
//! on hits (documents, order, certified bounds), candidate list, stop
//! reason and quality. Property-tested here and end-to-end in
//! `crates/engine/tests/sharding.rs`.

use super::exec::Local;
use super::scratch::{Pool, SearchScratch};
use super::{Query, S3kEngine, TopKResult};
use crate::partition::ComponentPartition;
use crate::score::ScoreModel;
use s3_graph::Propagation;

impl<'i, S: ScoreModel> S3kEngine<'i, S> {
    /// Answer one query over the partition's shards, one candidate pool
    /// per active shard (see the module docs).
    ///
    /// `carrier` lends its query-global half (expansion, frontier,
    /// threshold parts, trigger count); `scratches` has one
    /// slot per shard, and only the `active` shards' slots must be checked
    /// out (`Some`) — each lends its candidate pool. The serving layer
    /// borrows them lazily from the pools of the shards a query actually
    /// routes to, so warm memory scales with scatter width rather than
    /// workers × shards. `active` must be sorted and deduplicated;
    /// dropping a shard is exact as long as none of its components can
    /// match the query (the router's contract). A warm same-seeker
    /// propagation is resumed exactly like the unsharded path. Results
    /// are byte-identical to [`S3kEngine::run`] on hits, candidate list,
    /// stop reason and quality; the per-component work counters
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
        assert_eq!(
            partition.num_components(),
            self.instance.graph().components().len(),
            "partition built for a different instance"
        );
        assert_eq!(scratches.len(), partition.num_shards(), "one slot per shard");
        debug_assert!(
            active.windows(2).all(|w| w[0] < w[1]) && active.iter().all(|&s| s < scratches.len()),
            "active shard list must be sorted, deduplicated and in range"
        );
        let mut pools: Vec<&mut Pool> = scratches
            .iter_mut()
            .enumerate()
            .filter(|(s, _)| active.binary_search(s).is_ok())
            .map(|(_, slot)| &mut slot.as_mut().expect("active shard scratch checked out").pool)
            .collect();
        let partition = Some((partition, active));
        let (q, resume) = (&mut carrier.query, self.config.resume);
        let exec = &mut Local { engine: self, q, pools: &mut pools, partition, prop, resume };
        self.search(query, exec).unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{TagSubject, UserId};
    use crate::instance::{InstanceBuilder, S3Instance};
    use crate::search::{SearchConfig, StopReason};
    use s3_text::{KeywordId, Language};
    use std::sync::Arc;

    impl<S: ScoreModel> S3kEngine<'_, S> {
        /// One-shot [`Self::run_partitioned_with`] over every shard, with
        /// throwaway buffers.
        pub(crate) fn run_partitioned(
            &self,
            query: &Query,
            partition: &ComponentPartition,
        ) -> TopKResult {
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
    }

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
}
