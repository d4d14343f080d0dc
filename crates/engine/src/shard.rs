//! The in-process serving engine: one front over N candidate pools.
//!
//! [`ShardedEngine`] partitions the instance's content components across
//! `num_shards` shards ([`ComponentPartition::balanced`]). A shard is a
//! candidate pool, not an engine: it owns no cache, gate or configuration
//! of its own. Everything that serves sits once, in front:
//!
//! * the epoch-keyed LRU result cache: a hit costs one lookup regardless
//!   of shard count, and only exact answers (`Converged`/`NoMatch`) enter
//!   it, whichever entry point computed them;
//! * the admission gate of [`ShardedEngine::serve`];
//! * one scratch pool. A batch worker checks out one scratch for its
//!   query half — the one propagation per query, shared by every shard
//!   of its scatter, lives there — and, per query, one more per shard the
//!   query routes to ([`ShardRouter`]), whose candidate pool the core's
//!   one search driver borrows (`S3kEngine::run_partitioned_with`). Warm
//!   workers answer without steady-state allocation, and warm memory
//!   scales with scatter width, not workers × shards.
//!
//! [`crate::S3Engine`] is this engine at one shard. The defining
//! invariant: for every query and any shard count, `ShardedEngine`
//! returns byte-identical hits, candidate lists and stop reasons to the
//! core's unsharded `S3kEngine::run` (property-tested in
//! `tests/sharding.rs`).

use crate::batch::{self, CacheKey, EpochConfig, ResultCache};
use crate::gate::{AdmissionGate, LoadStats, ServeOutcome};
use crate::{CacheStats, EngineConfig};
use s3_core::{
    CompId, ComponentPartition, Query, S3Instance, S3kEngine, ScoreModel, SearchConfig,
    SearchScratch, TopKResult,
};
use s3_text::KeywordId;
use std::collections::HashSet;
use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Maps components and query keywords to shards.
///
/// Keyword routing is conservative: a shard is *relevant* to a query when
/// the union of its components' keyword sets intersects every (under
/// conjunctive semantics — any, under disjunctive) query keyword
/// extension. A shard that fails the test provably admits no candidate,
/// so dropping it from the scatter preserves exactness.
#[derive(Debug)]
pub struct ShardRouter {
    partition: Arc<ComponentPartition>,
    shard_keywords: Vec<HashSet<KeywordId>>,
}

impl ShardRouter {
    /// Build the routing tables for a partitioned instance.
    pub fn new(instance: &S3Instance, partition: Arc<ComponentPartition>) -> Self {
        let mut shard_keywords = vec![HashSet::new(); partition.num_shards()];
        for comp in instance.graph().components().iter() {
            shard_keywords[partition.shard_of(comp)]
                .extend(instance.component_keywords(comp).iter().copied());
        }
        ShardRouter { partition, shard_keywords }
    }

    /// The partition behind the router.
    pub fn partition(&self) -> &ComponentPartition {
        &self.partition
    }

    /// The shard owning a content component.
    pub fn shard_of_component(&self, comp: CompId) -> usize {
        self.partition.shard_of(comp)
    }

    /// The shards relevant to a query, ascending and deduplicated, into a
    /// reusable buffer. Keyword extensions follow the configuration
    /// (`semantic_expansion`, the score's conjunctive/disjunctive
    /// semantics), mirroring what the search itself will do.
    pub fn route_into(
        &self,
        instance: &S3Instance,
        query: &Query,
        config: &SearchConfig,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        let conjunctive = config.score.requires_all_keywords();
        'shards: for (s, kws) in self.shard_keywords.iter().enumerate() {
            // An empty keyword list routes everywhere; the search itself
            // rejects it as unanswerable.
            let mut any = query.keywords.is_empty();
            for &k in &query.keywords {
                let hit = if config.semantic_expansion {
                    instance.expand_keyword(k).iter().any(|e| kws.contains(e))
                } else {
                    kws.contains(&k)
                };
                if conjunctive && !hit {
                    continue 'shards;
                }
                any |= hit;
            }
            if any || conjunctive {
                out.push(s);
            }
        }
    }

    /// The shards relevant to a query (convenience over
    /// [`Self::route_into`]).
    pub fn route(&self, instance: &S3Instance, query: &Query, config: &SearchConfig) -> Vec<usize> {
        let mut out = Vec::new();
        self.route_into(instance, query, config, &mut out);
        out
    }
}

/// The in-process serving engine: router + front cache, gate and scratch
/// pool (see the module docs).
///
/// ```
/// use s3_core::{InstanceBuilder, Query};
/// use s3_doc::DocBuilder;
/// use s3_engine::{EngineConfig, ShardedEngine};
/// use s3_text::Language;
/// use std::sync::Arc;
///
/// let mut b = InstanceBuilder::new(Language::English);
/// let u = b.add_user();
/// for text in ["a degree", "a second degree"] {
///     let kws = b.analyze(text);
///     let mut doc = DocBuilder::new("post");
///     doc.set_content(doc.root(), kws);
///     b.add_document(doc, Some(u));
/// }
/// let engine = ShardedEngine::new(Arc::new(b.build()), EngineConfig::builder().build(), 2);
/// assert_eq!(engine.num_shards(), 2);
///
/// let keywords = engine.instance().query_keywords("degree");
/// let result = engine.query(&Query::new(u, keywords.clone(), 3));
/// assert_eq!(result.hits.len(), 2, "hits gathered across both shards");
/// let again = engine.query(&Query::new(u, keywords, 3));
/// assert_eq!(engine.cache_stats().hits, 1, "one lookup, no scatter");
/// assert_eq!(again.hits, result.hits);
/// ```
pub struct ShardedEngine {
    instance: Arc<S3Instance>,
    /// The partition lives inside the router.
    router: ShardRouter,
    /// Search config + epoch, snapshotted per batch. Each live-ingestion
    /// successor starts its own line one past its predecessor's.
    config: EpochConfig,
    threads: usize,
    /// The rest is `Arc`-shared with live-ingestion successors, so warm
    /// buffers, load counters and in-flight depth survive snapshot swaps.
    cache: Arc<ResultCache>,
    /// Idle scratches: each lends its query half to a worker or its
    /// candidate pool to one routed shard of one query.
    scratch: Arc<Mutex<Vec<SearchScratch>>>,
    /// Admission gate for the `serve` entry point — in front of the
    /// scatter, like the cache, so shedding one query spares every shard.
    gate: Arc<AdmissionGate>,
}

impl ShardedEngine {
    /// Partition `instance`'s components into `num_shards` (clamped to at
    /// least 1) balanced shards and build a serving engine over them. The
    /// configuration is [`EngineConfig::validated`] first.
    pub fn new(instance: Arc<S3Instance>, config: EngineConfig, num_shards: usize) -> Self {
        let EngineConfig { search, threads, cache_capacity, overload } = config.validated();
        let partition = Arc::new(ComponentPartition::balanced(&instance, num_shards));
        ShardedEngine {
            router: ShardRouter::new(&instance, partition),
            instance,
            config: EpochConfig::new(search),
            threads,
            cache: Arc::new(ResultCache::new(cache_capacity)),
            scratch: Arc::new(Mutex::new(Vec::new())),
            gate: Arc::new(AdmissionGate::new(overload)),
        }
    }

    /// The live-ingestion successor: an engine over a new snapshot and
    /// partition that *shares* this one's cache, scratch pool and gate.
    /// In-flight queries keep the old engine (and its snapshot) alive; new
    /// queries see the new one. The config/epoch line is carried forward
    /// one past this engine's, never shared, so a reader still pinning
    /// this generation can only stamp its old epoch into the shared cache
    /// — never a key the successor serves. The caller purges the cache.
    pub(crate) fn succeed(
        &self,
        instance: Arc<S3Instance>,
        partition: ComponentPartition,
    ) -> ShardedEngine {
        assert_eq!(partition.num_shards(), self.num_shards(), "shard count is fixed");
        let (search, epoch) = self.config.snapshot();
        ShardedEngine {
            router: ShardRouter::new(&instance, Arc::new(partition)),
            instance,
            config: EpochConfig::new_at(search, epoch + 1),
            threads: self.threads,
            cache: Arc::clone(&self.cache),
            scratch: Arc::clone(&self.scratch),
            gate: Arc::clone(&self.gate),
        }
    }

    /// The shared result cache (live-ingestion invalidation hook).
    pub(crate) fn result_cache(&self) -> &ResultCache {
        &self.cache
    }

    /// The shared instance.
    pub fn instance(&self) -> &Arc<S3Instance> {
        &self.instance
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.partition().num_shards()
    }

    /// The component partition.
    pub fn partition(&self) -> &ComponentPartition {
        self.router.partition()
    }

    /// The router.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The current search configuration.
    pub fn search_config(&self) -> SearchConfig {
        self.config.search()
    }

    /// The current configuration epoch.
    pub fn config_epoch(&self) -> u64 {
        self.config.epoch()
    }

    /// Replace the search configuration, bumping the epoch: results cached
    /// under the previous configuration can no longer be served (in-flight
    /// batches may still insert stale-epoch entries; their keys never match
    /// a post-change lookup, and LRU pressure retires them). The now
    /// unservable cache entries are dropped and counted
    /// ([`CacheStats::invalidated`]).
    pub fn set_search_config(&self, search: SearchConfig) {
        self.config.replace(search);
        self.cache.invalidate();
    }

    /// Result-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Load and shedding counters for the [`Self::serve`] entry point.
    pub fn load_stats(&self) -> LoadStats {
        self.gate.stats()
    }

    /// Answer one query (through the cache, then the scatter).
    pub fn query(&self, query: &Query) -> Arc<TopKResult> {
        self.run_batch_on(std::slice::from_ref(query), 1).pop().expect("one result")
    }

    /// Answer one query through the admission gate, with an optional
    /// per-query deadline measured from this call by the search clock.
    ///
    /// A cache hit is returned without claiming a slot. On a miss the
    /// gate decides: shed ([`ServeOutcome::Shed`]), admit at full budget,
    /// or admit degraded — the query's time budget capped at the
    /// [`crate::OverloadPolicy::DegradeAnytime`] floor and the remaining
    /// deadline, so the whole scatter returns a certified best-effort
    /// answer (`stats.quality`) instead of piling full-cost work onto a
    /// saturated engine. A query whose deadline lapses before it runs is
    /// dropped ([`ServeOutcome::Expired`]). A degraded answer never
    /// enters the cache, so it cannot mask the full answer an uncongested
    /// repeat could compute.
    ///
    /// Without an [`crate::EngineConfigBuilder::overload`] policy and
    /// without a deadline, `serve` is [`Self::query`] with load
    /// accounting.
    pub fn serve(&self, query: &Query, deadline: Option<Duration>) -> ServeOutcome {
        let (search_config, epoch) = self.config.snapshot();
        let arrival = search_config.clock.now();
        if let Some(hit) = self.cache.lookup(&CacheKey::new(query, epoch)) {
            return ServeOutcome::Answered(hit);
        }
        let outcome = self.gate.serve(search_config, arrival, deadline, |config| {
            let mut out = self.scatter(std::slice::from_ref(query), &[0], &config, 1);
            Ok::<_, Infallible>(out.pop().expect("one result").1)
        });
        let Ok(outcome) = outcome;
        let ServeOutcome::Answered(result) = &outcome else { return outcome };
        // The stored key is built after the search, not held across it:
        // allocated beside its result, it keeps later hits on nearby
        // cache lines (`serve_zipf`'s hit-dominated p50 measured it).
        self.cache.insert(CacheKey::new(query, epoch), result);
        outcome
    }

    /// Answer a batch concurrently on the configured worker count.
    /// Results are positionally aligned with `queries` and identical to
    /// running each query alone.
    pub fn run_batch(&self, queries: &[Query]) -> Vec<Arc<TopKResult>> {
        self.run_batch_on(queries, self.threads)
    }

    /// Answer a batch on an explicit worker count (1 = inline).
    pub fn run_batch_on(&self, queries: &[Query], threads: usize) -> Vec<Arc<TopKResult>> {
        let (search_config, epoch) = self.config.snapshot();
        self.cache.run_cached(queries, epoch, |misses| {
            self.scatter(queries, misses, &search_config, threads)
        })
    }

    /// Run the missed queries, fanning out over scoped workers; each
    /// worker scatters its queries over the relevant shards. Returns
    /// `(batch index, result)` pairs.
    fn scatter(
        &self,
        queries: &[Query],
        misses: &[usize],
        search_config: &SearchConfig,
        threads: usize,
    ) -> Vec<(usize, TopKResult)> {
        let workers = threads.max(1).min(misses.len());
        let cursor = AtomicUsize::new(0);
        batch::fan_out(workers, || {
            // One worker: per claimed query, check a scratch out per shard
            // the query routes to, run the partitioned search over the
            // worker's own scratch, and return the shard scratches
            // immediately.
            let engine = S3kEngine::new(&self.instance, search_config.clone());
            let mut carrier = self.check_out();
            let mut scratches: Vec<Option<SearchScratch>> =
                (0..self.num_shards()).map(|_| None).collect();
            let mut active: Vec<usize> = Vec::new();
            let mut out = Vec::new();
            loop {
                let slot = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = misses.get(slot) else { break };
                let q = &queries[i];
                self.router.route_into(&self.instance, q, search_config, &mut active);
                for &s in &active {
                    scratches[s] = Some(self.check_out());
                }
                let partition = self.router.partition();
                let result = engine.run_partitioned_with(
                    q,
                    partition,
                    &active,
                    &mut carrier,
                    &mut scratches,
                );
                for &s in &active {
                    self.check_in(scratches[s].take().expect("checked out"));
                }
                out.push((i, result));
            }
            self.check_in(carrier);
            out
        })
    }

    fn check_out(&self) -> SearchScratch {
        self.scratch.lock().expect("scratch pool poisoned").pop().unwrap_or_default()
    }

    fn check_in(&self, scratch: SearchScratch) {
        self.scratch.lock().expect("scratch pool poisoned").push(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_core::{InstanceBuilder, UserId};
    use s3_doc::DocBuilder;
    use s3_text::Language;

    /// Two disconnected posts by different users plus a seeker who follows
    /// both — two content components that a 2-shard partition separates.
    fn sharded(num_shards: usize) -> (ShardedEngine, UserId) {
        let mut b = InstanceBuilder::new(Language::English);
        let a = b.add_user();
        let c = b.add_user();
        let seeker = b.add_user();
        b.add_social_edge(seeker, a, 1.0);
        b.add_social_edge(seeker, c, 0.5);
        for (text, poster) in [("rust degrees", a), ("java degrees", c)] {
            let kws = b.analyze(text);
            let mut doc = DocBuilder::new("post");
            doc.set_content(doc.root(), kws);
            b.add_document(doc, Some(poster));
        }
        let engine = ShardedEngine::new(
            Arc::new(b.build()),
            EngineConfig::builder().threads(2).cache_capacity(16).build(),
            num_shards,
        );
        (engine, seeker)
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let (engine, _) = sharded(0);
        assert_eq!(engine.num_shards(), 1);
    }

    #[test]
    fn router_routes_by_keyword_ownership() {
        let (engine, seeker) = sharded(2);
        let inst = engine.instance();
        let config = engine.search_config();
        let rust = inst.query_keywords("rust");
        let degrees = inst.query_keywords("degrees");
        let routed = engine.router().route(inst, &Query::new(seeker, rust, 3), &config);
        assert_eq!(routed.len(), 1, "'rust' lives in exactly one shard");
        let both = engine.router().route(inst, &Query::new(seeker, degrees, 3), &config);
        assert_eq!(both.len(), 2, "'degrees' lives in both shards");
        let ghost =
            engine.router().route(inst, &Query::new(seeker, vec![KeywordId(9999)], 3), &config);
        assert!(ghost.is_empty(), "unknown keywords route nowhere");
    }

    #[test]
    fn scatter_gathers_across_shards() {
        let (engine, seeker) = sharded(2);
        let degrees = engine.instance().query_keywords("degrees");
        let result = engine.query(&Query::new(seeker, degrees, 5));
        assert_eq!(result.hits.len(), 2, "one hit per shard, merged");
        // Shards hold disjoint document sets.
        let p = engine.partition();
        assert_eq!(p.doc_count(0) + p.doc_count(1), 2);
        assert!(p.doc_count(0) == 1 && p.doc_count(1) == 1);
    }

    #[test]
    fn front_cache_absorbs_repeats_and_epoch_invalidates() {
        let (engine, seeker) = sharded(2);
        let degrees = engine.instance().query_keywords("degrees");
        let q = Query::new(seeker, degrees, 5);
        let first = engine.query(&q);
        let second = engine.query(&q);
        assert!(Arc::ptr_eq(&first, &second), "served from the front cache");
        assert_eq!(engine.cache_stats().hits, 1);
        let epoch = engine.config_epoch();
        engine.set_search_config(SearchConfig {
            score: s3_core::S3kScore::new(2.0, 0.5),
            ..SearchConfig::default()
        });
        assert_eq!(engine.config_epoch(), epoch + 1);
        engine.query(&q);
        assert_eq!(engine.cache_stats().hits, 1, "post-change lookup must miss");
    }
}
