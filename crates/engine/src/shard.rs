//! Sharded serving: a fleet of [`S3Engine`] shards behind one façade.
//!
//! [`ShardedEngine`] partitions the instance's content components across
//! `num_shards` shards ([`ComponentPartition::balanced`]) and serves each
//! query by scatter-gather:
//!
//! * every shard is a full [`S3Engine`] over the *shared*
//!   `Arc<S3Instance>` (zero copy) whose search is restricted to its own
//!   components via `SearchConfig::component_filter` — individually
//!   queryable, exactly as a remote shard server would be;
//! * the epoch-keyed LRU cache sits **in front of** the scatter: a hit
//!   costs one lookup regardless of shard count, and per-shard caches are
//!   disabled (they would only duplicate entries);
//! * a miss fans out through [`ShardRouter`] to the shards that can match
//!   the query and runs the core's one search driver with one candidate
//!   pool per routed shard (`S3kEngine::run_partitioned_with`), each pool
//!   lent by a scratch checked out of *that shard's* scratch pool — warm
//!   workers answer without steady-state allocation, per shard;
//! * batches fan out over scoped workers exactly like [`S3Engine`]'s.
//!
//! The defining invariant: for every query and any shard count,
//! `ShardedEngine` returns byte-identical hits, candidate lists and stop
//! reasons to a single `S3Engine` over the unsharded instance
//! (property-tested in `tests/sharding.rs`).

use crate::batch::{self, CacheKey, EpochConfig, ResultCache};
use crate::gate::{self, Admission, AdmissionGate, LoadStats, ServeOutcome};
use crate::warm::PropPool;
use crate::{CacheStats, EngineConfig, ResumeStats, S3Engine};
use s3_core::{
    CompId, ComponentFilter, ComponentPartition, Propagation, Query, S3Instance, S3kEngine,
    ScoreModel, SearchConfig, SearchScratch, StopReason, TopKResult, UserId,
};
use s3_text::KeywordId;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Maps seekers, components and query keywords to shards.
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

    /// The shard owning a seeker's own (singleton) component.
    pub fn shard_of_seeker(&self, instance: &S3Instance, seeker: UserId) -> usize {
        let node = instance.user_node(seeker);
        self.partition.shard_of(instance.graph().components().component_of(node))
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

/// A sharded serving engine: `Vec<S3Engine>` + router + front cache.
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
    /// The partition lives inside the router; each shard's filter lives
    /// inside that shard's configuration — no duplicated state to drift.
    router: ShardRouter,
    shards: Vec<S3Engine>,
    /// Top-level search config + epoch (the scatter path's config; shard
    /// engines carry the same config plus their component filter).
    /// `Arc`-shared with live-ingestion successors.
    config: Arc<EpochConfig>,
    threads: usize,
    cache: Arc<ResultCache>,
    /// Pool of carrier scratches, whose query half holds a scatter's
    /// query-global state (the candidate pools come from each routed
    /// shard's own scratch pool, checked out lazily, per query).
    carriers: Arc<Mutex<Vec<SearchScratch>>>,
    /// Seeker-keyed warm propagations — one per query, shared by every
    /// shard of its scatter, so affinity lives at the front, not per
    /// shard.
    props: Arc<PropPool>,
    /// Admission gate for the `serve` entry point — in front of the
    /// scatter, like the cache, so shedding one query spares every shard.
    gate: Arc<AdmissionGate>,
}

impl ShardedEngine {
    /// Partition `instance`'s components into `num_shards` (clamped to at
    /// least 1) balanced shards and build a serving engine over them. The
    /// configuration is [`EngineConfig::validated`] first; any
    /// `component_filter` it carries is ignored (the engine installs its
    /// own per-shard filters).
    pub fn new(instance: Arc<S3Instance>, config: EngineConfig, num_shards: usize) -> Self {
        let partition = Arc::new(ComponentPartition::balanced(&instance, num_shards));
        ShardedEngine::with_partition(instance, config, partition, false)
    }

    /// Build over an explicit component partition. `shard_serving` turns
    /// the per-shard result caches and warm pools **on** (sized like the
    /// front's): the live sharded engine uses this so each shard is a
    /// fully-serving, individually queryable engine whose warm state can
    /// survive ingests that don't touch it. The plain [`Self::new`] path
    /// keeps them off — behind one front cache they would only duplicate
    /// entries.
    pub(crate) fn with_partition(
        instance: Arc<S3Instance>,
        config: EngineConfig,
        partition: Arc<ComponentPartition>,
        shard_serving: bool,
    ) -> Self {
        let EngineConfig { mut search, threads, cache_capacity, warm_seekers, overload } =
            config.validated();
        search.component_filter = None;
        let router = ShardRouter::new(&instance, Arc::clone(&partition));
        let shards = (0..partition.num_shards())
            .map(|s| {
                let filter = Arc::new(ComponentFilter::for_shard(&partition, s));
                S3Engine::new(
                    Arc::clone(&instance),
                    EngineConfig {
                        search: SearchConfig { component_filter: Some(filter), ..search.clone() },
                        // The scatter is driven per query by the batch
                        // workers; shard-local batching stays off either
                        // way, and without `shard_serving` so do caching
                        // and seeker affinity (the front engine already
                        // covers all three).
                        threads: 1,
                        cache_capacity: if shard_serving { cache_capacity } else { 0 },
                        warm_seekers: if shard_serving { warm_seekers } else { 0 },
                        // Overload control lives at the front: per-shard
                        // gates would double-count one scatter's load.
                        overload: None,
                    },
                )
            })
            .collect();
        ShardedEngine {
            instance,
            router,
            shards,
            config: Arc::new(EpochConfig::new(search)),
            threads,
            cache: Arc::new(ResultCache::new(cache_capacity)),
            carriers: Arc::new(Mutex::new(Vec::new())),
            props: Arc::new(PropPool::new(warm_seekers)),
            gate: Arc::new(AdmissionGate::new(overload)),
        }
    }

    /// A sharded engine over a new snapshot + partition that *shares* this
    /// one's front cache, warm pool and carrier pool, and whose shard
    /// engines share their predecessors' state likewise (see
    /// [`S3Engine::succeed`]). Config/epoch lines are carried forward per
    /// generation, never shared: the front's epoch advances by one (a
    /// snapshot swap always invalidates the front), each shard's is
    /// carried unchanged — the live engine bumps exactly the shards whose
    /// universe changed by reinstalling their filters through
    /// `set_search_config` on the *new* generation. A reader pinning the
    /// old generation therefore stamps only old epochs. The router is
    /// rebuilt for the new snapshot; stale filters on unbumped shards
    /// stay correct (unknown component ids are rejected).
    pub(crate) fn succeed(
        &self,
        instance: Arc<S3Instance>,
        partition: Arc<ComponentPartition>,
    ) -> ShardedEngine {
        assert_eq!(partition.num_shards(), self.shards.len(), "shard count is fixed");
        let router = ShardRouter::new(&instance, partition);
        let shards = self.shards.iter().map(|s| s.succeed(Arc::clone(&instance), false)).collect();
        let (search, epoch) = self.config.snapshot();
        ShardedEngine {
            instance,
            router,
            shards,
            config: Arc::new(EpochConfig::new_at(search, epoch + 1)),
            threads: self.threads,
            cache: Arc::clone(&self.cache),
            carriers: Arc::clone(&self.carriers),
            props: Arc::clone(&self.props),
            gate: Arc::clone(&self.gate),
        }
    }

    /// The shared front result cache (live-ingestion invalidation hook).
    pub(crate) fn result_cache(&self) -> &Arc<ResultCache> {
        &self.cache
    }

    /// The shared front warm pool (live-ingestion migration hook).
    pub(crate) fn prop_pool(&self) -> &Arc<PropPool> {
        &self.props
    }

    /// The shared instance.
    pub fn instance(&self) -> &Arc<S3Instance> {
        &self.instance
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard engines (each a standalone, individually queryable
    /// `S3Engine` restricted to its own components; note that a direct
    /// shard query stops on the shard's own schedule, so its certified
    /// bounds may be looser than the scatter path's).
    pub fn shards(&self) -> &[S3Engine] {
        &self.shards
    }

    /// One shard engine.
    pub fn shard(&self, shard: usize) -> &S3Engine {
        &self.shards[shard]
    }

    /// The component partition.
    pub fn partition(&self) -> &ComponentPartition {
        self.router.partition()
    }

    /// The router.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The current search configuration (without per-shard filters).
    pub fn search_config(&self) -> SearchConfig {
        self.config.search()
    }

    /// The current configuration epoch.
    pub fn config_epoch(&self) -> u64 {
        self.config.epoch()
    }

    /// Replace the search configuration, bumping the epoch (stale cache
    /// entries can never be served) and re-configuring every shard with
    /// its own filter re-installed. Shard reconfiguration happens under
    /// the front config's write lock, so concurrent callers cannot leave
    /// the fleet running a mix of two configurations.
    pub fn set_search_config(&self, mut search: SearchConfig) {
        search.component_filter = None;
        self.config.replace_with(search.clone(), || {
            for shard in &self.shards {
                let filter = shard.search_config().component_filter;
                shard
                    .set_search_config(SearchConfig { component_filter: filter, ..search.clone() });
            }
        });
        self.cache.invalidate();
        self.props.invalidate_all();
    }

    /// Front-cache effectiveness counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Propagation-reuse counters (seeker-affinity hits, resumed and
    /// fallback scatters). The propagation is shared by every shard of a
    /// query's scatter, so one resume saves the explore work fleet-wide.
    pub fn resume_stats(&self) -> ResumeStats {
        self.props.stats()
    }

    /// Answer one query (through the front cache, then the scatter).
    pub fn query(&self, query: &Query) -> Arc<TopKResult> {
        self.run_batch_on(std::slice::from_ref(query), 1).pop().expect("one result")
    }

    /// Load and shedding counters for the [`Self::serve`] entry point.
    pub fn load_stats(&self) -> LoadStats {
        self.gate.stats()
    }

    /// Answer one query through the admission gate, with an optional
    /// per-query deadline (same contract as [`S3Engine::serve`]): cache
    /// hits bypass the gate, shed queries never reach the scatter,
    /// degraded admissions run the whole scatter under the floor budget,
    /// and only exact answers enter the front cache.
    pub fn serve(&self, query: &Query, deadline: Option<Duration>) -> ServeOutcome {
        let (search_config, epoch) = self.config.snapshot();
        let arrival = search_config.clock.now();
        if let Some(hit) = self.cache.lookup(&CacheKey::new(query, epoch)) {
            return ServeOutcome::Answered(hit);
        }
        let (ticket, floor) = match self.gate.admit() {
            Admission::Shed => return ServeOutcome::Shed,
            Admission::Full(t) => (t, None),
            Admission::Degraded(t, floor) => (t, Some(floor)),
        };
        let remaining = match deadline {
            Some(deadline) => {
                let waited = search_config.clock.now().saturating_sub(arrival);
                if waited >= deadline {
                    self.gate.note_expired();
                    return ServeOutcome::Expired;
                }
                Some(deadline - waited)
            }
            None => None,
        };
        let mut config = search_config;
        config.time_budget = gate::effective_budget(config.time_budget, remaining, floor);
        let mut out = self.scatter(std::slice::from_ref(query), &[0], &config, epoch, 1);
        drop(ticket);
        let (_, result) = out.pop().expect("one result");
        let result = Arc::new(result);
        if matches!(result.stats.stop, StopReason::Converged | StopReason::NoMatch) {
            self.cache.insert(CacheKey::new(query, epoch), Arc::clone(&result));
        }
        ServeOutcome::Answered(result)
    }

    /// Answer a batch concurrently on the configured worker count.
    pub fn run_batch(&self, queries: &[Query]) -> Vec<Arc<TopKResult>> {
        self.run_batch_on(queries, self.threads)
    }

    /// Answer a batch on an explicit worker count (1 = inline). Each
    /// worker checks one scratch out of every shard's pool and drives the
    /// exact scatter-gather per missed query.
    pub fn run_batch_on(&self, queries: &[Query], threads: usize) -> Vec<Arc<TopKResult>> {
        let (search_config, epoch) = self.config.snapshot();
        self.cache.run_cached(queries, epoch, |misses| {
            self.scatter(queries, misses, &search_config, epoch, threads)
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
        epoch: u64,
        threads: usize,
    ) -> Vec<(usize, TopKResult)> {
        let workers = threads.max(1).min(misses.len());
        let cursor = AtomicUsize::new(0);
        let gamma = search_config.score.gamma();
        batch::fan_out(workers, || {
            // One worker: per claimed query, check a scratch out of the
            // pools of exactly the shards the query routes to (warm
            // memory in use scales with scatter width, not workers ×
            // shards), bind the propagation parked for the query's
            // seeker, run the iteration-synchronous partitioned search,
            // and return the shard scratches immediately.
            let engine = S3kEngine::new(&self.instance, search_config.clone());
            let graph = self.instance.graph();
            let mut carrier = self.check_out_carrier();
            let mut scratches: Vec<Option<SearchScratch>> =
                self.shards.iter().map(|_| None).collect();
            let mut prop: Option<Propagation<'_>> = None;
            let mut prop_key = UserId(0);
            let mut active: Vec<usize> = Vec::new();
            let mut out = Vec::new();
            loop {
                let slot = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = misses.get(slot) else { break };
                let q = &queries[i];
                self.router.route_into(&self.instance, q, search_config, &mut active);
                for &s in &active {
                    scratches[s] = Some(self.shards[s].check_out_scratch());
                }
                if prop.is_none() || prop_key != q.seeker {
                    if let Some(p) = prop.take() {
                        self.props.check_in(prop_key, epoch, p.detach());
                    }
                    let state = self.props.check_out(q.seeker, epoch);
                    let seeker = self.instance.user_node(q.seeker);
                    prop = Some(Propagation::attach(graph, gamma, seeker, state));
                    prop_key = q.seeker;
                }
                let result = engine.run_partitioned_with(
                    q,
                    self.router.partition(),
                    &active,
                    &mut carrier,
                    &mut scratches,
                    &mut prop,
                );
                for &s in &active {
                    self.shards[s].check_in_scratch(scratches[s].take().expect("checked out"));
                }
                self.props.note(result.stats.resume);
                out.push((i, result));
            }
            if let Some(p) = prop.take() {
                self.props.check_in(prop_key, epoch, p.detach());
            }
            self.check_in_carrier(carrier);
            out
        })
    }

    fn check_out_carrier(&self) -> SearchScratch {
        self.carriers.lock().expect("carrier pool poisoned").pop().unwrap_or_default()
    }

    fn check_in_carrier(&self, carrier: SearchScratch) {
        self.carriers.lock().expect("carrier pool poisoned").push(carrier);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_core::InstanceBuilder;
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
    fn seekers_map_to_their_singleton_component_shard() {
        let (engine, seeker) = sharded(2);
        let inst = engine.instance();
        let home = engine.router().shard_of_seeker(inst, seeker);
        assert!(home < engine.num_shards());
        let node = inst.user_node(seeker);
        let comp = inst.graph().components().component_of(node);
        assert_eq!(home, engine.router().shard_of_component(comp));
        assert_eq!(
            inst.graph().component_users(comp).collect::<Vec<_>>(),
            vec![node],
            "a seeker's component is their own singleton"
        );
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
        for shard in engine.shards() {
            assert_eq!(shard.cache_stats().entries, 0, "per-shard caches stay off");
        }
        let epoch = engine.config_epoch();
        engine.set_search_config(SearchConfig {
            score: s3_core::S3kScore::new(2.0, 0.5),
            ..SearchConfig::default()
        });
        assert_eq!(engine.config_epoch(), epoch + 1);
        engine.query(&q);
        assert_eq!(engine.cache_stats().hits, 1, "post-change lookup must miss");
    }

    #[test]
    fn direct_shard_queries_cover_their_own_documents() {
        let (engine, seeker) = sharded(2);
        let degrees = engine.instance().query_keywords("degrees");
        let q = Query::new(seeker, degrees, 5);
        let mut total = 0;
        for shard in engine.shards() {
            total += shard.query(&q).hits.len();
        }
        assert_eq!(total, 2, "each shard answers over its own documents");
    }
}
