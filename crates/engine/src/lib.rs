//! The S3 serving layer: concurrent batched query execution over a shared
//! instance, with per-worker scratch reuse and an LRU result cache.
//!
//! The core crate answers one query at a time against a borrowed
//! [`S3Instance`]. This crate turns that algorithm into a substrate a
//! server can drive:
//!
//! * [`S3Engine`] owns an `Arc<S3Instance>` and is `Send + Sync`: any
//!   number of threads may call [`S3Engine::query`] /
//!   [`S3Engine::run_batch`] concurrently;
//! * batches fan out over a pool of scoped workers, each holding one
//!   [`SearchScratch`] checked out of the engine's pool — warm workers
//!   answer queries without steady-state allocation (the scratch pool
//!   persists across batches);
//! * results are cached in an LRU keyed by
//!   `(seeker, normalized keywords, k, config epoch)` with hit/miss/
//!   eviction counters ([`CacheStats`]). Changing the search
//!   configuration bumps the epoch, so entries computed under a stale
//!   configuration can never be served — even when an in-flight batch
//!   inserts them after the change — and every cached answer is exact;
//! * a seeker-keyed warm propagation pool ([`ResumeStats`], epoch-stamped
//!   like the cache) routes each query to a propagation already advanced
//!   for its seeker, which the search *resumes* instead of resetting —
//!   repeat-seeker traffic skips the explore steps already taken, with
//!   byte-identical results;
//! * answers are returned as `Arc<TopKResult>`: cache hits are zero-copy.
//!
//! Batched, cached and warm-scratch execution is result-identical to a
//! cold `S3kEngine::run` — property-tested in `tests/parity.rs`.
//!
//! For scale-out beyond one instance, [`shard::ShardedEngine`] partitions
//! the content components across a fleet of `S3Engine` shards and
//! scatter-gathers each query, byte-identically to a single engine
//! (property-tested in `tests/sharding.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
mod batch;
mod cache;
pub mod fleet;
pub mod gate;
pub mod live;
pub mod persist;
pub mod shard;
mod warm;

pub use api::{Engine, EngineError, EngineStats, Ingest};
pub use fleet::{FleetEngine, LocalShard, ShardHost, ShardServer};
pub use gate::{LoadStats, OverloadConfig, OverloadPolicy, ServeOutcome};
pub use live::{IngestReport, InvalidationScope, LiveEngine, LiveShardedEngine};
pub use persist::{
    Checkpoint, CheckpointReport, Checkpointer, Compact, CompactReport, CompactionPolicy,
    Compactor, PersistError, RecoveryReport, RecoverySource,
};
pub use shard::{ShardRouter, ShardedEngine};
pub use warm::ResumeStats;

use batch::{CacheKey, EpochConfig, ResultCache};
use gate::{Admission, AdmissionGate};
use s3_core::{
    Propagation, Query, S3Instance, S3kEngine, ScoreModel, SearchConfig, SearchScratch, StopReason,
    TopKResult, UserId,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use warm::PropPool;

/// Hard ceiling on batch worker threads: absurd `EngineConfigBuilder::threads`
/// requests clamp here (see [`EngineConfig::validated`]).
pub const MAX_BATCH_THREADS: usize = 128;

/// Serving-layer configuration.
///
/// Build one with [`EngineConfig::builder`]:
///
/// ```
/// use s3_engine::EngineConfig;
/// let config = EngineConfig::builder().threads(2).cache_capacity(256).build();
/// ```
///
/// The fields are private: the builder validates once at
/// [`EngineConfigBuilder::build`], so an out-of-range configuration
/// cannot reach an engine unclamped.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The search configuration every query runs under.
    pub(crate) search: SearchConfig,
    /// Worker threads for batched execution (1 = run the batch inline).
    /// Out-of-range values are clamped at engine construction: 0 becomes
    /// 1, anything above [`MAX_BATCH_THREADS`] becomes that ceiling.
    pub(crate) threads: usize,
    /// Result-cache capacity in entries; 0 disables caching cleanly
    /// (every query computes, counters still track the misses). The
    /// store grows with its entries, so a huge capacity costs nothing
    /// up front.
    pub(crate) cache_capacity: usize,
    /// Capacity of the seeker-keyed warm propagation map: how many
    /// seekers' propagations stay parked between queries for same-seeker
    /// resume ([`ResumeStats`]). Each warm entry holds O(|graph|) buffers,
    /// so this stays deliberately small; 0 disables seeker affinity
    /// (workers still resume across *consecutive* same-seeker queries
    /// they claim, unless `search.resume` is off).
    pub(crate) warm_seekers: usize,
    /// Overload control for the `serve` entry points: an in-flight cap
    /// plus the policy applied past it ([`OverloadPolicy`]). `None` (the
    /// default) admits everything — `serve` then behaves exactly like
    /// `query` plus deadline accounting, and the query paths are
    /// untouched either way.
    pub(crate) overload: Option<OverloadConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            search: SearchConfig::default(),
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            cache_capacity: 4096,
            warm_seekers: 16,
            overload: None,
        }
    }
}

impl EngineConfig {
    /// Clamp out-of-range values to their documented fallbacks: `threads`
    /// to `1..=MAX_BATCH_THREADS`, the overload policy per
    /// [`OverloadConfig::validated`]. Called by [`S3Engine::new`] and
    /// [`ShardedEngine::new`]; idempotent.
    pub fn validated(mut self) -> Self {
        self.threads = self.threads.clamp(1, MAX_BATCH_THREADS);
        self.overload = self.overload.map(OverloadConfig::validated);
        self
    }

    /// Start a chained builder from the defaults. [`EngineConfigBuilder::build`]
    /// runs [`Self::validated`] exactly once, so a built configuration is
    /// always in range.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder { config: EngineConfig::default() }
    }
}

/// Chained builder for [`EngineConfig`] — see [`EngineConfig::builder`].
/// Every setter overwrites the corresponding default; [`Self::build`]
/// validates once and returns the finished configuration.
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// The search configuration every query runs under.
    pub fn search(mut self, search: SearchConfig) -> Self {
        self.config.search = search;
        self
    }

    /// Worker threads for batched execution (clamped into
    /// `1..=`[`MAX_BATCH_THREADS`] at [`Self::build`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Result-cache capacity in entries (0 disables caching).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.config.cache_capacity = capacity;
        self
    }

    /// Capacity of the seeker-keyed warm propagation map.
    pub fn warm_seekers(mut self, seekers: usize) -> Self {
        self.config.warm_seekers = seekers;
        self
    }

    /// Overload control for the `serve` entry points. Accepts a bare
    /// [`OverloadConfig`] or an `Option`.
    pub fn overload(mut self, overload: impl Into<Option<OverloadConfig>>) -> Self {
        self.config.overload = overload.into();
        self
    }

    /// Validate ([`EngineConfig::validated`], once) and return the
    /// finished configuration.
    pub fn build(self) -> EngineConfig {
        self.config.validated()
    }
}

/// Cache effectiveness counters (monotonic since engine construction,
/// except `entries` which is the current fill).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups not served from the cache. In-batch duplicates of one
    /// uncached query each count as a miss even though only the first
    /// occurrence runs a search.
    pub misses: u64,
    /// Entries displaced by capacity pressure (LRU tail drops).
    pub evictions: u64,
    /// Always 0: the LRU admits every entry. Kept while `s3bench` still
    /// reads the field.
    pub admitted: u64,
    /// Always 0: the LRU rejects no entry. Kept while `s3bench` still
    /// reads the field.
    pub rejected: u64,
    /// Always 0: cached entries never expire (the epoch in the key keeps
    /// them exact). Kept while `s3bench` still reads the field.
    pub expired: u64,
    /// Entries dropped by an explicit epoch-bump invalidation (a search
    /// configuration change, or a live-ingestion snapshot swap whose
    /// delta reached this cache's scope). Scoped ingestion leaves
    /// untouched shards' caches out of this count — the observable behind
    /// the shard-local invalidation claim.
    pub invalidated: u64,
    /// Current number of cached results.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0.0 when no lookups
    /// have happened yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for CacheStats {
    /// One serving-log line with every counter and the (guarded) hit
    /// rate — what the examples print as their final cache report.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses (hit rate {:.2}) — {} entries, {} evicted, {} invalidated",
            self.hits,
            self.misses,
            self.hit_rate(),
            self.entries,
            self.evictions,
            self.invalidated,
        )
    }
}

/// The serving engine: a shared, thread-safe façade over one instance.
///
/// ```
/// use s3_core::{InstanceBuilder, Query};
/// use s3_doc::DocBuilder;
/// use s3_engine::{EngineConfig, S3Engine};
/// use s3_text::Language;
/// use std::sync::Arc;
///
/// let mut b = InstanceBuilder::new(Language::English);
/// let u = b.add_user();
/// let kws = b.analyze("a degree");
/// let mut doc = DocBuilder::new("post");
/// doc.set_content(doc.root(), kws);
/// b.add_document(doc, Some(u));
/// let engine = S3Engine::new(Arc::new(b.build()), EngineConfig::builder().threads(2).build());
///
/// let keywords = engine.instance().query_keywords("degree");
/// let batch: Vec<Query> = (0..8).map(|_| Query::new(u, keywords.clone(), 3)).collect();
/// let results = engine.run_batch(&batch);
/// assert!(results.iter().all(|r| r.hits.len() == 1));
/// let again = engine.run_batch(&batch);
/// assert_eq!(engine.cache_stats().hits, 8, "the warm batch is served from cache");
/// assert_eq!(again[0].hits, results[0].hits);
/// ```
pub struct S3Engine {
    instance: Arc<S3Instance>,
    /// Search config + epoch, snapshotted per batch. `Arc`-shared with a
    /// live engine's successors so the one epoch line survives snapshot
    /// swaps.
    config: Arc<EpochConfig>,
    threads: usize,
    cache: Arc<ResultCache>,
    scratch_pool: Arc<Mutex<Vec<SearchScratch>>>,
    /// Seeker-keyed warm propagations for same-seeker resume.
    props: Arc<PropPool>,
    /// Admission gate for the `serve` entry point (shared with live
    /// successors so load counters and in-flight depth survive swaps).
    gate: Arc<AdmissionGate>,
}

impl S3Engine {
    /// Build a serving engine over a shared instance. The configuration
    /// is [`EngineConfig::validated`] first.
    pub fn new(instance: Arc<S3Instance>, config: EngineConfig) -> Self {
        let EngineConfig { search, threads, cache_capacity, warm_seekers, overload } =
            config.validated();
        S3Engine {
            instance,
            config: Arc::new(EpochConfig::new(search)),
            threads,
            cache: Arc::new(ResultCache::new(cache_capacity)),
            scratch_pool: Arc::new(Mutex::new(Vec::new())),
            props: Arc::new(PropPool::new(warm_seekers)),
            gate: Arc::new(AdmissionGate::new(overload)),
        }
    }

    /// An engine over `instance` that *shares* this engine's cache, warm
    /// pools and scratch pool — the live-ingestion successor: in-flight
    /// queries keep the old engine (and its snapshot) alive, new queries
    /// see the new one, and the warm state carries across because it is
    /// the same state. The configuration/epoch line is **carried
    /// forward, not shared**: the successor gets its own `EpochConfig`
    /// at the predecessor's current value (`+1` when `bump`), so a
    /// reader still pinning the old engine can only ever stamp cache
    /// insertions with the *old* epoch — it can never poison a key the
    /// new engine would serve. The caller is responsible for cache
    /// purges / warm-pool migration matching the bump it requested.
    pub(crate) fn succeed(&self, instance: Arc<S3Instance>, bump: bool) -> S3Engine {
        let (search, epoch) = self.config.snapshot();
        S3Engine {
            instance,
            config: Arc::new(EpochConfig::new_at(search, epoch + u64::from(bump))),
            threads: self.threads,
            cache: Arc::clone(&self.cache),
            scratch_pool: Arc::clone(&self.scratch_pool),
            props: Arc::clone(&self.props),
            gate: Arc::clone(&self.gate),
        }
    }

    /// The shared warm pool (live-ingestion migration hook).
    pub(crate) fn prop_pool(&self) -> &Arc<PropPool> {
        &self.props
    }

    /// The shared result cache (live-ingestion invalidation hook).
    pub(crate) fn result_cache(&self) -> &Arc<ResultCache> {
        &self.cache
    }

    /// The shared instance.
    pub fn instance(&self) -> &Arc<S3Instance> {
        &self.instance
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
    /// unservable cache entries and warm propagations are dropped and
    /// counted ([`CacheStats::invalidated`], [`ResumeStats::invalidated`]).
    pub fn set_search_config(&self, search: SearchConfig) {
        self.config.replace(search);
        self.cache.invalidate();
        self.props.invalidate_all();
    }

    /// Cache effectiveness counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Propagation-reuse counters (seeker-affinity hits, resumed and
    /// fallback searches).
    pub fn resume_stats(&self) -> ResumeStats {
        self.props.stats()
    }

    /// Answer one query (through the cache).
    pub fn query(&self, query: &Query) -> Arc<TopKResult> {
        self.run_batch_on(std::slice::from_ref(query), 1).pop().expect("one result")
    }

    /// Load and shedding counters for the [`Self::serve`] entry point.
    pub fn load_stats(&self) -> LoadStats {
        self.gate.stats()
    }

    /// Answer one query through the admission gate, with an optional
    /// per-query deadline measured from this call by the search clock
    /// (time spent queued for a slot counts against it).
    ///
    /// A cache hit is returned without claiming a slot. On a miss the
    /// gate decides: shed ([`ServeOutcome::Shed`]), admit at full budget,
    /// or admit degraded — the query's time budget capped at the
    /// [`OverloadPolicy::DegradeAnytime`] floor and the remaining
    /// deadline, so it returns a certified best-effort answer
    /// (`stats.quality`) instead of queueing unboundedly. A query whose
    /// deadline lapses before it runs is dropped
    /// ([`ServeOutcome::Expired`]). Only exact answers enter the result
    /// cache: a degraded answer must never mask the full answer an
    /// uncongested repeat could compute — the warm propagation pool keeps
    /// its state, so that repeat resumes instead of starting over.
    ///
    /// Without an [`EngineConfigBuilder::overload`] policy and without a
    /// deadline, `serve` is [`Self::query`] with load accounting.
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
        let mut out = self.execute(std::slice::from_ref(query), &[0], &config, epoch, 1);
        drop(ticket);
        let (_, result) = out.pop().expect("one result");
        let result = Arc::new(result);
        if matches!(result.stats.stop, StopReason::Converged | StopReason::NoMatch) {
            self.cache.insert(CacheKey::new(query, epoch), Arc::clone(&result));
        }
        ServeOutcome::Answered(result)
    }

    /// Answer a batch concurrently on the configured worker count.
    /// Results are positionally aligned with `queries` and identical to
    /// running each query alone.
    pub fn run_batch(&self, queries: &[Query]) -> Vec<Arc<TopKResult>> {
        self.run_batch_on(queries, self.threads)
    }

    /// Answer a batch on an explicit worker count (1 = inline). Worker
    /// scratches come from the engine's pool and return to it afterwards,
    /// so steady-state batches do not re-grow search buffers.
    pub fn run_batch_on(&self, queries: &[Query], threads: usize) -> Vec<Arc<TopKResult>> {
        let (search_config, epoch) = self.config.snapshot();
        self.cache.run_cached(queries, epoch, |misses| {
            self.execute(queries, misses, &search_config, epoch, threads)
        })
    }

    /// Run the missed queries, fanning out over scoped workers. Returns
    /// `(batch index, result)` pairs.
    fn execute(
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
            // One S3k engine per worker: the Smax table is shared through
            // the instance cache. The scratch comes from the engine's pool
            // and returns to it afterwards. The propagation is routed by
            // seeker: each query binds the warm state parked for its
            // seeker (resumed by the search when possible), and the
            // previous seeker's state is parked back.
            let engine = S3kEngine::new(&self.instance, search_config.clone());
            let graph = self.instance.graph();
            let mut scratch = self.check_out_scratch();
            let mut prop: Option<Propagation<'_>> = None;
            let mut prop_key = UserId(0);
            let mut out = Vec::new();
            loop {
                let slot = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = misses.get(slot) else { break };
                let query = &queries[i];
                if prop.is_none() || prop_key != query.seeker {
                    if let Some(p) = prop.take() {
                        self.props.check_in(prop_key, epoch, p.detach());
                    }
                    let state = self.props.check_out(query.seeker, epoch);
                    let seeker = self.instance.user_node(query.seeker);
                    prop = Some(Propagation::attach(graph, gamma, seeker, state));
                    prop_key = query.seeker;
                }
                let result = engine.run_with(query, &mut scratch, &mut prop);
                self.props.note(result.stats.resume);
                out.push((i, result));
            }
            if let Some(p) = prop.take() {
                self.props.check_in(prop_key, epoch, p.detach());
            }
            self.check_in_scratch(scratch);
            out
        })
    }

    pub(crate) fn check_out_scratch(&self) -> SearchScratch {
        self.scratch_pool.lock().expect("scratch pool poisoned").pop().unwrap_or_default()
    }

    pub(crate) fn check_in_scratch(&self, scratch: SearchScratch) {
        self.scratch_pool.lock().expect("scratch pool poisoned").push(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_core::{InstanceBuilder, UserId};
    use s3_doc::DocBuilder;
    use s3_text::{KeywordId, Language};

    fn tiny_engine(cache_capacity: usize) -> (S3Engine, UserId, Vec<KeywordId>) {
        let mut b = InstanceBuilder::new(Language::English);
        let u0 = b.add_user();
        let u1 = b.add_user();
        b.add_social_edge(u1, u0, 1.0);
        let kws = b.analyze("universities give degrees");
        let mut doc = DocBuilder::new("post");
        doc.set_content(doc.root(), kws);
        b.add_document(doc, Some(u0));
        let inst = Arc::new(b.build());
        let keywords = inst.query_keywords("degree");
        let config = EngineConfig::builder().cache_capacity(cache_capacity).threads(2).build();
        (S3Engine::new(inst, config), u1, keywords)
    }

    #[test]
    fn repeat_query_hits_cache() {
        let (engine, seeker, kws) = tiny_engine(16);
        let q = Query::new(seeker, kws, 3);
        let first = engine.query(&q);
        let second = engine.query(&q);
        assert!(Arc::ptr_eq(&first, &second), "second answer must be the cached Arc");
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn keyword_order_and_duplicates_share_an_entry() {
        let (engine, seeker, kws) = tiny_engine(16);
        let more = engine.instance().query_keywords("universities");
        let a = vec![kws[0], more[0]];
        let b = vec![more[0], kws[0], kws[0]];
        let first = engine.query(&Query::new(seeker, a, 3));
        let second = engine.query(&Query::new(seeker, b, 3));
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(engine.cache_stats().hits, 1);
    }

    #[test]
    fn config_change_invalidates_served_results() {
        let (engine, seeker, kws) = tiny_engine(16);
        let q = Query::new(seeker, kws, 3);
        engine.query(&q);
        let epoch_before = engine.config_epoch();
        engine.set_search_config(SearchConfig {
            score: s3_core::S3kScore::new(2.0, 0.5),
            ..SearchConfig::default()
        });
        assert_eq!(engine.config_epoch(), epoch_before + 1);
        engine.query(&q);
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 0, "post-change lookup must miss");
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.invalidated, 1, "the bump dropped the one resident entry");
    }

    #[test]
    fn cache_disabled_still_answers() {
        let (engine, seeker, kws) = tiny_engine(0);
        let q = Query::new(seeker, kws, 3);
        let a = engine.query(&q);
        let b = engine.query(&q);
        assert_eq!(a.hits, b.hits);
        assert_eq!(engine.cache_stats(), CacheStats { misses: 2, ..CacheStats::default() });
    }

    #[test]
    fn batch_with_duplicates_aligns_positionally() {
        let (engine, seeker, kws) = tiny_engine(16);
        let q = Query::new(seeker, kws.clone(), 3);
        let empty = Query::new(seeker, vec![KeywordId(9999)], 3);
        let batch = vec![q.clone(), empty.clone(), q.clone(), q, empty];
        let results = engine.run_batch(&batch);
        assert_eq!(results.len(), 5);
        assert_eq!(results[0].hits, results[2].hits);
        assert!(Arc::ptr_eq(&results[0], &results[2]));
        assert!(results[1].hits.is_empty() && results[4].hits.is_empty());
        assert!(!results[0].hits.is_empty());
    }

    #[test]
    fn eviction_counter_tracks_capacity_pressure() {
        let (engine, seeker, _) = tiny_engine(2);
        for k in 1..=5 {
            let kws = engine.instance().query_keywords("degree");
            engine.query(&Query::new(seeker, kws, k));
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 3);
    }

    #[test]
    fn engine_config_clamps_thread_counts() {
        assert_eq!(EngineConfig::builder().threads(0).build().validated().threads, 1);
        assert_eq!(
            EngineConfig::builder().threads(usize::MAX).build().validated().threads,
            MAX_BATCH_THREADS
        );
        let sane = EngineConfig::builder().threads(3).build().validated();
        assert_eq!(sane.threads, 3);

        // A zero-thread engine still answers (clamped to inline).
        let mut b = InstanceBuilder::new(Language::English);
        let u = b.add_user();
        let kws = b.analyze("a degree");
        let mut doc = DocBuilder::new("post");
        doc.set_content(doc.root(), kws);
        b.add_document(doc, Some(u));
        let inst = Arc::new(b.build());
        let engine = S3Engine::new(
            Arc::clone(&inst),
            EngineConfig::builder().threads(0).cache_capacity(0).build(),
        );
        let keywords = inst.query_keywords("degree");
        let batch: Vec<Query> = (0..4).map(|_| Query::new(u, keywords.clone(), 2)).collect();
        assert!(engine.run_batch(&batch).iter().all(|r| r.hits.len() == 1));
    }

    #[test]
    fn huge_cache_capacity_allocates_on_demand() {
        let (engine, seeker, kws) = tiny_engine(usize::MAX);
        let q = Query::new(seeker, kws, 3);
        let first = engine.query(&q);
        let second = engine.query(&q);
        assert!(Arc::ptr_eq(&first, &second), "second answer must be the cached Arc");
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn hit_rate_tracks_lookups() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0, "no lookups yet");
        let (engine, seeker, kws) = tiny_engine(16);
        let q = Query::new(seeker, kws, 3);
        engine.query(&q);
        assert_eq!(engine.cache_stats().hit_rate(), 0.0);
        for _ in 0..3 {
            engine.query(&q);
        }
        let rate = engine.cache_stats().hit_rate();
        assert!((rate - 0.75).abs() < 1e-12, "3 hits / 4 lookups, got {rate}");
    }
}
