//! The S3 serving layer: concurrent batched query execution over a shared
//! instance, with scratch reuse and an LRU result cache.
//!
//! The core crate answers one query at a time against a borrowed
//! [`S3Instance`]. This crate turns that algorithm into a substrate a
//! server can drive. There is one in-process engine, [`ShardedEngine`];
//! a shard is a candidate pool inside it, not an engine of its own:
//!
//! * it owns an `Arc<S3Instance>` and is `Send + Sync`: any number of
//!   threads may call `query` / `run_batch` concurrently;
//! * batches fan out over scoped workers, each checking scratches out of
//!   the engine's one scratch pool — warm workers answer queries without
//!   steady-state allocation (the pool persists across batches);
//! * results are cached in an LRU keyed by
//!   `(seeker, normalized keywords, k, config epoch)` with hit/miss/
//!   eviction counters ([`CacheStats`]). Changing the search
//!   configuration bumps the epoch, so entries computed under a stale
//!   configuration can never be served — even when an in-flight batch
//!   inserts them after the change — and every cached answer is exact;
//! * every search explores from its seeker at step 0; a worker's scratch
//!   keeps the propagation's buffers, so only their O(touched) reset is
//!   paid per query;
//! * answers are returned as `Arc<TopKResult>`: cache hits are zero-copy.
//!
//! [`S3Engine`] is that engine at one shard, and [`LiveEngine`] is the
//! live engine ([`LiveShardedEngine`]) at one shard. Batched, cached and
//! warm-scratch execution is result-identical to a cold `S3kEngine::run`
//! at every shard count — property-tested in `tests/parity.rs` and
//! `tests/sharding.rs`.

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

pub use api::{Engine, EngineError, EngineStats, Ingest, ResumeStats};
pub use fleet::{FleetEngine, LocalShard, ShardHost, ShardServer};
pub use gate::{LoadStats, OverloadConfig, OverloadPolicy, ServeOutcome};
pub use live::{IngestReport, LiveEngine, LiveShardedEngine};
pub use persist::{
    Checkpoint, CheckpointReport, Checkpointer, Compact, CompactReport, CompactionPolicy,
    Compactor, PersistError, RecoveryReport, RecoverySource,
};
pub use shard::{ShardRouter, ShardedEngine};

use s3_core::{Query, S3Instance, SearchConfig, TopKResult};
use std::ops::Deref;
use std::sync::Arc;
use std::time::Duration;

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
    /// Overload control for the `serve` entry points: an in-flight cap
    /// plus the policy applied past it ([`OverloadPolicy`]). `None` (the
    /// default) admits everything — `serve` then behaves exactly like
    /// `query` plus deadline accounting, and the query paths are
    /// untouched either way. The policy engages only for concurrent
    /// callers of an in-process engine's `&self` `serve`; a
    /// [`FleetEngine`] client drives one query at a time and gets
    /// deadlines and load counters only.
    pub(crate) overload: Option<OverloadConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            search: SearchConfig::default(),
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            cache_capacity: 4096,
            overload: None,
        }
    }
}

impl EngineConfig {
    /// Clamp out-of-range values to their documented fallbacks: `threads`
    /// to `1..=MAX_BATCH_THREADS`, the overload policy per
    /// [`OverloadConfig::validated`]. Called by [`ShardedEngine::new`]
    /// (hence [`S3Engine::new`]); idempotent.
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

    /// No effect: there is no warm propagation pool. Kept while
    /// `s3bench` still calls it; removed by ROADMAP spine (d).
    pub fn warm_seekers(self, _seekers: usize) -> Self {
        self
    }

    /// Overload control for the `serve` entry points. Accepts a bare
    /// [`OverloadConfig`] or an `Option`. Engages only for concurrent
    /// callers of an in-process engine's `serve`: a [`FleetEngine`]
    /// ignores it (one client, one query in flight).
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
    /// Entries dropped by an explicit epoch-bump invalidation: a search
    /// configuration change, or a live-ingestion snapshot swap (every
    /// ingest and every compaction purges the cache).
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

/// The unsharded serving engine: [`ShardedEngine`] at one shard. It
/// derefs to that engine for everything but construction.
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
pub struct S3Engine(ShardedEngine);

impl S3Engine {
    /// Build a one-shard serving engine over a shared instance. The
    /// configuration is [`EngineConfig::validated`] first.
    pub fn new(instance: Arc<S3Instance>, config: EngineConfig) -> Self {
        S3Engine(ShardedEngine::new(instance, config, 1))
    }

    /// [`ShardedEngine::query`] (named here so it wins over
    /// [`Engine::query`] in method calls).
    pub fn query(&self, query: &Query) -> Arc<TopKResult> {
        self.0.query(query)
    }

    /// [`ShardedEngine::serve`] (named here so it wins over
    /// [`Engine::serve`] in method calls).
    pub fn serve(&self, query: &Query, deadline: Option<Duration>) -> ServeOutcome {
        self.0.serve(query, deadline)
    }
}

impl Deref for S3Engine {
    type Target = ShardedEngine;

    fn deref(&self) -> &ShardedEngine {
        &self.0
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
