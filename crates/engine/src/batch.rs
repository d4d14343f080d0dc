//! The front of [`crate::ShardedEngine`]: the epoch-stamped configuration,
//! the result cache and the batch fan-out.
//!
//! [`ResultCache::run_cached`] answers a batch — serve cache hits, dedupe
//! in-batch repeats, compute the distinct misses, insert, resolve
//! duplicates — and sits before the scatter, so a hit costs one lookup
//! regardless of shard count. [`ResultCache::insert`] is the one insert
//! rule: only exact answers are cached, whichever entry point computed
//! them.

use crate::cache::Lru;
use crate::CacheStats;
use s3_core::{Query, SearchConfig, StopReason, TopKResult, UserId};
use s3_text::KeywordId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Epoch-stamped search configuration: every replacement bumps the epoch,
/// and the epoch is part of the cache key, so results computed under a
/// stale configuration can never be served — even when an in-flight batch
/// inserts them after the change (their keys never match a post-change
/// lookup, and LRU pressure retires them).
#[derive(Debug)]
pub(crate) struct EpochConfig {
    inner: RwLock<(SearchConfig, u64)>,
}

impl EpochConfig {
    pub(crate) fn new(search: SearchConfig) -> Self {
        EpochConfig::new_at(search, 0)
    }

    /// A config line starting at an explicit epoch — how a live-ingestion
    /// successor engine continues (and advances) its predecessor's line
    /// without *sharing* it: a reader pinning the old engine can then
    /// never observe the new epoch, so it can never insert a stale result
    /// under a servable key.
    pub(crate) fn new_at(search: SearchConfig, epoch: u64) -> Self {
        EpochConfig { inner: RwLock::new((search, epoch)) }
    }

    /// The configuration and its epoch, snapshotted together (what a
    /// batch runs under).
    pub(crate) fn snapshot(&self) -> (SearchConfig, u64) {
        let guard = self.inner.read().expect("config poisoned");
        (guard.0.clone(), guard.1)
    }

    pub(crate) fn search(&self) -> SearchConfig {
        self.inner.read().expect("config poisoned").0.clone()
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.inner.read().expect("config poisoned").1
    }

    /// Replace the configuration, bumping the epoch.
    pub(crate) fn replace(&self, search: SearchConfig) {
        let mut guard = self.inner.write().expect("config poisoned");
        guard.0 = search;
        guard.1 += 1;
    }
}

/// Fan miss execution out over `workers` scoped threads (1 = inline).
/// Each invocation of `worker` is one thread's whole run: it claims
/// queries from a caller-owned cursor, owns its warm state (scratches,
/// propagation) and returns its `(batch index, result)` pairs, which are
/// concatenated.
pub(crate) fn fan_out<F>(workers: usize, worker: F) -> Vec<(usize, TopKResult)>
where
    F: Fn() -> Vec<(usize, TopKResult)> + Sync,
{
    if workers <= 1 {
        return worker();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(&worker)).collect();
        handles.into_iter().flat_map(|h| h.join().expect("batch worker panicked")).collect()
    })
}

/// Cache key: seeker, normalized (sorted, deduplicated) keywords, k, and
/// the config epoch under which the result was computed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    seeker: UserId,
    keywords: Vec<KeywordId>,
    k: usize,
    epoch: u64,
}

impl CacheKey {
    pub(crate) fn new(query: &Query, epoch: u64) -> Self {
        let mut keywords = query.keywords.clone();
        keywords.sort_unstable();
        keywords.dedup();
        CacheKey { seeker: query.seeker, keywords, k: query.k, epoch }
    }
}

/// The epoch-keyed LRU result cache plus its effectiveness counters.
/// Capacity 0 disables caching (every lookup is a counted miss).
#[derive(Debug)]
pub(crate) struct ResultCache {
    cache: Option<Mutex<Lru<CacheKey, Arc<TopKResult>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidated: AtomicU64,
}

impl ResultCache {
    pub(crate) fn new(capacity: usize) -> Self {
        ResultCache {
            cache: (capacity > 0).then(|| Mutex::new(Lru::new(capacity))),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        let (entries, evictions) = self.cache.as_ref().map_or((0, 0), |c| {
            let cache = c.lock().expect("cache poisoned");
            (cache.len(), cache.evictions())
        });
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions,
            invalidated: self.invalidated.load(Ordering::Relaxed),
            entries,
            ..CacheStats::default()
        }
    }

    /// Drop every entry (they were computed under an epoch that just got
    /// bumped and could never be served again) and count them as
    /// invalidated. Returns how many were dropped. An in-flight batch may
    /// still insert stale-epoch entries afterwards; their keys never match
    /// a post-bump lookup, and LRU pressure retires them.
    pub(crate) fn invalidate(&self) -> u64 {
        let Some(cache) = &self.cache else { return 0 };
        let dropped = {
            let mut cache = cache.lock().expect("cache poisoned");
            let n = cache.len() as u64;
            cache.clear();
            n
        };
        self.invalidated.fetch_add(dropped, Ordering::Relaxed);
        dropped
    }

    /// Look `key` up, counting a hit or a miss.
    pub(crate) fn lookup(&self, key: &CacheKey) -> Option<Arc<TopKResult>> {
        if let Some(cache) = &self.cache {
            if let Some(hit) = cache.lock().expect("cache poisoned").get(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(Arc::clone(hit));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Insert a computed result if it is exact (`Converged` or `NoMatch`),
    /// evicting the least recently used entry when the store is full. A
    /// best-effort answer (an iteration cap, a time budget, a degraded
    /// admission) is never cached: a repeat must get the chance to
    /// compute the exact one.
    pub(crate) fn insert(&self, key: CacheKey, result: &Arc<TopKResult>) {
        let exact = matches!(result.stats.stop, StopReason::Converged | StopReason::NoMatch);
        if let (Some(cache), true) = (&self.cache, exact) {
            cache.lock().expect("cache poisoned").insert(key, Arc::clone(result));
        }
    }

    /// Answer a batch through the cache: hits are served up front, each
    /// distinct missed key is computed once by `exec` (which receives the
    /// batch indices of the first occurrences and returns `(index,
    /// result)` pairs), and in-batch duplicates resolve against the first
    /// occurrence. Results are positionally aligned with `queries`.
    pub(crate) fn run_cached<F>(
        &self,
        queries: &[Query],
        epoch: u64,
        exec: F,
    ) -> Vec<Arc<TopKResult>>
    where
        F: FnOnce(&[usize]) -> Vec<(usize, TopKResult)>,
    {
        let mut results: Vec<Option<Arc<TopKResult>>> = vec![None; queries.len()];
        let mut misses: Vec<usize> = Vec::new();
        let mut first_of: HashMap<CacheKey, usize> = HashMap::new();
        for (i, q) in queries.iter().enumerate() {
            let key = CacheKey::new(q, epoch);
            if let Some(hit) = self.lookup(&key) {
                results[i] = Some(hit);
                continue;
            }
            if let std::collections::hash_map::Entry::Vacant(slot) = first_of.entry(key) {
                slot.insert(i);
                misses.push(i);
            }
        }

        if !misses.is_empty() {
            for (i, result) in exec(&misses) {
                let result = Arc::new(result);
                self.insert(CacheKey::new(&queries[i], epoch), &result);
                results[i] = Some(result);
            }
        }

        // Duplicates of in-batch misses (and the cache-disabled path)
        // resolve against the freshly-computed first occurrence.
        for i in 0..queries.len() {
            if results[i].is_some() {
                continue;
            }
            let donor = first_of[&CacheKey::new(&queries[i], epoch)];
            results[i] = results[donor].clone();
        }
        results.into_iter().map(|r| r.expect("filled")).collect()
    }
}
