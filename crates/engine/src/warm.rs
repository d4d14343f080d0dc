//! Seeker-keyed warm propagation pool.
//!
//! A `Propagation` is a function of (graph, γ, seeker) only — never of the
//! query — so a propagation left at step `n` by one query can serve any
//! later query from the same seeker by resuming instead of recomputing
//! steps `0..n` (see `s3_graph::Propagation` and ARCHITECTURE.md
//! "Propagation lifecycle"). [`PropPool`] keeps a small bounded map of
//! detached [`PropagationState`]s keyed by seeker so batch workers can
//! route each query to a propagation already warm for its seeker — the
//! lever that pays off under Zipf-skewed seeker traffic, where a few hot
//! seekers dominate the stream.
//!
//! Entries are epoch-stamped with the same configuration epoch as the
//! result cache: a configuration change bumps the epoch, and a stale
//! entry's buffers are recycled instead of resumed — the one invalidation
//! story shared by every warm structure in this crate. Each warm state
//! holds O(|graph|) buffers, so the map is capacity-bounded (evicting the
//! least-recently-returned seeker) and displaced states land on a spare
//! list for reuse by cold checkouts. Spare states carry **allocations
//! only**: every state is [`PropagationState::invalidate`]d before it is
//! spared, because the spare list is not epoch-tracked — a state parked
//! under epoch `e` could otherwise be popped after a bump and silently
//! resumed.

use s3_core::{PropagationState, ResumeOutcome, UserId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Propagation-reuse counters (monotonic since engine construction), the
/// resume-side companion of `CacheStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResumeStats {
    /// Checkouts that found a warm same-seeker propagation (same epoch).
    pub warm_hits: u64,
    /// Checkouts served a fresh or recycled state instead.
    pub warm_misses: u64,
    /// Queries answered from a cold (step-0) propagation.
    pub cold: u64,
    /// Queries that resumed a warm propagation from a non-zero step.
    pub resumed: u64,
    /// Resume attempts replayed cold for byte-identity (the probe's first
    /// stop evaluation would have returned; see `s3_core::ResumeOutcome`).
    pub fallbacks: u64,
    /// Warm states dropped by an explicit invalidation: a search
    /// configuration change, an attached ingest or a compaction (or a
    /// state that refused its rebase). States *rebased* onto the new
    /// graph after a detached delta are not counted — they stay live.
    pub invalidated: u64,
}

impl ResumeStats {
    /// Fraction of queries that actually continued a warm propagation
    /// (0.0 before any query ran).
    pub fn resume_rate(&self) -> f64 {
        let total = self.cold + self.resumed + self.fallbacks;
        if total == 0 {
            0.0
        } else {
            self.resumed as f64 / total as f64
        }
    }

    /// Fraction of checkouts that found a warm same-seeker state (0.0
    /// before any checkout happened — never NaN).
    pub fn warm_hit_rate(&self) -> f64 {
        let total = self.warm_hits + self.warm_misses;
        if total == 0 {
            0.0
        } else {
            self.warm_hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for ResumeStats {
    /// One serving-log line mirroring [`crate::CacheStats`]'s `Display`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} resumed / {} cold / {} fallbacks (resume rate {:.2}) — \
             {} warm hits, {} warm misses, {} invalidated",
            self.resumed,
            self.cold,
            self.fallbacks,
            self.resume_rate(),
            self.warm_hits,
            self.warm_misses,
            self.invalidated,
        )
    }
}

/// One pooled entry: the state, the epoch it was computed under, and a
/// recency stamp for eviction.
#[derive(Debug)]
struct WarmEntry {
    epoch: u64,
    last_used: u64,
    state: PropagationState,
}

#[derive(Debug, Default)]
struct WarmMap {
    by_seeker: HashMap<UserId, WarmEntry>,
    /// Invalidated states (allocations only, no warmth), reused by cold
    /// checkouts so buffer allocations amortize across the pool.
    spare: Vec<PropagationState>,
    tick: u64,
}

impl WarmMap {
    /// Retire a state to the spare list, stripping its warmth first (the
    /// spare list carries no epoch or seeker bookkeeping).
    fn spare(&mut self, mut state: PropagationState) {
        state.invalidate();
        self.spare.push(state);
    }
}

/// The bounded seeker-keyed pool of warm propagation states.
#[derive(Debug)]
pub(crate) struct PropPool {
    inner: Mutex<WarmMap>,
    /// Maximum seeker-keyed entries; 0 disables affinity (every checkout
    /// is a recycled-spare miss).
    capacity: usize,
    warm_hits: AtomicU64,
    warm_misses: AtomicU64,
    cold: AtomicU64,
    resumed: AtomicU64,
    fallbacks: AtomicU64,
    invalidated: AtomicU64,
}

impl PropPool {
    pub(crate) fn new(capacity: usize) -> Self {
        PropPool {
            inner: Mutex::new(WarmMap::default()),
            capacity,
            warm_hits: AtomicU64::new(0),
            warm_misses: AtomicU64::new(0),
            cold: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
        }
    }

    /// Drop every warm entry's warmth (allocations are spared for reuse)
    /// and count them as invalidated: after a configuration change, an
    /// attached ingest or a compaction, the entries could never resume
    /// again.
    pub(crate) fn invalidate_all(&self) -> u64 {
        let mut inner = self.inner.lock().expect("warm pool poisoned");
        let dropped = inner.by_seeker.len() as u64;
        let seekers: Vec<UserId> = inner.by_seeker.keys().copied().collect();
        for s in seekers {
            let entry = inner.by_seeker.remove(&s).expect("listed");
            inner.spare(entry.state);
        }
        self.invalidated.fetch_add(dropped, Ordering::Relaxed);
        dropped
    }

    /// Re-home every warm entry from graph `from` onto graph `to` (a
    /// strictly-appended successor — the detached-delta contract of
    /// [`s3_graph::PropagationState::rebase`]) and restamp it with
    /// `epoch` (sound for the same reason the rebase is: after a detached
    /// delta the state is exactly what a post-ingest propagation would
    /// have computed). Entries that refuse the rebase (e.g. parked under
    /// an even older graph) are spared and counted invalidated. Returns
    /// `(kept, dropped)`.
    pub(crate) fn rebase_all(
        &self,
        from: &s3_graph::SocialGraph,
        to: &s3_graph::SocialGraph,
        gamma: f64,
        epoch: u64,
    ) -> (u64, u64) {
        let mut inner = self.inner.lock().expect("warm pool poisoned");
        let seekers: Vec<UserId> = inner.by_seeker.keys().copied().collect();
        let (mut kept, mut dropped) = (0u64, 0u64);
        for s in seekers {
            let mut entry = inner.by_seeker.remove(&s).expect("listed");
            if entry.state.rebase(from, to, gamma) {
                kept += 1;
                entry.epoch = epoch;
                inner.by_seeker.insert(s, entry);
            } else {
                dropped += 1;
                inner.spare(entry.state);
            }
        }
        self.invalidated.fetch_add(dropped, Ordering::Relaxed);
        (kept, dropped)
    }

    /// Take a state for `seeker`: the warm one when present and stamped
    /// with `epoch`, otherwise a recycled (or fresh) state that will
    /// attach cold.
    pub(crate) fn check_out(&self, seeker: UserId, epoch: u64) -> PropagationState {
        let mut inner = self.inner.lock().expect("warm pool poisoned");
        if let Some(entry) = inner.by_seeker.remove(&seeker) {
            if entry.epoch == epoch {
                self.warm_hits.fetch_add(1, Ordering::Relaxed);
                return entry.state;
            }
            // Configuration changed since this state was parked: only
            // the allocations survive (spare() strips the warmth, so the
            // pop below cannot hand the stale state back intact).
            inner.spare(entry.state);
        }
        self.warm_misses.fetch_add(1, Ordering::Relaxed);
        inner.spare.pop().unwrap_or_default()
    }

    /// Park a state under the seeker it is warm for. Over capacity, the
    /// least-recently-returned seeker is displaced to the spare list.
    pub(crate) fn check_in(&self, seeker: UserId, epoch: u64, state: PropagationState) {
        let mut inner = self.inner.lock().expect("warm pool poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if self.capacity == 0 {
            inner.spare(state);
        } else {
            if let Some(prev) =
                inner.by_seeker.insert(seeker, WarmEntry { epoch, last_used: tick, state })
            {
                inner.spare(prev.state);
            }
            if inner.by_seeker.len() > self.capacity {
                let victim = inner
                    .by_seeker
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(&k, _)| k)
                    .expect("over-capacity map is non-empty");
                let evicted = inner.by_seeker.remove(&victim).expect("victim present");
                inner.spare(evicted.state);
            }
        }
        // Spare states hold O(|graph|) buffers too: keep only enough to
        // serve churn, let the rest deallocate.
        let spare_cap = self.capacity.max(8);
        inner.spare.truncate(spare_cap);
    }

    /// Record how a query's search actually used its propagation.
    pub(crate) fn note(&self, outcome: ResumeOutcome) {
        let counter = match outcome {
            ResumeOutcome::Cold => &self.cold,
            ResumeOutcome::Resumed => &self.resumed,
            ResumeOutcome::Fallback => &self.fallbacks,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> ResumeStats {
        ResumeStats {
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            warm_misses: self.warm_misses.load(Ordering::Relaxed),
            cold: self.cold.load(Ordering::Relaxed),
            resumed: self.resumed.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_checkout_round_trips() {
        let pool = PropPool::new(4);
        let u = UserId(3);
        let state = pool.check_out(u, 0);
        pool.check_in(u, 0, state);
        pool.check_out(u, 0);
        let stats = pool.stats();
        assert_eq!((stats.warm_hits, stats.warm_misses), (1, 1));
    }

    #[test]
    fn epoch_mismatch_recycles_instead_of_resuming() {
        let pool = PropPool::new(4);
        let u = UserId(1);
        let state = pool.check_out(u, 0);
        pool.check_in(u, 0, state);
        pool.check_out(u, 1); // epoch bumped: must miss
        let stats = pool.stats();
        assert_eq!((stats.warm_hits, stats.warm_misses), (0, 2));
    }

    #[test]
    fn capacity_evicts_least_recently_returned() {
        let pool = PropPool::new(2);
        for i in 0..3u32 {
            let state = pool.check_out(UserId(i), 0);
            pool.check_in(UserId(i), 0, state);
        }
        // UserId(0) was returned first → displaced.
        pool.check_out(UserId(0), 0);
        pool.check_out(UserId(2), 0);
        let stats = pool.stats();
        assert_eq!(stats.warm_hits, 1, "only the surviving entries hit");
        assert_eq!(stats.warm_misses, 4);
    }

    #[test]
    fn zero_capacity_disables_affinity() {
        let pool = PropPool::new(0);
        let u = UserId(9);
        let state = pool.check_out(u, 0);
        pool.check_in(u, 0, state);
        pool.check_out(u, 0);
        assert_eq!(pool.stats().warm_hits, 0);
    }

    #[test]
    fn resume_rate_tracks_outcomes() {
        let pool = PropPool::new(4);
        assert_eq!(pool.stats().resume_rate(), 0.0);
        pool.note(ResumeOutcome::Cold);
        pool.note(ResumeOutcome::Resumed);
        pool.note(ResumeOutcome::Resumed);
        pool.note(ResumeOutcome::Fallback);
        let stats = pool.stats();
        assert_eq!((stats.cold, stats.resumed, stats.fallbacks), (1, 2, 1));
        assert!((stats.resume_rate() - 0.5).abs() < 1e-12);
    }
}
