//! The search layer's time source: monotonic wall clock in production, a
//! shared manually-advanced counter in tests.
//!
//! `SearchConfig::time_budget` used to read `Instant::now()` directly,
//! which made every deadline test a race against the scheduler (the old
//! `anytime_time_budget_returns_best_effort` accepted *either* stop
//! reason). Threading a [`SearchClock`] through the budget checks makes
//! deadline behaviour a pure function of the ticks a test feeds it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time source for `time_budget` / deadline checks: monotonic wall clock
/// in production, a shared manually-advanced counter in tests
/// (deterministic deadline expiry).
#[derive(Debug, Clone)]
pub enum SearchClock {
    /// Elapsed time since the clock was created.
    Monotonic(Instant),
    /// Nanoseconds read from a shared counter the test advances.
    Manual(Arc<AtomicU64>),
}

impl SearchClock {
    /// The production clock.
    pub fn monotonic() -> Self {
        SearchClock::Monotonic(Instant::now())
    }

    /// A manual clock plus the handle that advances it (in nanoseconds).
    pub fn manual() -> (Self, Arc<AtomicU64>) {
        let ticks = Arc::new(AtomicU64::new(0));
        (SearchClock::Manual(Arc::clone(&ticks)), ticks)
    }

    /// Time elapsed since the clock's origin.
    pub fn now(&self) -> Duration {
        match self {
            SearchClock::Monotonic(base) => base.elapsed(),
            SearchClock::Manual(ticks) => Duration::from_nanos(ticks.load(Ordering::Relaxed)),
        }
    }
}

impl Default for SearchClock {
    fn default() -> Self {
        SearchClock::monotonic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_advances() {
        let clock = SearchClock::monotonic();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_reads_the_shared_counter() {
        let (clock, ticks) = SearchClock::manual();
        assert_eq!(clock.now(), Duration::ZERO);
        ticks.store(1_500, Ordering::Relaxed);
        assert_eq!(clock.now(), Duration::from_nanos(1_500));
        let cloned = clock.clone();
        ticks.store(3_000, Ordering::Relaxed);
        assert_eq!(cloned.now(), Duration::from_nanos(3_000), "clones share the counter");
    }
}
