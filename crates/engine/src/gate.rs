//! Engine overload control: the admission gate and the serve front
//! behind every engine's `serve` entry point.
//!
//! [`crate::ShardedEngine::query`] and friends always compute — under
//! saturation they just get slower, without bound. `serve` routes each
//! query through one front instead: a cache hit is returned
//! immediately (overload never degrades traffic the cache can already
//! answer), and a miss claims an in-flight slot. When the live depth
//! reaches [`OverloadConfig::max_inflight`], the configured
//! [`OverloadPolicy`] decides the arrival's fate — shed it, or admit it
//! with its time budget capped so it returns a certified best-effort
//! answer quickly ([`s3_core::QualityBound`]). Admission never blocks.
//! Per-query deadlines compose with the gate: a query whose deadline has
//! lapsed by the time it is admitted is counted and dropped instead of
//! burning a slot on an answer nobody is waiting for, and what is left
//! of the deadline caps the budget of the rest.
//!
//! The counters ([`LoadStats`]) play the role [`crate::CacheStats`]
//! plays for the cache: one struct per engine, `Display` as a log line.

use s3_core::{SearchConfig, TopKResult};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What the admission gate does with an arrival once the engine is at
/// [`OverloadConfig::max_inflight`]. Either way the arrival is decided
/// at once: no policy makes a query wait for a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Shed the query outright ([`ServeOutcome::Shed`]): strict capacity
    /// protection, the caller retries elsewhere.
    Reject,
    /// Admit the query anyway, but cap its time budget at `floor_budget`
    /// so it returns a certified best-effort answer quickly instead of
    /// piling full-cost work onto a saturated engine. Degraded answers
    /// never enter the result cache, and the warm propagation pool keeps
    /// their state, so an uncongested repeat upgrades them to exact.
    DegradeAnytime {
        /// Time budget for degraded queries ([`Duration::ZERO`] means
        /// "answer from the first round, whatever is certified by then").
        floor_budget: Duration,
    },
}

/// Admission-gate configuration ([`crate::EngineConfigBuilder::overload`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadConfig {
    /// Queries allowed in flight (past the cache) before the policy
    /// engages. Clamped to at least 1 by [`Self::validated`].
    pub max_inflight: usize,
    /// What happens to arrivals beyond `max_inflight`.
    pub policy: OverloadPolicy,
}

impl OverloadConfig {
    /// Clamp `max_inflight` to at least 1 (a zero-slot gate could never
    /// admit anything under `Reject`). Idempotent; called by
    /// [`crate::EngineConfig::validated`].
    pub fn validated(mut self) -> Self {
        self.max_inflight = self.max_inflight.max(1);
        self
    }
}

/// Load and shedding counters (monotonic since engine construction,
/// except `peak_inflight` which is a high-water mark). Every engine with
/// a `serve` entry point reports one, cheap enough to log per request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Queries admitted past the gate (including degraded ones).
    pub admitted: u64,
    /// Queries shed by the `Reject` policy.
    pub shed: u64,
    /// Queries admitted with a degraded (floor) time budget.
    pub degraded: u64,
    /// Queries dropped because their deadline lapsed before they ran.
    pub expired: u64,
    /// Most queries ever in flight at once.
    pub peak_inflight: usize,
}

impl LoadStats {
    /// Fraction of gate decisions that shed the query (0.0 before any
    /// arrival).
    pub fn shed_rate(&self) -> f64 {
        let total = self.admitted + self.shed;
        if total == 0 {
            0.0
        } else {
            self.shed as f64 / total as f64
        }
    }
}

impl std::fmt::Display for LoadStats {
    /// One serving-log line with every counter and the (guarded) shed
    /// rate — the overload-side sibling of [`crate::CacheStats`]'s line.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} admitted / {} shed (shed rate {:.2}) — {} degraded, \
             {} deadline-expired, peak in-flight {}",
            self.admitted,
            self.shed,
            self.shed_rate(),
            self.degraded,
            self.expired,
            self.peak_inflight,
        )
    }
}

/// How a `serve` call ended.
#[derive(Debug, Clone)]
pub enum ServeOutcome {
    /// The query was answered (possibly degraded — check
    /// `stats.quality`).
    Answered(Arc<TopKResult>),
    /// The `Reject` policy shed the query: the engine was at capacity.
    Shed,
    /// The query's deadline lapsed before it could run.
    Expired,
}

impl ServeOutcome {
    /// The answer, if one was produced.
    pub fn answer(&self) -> Option<&Arc<TopKResult>> {
        match self {
            ServeOutcome::Answered(result) => Some(result),
            _ => None,
        }
    }
}

/// RAII in-flight slot claim: dropping it frees the slot.
struct Ticket<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        self.gate.depth.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The shared admission gate: the live in-flight depth and the counters,
/// each one relaxed atomic. Constructed unconditionally — without an
/// [`OverloadConfig`] it admits everything and still tracks load.
#[derive(Debug, Default)]
pub(crate) struct AdmissionGate {
    config: Option<OverloadConfig>,
    /// Queries in flight. Relaxed is enough: it guards no other data, and
    /// read-modify-writes of one atomic are totally ordered, so a
    /// compare-and-swap claim never overshoots the cap.
    depth: AtomicUsize,
    admitted: AtomicU64,
    shed: AtomicU64,
    degraded: AtomicU64,
    expired: AtomicU64,
    peak: AtomicUsize,
}

impl AdmissionGate {
    pub(crate) fn new(config: Option<OverloadConfig>) -> Self {
        AdmissionGate { config: config.map(OverloadConfig::validated), ..Self::default() }
    }

    /// The serve front: admit the arrival, drop it if its `deadline`
    /// (measured on `search.clock` from `arrival`) is already spent, else
    /// `run` it under `search` with the time budget capped by the
    /// remaining deadline and, for a degraded admission, the policy's
    /// floor. The slot is released when `run` returns.
    pub(crate) fn serve<E>(
        &self,
        mut search: SearchConfig,
        arrival: Duration,
        deadline: Option<Duration>,
        run: impl FnOnce(SearchConfig) -> Result<TopKResult, E>,
    ) -> Result<ServeOutcome, E> {
        let Some((_ticket, floor)) = self.admit() else {
            return Ok(ServeOutcome::Shed);
        };
        let remaining =
            deadline.map(|d| d.saturating_sub(search.clock.now().saturating_sub(arrival)));
        if remaining == Some(Duration::ZERO) {
            self.expired.fetch_add(1, Ordering::Relaxed);
            return Ok(ServeOutcome::Expired);
        }
        for cap in [remaining, floor].into_iter().flatten() {
            search.time_budget = Some(search.time_budget.map_or(cap, |b| b.min(cap)));
        }
        Ok(ServeOutcome::Answered(Arc::new(run(search)?)))
    }

    /// Decide one arrival's fate: `None` sheds it, else its slot and, for
    /// a degraded admission, the floor budget. `Reject` claims a slot
    /// only below the cap (compare-and-swap, so the cap holds even
    /// between racing arrivals); every other arrival claims one.
    fn admit(&self) -> Option<(Ticket<'_>, Option<Duration>)> {
        let Some(cfg) = self.config else {
            return Some((self.enter(self.depth.fetch_add(1, Ordering::Relaxed)), None));
        };
        match cfg.policy {
            OverloadPolicy::Reject => {
                let below = |d: usize| (d < cfg.max_inflight).then_some(d + 1);
                let claimed = self.depth.fetch_update(Ordering::Relaxed, Ordering::Relaxed, below);
                if claimed.is_err() {
                    self.shed.fetch_add(1, Ordering::Relaxed);
                }
                claimed.ok().map(|prior| (self.enter(prior), None))
            }
            OverloadPolicy::DegradeAnytime { floor_budget } => {
                let prior = self.depth.fetch_add(1, Ordering::Relaxed);
                let degraded = prior >= cfg.max_inflight;
                if degraded {
                    self.degraded.fetch_add(1, Ordering::Relaxed);
                }
                Some((self.enter(prior), degraded.then_some(floor_budget)))
            }
        }
    }

    /// Count a claimed slot (`prior` = the depth before the claim).
    fn enter(&self, prior: usize) -> Ticket<'_> {
        self.admitted.fetch_add(1, Ordering::Relaxed);
        self.peak.fetch_max(prior + 1, Ordering::Relaxed);
        Ticket { gate: self }
    }

    pub(crate) fn stats(&self) -> LoadStats {
        LoadStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            peak_inflight: self.peak.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_core::{SearchClock, SearchStats};
    use std::convert::Infallible;

    #[test]
    fn ungated_admissions_always_pass_and_count() {
        let gate = AdmissionGate::new(None);
        let a = gate.admit();
        let b = gate.admit();
        assert!(matches!(a, Some((_, None))) && matches!(b, Some((_, None))));
        drop((a, b));
        let stats = gate.stats();
        assert_eq!((stats.admitted, stats.shed, stats.peak_inflight), (2, 0, 2));
        assert_eq!(gate.depth.load(Ordering::Relaxed), 0, "tickets release on drop");
    }

    #[test]
    fn reject_sheds_past_capacity_and_recovers() {
        let gate = AdmissionGate::new(Some(OverloadConfig {
            max_inflight: 1,
            policy: OverloadPolicy::Reject,
        }));
        let first = gate.admit();
        assert!(matches!(first, Some((_, None))));
        assert!(gate.admit().is_none());
        drop(first);
        assert!(matches!(gate.admit(), Some((_, None))), "slot freed by the drop");
        let stats = gate.stats();
        assert_eq!((stats.admitted, stats.shed, stats.degraded), (2, 1, 0));
        assert!((stats.shed_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn reject_never_exceeds_the_cap_under_contention() {
        const THREADS: usize = 4;
        const ARRIVALS: usize = 20_000;
        let gate = AdmissionGate::new(Some(OverloadConfig {
            max_inflight: 2,
            policy: OverloadPolicy::Reject,
        }));
        let (deepest, done) = (AtomicUsize::new(0), std::sync::atomic::AtomicBool::new(false));
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            // A watcher samples the depth throughout, as does every
            // arrival: a claim that overshoots the cap and backs out
            // shows here.
            scope.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    deepest.fetch_max(gate.depth.load(Ordering::Relaxed), Ordering::Relaxed);
                }
            });
            let arrivals: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        for _ in 0..ARRIVALS {
                            deepest
                                .fetch_max(gate.depth.load(Ordering::Relaxed), Ordering::Relaxed);
                            if let Some((ticket, _)) = gate.admit() {
                                // Hold the slot briefly so others find the
                                // gate full.
                                std::thread::yield_now();
                                drop(ticket);
                            }
                        }
                    })
                })
                .collect();
            // Stop the watcher before surfacing a panic, or the scope
            // would wait on it forever.
            let joined: Vec<_> = arrivals.into_iter().map(|a| a.join()).collect();
            done.store(true, Ordering::Relaxed);
            for arrival in joined {
                arrival.expect("arrival thread");
            }
        });
        let stats = gate.stats();
        assert!(stats.peak_inflight <= 2, "peak {} past the cap", stats.peak_inflight);
        assert!(deepest.load(Ordering::Relaxed) <= 2, "the depth passed the cap");
        assert_eq!(stats.admitted + stats.shed, (THREADS * ARRIVALS) as u64);
        assert!(stats.shed > 0, "four threads over two slots must contend");
        assert_eq!(gate.depth.load(Ordering::Relaxed), 0, "every slot released");
    }

    #[test]
    fn degrade_admits_with_the_floor_budget() {
        let gate = AdmissionGate::new(Some(OverloadConfig {
            max_inflight: 1,
            policy: OverloadPolicy::DegradeAnytime { floor_budget: Duration::from_millis(5) },
        }));
        let _first = gate.admit();
        let second = gate.admit().expect("second arrival must be degraded, not shed");
        assert_eq!(second.1, Some(Duration::from_millis(5)));
        let stats = gate.stats();
        assert_eq!((stats.admitted, stats.degraded, stats.shed), (2, 1, 0));
        assert_eq!(stats.peak_inflight, 2, "degraded queries still occupy a slot");
    }

    #[test]
    fn effective_budget_takes_the_tightest_cap() {
        let ms = Duration::from_millis;
        let (clock, ticks) = SearchClock::manual();
        // The budget the front runs an arrival at t = 0 under.
        let budget = |gate: &AdmissionGate, deadline, time_budget| {
            let search = SearchConfig { time_budget, clock: clock.clone(), ..Default::default() };
            let mut seen = None;
            let out = gate.serve(search, Duration::ZERO, deadline, |config| {
                seen = config.time_budget;
                let stats = SearchStats::default();
                Ok::<_, Infallible>(TopKResult { hits: vec![], candidate_docs: vec![], stats })
            });
            assert!(matches!(out, Ok(ServeOutcome::Answered(_))));
            seen
        };
        let open = AdmissionGate::new(None);
        assert_eq!(budget(&open, None, None), None);
        assert_eq!(budget(&open, None, Some(ms(10))), Some(ms(10)));
        assert_eq!(budget(&open, Some(ms(7)), None), Some(ms(7)));
        let floored = AdmissionGate::new(Some(OverloadConfig {
            max_inflight: 1,
            policy: OverloadPolicy::DegradeAnytime { floor_budget: ms(3) },
        }));
        let _held = floored.admit();
        assert_eq!(budget(&floored, Some(ms(7)), Some(ms(10))), Some(ms(3)));
        assert_eq!(budget(&floored, Some(ms(7)), Some(ms(2))), Some(ms(2)));
        // Time since arrival counts against the deadline.
        ticks.store(ms(5).as_nanos() as u64, Ordering::Relaxed);
        assert_eq!(budget(&open, Some(ms(7)), Some(ms(10))), Some(ms(2)));
        assert_eq!(open.stats().expired, 0);
    }

    #[test]
    fn zero_slot_gates_clamp_to_one() {
        let cfg = OverloadConfig { max_inflight: 0, policy: OverloadPolicy::Reject }.validated();
        assert_eq!(cfg.max_inflight, 1);
        let gate = AdmissionGate::new(Some(cfg));
        assert!(matches!(gate.admit(), Some((_, None))));
    }

    #[test]
    fn load_stats_display_reads_like_a_log_line() {
        let stats = LoadStats { admitted: 8, shed: 2, degraded: 3, expired: 1, peak_inflight: 4 };
        let line = stats.to_string();
        assert_eq!(
            line,
            "8 admitted / 2 shed (shed rate 0.20) — 3 degraded, 1 deadline-expired, \
             peak in-flight 4"
        );
    }
}
