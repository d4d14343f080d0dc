//! Engine overload control: the admission gate behind every engine's
//! `serve` entry point.
//!
//! [`crate::ShardedEngine::query`] and friends always compute — under
//! saturation they just get slower, without bound. `serve` routes each
//! query through an admission gate instead: a cache hit is returned
//! immediately (overload never degrades traffic the cache can already
//! answer), and a miss claims an in-flight slot. When the live depth
//! reaches [`OverloadConfig::max_inflight`], the configured
//! [`OverloadPolicy`] decides the arrival's fate — shed it, admit it
//! with its time budget capped so it returns a certified best-effort
//! answer quickly ([`s3_core::QualityBound`]), or park it until a slot
//! frees. Per-query deadlines compose with the gate: the wait spent in
//! the queue counts against the deadline, and a query whose deadline
//! lapses before it runs is counted and dropped instead of burning a
//! slot on an answer nobody is waiting for.
//!
//! The counters ([`LoadStats`]) play the role [`crate::CacheStats`]
//! plays for the cache: one struct per engine, `Display` as a log line.

use s3_core::TopKResult;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// What the admission gate does with an arrival once the engine is at
/// [`OverloadConfig::max_inflight`].
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
    /// Park the arrival until a slot frees or `timeout` passes (then
    /// shed). The wait counts against the query's deadline.
    Queue {
        /// Longest a query may wait for a slot.
        timeout: Duration,
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
    /// admit anything under `Reject`/`Queue`). Idempotent; called by
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
    /// Queries shed by the policy (`Reject`, or `Queue` timeout).
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
    /// The gate shed the query (`Reject`, or a `Queue` wait timed out).
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

/// The gate's verdict on one arrival. The [`Ticket`] is the RAII slot
/// claim: dropping it frees the slot and wakes one queued waiter.
pub(crate) enum Admission<'a> {
    /// Run at full budget.
    Full(Ticket<'a>),
    /// Run with the time budget capped at the floor.
    Degraded(Ticket<'a>, Duration),
    /// Do not run.
    Shed,
}

/// RAII in-flight slot claim (see [`Admission`]).
pub(crate) struct Ticket<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.state.lock().expect("gate poisoned");
        state.depth -= 1;
        drop(state);
        // notify_all, not notify_one: only the waiter at the head of the
        // ticket queue may claim the slot, and the condvar does not know
        // which thread that is. Everyone re-checks; the head proceeds.
        self.gate.freed.notify_all();
    }
}

/// The gate's mutable core: the live in-flight depth plus the FIFO
/// ticket queue behind the `Queue` policy. Waiters draw a ticket on
/// arrival and only the queue head may claim a freed slot, so admission
/// order is arrival order — a late arrival can neither barge past parked
/// waiters nor win a wakeup race against an earlier one.
#[derive(Debug, Default)]
struct GateState {
    depth: usize,
    next_ticket: u64,
    queue: VecDeque<u64>,
}

/// The shared admission gate: live in-flight depth behind a mutex (the
/// `Queue` policy parks waiters on the condvar, FIFO by ticket),
/// counters in relaxed atomics. Constructed unconditionally — without an
/// [`OverloadConfig`] it admits everything and still tracks load.
#[derive(Debug)]
pub(crate) struct AdmissionGate {
    config: Option<OverloadConfig>,
    state: Mutex<GateState>,
    freed: Condvar,
    admitted: AtomicU64,
    shed: AtomicU64,
    degraded: AtomicU64,
    expired: AtomicU64,
    peak: AtomicUsize,
}

impl AdmissionGate {
    pub(crate) fn new(config: Option<OverloadConfig>) -> Self {
        AdmissionGate {
            config: config.map(OverloadConfig::validated),
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Decide one arrival's fate (may block under the `Queue` policy).
    pub(crate) fn admit(&self) -> Admission<'_> {
        let mut state = self.state.lock().expect("gate poisoned");
        let Some(cfg) = self.config else {
            return Admission::Full(self.enter(&mut state));
        };
        // Under `Queue`, a non-empty ticket queue gates even a below-
        // capacity arrival: the slot a just-dropped ticket freed belongs
        // to the parked head, not to whoever locks the mutex first.
        let contended = state.depth >= cfg.max_inflight
            || (matches!(cfg.policy, OverloadPolicy::Queue { .. }) && !state.queue.is_empty());
        if !contended {
            return Admission::Full(self.enter(&mut state));
        }
        match cfg.policy {
            OverloadPolicy::Reject => {
                self.shed.fetch_add(1, Ordering::Relaxed);
                Admission::Shed
            }
            OverloadPolicy::DegradeAnytime { floor_budget } => {
                self.degraded.fetch_add(1, Ordering::Relaxed);
                Admission::Degraded(self.enter(&mut state), floor_budget)
            }
            OverloadPolicy::Queue { timeout } => {
                let ticket = state.next_ticket;
                state.next_ticket += 1;
                state.queue.push_back(ticket);
                let blocked = |s: &mut GateState| {
                    s.depth >= cfg.max_inflight || s.queue.front() != Some(&ticket)
                };
                let (mut state, wait) =
                    self.freed.wait_timeout_while(state, timeout, blocked).expect("gate poisoned");
                if state.depth >= cfg.max_inflight || state.queue.front() != Some(&ticket) {
                    debug_assert!(wait.timed_out());
                    let pos = state
                        .queue
                        .iter()
                        .position(|&t| t == ticket)
                        .expect("timed-out waiter still holds its ticket");
                    state.queue.remove(pos);
                    drop(state);
                    // A timed-out head unblocks the ticket behind it.
                    self.freed.notify_all();
                    self.shed.fetch_add(1, Ordering::Relaxed);
                    Admission::Shed
                } else {
                    state.queue.pop_front();
                    let admitted = self.enter(&mut state);
                    drop(state);
                    // The new head may fit too if several slots freed.
                    self.freed.notify_all();
                    Admission::Full(admitted)
                }
            }
        }
    }

    fn enter(&self, state: &mut GateState) -> Ticket<'_> {
        state.depth += 1;
        self.admitted.fetch_add(1, Ordering::Relaxed);
        self.peak.fetch_max(state.depth, Ordering::Relaxed);
        Ticket { gate: self }
    }

    /// Count a deadline that lapsed before the query ran.
    pub(crate) fn note_expired(&self) {
        self.expired.fetch_add(1, Ordering::Relaxed);
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

/// The time budget a gated query actually runs under: the configured
/// budget capped by the remaining deadline and (for degraded
/// admissions) the policy's floor.
pub(crate) fn effective_budget(
    configured: Option<Duration>,
    remaining: Option<Duration>,
    floor: Option<Duration>,
) -> Option<Duration> {
    let mut budget = configured;
    for cap in [remaining, floor].into_iter().flatten() {
        budget = Some(budget.map_or(cap, |b| b.min(cap)));
    }
    budget
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ungated_admissions_always_pass_and_count() {
        let gate = AdmissionGate::new(None);
        let a = gate.admit();
        let b = gate.admit();
        assert!(matches!(a, Admission::Full(_)) && matches!(b, Admission::Full(_)));
        drop((a, b));
        let stats = gate.stats();
        assert_eq!((stats.admitted, stats.shed, stats.peak_inflight), (2, 0, 2));
        assert_eq!(gate.state.lock().unwrap().depth, 0, "tickets release on drop");
    }

    #[test]
    fn reject_sheds_past_capacity_and_recovers() {
        let gate = AdmissionGate::new(Some(OverloadConfig {
            max_inflight: 1,
            policy: OverloadPolicy::Reject,
        }));
        let first = gate.admit();
        assert!(matches!(first, Admission::Full(_)));
        assert!(matches!(gate.admit(), Admission::Shed));
        drop(first);
        assert!(matches!(gate.admit(), Admission::Full(_)), "slot freed by the drop");
        let stats = gate.stats();
        assert_eq!((stats.admitted, stats.shed, stats.degraded), (2, 1, 0));
        assert!((stats.shed_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn degrade_admits_with_the_floor_budget() {
        let gate = AdmissionGate::new(Some(OverloadConfig {
            max_inflight: 1,
            policy: OverloadPolicy::DegradeAnytime { floor_budget: Duration::from_millis(5) },
        }));
        let _first = gate.admit();
        match gate.admit() {
            Admission::Degraded(_, floor) => assert_eq!(floor, Duration::from_millis(5)),
            _ => panic!("second arrival must be degraded, not shed"),
        }
        let stats = gate.stats();
        assert_eq!((stats.admitted, stats.degraded, stats.shed), (2, 1, 0));
        assert_eq!(stats.peak_inflight, 2, "degraded queries still occupy a slot");
    }

    #[test]
    fn queue_timeout_sheds_when_no_slot_frees() {
        let gate = AdmissionGate::new(Some(OverloadConfig {
            max_inflight: 1,
            policy: OverloadPolicy::Queue { timeout: Duration::from_millis(1) },
        }));
        let _held = gate.admit();
        assert!(matches!(gate.admit(), Admission::Shed), "timed-out wait sheds");
        assert_eq!(gate.stats().shed, 1);
    }

    #[test]
    fn queued_arrival_runs_once_a_slot_frees() {
        let gate = Arc::new(AdmissionGate::new(Some(OverloadConfig {
            max_inflight: 1,
            policy: OverloadPolicy::Queue { timeout: Duration::from_secs(30) },
        })));
        let held = gate.admit();
        assert!(matches!(held, Admission::Full(_)));
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| matches!(gate.admit(), Admission::Full(_)));
            std::thread::sleep(Duration::from_millis(10));
            drop(held);
            assert!(waiter.join().expect("waiter"), "freed slot must admit the parked arrival");
        });
        let stats = gate.stats();
        assert_eq!((stats.admitted, stats.shed), (2, 0));
    }

    #[test]
    fn queued_waiters_are_admitted_in_arrival_order() {
        let gate = Arc::new(AdmissionGate::new(Some(OverloadConfig {
            max_inflight: 1,
            policy: OverloadPolicy::Queue { timeout: Duration::from_secs(30) },
        })));
        let held = gate.admit();
        assert!(matches!(held, Admission::Full(_)));
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let waiters: Vec<_> = (0..3)
                .map(|i| {
                    let worker = Arc::clone(&gate);
                    let order = &order;
                    let handle = scope.spawn(move || {
                        let admission = worker.admit();
                        assert!(matches!(admission, Admission::Full(_)), "waiter {i} shed");
                        // Record before releasing: with one slot, push
                        // order is exactly admission order.
                        order.lock().unwrap().push(i);
                        drop(admission);
                    });
                    // Stagger arrivals so the ticket order is 0, 1, 2.
                    while gate.state.lock().unwrap().queue.len() < i + 1 {
                        std::thread::yield_now();
                    }
                    handle
                })
                .collect();
            drop(held);
            for w in waiters {
                w.join().expect("waiter");
            }
        });
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2], "FIFO admission");
        let stats = gate.stats();
        assert_eq!((stats.admitted, stats.shed), (4, 0));
    }

    #[test]
    fn late_arrival_queues_behind_a_parked_waiter() {
        // Depth below capacity but a waiter parked: a newcomer must not
        // barge past it — the freed slot belongs to the queue head. The
        // parked waiter is simulated by seeding its ticket directly, so
        // the window (slot freed, head not yet woken) is held open.
        let gate = AdmissionGate::new(Some(OverloadConfig {
            max_inflight: 1,
            policy: OverloadPolicy::Queue { timeout: Duration::from_millis(5) },
        }));
        {
            let mut state = gate.state.lock().unwrap();
            state.next_ticket = 1;
            state.queue.push_back(0);
        }
        assert!(matches!(gate.admit(), Admission::Shed), "latecomer must not barge");
        assert_eq!(gate.stats().shed, 1);
        let state = gate.state.lock().unwrap();
        assert_eq!(state.queue.front(), Some(&0), "the parked ticket keeps its claim");
        assert_eq!(state.queue.len(), 1, "the latecomer's ticket is withdrawn");
    }

    #[test]
    fn effective_budget_takes_the_tightest_cap() {
        let ms = Duration::from_millis;
        assert_eq!(effective_budget(None, None, None), None);
        assert_eq!(effective_budget(Some(ms(10)), None, None), Some(ms(10)));
        assert_eq!(effective_budget(None, Some(ms(7)), None), Some(ms(7)));
        assert_eq!(effective_budget(Some(ms(10)), Some(ms(7)), Some(ms(3))), Some(ms(3)));
        assert_eq!(effective_budget(Some(ms(2)), Some(ms(7)), Some(ms(3))), Some(ms(2)));
    }

    #[test]
    fn zero_slot_gates_clamp_to_one() {
        let cfg = OverloadConfig { max_inflight: 0, policy: OverloadPolicy::Reject }.validated();
        assert_eq!(cfg.max_inflight, 1);
        let gate = AdmissionGate::new(Some(cfg));
        assert!(matches!(gate.admit(), Admission::Full(_)));
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
