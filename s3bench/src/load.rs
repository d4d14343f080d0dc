//! The open-loop arm: the same stream on a Poisson schedule.
//!
//! Independent users do not wait for each other, so a stall delays every
//! request due behind it. Each request is therefore timed from when it
//! was *due*, and how late the generator started it is reported beside
//! the latency. One thread both generates and serves: a request is late
//! exactly when the engine is still busy with an earlier one.
//!
//! Recorded, never gated: on the 2-core sizing host three identical runs
//! at 44 % utilisation gave a p99 of 137, 214 and 302 ms — a run-to-run
//! spread of 2×, wider than any bound a regression gate could use.

use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s3_core::Query;
use s3_engine::{Engine, ServeOutcome};
use std::time::{Duration, Instant};

/// Arrival rate of the arm inside a traced `serve_zipf` run: about 44 % of
/// the ≈115 q/s the closed loop sustains on the sizing host.
pub const DEFAULT_OPEN_RATE: f64 = 50.0;

/// What the open-loop arm measured.
#[derive(Debug, Clone, Default)]
pub struct LoadLog {
    /// Configured arrival rate, requests per second.
    pub rate: f64,
    /// Completion minus due time, per request.
    pub latency_ms: Vec<f64>,
    /// Start minus due time, per request: how late the generator ran.
    pub late_ms: Vec<f64>,
    /// Most requests ever due but not yet started.
    pub backlog_max: usize,
    /// Requests without an exact answer.
    pub failed: u64,
}

/// Replay `queries` against `engine` with exponential inter-arrival gaps
/// of mean `1/rate`, drawn from `seed`.
pub fn open_loop(
    engine: &mut dyn Engine,
    queries: &[Query],
    deadline: Option<Duration>,
    rate: f64,
    seed: u64,
    tracer: &mut Tracer,
) -> LoadLog {
    assert!(rate > 0.0 && rate.is_finite(), "the arrival rate is a positive number");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0BE9_100B);
    let mut at = 0.0f64;
    let due: Vec<Duration> = queries
        .iter()
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..1.0);
            at += -(1.0 - u).ln() / rate;
            Duration::from_secs_f64(at)
        })
        .collect();

    let mut log = LoadLog { rate, ..LoadLog::default() };
    let start = Instant::now();
    let mut arrived = 0usize;
    for (i, (q, &due_at)) in queries.iter().zip(&due).enumerate() {
        // Sleep through most of an idle gap, spin through the rest.
        loop {
            let now = start.elapsed();
            if now >= due_at {
                break;
            }
            let gap = due_at - now;
            if gap > Duration::from_millis(2) {
                std::thread::sleep(gap - Duration::from_millis(1));
            } else {
                std::hint::spin_loop();
            }
        }
        let open = tracer.begin("engine.serve", i as u64);
        let started = start.elapsed();
        let outcome = engine.serve(q, deadline);
        tracer.end(open);
        let finished = start.elapsed();
        while arrived < due.len() && due[arrived] <= started {
            arrived += 1;
        }
        log.backlog_max = log.backlog_max.max(arrived - i - 1);
        log.late_ms.push((started - due_at).as_secs_f64() * 1e3);
        log.latency_ms.push((finished - due_at).as_secs_f64() * 1e3);
        let exact = matches!(&outcome, Ok(ServeOutcome::Answered(r)) if r.stats.quality.exact);
        log.failed += u64::from(!exact);
    }
    log
}
