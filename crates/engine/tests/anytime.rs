//! Anytime-serving acceptance properties: every answer's `QualityBound`
//! is *sound* against converged ground truth (no document the exact
//! search selects can beat an anytime answer by more than its certified
//! regret), the bound merges byte-identically across `ShardedEngine`
//! shard counts {1, 2, 4} and every fleet transport, and the overload
//! gate's contract holds: `DegradeAnytime` answers every arrival with a
//! finite certified bound while `Reject` sheds and keeps the admitted
//! answers exact.

mod common;

use common::{assert_identical, random_builder, random_queries};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use s3_core::{SearchConfig, StopReason};
use s3_engine::{
    Engine, EngineConfig, FleetEngine, LocalShard, OverloadConfig, OverloadPolicy, S3Engine,
    ServeOutcome, ShardHost, ShardServer, ShardedEngine,
};
use s3_wire::ShardTransport;
use std::sync::{Arc, Barrier};
use std::time::Duration;

#[derive(Clone, Copy, Debug)]
enum Transport {
    Local,
    Loopback,
    Socket,
}

/// A single-threaded, cache-less config whose searches stop after `cap`
/// explore iterations — the deterministic stand-in for a time budget.
fn capped_config(cap: u32) -> EngineConfig {
    EngineConfig::builder()
        .search(SearchConfig { max_iterations: cap, ..SearchConfig::default() })
        .threads(1)
        .cache_capacity(0)
        .build()
}

/// Spawn a fleet of `shards` servers over `transport` with an iteration
/// cap, every replica grown from `random_builder(seed)`.
fn spawn_capped_fleet(
    seed: u64,
    shards: usize,
    cap: u32,
    transport: Transport,
) -> (FleetEngine, Vec<ShardHost>) {
    let mut hosts = Vec::new();
    let mut transports: Vec<Box<dyn ShardTransport>> = Vec::new();
    for s in 0..shards {
        let server = ShardServer::new(random_builder(seed).0, capped_config(cap), shards, s);
        match transport {
            Transport::Local => transports.push(Box::new(LocalShard::new(server))),
            Transport::Loopback => {
                let (conn, host) = server.spawn_loopback();
                transports.push(Box::new(conn));
                hosts.push(host);
            }
            Transport::Socket => {
                let path = std::env::temp_dir()
                    .join(format!("s3-anytime-{}-{seed:x}-{cap}-{s}.sock", std::process::id()));
                let (conn, host) = server.spawn_unix(&path).expect("bind unix socket");
                transports.push(Box::new(conn));
                hosts.push(host);
            }
        }
    }
    (FleetEngine::new(random_builder(seed).0, capped_config(cap), transports), hosts)
}

fn shutdown(fleet: FleetEngine, hosts: Vec<ShardHost>) {
    fleet.shutdown().expect("shutdown");
    for host in hosts {
        host.join().expect("shard server exits cleanly");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Bound soundness against converged ground truth. For every query
    /// and iteration cap: hit intervals stay ordered, `floor` anchors at
    /// the weakest reported hit, exact answers match the converged
    /// reference byte-for-byte, and for anytime stops every converged
    /// hit missing from the answer (with no selected vertical neighbor
    /// standing in for it) provably scores at most `rival` — so observed
    /// regret can never exceed certified regret.
    #[test]
    fn certified_regret_bounds_every_converged_hit(seed in 0u64..2000) {
        let (builder, pool) = random_builder(seed);
        let inst = Arc::new(builder.snapshot());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA11);
        let queries = random_queries(&mut rng, inst.num_users(), &pool, 6);
        let full = S3Engine::new(Arc::clone(&inst), capped_config(u32::MAX));
        let forest = inst.forest();

        for cap in [0u32, 1, 2, 4] {
            let capped = S3Engine::new(Arc::clone(&inst), capped_config(cap));
            for q in &queries {
                let truth = full.query(q);
                prop_assert!(matches!(
                    truth.stats.stop,
                    StopReason::Converged | StopReason::NoMatch
                ));
                prop_assert!(truth.stats.quality.exact);

                let any = capped.query(q);
                let quality = any.stats.quality;
                for h in &any.hits {
                    prop_assert!(h.lower <= h.upper + 1e-9);
                }
                if !any.hits.is_empty() {
                    let floor = any.hits.iter().map(|h| h.lower).fold(f64::INFINITY, f64::min);
                    prop_assert!((quality.floor - floor).abs() <= 1e-12);
                }
                match any.stats.stop {
                    StopReason::Converged | StopReason::NoMatch => {
                        prop_assert!(quality.exact);
                        prop_assert_eq!(quality.regret, 0.0);
                        assert_identical(&any, &truth)?;
                    }
                    StopReason::MaxIterations | StopReason::TimeBudget => {
                        prop_assert!(!quality.exact);
                        prop_assert!(quality.regret.is_finite() && quality.regret >= 0.0);
                        prop_assert!(quality.rival >= quality.regret);
                        for t in &truth.hits {
                            let present = any.hits.iter().any(|h| h.doc == t.doc);
                            let neighbored = any
                                .hits
                                .iter()
                                .any(|h| forest.is_vertical_neighbor(h.doc, t.doc));
                            if !present && !neighbored {
                                prop_assert!(
                                    t.lower <= quality.rival + 1e-9,
                                    "converged hit {:?} (lower {}) beats certified rival {} \
                                     at cap {}",
                                    t.doc, t.lower, quality.rival, cap
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The certified bound merges exactly: under iteration caps that
    /// force anytime stops, `ShardedEngine` at {1, 2, 4} shards and the
    /// fleet over every transport report the same hits, stop reason and
    /// `QualityBound` as the unsharded engine.
    #[test]
    fn anytime_quality_is_identical_across_sharding_and_transports(seed in 0u64..1500) {
        let (builder, pool) = random_builder(seed);
        let inst = Arc::new(builder.snapshot());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB22);
        let queries = random_queries(&mut rng, inst.num_users(), &pool, 5);

        for cap in [1u32, 3] {
            let reference = S3Engine::new(Arc::clone(&inst), capped_config(cap));
            let expected: Vec<_> = queries.iter().map(|q| reference.query(q)).collect();

            for shards in [1usize, 2, 4] {
                let sharded = ShardedEngine::new(Arc::clone(&inst), capped_config(cap), shards);
                for (q, want) in queries.iter().zip(&expected) {
                    let got = sharded.query(q);
                    assert_identical(&got, want)?;
                    prop_assert_eq!(got.stats.quality, want.stats.quality);
                }
            }
            for transport in [Transport::Local, Transport::Loopback, Transport::Socket] {
                let (mut fleet, hosts) = spawn_capped_fleet(seed, 2, cap, transport);
                for (q, want) in queries.iter().zip(&expected) {
                    let got = fleet.query(q).expect("fleet query");
                    assert_identical(&got, want)?;
                    prop_assert_eq!(got.stats.quality, want.stats.quality);
                }
                shutdown(fleet, hosts);
            }
            let (mut fleet, hosts) = spawn_capped_fleet(seed, 4, cap, Transport::Local);
            for (q, want) in queries.iter().zip(&expected) {
                let got = fleet.query(q).expect("fleet query");
                assert_identical(&got, want)?;
                prop_assert_eq!(got.stats.quality, want.stats.quality);
            }
            shutdown(fleet, hosts);
        }
    }
}

/// With no overload policy and no deadline, `serve` is `query` plus
/// bookkeeping: byte-identical results (including the quality bound) on
/// every engine, with every arrival admitted and nothing shed.
#[test]
fn serve_without_overload_or_deadline_matches_query() {
    let (builder, pool) = random_builder(7);
    let inst = Arc::new(builder.snapshot());
    let mut rng = StdRng::seed_from_u64(0x5E54);
    let queries = random_queries(&mut rng, inst.num_users(), &pool, 8);

    let reference = S3Engine::new(Arc::clone(&inst), capped_config(u32::MAX));
    let expected: Vec<_> = queries.iter().map(|q| reference.query(q)).collect();

    let single = S3Engine::new(Arc::clone(&inst), capped_config(u32::MAX));
    let sharded = ShardedEngine::new(Arc::clone(&inst), capped_config(u32::MAX), 2);
    let (mut fleet, hosts) = spawn_capped_fleet(7, 2, u32::MAX, Transport::Local);

    for (q, want) in queries.iter().zip(&expected) {
        for got in [
            single.serve(q, None),
            sharded.serve(q, None),
            fleet.serve(q, None).expect("fleet serve"),
        ] {
            let got = got.answer().expect("ungated serve always answers").clone();
            assert_eq!(got.hits, want.hits);
            assert_eq!(got.stats.stop, want.stats.stop);
            assert_eq!(got.stats.quality, want.stats.quality);
            assert_eq!(got.candidate_docs, want.candidate_docs);
        }
    }
    for stats in [single.load_stats(), sharded.load_stats(), fleet.load_stats()] {
        assert_eq!(stats.admitted as usize, queries.len());
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.expired, 0);
        assert_eq!(stats.degraded, 0);
    }
    shutdown(fleet, hosts);
}

/// A deadline that has already passed when the query reaches the engine
/// is answered with `Expired` before any search work, and counted.
#[test]
fn spent_deadline_expires_before_any_search_work() {
    let (builder, pool) = random_builder(3);
    let inst = Arc::new(builder.snapshot());
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    let queries = random_queries(&mut rng, inst.num_users(), &pool, 1);

    let engine = S3Engine::new(Arc::clone(&inst), capped_config(u32::MAX));
    assert!(matches!(engine.serve(&queries[0], Some(Duration::ZERO)), ServeOutcome::Expired));
    let stats = engine.load_stats();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.shed, 0);

    let (mut fleet, hosts) = spawn_capped_fleet(3, 2, u32::MAX, Transport::Local);
    assert!(matches!(
        fleet.serve(&queries[0], Some(Duration::ZERO)).expect("fleet serve"),
        ServeOutcome::Expired
    ));
    assert_eq!(fleet.load_stats().expired, 1);
    shutdown(fleet, hosts);
}

/// Only provably exact answers enter the result cache: a zero time
/// budget degrades every matching query, and repeats of the same query
/// keep reaching the gate (no stale best-effort answer is replayed),
/// while an unbudgeted engine serves the repeat from cache.
#[test]
fn only_exact_answers_enter_the_result_cache() {
    let (builder, pool) = random_builder(5);
    let inst = Arc::new(builder.snapshot());
    let mut rng = StdRng::seed_from_u64(0xCAC4E);
    let queries = random_queries(&mut rng, inst.num_users(), &pool, 24);

    let budgeted = S3Engine::new(
        Arc::clone(&inst),
        EngineConfig::builder()
            .search(SearchConfig { time_budget: Some(Duration::ZERO), ..SearchConfig::default() })
            .threads(1)
            .cache_capacity(16)
            .build(),
    );
    let degraded = queries
        .iter()
        .find(|q| {
            let out = budgeted.serve(q, None);
            !out.answer().expect("budgeted serve answers").stats.quality.exact
        })
        .expect("some query overruns a zero budget");

    let before = budgeted.load_stats().admitted;
    for _ in 0..3 {
        let out = budgeted.serve(degraded, None);
        let answer = out.answer().expect("budgeted serve answers");
        assert_eq!(answer.stats.stop, StopReason::TimeBudget);
        assert!(!answer.stats.quality.exact);
        assert!(answer.stats.quality.regret.is_finite());
    }
    // Every repeat was admitted through the gate — none came from cache.
    assert_eq!(budgeted.load_stats().admitted, before + 3);

    let unbudgeted = S3Engine::new(
        Arc::clone(&inst),
        EngineConfig::builder().threads(1).cache_capacity(16).build(),
    );
    for _ in 0..3 {
        let out = unbudgeted.serve(degraded, None);
        assert!(out.answer().expect("unbudgeted serve answers").stats.quality.exact);
    }
    // The exact answer was cached after the first miss: later repeats
    // never reached the gate.
    assert_eq!(unbudgeted.load_stats().admitted, 1);

    // `query` obeys the same rule as `serve`: a capped answer it computes
    // first is not parked for a later `serve` to replay past the gate.
    let capped = || {
        EngineConfig::builder()
            .search(SearchConfig { max_iterations: 1, ..SearchConfig::default() })
            .threads(1)
            .cache_capacity(16)
            .build()
    };
    let engines: [Box<dyn Engine>; 2] = [
        Box::new(S3Engine::new(Arc::clone(&inst), capped())),
        Box::new(ShardedEngine::new(Arc::clone(&inst), capped(), 2)),
    ];
    for mut engine in engines {
        let mut best_effort = 0;
        for q in &queries {
            let entries = engine.stats().cache.entries;
            let answer = engine.query(q).expect("in-process query");
            if answer.stats.stop != StopReason::MaxIterations {
                continue;
            }
            best_effort += 1;
            assert_eq!(engine.stats().cache.entries, entries, "query cached a capped answer");
            let admitted = engine.stats().load.admitted;
            let out = engine.serve(q, None).expect("in-process serve");
            assert_eq!(out.answer().expect("capped serve answers").stats.stop, answer.stats.stop);
            assert_eq!(engine.stats().load.admitted, admitted + 1, "serve replayed it from cache");
        }
        assert!(best_effort > 0, "some query needs more than one step");
    }
}

/// Hammer a gated engine from concurrent clients and return every
/// outcome plus the final load counters.
fn hammer(policy: OverloadPolicy) -> (Vec<ServeOutcome>, s3_engine::LoadStats) {
    const CLIENTS: usize = 4;
    let (builder, pool) = random_builder(11);
    let inst = Arc::new(builder.snapshot());
    let engine = S3Engine::new(
        Arc::clone(&inst),
        EngineConfig::builder()
            .threads(1)
            .cache_capacity(0)
            .overload(Some(OverloadConfig { max_inflight: 1, policy }))
            .build(),
    );
    let mut rng = StdRng::seed_from_u64(0x10AD);
    let queries = random_queries(&mut rng, inst.num_users(), &pool, 16);
    let barrier = Barrier::new(CLIENTS);
    let outcomes = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    queries.iter().map(|q| engine.serve(q, None)).collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("client thread")).collect::<Vec<_>>()
    });
    (outcomes, engine.load_stats())
}

/// `DegradeAnytime` never sheds: every arrival past capacity is still
/// answered, under a floor budget, with a finite certified bound.
#[test]
fn degrade_anytime_answers_every_arrival_with_a_finite_bound() {
    let (outcomes, stats) = hammer(OverloadPolicy::DegradeAnytime { floor_budget: Duration::ZERO });
    assert_eq!(stats.shed, 0, "DegradeAnytime never sheds ({stats})");
    assert_eq!(stats.admitted as usize, outcomes.len());
    for out in &outcomes {
        let answer = out.answer().expect("every arrival is answered");
        let quality = answer.stats.quality;
        assert!(quality.regret.is_finite() && quality.regret >= 0.0);
        if !quality.exact {
            assert!(matches!(
                answer.stats.stop,
                StopReason::TimeBudget | StopReason::MaxIterations
            ));
        }
    }
}

/// `Reject` sheds arrivals past capacity instead of degrading them, and
/// every answer it does give keeps the full budget — so stays exact.
#[test]
fn reject_sheds_past_capacity_and_keeps_admitted_answers_exact() {
    let (outcomes, stats) = hammer(OverloadPolicy::Reject);
    assert_eq!(stats.admitted + stats.shed, outcomes.len() as u64);
    let shed = outcomes.iter().filter(|out| matches!(out, ServeOutcome::Shed)).count();
    assert_eq!(shed as u64, stats.shed);
    for out in &outcomes {
        if let Some(answer) = out.answer() {
            assert!(answer.stats.quality.exact, "admitted queries keep the full budget");
        }
    }
}
