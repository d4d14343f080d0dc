//! The unified-API acceptance property: every engine type — frozen,
//! sharded, live, live-sharded and cross-process fleet — drives through
//! one `Box<dyn Engine>` harness and answers byte-identically to a cold
//! `S3kEngine` run of the same data; the ingest-capable trio additionally
//! drives through `Box<dyn Ingest>` and stays identical to a cold rebuild
//! after every shipped batch. The harness never names a concrete engine
//! past construction: it is the proof the trait surface is sufficient.

mod common;

use common::{assert_identical, random_builder, random_queries};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use s3_core::{InstanceBuilder, Query, S3kEngine, SearchConfig, StopReason, UserId};
use s3_datasets::workload::{live_workload, LiveWorkloadConfig};
use s3_engine::{
    Engine, EngineConfig, FleetEngine, Ingest, LiveEngine, LiveShardedEngine, LocalShard, S3Engine,
    ShardServer, ShardedEngine,
};
use s3_text::{KeywordId, Language};
use s3_wire::ShardTransport;
use std::sync::Arc;

fn api_config() -> EngineConfig {
    // Cache off so `serve` reaches the admission gate on every call: the
    // harness asserts the unified `stats()` counters move in lockstep.
    EngineConfig::builder().threads(1).cache_capacity(0).build()
}

/// A 2-shard fleet over in-process `LocalShard` transports, every
/// replica grown from `random_builder(seed)`.
fn local_fleet(seed: u64) -> FleetEngine {
    let shards = 2;
    let transports: Vec<Box<dyn ShardTransport>> = (0..shards)
        .map(|s| {
            let server = ShardServer::new(random_builder(seed).0, api_config(), shards, s);
            Box::new(LocalShard::new(server)) as Box<dyn ShardTransport>
        })
        .collect();
    FleetEngine::new(random_builder(seed).0, api_config(), transports)
}

/// All five engine types behind the one trait object the harness drives.
fn all_engines(seed: u64) -> Vec<(&'static str, Box<dyn Engine>)> {
    let inst = Arc::new(random_builder(seed).0.snapshot());
    vec![
        ("s3", Box::new(S3Engine::new(Arc::clone(&inst), api_config()))),
        ("sharded", Box::new(ShardedEngine::new(Arc::clone(&inst), api_config(), 2))),
        ("live", Box::new(LiveEngine::new(random_builder(seed).0, api_config()))),
        ("live-sharded", Box::new(LiveShardedEngine::new(random_builder(seed).0, api_config(), 2))),
        ("fleet", Box::new(local_fleet(seed))),
    ]
}

/// The ingest-capable trio behind the `Ingest` subtrait.
fn ingest_engines(seed: u64) -> Vec<(&'static str, Box<dyn Ingest>)> {
    vec![
        ("live", Box::new(LiveEngine::new(random_builder(seed).0, api_config()))),
        ("live-sharded", Box::new(LiveShardedEngine::new(random_builder(seed).0, api_config(), 2))),
        ("fleet", Box::new(local_fleet(seed))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// `query`, `serve` and `stats` through `dyn Engine`: every engine
    /// type answers byte-identically to a cold `S3kEngine` run, gated
    /// serving included, and the consolidated load counters agree.
    #[test]
    fn every_engine_type_answers_identically_through_the_trait(seed in 0u64..3000) {
        let (builder, pool) = random_builder(seed);
        let inst = builder.snapshot();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xAB1);
        let queries = random_queries(&mut rng, inst.num_users(), &pool, 8);

        let direct = S3kEngine::new(&inst, SearchConfig::default());
        let expected: Vec<_> = queries.iter().map(|q| direct.run(q)).collect();

        for (label, mut engine) in all_engines(seed) {
            for (q, want) in queries.iter().zip(&expected) {
                let got = engine.query(q).expect("trait query");
                prop_assert_eq!(&got.hits, &want.hits, "{} query vs cold", label);
                assert_identical(&got, want)?;

                let outcome = engine.serve(q, None).expect("trait serve");
                let served = outcome.answer().unwrap_or_else(|| panic!("{label} shed ungated"));
                assert_identical(served, want)?;
            }
            let stats = engine.stats();
            prop_assert_eq!(
                stats.load.admitted,
                queries.len() as u64,
                "{} load counters through the trait", label
            );
            prop_assert_eq!(stats.load.shed, 0);
        }
    }

    /// `ingest` through `dyn Ingest`: after every batch, each
    /// ingest-capable engine keeps answering byte-identically to a cold
    /// rebuild of the same grown data.
    #[test]
    fn ingest_capable_engines_match_a_cold_rebuild_through_the_trait(seed in 0u64..1000) {
        let steps = {
            let base = random_builder(seed).0.snapshot();
            live_workload(&base, &LiveWorkloadConfig {
                batches: 2,
                queries_per_batch: 4,
                attach_probability: 0.25 + 0.5 * ((seed % 3) as f64 / 2.0),
                seed: seed ^ 0xF00D,
                ..LiveWorkloadConfig::default()
            })
        };

        for (label, mut engine) in ingest_engines(seed) {
            let (mut reference, _) = random_builder(seed);
            let mut prev = reference.snapshot();
            for step in &steps {
                let summary = engine.ingest(&step.batch).expect("trait ingest");
                let (next, want) = reference.apply(&prev, &step.batch);
                prev = next;
                prop_assert_eq!(summary.detached, want.detached, "{} summary", label);
                prop_assert_eq!(summary.new_users, want.new_users);

                let cold = reference.snapshot();
                for spec in &step.queries {
                    let q = Query::new(spec.seeker, cold.query_keywords(&spec.text), spec.k);
                    let got = engine.query(&q).expect("trait query");
                    assert_identical(&got, &cold.search(&q, &SearchConfig::default()))?;
                }
            }
        }
    }
}

/// A query no document can match is `NoMatch` before its seeker is
/// looked up: every engine answers it for a seeker the instance does not
/// have, instead of panicking.
#[test]
fn no_match_from_an_unknown_seeker_is_answered_by_every_engine() {
    let one_user = || {
        let mut b = InstanceBuilder::new(Language::English);
        let u = b.add_user();
        let kws = b.analyze("a degree");
        let mut doc = s3_doc::DocBuilder::new("post");
        doc.set_content(doc.root(), kws);
        b.add_document(doc, Some(u));
        b
    };
    let inst = Arc::new(one_user().snapshot());
    let (conn, host) = ShardServer::new(one_user(), api_config(), 1, 0).spawn_loopback();
    let transports: Vec<Box<dyn ShardTransport>> = vec![Box::new(conn)];
    let engines: Vec<(&str, Box<dyn Engine>)> = vec![
        ("s3", Box::new(S3Engine::new(Arc::clone(&inst), api_config()))),
        ("sharded", Box::new(ShardedEngine::new(Arc::clone(&inst), api_config(), 2))),
        ("live", Box::new(LiveEngine::new(one_user(), api_config()))),
        ("fleet", Box::new(FleetEngine::new(one_user(), api_config(), transports))),
    ];
    let q = Query::new(UserId(7), vec![KeywordId(9999)], 3);
    for (label, mut engine) in engines {
        let got = engine.query(&q).expect("trait query");
        assert_eq!(got.stats.stop, StopReason::NoMatch, "{label}");
        assert!(got.hits.is_empty(), "{label}");
    }
    host.join().expect("the shard server exits when its client hangs up");
}
