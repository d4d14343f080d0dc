//! Cross-process sharding: shard servers behind wire transports.
//!
//! Spawns two fleets of shard servers — one over the in-memory loopback
//! duplex, one over real unix sockets — and drives both through a seeded
//! fleet scenario: a query-only warmup, then live ingest batches shipped
//! over the wire to every replica, with queries after each step. Every
//! answer is checked byte-for-byte against an in-process
//! [`s3::engine::ShardedEngine`] built from the same data, so the example
//! doubles as an end-to-end smoke test of the wire protocol (CI runs it).
//!
//! ```text
//! cargo run --release --example shard_fleet
//! ```

use s3::core::Query;
use s3::datasets::workload::{self, fleet_workload, FleetWorkloadConfig, LiveWorkloadConfig};
use s3::datasets::{twitter, Scale};
use s3::engine::{EngineConfig, FleetEngine, ShardHost, ShardServer, ShardedEngine};
use s3::text::FrequencyClass;
use s3::wire::ShardTransport;
use std::sync::Arc;

const SHARDS: usize = 2;

fn corpus() -> twitter::TwitterConfig {
    let mut config = twitter::TwitterConfig::scaled(Scale::Tiny);
    config.users = 60;
    config.tweets = 400;
    config
}

/// No result cache: shard servers answer every scatter cold, so the
/// comparison below is propagation against propagation.
fn fleet_config() -> EngineConfig {
    EngineConfig::builder().threads(1).cache_capacity(0).build()
}

/// Spawn one fleet; every replica regenerates the corpus from the
/// deterministic config (replicas must grow from identical data).
fn spawn(config: &twitter::TwitterConfig, unix: bool) -> (FleetEngine, Vec<ShardHost>) {
    let mut hosts = Vec::new();
    let mut transports: Vec<Box<dyn ShardTransport>> = Vec::new();
    for s in 0..SHARDS {
        let server =
            ShardServer::new(twitter::generate_builder(config).0, fleet_config(), SHARDS, s);
        let (conn, host) = if unix {
            let path = std::env::temp_dir()
                .join(format!("s3-fleet-example-{}-{s}.sock", std::process::id()));
            let (conn, host) = server.spawn_unix(&path).expect("bind unix socket");
            (Box::new(conn) as Box<dyn ShardTransport>, host)
        } else {
            let (conn, host) = server.spawn_loopback();
            (Box::new(conn) as Box<dyn ShardTransport>, host)
        };
        transports.push(conn);
        hosts.push(host);
    }
    (FleetEngine::new(twitter::generate_builder(config).0, fleet_config(), transports), hosts)
}

fn shutdown(fleet: FleetEngine, hosts: Vec<ShardHost>) {
    let stats = fleet.shutdown().expect("fleet shutdown");
    for host in hosts {
        host.join().expect("shard server exits cleanly");
    }
    for (s, t) in stats.iter().enumerate() {
        println!(
            "  shard {s}: {} frames / {} bytes sent, {} frames / {} bytes received",
            t.frames_sent, t.bytes_sent, t.frames_received, t.bytes_received
        );
    }
}

fn main() {
    let config = corpus();
    let base = Arc::new(twitter::generate_builder(&config).0.snapshot());
    println!(
        "base corpus: {} users / {} documents, served by {SHARDS} shard servers\n",
        base.num_users(),
        base.num_documents()
    );

    // One seeded scenario drives every engine below.
    let scenario = fleet_workload(
        &base,
        &FleetWorkloadConfig {
            shards: SHARDS,
            warmup_queries: 24,
            live: LiveWorkloadConfig {
                batches: 2,
                queries_per_batch: 6,
                attach_probability: 0.5,
                ..LiveWorkloadConfig::default()
            },
        },
    );

    let (mut loopback, loopback_hosts) = spawn(&config, false);
    let (mut socket, socket_hosts) = spawn(&config, true);

    // ---- Warmup: the scenario's seeded queries plus corpus-frequency
    // queries (the scenario vocabulary only enters the corpus with the
    // live batches below, so the corpus workload is what makes the
    // scatter actually propagate). Every wire answer must equal the
    // in-process engine's, hit-for-hit and candidate-for-candidate. ----
    let w = workload::generate(
        &base,
        workload::WorkloadConfig {
            frequency: FrequencyClass::Common,
            keywords_per_query: 1,
            k: 5,
            queries: 24,
            seed: 7,
        },
    );
    let warmup: Vec<Query> = scenario
        .warmup
        .iter()
        .map(|spec| Query::new(spec.seeker, base.query_keywords(&spec.text), spec.k))
        .chain(w.queries.into_iter().map(|q| q.query))
        .collect();
    let reference = ShardedEngine::new(Arc::clone(&base), fleet_config(), SHARDS);
    let mut answered = 0;
    for q in &warmup {
        let want = reference.query(q);
        for (name, fleet) in [("loopback", &mut loopback), ("socket", &mut socket)] {
            let got = fleet.query(q).expect("fleet query");
            assert_eq!(got.hits, want.hits, "{name} hits diverge from in-process");
            assert_eq!(got.candidate_docs, want.candidate_docs, "{name} candidates diverge");
        }
        answered += usize::from(!want.hits.is_empty());
    }
    println!(
        "warmup: {} queries over both transports, {answered} answered, \
         {:.1} rounds/query, byte-identical to in-process",
        warmup.len(),
        loopback.rounds() as f64 / warmup.len() as f64
    );

    // ---- Live phase: ship each batch to every replica over the wire,
    // then check post-ingest answers against a cold in-process rebuild
    // from the very same batches. ----
    let (mut ref_builder, _, _) = twitter::generate_builder(&config);
    let mut prev = ref_builder.snapshot();
    for (i, step) in scenario.steps.iter().enumerate() {
        let summary = loopback.ingest(&step.batch).expect("loopback ingest");
        socket.ingest(&step.batch).expect("socket ingest");
        let (next, ref_summary) = ref_builder.apply(&prev, &step.batch);
        prev = next;
        assert_eq!(summary.new_users, ref_summary.new_users);
        assert_eq!(summary.detached, ref_summary.detached);

        let cold = Arc::new(ref_builder.snapshot());
        let rebuilt = ShardedEngine::new(Arc::clone(&cold), fleet_config(), SHARDS);
        for spec in &step.queries {
            let q = Query::new(spec.seeker, cold.query_keywords(&spec.text), spec.k);
            let want = rebuilt.query(&q);
            for (name, fleet) in [("loopback", &mut loopback), ("socket", &mut socket)] {
                let got = fleet.query(&q).expect("fleet query");
                assert_eq!(got.hits, want.hits, "{name} hits diverge after ingest");
            }
        }
        println!(
            "step {i}: shipped +{} users / +{} docs ({}), {} queries re-checked \
             against a cold rebuild, epoch {}",
            summary.new_users,
            summary.new_documents,
            if summary.detached { "detached" } else { "attached" },
            step.queries.len(),
            loopback.epoch()
        );
    }

    println!("\nloopback fleet wire traffic:");
    shutdown(loopback, loopback_hosts);
    println!("unix-socket fleet wire traffic:");
    shutdown(socket, socket_hosts);
}
