//! The cross-process acceptance property: for every query, the fleet —
//! shard servers behind the `Local`, `Loopback` and unix-`Socket`
//! transports — returns byte-identical results (hits with exact bounds,
//! admission-ordered candidate lists, stop reason) to the in-process
//! `ShardedEngine` with the same shard count, for shard counts {1, 2, 4},
//! **including after shipped `IngestBatch`es** (every replica applies the
//! same wire-shipped batch; the cold reference rebuilds from scratch).

mod common;

use common::{
    assert_identical, ingest_frame_adding_users, oversized_ingest_frame, random_builder,
    random_queries,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use s3_core::{IngestBatch, Query, StopReason, UserId, UserRef, MAX_NEW_USERS};
use s3_datasets::workload::{live_workload, LiveWorkloadConfig};
use s3_engine::{
    EngineConfig, EngineError, FleetEngine, LocalShard, ShardHost, ShardServer, ShardedEngine,
};
use s3_text::KeywordId;
use s3_wire::{
    decode_ingest, CompactAck, IngestAck, RoundReply, ShardTransport, SnapshotAck, Start,
    StopCheck, TransportStats, WireError,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

#[derive(Clone, Copy, Debug)]
enum Transport {
    Local,
    Loopback,
    Socket,
}

fn fleet_config() -> EngineConfig {
    EngineConfig::builder().threads(1).cache_capacity(0).build()
}

/// Spawn a fleet of `shards` servers over `transport`, every replica
/// grown from `random_builder(seed)`.
fn spawn_fleet(seed: u64, shards: usize, transport: Transport) -> (FleetEngine, Vec<ShardHost>) {
    let mut hosts = Vec::new();
    let mut transports: Vec<Box<dyn ShardTransport>> = Vec::new();
    for s in 0..shards {
        let server = ShardServer::new(random_builder(seed).0, fleet_config(), shards, s);
        match transport {
            Transport::Local => transports.push(Box::new(LocalShard::new(server))),
            Transport::Loopback => {
                let (conn, host) = server.spawn_loopback();
                transports.push(Box::new(conn));
                hosts.push(host);
            }
            Transport::Socket => {
                let path = std::env::temp_dir()
                    .join(format!("s3-fleet-{}-{seed:x}-{shards}-{s}.sock", std::process::id()));
                let (conn, host) = server.spawn_unix(&path).expect("bind unix socket");
                transports.push(Box::new(conn));
                hosts.push(host);
            }
        }
    }
    (FleetEngine::new(random_builder(seed).0, fleet_config(), transports), hosts)
}

fn shutdown(fleet: FleetEngine, hosts: Vec<ShardHost>) {
    fleet.shutdown().expect("shutdown");
    for host in hosts {
        host.join().expect("shard server exits cleanly");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Query-only byte-identity over every transport and shard count.
    #[test]
    fn fleet_matches_sharded_engine(seed in 0u64..3000) {
        let (builder, pool) = random_builder(seed);
        let inst = Arc::new(builder.snapshot());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF1EE7);
        let queries = random_queries(&mut rng, inst.num_users(), &pool, 8);

        for shards in [1usize, 2, 4] {
            let reference = ShardedEngine::new(Arc::clone(&inst), fleet_config(), shards);
            let expected: Vec<_> = queries.iter().map(|q| reference.query(q)).collect();
            for transport in [Transport::Local, Transport::Loopback, Transport::Socket] {
                let (mut fleet, hosts) = spawn_fleet(seed, shards, transport);
                prop_assert_eq!(fleet.num_shards(), shards);
                for (q, want) in queries.iter().zip(&expected) {
                    let got = fleet.query(q).expect("fleet query");
                    assert_identical(&got, want)?;
                }
                // Repeat a prefix: server-side warm propagation state must
                // reset cleanly between queries.
                for (q, want) in queries.iter().zip(&expected).take(3) {
                    assert_identical(&fleet.query(q).expect("fleet requery"), want)?;
                }
                // A round is a compact request/reply pair per shard plus
                // amortized query framing and stop checks: past 512 bytes
                // the encoding grew or the client chatters mid-round.
                let bytes: u64 =
                    fleet.transport_stats().iter().map(|s| s.bytes_sent + s.bytes_received).sum();
                if bytes > 0 {
                    let per_round = bytes as f64 / fleet.rounds().max(1) as f64;
                    prop_assert!(per_round <= 512.0, "{:?}: {} B/round", transport, per_round);
                }
                shutdown(fleet, hosts);
            }
        }
    }

    /// Ingest byte-identity: ship batches over the wire to every replica,
    /// compare post-ingest answers against an in-process `ShardedEngine`
    /// rebuilt cold from the same batches.
    #[test]
    fn fleet_matches_after_shipped_ingest(seed in 0u64..1000) {
        let base = random_builder(seed).0.snapshot();
        let config = LiveWorkloadConfig {
            batches: 2,
            queries_per_batch: 5,
            attach_probability: 0.25 + 0.5 * ((seed % 3) as f64 / 2.0),
            seed: seed ^ 0xF00D,
            ..LiveWorkloadConfig::default()
        };
        let steps = live_workload(&base, &config);

        for shards in [1usize, 2, 4] {
            let transport = match shards {
                1 => Transport::Local,
                2 => Transport::Loopback,
                _ => Transport::Socket,
            };
            let (mut fleet, hosts) = spawn_fleet(seed, shards, transport);
            let (mut ref_builder, _) = random_builder(seed);
            let mut prev = ref_builder.snapshot();
            for step in &steps {
                let summary = fleet.ingest(&step.batch).expect("fleet ingest");
                let (next, ref_summary) = ref_builder.apply(&prev, &step.batch);
                prev = next;
                prop_assert_eq!(summary.detached, ref_summary.detached);
                prop_assert_eq!(summary.new_users, ref_summary.new_users);

                let cold = Arc::new(ref_builder.snapshot());
                let reference = ShardedEngine::new(Arc::clone(&cold), fleet_config(), shards);
                for spec in &step.queries {
                    let kws = cold.query_keywords(&spec.text);
                    let q = Query::new(spec.seeker, kws, spec.k);
                    let got = fleet.query(&q).expect("fleet query");
                    assert_identical(&got, &reference.query(&q))?;
                }
            }
            let stats = fleet.transport_stats();
            prop_assert_eq!(stats.len(), shards);
            shutdown(fleet, hosts);
        }
    }
}

/// The fleet's wire traffic, pinned: 2 shards over loopback, a fixed
/// seed and query list (one of them unanswerable), no deadline. Each
/// query adds `iterations + 1` reply waves to `rounds()` (0 on
/// `NoMatch`), and the totals equal those measured at commit `495a22f`.
/// A protocol change moves these numbers on purpose; update them with it.
#[test]
fn fleet_traffic_is_pinned() {
    let seed = 11;
    let (builder, pool) = random_builder(seed);
    let users = builder.snapshot().num_users();
    let mut queries = random_queries(&mut StdRng::seed_from_u64(seed), users, &pool, 24);
    queries.push(Query::new(UserId(0), vec![KeywordId(99_999)], 3));
    let (mut fleet, hosts) = spawn_fleet(seed, 2, Transport::Loopback);
    let mut no_match = 0;
    for q in &queries {
        let before = fleet.rounds();
        let result = fleet.query(q).expect("fleet query");
        let waves = if result.stats.stop == StopReason::NoMatch {
            no_match += 1;
            0
        } else {
            u64::from(result.stats.iterations) + 1
        };
        assert_eq!(fleet.rounds() - before, waves, "reply waves of {q:?}");
    }
    let total =
        fleet.transport_stats().iter().fold(TransportStats::default(), |a, s| TransportStats {
            frames_sent: a.frames_sent + s.frames_sent,
            bytes_sent: a.bytes_sent + s.bytes_sent,
            frames_received: a.frames_received + s.frames_received,
            bytes_received: a.bytes_received + s.bytes_received,
        });
    let measured = (
        no_match,
        fleet.rounds(),
        total.frames_sent,
        total.frames_received,
        total.bytes_sent,
        total.bytes_received,
    );
    assert_eq!(measured, (1, 192, 489, 447, 4306, 15721));
    shutdown(fleet, hosts);
}

/// One transport call a [`Recording`] shard logged.
#[derive(Clone, Copy, Debug)]
enum Call {
    Send(&'static str),
    Flush,
    Recv,
}

/// A [`LocalShard`] that logs its sends, flushes and receives into a log
/// every shard of the fleet shares.
struct Recording {
    shard: usize,
    inner: LocalShard,
    log: Arc<Mutex<Vec<(usize, Call)>>>,
}

impl Recording {
    fn note(&self, call: Call) {
        self.log.lock().unwrap().push((self.shard, call));
    }
}

impl ShardTransport for Recording {
    fn send_start(&mut self, msg: &Start) -> Result<(), WireError> {
        self.note(Call::Send("start"));
        self.inner.send_start(msg)
    }
    fn send_next_round(&mut self) -> Result<(), WireError> {
        self.note(Call::Send("next_round"));
        self.inner.send_next_round()
    }
    fn send_stop_check(&mut self, msg: &StopCheck) -> Result<(), WireError> {
        self.note(Call::Send("stop_check"));
        self.inner.send_stop_check(msg)
    }
    fn send_end_query(&mut self) -> Result<(), WireError> {
        self.note(Call::Send("end_query"));
        self.inner.send_end_query()
    }
    fn send_ingest(&mut self, batch: &IngestBatch) -> Result<(), WireError> {
        self.note(Call::Send("ingest"));
        self.inner.send_ingest(batch)
    }
    fn send_snapshot(&mut self, shards: u32, shard: u32, bytes: &[u8]) -> Result<(), WireError> {
        self.note(Call::Send("snapshot"));
        self.inner.send_snapshot(shards, shard, bytes)
    }
    fn send_compact(&mut self) -> Result<(), WireError> {
        self.note(Call::Send("compact"));
        self.inner.send_compact()
    }
    fn send_shutdown(&mut self) -> Result<(), WireError> {
        self.note(Call::Send("shutdown"));
        self.inner.send_shutdown()
    }
    fn flush(&mut self) -> Result<(), WireError> {
        self.note(Call::Flush);
        self.inner.flush()
    }
    fn recv_round(&mut self, out: &mut RoundReply) -> Result<(), WireError> {
        self.note(Call::Recv);
        self.inner.recv_round(out)
    }
    fn recv_vote(&mut self) -> Result<f64, WireError> {
        self.note(Call::Recv);
        self.inner.recv_vote()
    }
    fn recv_ingest_ack(&mut self, out: &mut IngestAck) -> Result<(), WireError> {
        self.note(Call::Recv);
        self.inner.recv_ingest_ack(out)
    }
    fn recv_snapshot_ack(&mut self, out: &mut SnapshotAck) -> Result<(), WireError> {
        self.note(Call::Recv);
        self.inner.recv_snapshot_ack(out)
    }
    fn recv_compact_ack(&mut self, out: &mut CompactAck) -> Result<(), WireError> {
        self.note(Call::Recv);
        self.inner.recv_compact_ack(out)
    }
    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// Round latency is the slowest shard's, not the sum, because the client
/// pipelines: in every wave (`Start`, `NextRound`, `StopCheck`) it
/// flushes every routed shard's request before it reads any reply.
/// Checked on the call order, without a clock.
#[test]
fn every_wave_flushes_all_shards_before_reading_a_reply() {
    let (seed, shards) = (11, 4);
    let (builder, pool) = random_builder(seed);
    let users = builder.snapshot().num_users();
    let log = Arc::new(Mutex::new(Vec::new()));
    let transports = (0..shards)
        .map(|shard| {
            let server = ShardServer::new(random_builder(seed).0, fleet_config(), shards, shard);
            let inner = LocalShard::new(server);
            Box::new(Recording { shard, inner, log: Arc::clone(&log) }) as Box<dyn ShardTransport>
        })
        .collect();
    let mut fleet = FleetEngine::new(builder, fleet_config(), transports);
    for q in &random_queries(&mut StdRng::seed_from_u64(seed), users, &pool, 12) {
        fleet.query(q).expect("fleet query");
    }

    // Replay the log. A wave is the requests sent since replies were
    // last read; `unflushed` holds the shards whose request has not been
    // pushed yet.
    let mut unflushed = BTreeSet::new();
    let (mut wave, mut kind, mut reading) = (BTreeSet::new(), "", false);
    let mut multi_shard_waves: BTreeMap<&str, usize> = BTreeMap::new();
    for &(shard, call) in log.lock().unwrap().iter() {
        match call {
            Call::Send(sent) => {
                unflushed.insert(shard);
                if sent != "end_query" {
                    if std::mem::take(&mut reading) {
                        wave.clear();
                    }
                    wave.insert(shard);
                    kind = sent;
                }
            }
            Call::Flush => {
                unflushed.remove(&shard);
            }
            Call::Recv => {
                assert!(
                    unflushed.is_empty(),
                    "shard {shard}'s {kind} reply read while shards {unflushed:?} hold queued requests"
                );
                if !reading && wave.len() > 1 {
                    *multi_shard_waves.entry(kind).or_default() += 1;
                }
                reading = true;
            }
        }
    }
    for kind in ["start", "next_round", "stop_check"] {
        assert!(multi_shard_waves.contains_key(kind), "no multi-shard {kind} wave ran");
    }
}

/// A one-shard server over loopback and the keywords of `seed`'s instance.
fn lone_server(seed: u64) -> (Box<dyn ShardTransport>, ShardHost, Vec<KeywordId>) {
    let (builder, pool) = random_builder(seed);
    let (conn, host) = ShardServer::new(builder, fleet_config(), 1, 0).spawn_loopback();
    (Box::new(conn), host, pool)
}

/// The server ended the session with `expected` instead of panicking.
fn assert_refused(conn: Box<dyn ShardTransport>, host: ShardHost, expected: &str) {
    drop(conn);
    match host.join() {
        Err(WireError::Protocol(what)) => assert_eq!(what, expected),
        other => panic!("expected a protocol error, got {other:?}"),
    }
}

#[test]
fn next_round_without_a_query_is_refused() {
    let (mut conn, host, _) = lone_server(5);
    conn.send_next_round().unwrap();
    conn.flush().unwrap();
    assert_refused(conn, host, "no active query");
}

#[test]
fn stop_check_past_the_pool_is_refused() {
    let (mut conn, host, pool) = lone_server(5);
    let start = Start { seeker: 0, k: 3, keywords: vec![pool[0].0] };
    conn.send_start(&start).unwrap();
    let mut reply = RoundReply::default();
    conn.recv_round(&mut reply).unwrap();
    assert!(!reply.no_match, "the query matches");
    while reply.candidates == 0 {
        conn.send_next_round().unwrap();
        conn.recv_round(&mut reply).unwrap();
    }
    let past = reply.candidates as u32;
    let check = StopCheck { merged_full: false, min_lower: f64::INFINITY, selected: vec![past] };
    conn.send_stop_check(&check).unwrap();
    conn.flush().unwrap();
    assert_refused(conn, host, "stop check names a candidate past the shard's pool");
}

#[test]
fn start_with_an_unknown_seeker_is_refused() {
    let (mut conn, host, pool) = lone_server(5);
    let users = random_builder(5).0.snapshot().num_users() as u32;
    let start = Start { seeker: users + 3, k: 3, keywords: vec![pool[0].0] };
    conn.send_start(&start).unwrap();
    conn.flush().unwrap();
    assert_refused(conn, host, "query seeker is not a user of the instance");
}

#[test]
fn ingest_naming_an_unknown_user_is_refused() {
    let users = random_builder(5).0.snapshot().num_users() as u32;
    let mut batch = IngestBatch::new();
    batch.add_social_edge(UserRef::Existing(UserId(users + 3)), UserRef::Existing(UserId(0)), 0.5);
    let refused = "ingest batch does not fit the replica";

    let (mut conn, host, _) = lone_server(5);
    conn.send_ingest(&batch).unwrap();
    conn.flush().unwrap();
    assert_refused(conn, host, refused);

    let server = ShardServer::new(random_builder(5).0, fleet_config(), 1, 0);
    match LocalShard::new(server).send_ingest(&batch) {
        Err(WireError::Protocol(what)) => assert_eq!(what, refused),
        other => panic!("expected a protocol error, got {other:?}"),
    }
}

#[test]
fn an_ingest_adding_one_user_too_many_is_refused() {
    let mut batch = IngestBatch::new();
    decode_ingest(&ingest_frame_adding_users(MAX_NEW_USERS + 1), &mut batch)
        .expect("the frame is well-formed");

    let (mut fleet, hosts) = spawn_fleet(5, 2, Transport::Local);
    match fleet.ingest(&batch) {
        Err(EngineError::Rejected(e)) => assert!(e.to_string().contains("one batch may add")),
        other => panic!("expected a rejected batch, got {other:?}"),
    }
    shutdown(fleet, hosts);
}

#[test]
fn an_ingest_counting_2_40_new_users_is_refused() {
    let mut batch = IngestBatch::new();
    decode_ingest(&oversized_ingest_frame(), &mut batch).expect("the frame is well-formed");

    let (mut fleet, hosts) = spawn_fleet(5, 2, Transport::Local);
    match fleet.ingest(&batch) {
        Err(EngineError::Rejected(e)) => assert!(e.to_string().contains("overflow the u32 ids")),
        other => panic!("expected a rejected batch, got {other:?}"),
    }
    shutdown(fleet, hosts);

    let (mut conn, host, _) = lone_server(5);
    conn.send_ingest(&batch).unwrap();
    conn.flush().unwrap();
    assert_refused(conn, host, "ingest batch does not fit the replica");
}
