//! Targeted fleet tests: the pinned wire traffic, the pipelined wave
//! order, and the refusals a shard server or client answers malformed
//! requests with, and byte-identity after shipped ingests. Byte-identity
//! over every transport lives in `identity.rs`.

mod common;
mod harness;

use common::{
    config, ingest_frame_adding_users, oversized_ingest_frame, random_builder, random_queries,
    Corpus, Exec, Rig, Shape, State, Wire,
};
use harness::{ingesting, run};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use s3_core::{IngestBatch, Query, StopReason, UserId, UserRef, MAX_NEW_USERS};
use s3_engine::{EngineError, FleetEngine, LocalShard, ShardHost, ShardServer};
use s3_text::KeywordId;
use s3_wire::{
    decode_ingest, CompactAck, IngestAck, RoundReply, ShardTransport, SnapshotAck, Start,
    StopCheck, TransportStats, WireError,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Batches shipped to every shard server over each transport, and a
    /// refused one between them: the fleet answers like a cold rebuild.
    #[test]
    fn fleet_matches_after_shipped_ingest(seed in 0u64..1000) {
        let s = ingesting(seed);
        for (wire, shards) in [(Wire::Local, 1), (Wire::Loopback, 2), (Wire::Unix, 4)] {
            run(Shape(State::Live, Exec::Fleet(wire), shards, 0), &s)?;
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
    let mut rig =
        Rig::open(Shape(State::Live, Exec::Fleet(Wire::Loopback), 2, 0), &Corpus::random(seed));
    let fleet = rig.fleet().expect("a fleet");
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
    rig.close();
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
            let server = ShardServer::new(random_builder(seed).0, config(0), shards, shard);
            let inner = LocalShard::new(server);
            Box::new(Recording { shard, inner, log: Arc::clone(&log) }) as Box<dyn ShardTransport>
        })
        .collect();
    let mut fleet = FleetEngine::new(builder, config(0), transports);
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
    let (conn, host) = ShardServer::new(builder, config(0), 1, 0).spawn_loopback();
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

    let server = ShardServer::new(random_builder(5).0, config(0), 1, 0);
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

    let mut rig = Rig::open(Shape(State::Live, Exec::Fleet(Wire::Local), 2, 0), &Corpus::random(5));
    match rig.ingest(&batch) {
        Err(EngineError::Rejected(e)) => assert!(e.to_string().contains("one batch may add")),
        other => panic!("expected a rejected batch, got {other:?}"),
    }
    rig.close();
}

#[test]
fn an_ingest_counting_2_40_new_users_is_refused() {
    let mut batch = IngestBatch::new();
    decode_ingest(&oversized_ingest_frame(), &mut batch).expect("the frame is well-formed");

    let mut rig = Rig::open(Shape(State::Live, Exec::Fleet(Wire::Local), 2, 0), &Corpus::random(5));
    match rig.ingest(&batch) {
        Err(EngineError::Rejected(e)) => assert!(e.to_string().contains("overflow the u32 ids")),
        other => panic!("expected a rejected batch, got {other:?}"),
    }
    rig.close();

    let (mut conn, host, _) = lone_server(5);
    conn.send_ingest(&batch).unwrap();
    conn.flush().unwrap();
    assert_refused(conn, host, "ingest batch does not fit the replica");
}
