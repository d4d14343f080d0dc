//! Durability acceptance properties.
//!
//! * **Corruption robustness**: truncating a snapshot or WAL file at any
//!   point, or flipping any byte, yields a clean error (or, for the WAL,
//!   a recovered prefix of the committed records) — never a panic, never
//!   silently wrong data. A flipped snapshot resealed under a fresh CRC
//!   reaches the decoder and the cold build, and still never panics; an
//!   old-version file is a typed error, never a fresh seed; a fleet
//!   bootstrapped from a damaged snapshot reports the cause.
//! * **Purity**: a snapshot is a function of its builder alone, not of
//!   the ingest history that produced the live instance.
//! * **Restart byte-identity**: a durable live engine reopened from its
//!   snapshot plus WAL tail answers byte-identically to a cold rebuild
//!   of the same grown data — unsharded and sharded `{1, 2, 4}`, driven
//!   through the unified `Ingest` trait.
//! * **Fleet bootstrap byte-identity**: shard servers bootstrapped from
//!   a wire-shipped snapshot (no shared builder) answer byte-identically
//!   to an in-process `ShardedEngine`, over every transport, including
//!   after post-bootstrap shipped ingest.

mod common;

use common::{assert_identical, random_builder, random_queries};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s3_core::{
    read_snapshot, write_snapshot, IngestBatch, InstanceBuilder, Query, SearchConfig, UserId,
    UserRef, WriteAheadLog,
};
use s3_datasets::workload::{live_workload, LiveWorkloadConfig};
use s3_engine::{
    EngineConfig, EngineError, FleetEngine, Ingest, LiveEngine, LiveShardedEngine, LocalShard,
    PersistError, RecoverySource, ShardServer, ShardedEngine,
};
use s3_snap::SnapError;
use s3_text::Language;
use s3_wire::{ShardTransport, WireError};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The `Ingest` trait plus the durability operations the restart
/// property needs: the local common denominator of [`LiveEngine`] and
/// [`LiveShardedEngine`].
trait Durable: Ingest {
    /// Checkpoint now; returns how many WAL records were absorbed.
    fn checkpoint_now(&self) -> u64;
}

impl Durable for LiveEngine {
    fn checkpoint_now(&self) -> u64 {
        self.checkpoint().expect("checkpoint").absorbed
    }
}

impl Durable for LiveShardedEngine {
    fn checkpoint_now(&self) -> u64 {
        self.checkpoint().expect("checkpoint").absorbed
    }
}

/// Open (or reopen) a durable engine in `dir`: `shards == 0` is the
/// unsharded `LiveEngine`, anything else a `LiveShardedEngine`.
fn open_durable(
    dir: &Path,
    seed: u64,
    shards: usize,
) -> (Box<dyn Durable>, s3_engine::RecoveryReport) {
    if shards == 0 {
        let (e, r) =
            LiveEngine::open(dir, random_builder(seed).0, test_config()).expect("open live");
        (Box::new(e), r)
    } else {
        let (e, r) = LiveShardedEngine::open(dir, random_builder(seed).0, test_config(), shards)
            .expect("open live sharded");
        (Box::new(e), r)
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "s3-persist-test-{}-{}-{tag}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn test_config() -> EngineConfig {
    EngineConfig::builder().threads(1).cache_capacity(0).build()
}

/// A file whose header says version 2 — the format that still carried a
/// derived block — is a typed error, and a durable engine opened over it
/// fails instead of quietly starting from the seed.
#[test]
fn old_version_snapshots_fail_open_instead_of_reseeding() {
    let (builder, _) = random_builder(7);
    let mut bytes = write_snapshot(&builder, &builder.snapshot());
    bytes[8..10].copy_from_slice(&2u16.to_le_bytes());
    let dir = tmpdir("old-version");
    std::fs::write(s3_engine::persist::snapshot_path(&dir), &bytes).expect("write v2 snapshot");
    match LiveEngine::open(&dir, random_builder(7).0, test_config()) {
        Err(PersistError::Snapshot(SnapError::Version(2))) => {}
        Err(e) => panic!("expected a version error, got {e}"),
        Ok((_, report)) => panic!("a v2 snapshot must not open: {report}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A fleet (re)started from a damaged snapshot says why: the client's
/// own decode and a shard server's carry the `SnapError` — a flipped
/// payload byte is a checksum mismatch, a version-2 header a version
/// error.
#[test]
fn a_rejected_snapshot_keeps_its_cause() {
    let (builder, _) = random_builder(3);
    let bytes = write_snapshot(&builder, &builder.snapshot());
    let mut flipped = bytes.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x01;
    let mut old = bytes;
    old[8..10].copy_from_slice(&2u16.to_le_bytes());
    let cause = |result: Result<(), WireError>| match result {
        Err(WireError::Snapshot(e)) => e,
        Err(e) => panic!("expected a snapshot error, got {e}"),
        Ok(()) => panic!("a damaged snapshot must be rejected"),
    };
    for (damaged, checksum) in [(&flipped, true), (&old, false)] {
        let transports: Vec<Box<dyn ShardTransport>> =
            vec![Box::new(LocalShard::awaiting(test_config()))];
        let client = FleetEngine::bootstrap(damaged, test_config(), transports).map(drop);
        let server = ShardServer::from_snapshot(damaged, test_config(), 1, 0).map(drop);
        for e in [cause(client), cause(server)] {
            if checksum {
                assert!(matches!(e, SnapError::Checksum), "flipped payload: {e}");
            } else {
                assert!(matches!(e, SnapError::Version(2)), "version-2 header: {e}");
            }
        }
    }
}

/// A WAL record that names an entity the recovering builder lacks — the
/// log was written over a bigger seed — fails `open` with a typed error
/// instead of panicking inside the replay.
#[test]
fn replaying_a_record_for_an_unknown_user_fails_open() {
    let seed_with = |users: usize| {
        let mut b = InstanceBuilder::new(Language::English);
        for _ in 0..users {
            b.add_user();
        }
        b
    };
    let dir = tmpdir("unknown-user");
    {
        let (live, _) = LiveEngine::open(&dir, seed_with(4), test_config()).expect("open");
        let mut batch = IngestBatch::new();
        batch.add_social_edge(UserRef::Existing(UserId(3)), UserRef::Existing(UserId(0)), 0.5);
        live.try_ingest(&batch).expect("journal and apply");
    }
    match LiveEngine::open(&dir, seed_with(1), test_config()) {
        Err(PersistError::Replay(e)) => {
            assert!(e.to_string().contains("unknown user u3"), "unexpected message: {e}")
        }
        Err(e) => panic!("expected a replay error, got {e}"),
        Ok((_, report)) => panic!("a WAL naming u3 must not replay over one user: {report}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A batch that names an entity the engine lacks is refused before it is
/// journaled or shipped. Durable engines (unsharded and sharded) return
/// `Rejected`, keep serving, and reopen from a WAL holding only the good
/// batch, answering exactly as before; a unix-socket fleet returns
/// `Rejected` with its servers untouched and keeps answering like the
/// in-process engine.
#[test]
fn a_bad_batch_is_rejected_before_it_is_journaled_or_shipped() {
    let seed = 11;
    let (builder, pool) = random_builder(seed);
    let base = builder.snapshot();
    let good = live_workload(
        &base,
        &LiveWorkloadConfig { batches: 1, seed: seed ^ 0xBAD, ..LiveWorkloadConfig::default() },
    )
    .remove(0)
    .batch;
    let mut bad = IngestBatch::new();
    let ghost = UserId(base.num_users() as u32 + 7);
    bad.add_social_edge(UserRef::Existing(ghost), UserRef::Existing(UserId(0)), 0.5);
    let mut rng = StdRng::seed_from_u64(seed);
    let queries = random_queries(&mut rng, base.num_users(), &pool, 8);
    let rejected = |r: Result<_, EngineError>| match r {
        Err(EngineError::Rejected(e)) => assert!(e.to_string().contains("unknown user")),
        Err(e) => panic!("expected a rejection, got {e}"),
        Ok(_) => panic!("a batch naming {ghost} must be refused"),
    };

    for shards in [0usize, 2] {
        let dir = tmpdir(&format!("rejected-{shards}"));
        let before = {
            let (mut engine, _) = open_durable(&dir, seed, shards);
            engine.ingest(&good).expect("good batch");
            let before: Vec<_> = queries.iter().map(|q| engine.query(q).expect("query")).collect();
            rejected(engine.ingest(&bad));
            for (q, want) in queries.iter().zip(&before) {
                assert_identical(&engine.query(q).expect("query after rejection"), want)
                    .expect("serving is unchanged");
            }
            before
        };
        let (mut engine, report) = open_durable(&dir, seed, shards);
        assert_eq!(report.replayed, 1, "only the good batch was journaled");
        for (q, want) in queries.iter().zip(&before) {
            assert_identical(&engine.query(q).expect("query after reopen"), want)
                .expect("reopened answers are unchanged");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    let shards = 2;
    let mut hosts = Vec::new();
    let transports: Vec<Box<dyn ShardTransport>> = (0..shards)
        .map(|s| {
            let server = ShardServer::new(random_builder(seed).0, test_config(), shards, s);
            let path = std::env::temp_dir()
                .join(format!("s3-rejected-{}-{shards}-{s}.sock", std::process::id()));
            let (conn, host) = server.spawn_unix(&path).expect("bind unix socket");
            hosts.push(host);
            Box::new(conn) as Box<dyn ShardTransport>
        })
        .collect();
    let mut fleet = FleetEngine::new(random_builder(seed).0, test_config(), transports);
    let reference = ShardedEngine::new(Arc::new(base), test_config(), shards);
    rejected(fleet.ingest(&bad));
    for q in &queries {
        let got = fleet.query(q).expect("fleet query after rejection");
        assert_identical(&got, &reference.query(q)).expect("the fleet is unchanged");
    }
    fleet.shutdown().expect("shutdown");
    for host in hosts {
        host.join().expect("shard servers never saw the batch");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Any truncation, any byte flip, any trailing garbage: a damaged
    /// snapshot is rejected with a clean error, never a panic.
    #[test]
    fn corrupt_snapshots_fail_cleanly(seed in 0u64..30, at in 0.0..1.0f64, mask in 1u8..=255) {
        let (builder, _) = random_builder(seed);
        let instance = builder.snapshot();
        let bytes = write_snapshot(&builder, &instance);
        prop_assert!(read_snapshot(&bytes).is_ok(), "the intact snapshot must load");

        let pos = ((bytes.len() as f64) * at) as usize;
        prop_assert!(read_snapshot(&bytes[..pos]).is_err(), "truncated at {pos}");

        let mut flipped = bytes.clone();
        flipped[pos] ^= mask;
        prop_assert!(read_snapshot(&flipped).is_err(), "byte {pos} flipped by {mask:#x}");

        let mut extended = bytes.clone();
        extended.push(mask);
        prop_assert!(read_snapshot(&extended).is_err(), "trailing garbage");

        // Resealed: flip payload bytes and recompute the header CRC, so
        // the decoder and the cold build behind the checksum see the
        // damage. Any outcome but a panic is fine — `Ok` is a different
        // valid builder, `Err` a typed rejection.
        let mut rng = StdRng::seed_from_u64(seed ^ (u64::from(mask) << 32));
        for _ in 0..32 {
            let mut resealed = bytes.clone();
            let pos = rng.gen_range(14..resealed.len());
            resealed[pos] ^= rng.gen_range(1..=255u8);
            let crc = s3_snap::crc32(&resealed[14..]);
            resealed[10..14].copy_from_slice(&crc.to_le_bytes());
            let _ = read_snapshot(&resealed);
        }
    }

    /// Any truncation or byte flip of the WAL file: reopening either
    /// fails cleanly or recovers a strict prefix of the committed
    /// records — never a panic, never a record that was not appended.
    #[test]
    fn corrupt_wals_recover_a_prefix_or_fail_cleanly(
        seed in 0u64..1000, at in 0.0..1.0f64, mask in 1u8..=255,
    ) {
        let dir = tmpdir("wal-fuzz");
        let path = dir.join("fuzz.wal");
        let mut rng = StdRng::seed_from_u64(seed);
        let records: Vec<Vec<u8>> = (0..rng.gen_range(1..5usize))
            .map(|_| (0..rng.gen_range(1..40usize)).map(|_| rng.gen::<u32>() as u8).collect())
            .collect();
        {
            let (mut wal, recovery) = WriteAheadLog::open(&path).expect("fresh wal");
            prop_assert!(recovery.records.is_empty());
            for r in &records {
                wal.append(r).expect("append");
            }
        }
        let bytes = std::fs::read(&path).expect("read wal");
        let pos = ((bytes.len() as f64) * at) as usize;

        std::fs::write(&path, &bytes[..pos]).expect("truncate wal");
        if let Ok((_, recovery)) = WriteAheadLog::open(&path) {
            prop_assert!(records.starts_with(&recovery.records), "truncated at {pos}");
        }

        let mut flipped = bytes.clone();
        flipped[pos] ^= mask;
        std::fs::write(&path, &flipped).expect("rewrite wal");
        if let Ok((_, recovery)) = WriteAheadLog::open(&path) {
            prop_assert!(
                records.starts_with(&recovery.records),
                "byte {pos} flipped by {mask:#x}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Grow a durable engine (checkpoint between batches so recovery
    /// exercises snapshot *and* WAL tail), reopen it, and require every
    /// answer to be byte-identical to a cold rebuild — unsharded and
    /// sharded {1, 2, 4}, all driven through the `Ingest` trait.
    #[test]
    fn reopened_engines_answer_byte_identically(seed in 0u64..500) {
        let steps = {
            let base = random_builder(seed).0.snapshot();
            live_workload(&base, &LiveWorkloadConfig {
                batches: 2,
                queries_per_batch: 4,
                attach_probability: 0.25 + 0.5 * ((seed % 3) as f64 / 2.0),
                seed: seed ^ 0xBEEF,
                ..LiveWorkloadConfig::default()
            })
        };
        let (mut reference, _) = random_builder(seed);
        let mut prev = reference.snapshot();
        for step in &steps {
            let (next, _) = reference.apply(&prev, &step.batch);
            prev = next;
        }
        let cold = reference.snapshot();
        let cold_config = SearchConfig::default();

        // 0 = unsharded LiveEngine; otherwise a LiveShardedEngine.
        for shards in [0usize, 1, 2, 4] {
            let dir = tmpdir(&format!("restart-{shards}"));

            // First life: batch 0, checkpoint, batch 1 left in the WAL.
            {
                let (mut engine, report) = open_durable(&dir, seed, shards);
                prop_assert_eq!(report.source, RecoverySource::Seed);
                prop_assert_eq!(report.replayed, 0);
                engine.ingest(&steps[0].batch).expect("ingest first batch");
                prop_assert_eq!(engine.checkpoint_now(), 1, "one journaled batch absorbed");
                engine.ingest(&steps[1].batch).expect("ingest wal tail");
            }

            // Second life: snapshot loads, the tail replays, answers are
            // byte-identical to the cold rebuild.
            let (mut engine, report) = open_durable(&dir, seed, shards);
            prop_assert_eq!(report.source, RecoverySource::Snapshot, "shards {}", shards);
            prop_assert_eq!(report.replayed, 1, "the WAL tail replays");
            prop_assert!(!report.dropped_tail);
            for step in &steps {
                for spec in &step.queries {
                    let q = Query::new(spec.seeker, cold.query_keywords(&spec.text), spec.k);
                    let got = engine.query(&q).expect("trait query");
                    assert_identical(&got, &cold.search(&q, &cold_config))?;
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A snapshot is a pure function of its builder: after appends,
    /// deletes, updates and component merges, the live instance's
    /// snapshot is byte-identical to a cold build's, the durable engine's
    /// checkpoint writes exactly those bytes, the engine reopened from
    /// them answers byte-identically to the one that wrote them, and its
    /// own checkpoint rewrites them byte for byte.
    #[test]
    fn a_snapshot_is_a_pure_function_of_its_builder(seed in 0u64..500) {
        let (mut builder, pool) = random_builder(seed);
        let mut live = builder.snapshot();
        let steps = live_workload(&live, &LiveWorkloadConfig {
            batches: 4,
            users_per_batch: 2,
            docs_per_batch: 3,
            tags_per_batch: 3,
            comments_per_batch: 2,
            deletes_per_batch: 1,
            updates_per_batch: 1,
            queries_per_batch: 0,
            attach_probability: 0.75,
            seed: seed ^ 0x5EED,
            ..LiveWorkloadConfig::default()
        });
        let dir = tmpdir("pure");
        let (engine, _) =
            LiveEngine::open(&dir, random_builder(seed).0, test_config()).expect("open live");
        for step in &steps {
            let (next, _) = builder.apply(&live, &step.batch);
            live = next;
            engine.try_ingest(&step.batch).expect("ingest");
        }
        let bytes = write_snapshot(&builder, &live);
        prop_assert!(bytes == write_snapshot(&builder, &builder.snapshot()), "live ≠ cold");
        engine.checkpoint().expect("checkpoint");
        let on_disk = std::fs::read(s3_engine::persist::snapshot_path(&dir)).expect("read");
        prop_assert!(on_disk == bytes, "the checkpoint wrote different bytes");

        let mut rng = StdRng::seed_from_u64(seed ^ 0xFACE);
        let queries = random_queries(&mut rng, live.num_users(), &pool, 8);
        let before: Vec<_> = queries.iter().map(|q| engine.query(q)).collect();
        drop(engine);
        let (reopened, report) =
            LiveEngine::open(&dir, random_builder(seed).0, test_config()).expect("reopen");
        prop_assert_eq!(report.source, RecoverySource::Snapshot);
        prop_assert_eq!(report.replayed, 0);
        for (q, want) in queries.iter().zip(&before) {
            assert_identical(&reopened.query(q), want)?;
        }
        // The reopened instance was cold-built from the file: a checkpoint
        // right away absorbs nothing and rewrites the very same bytes.
        prop_assert_eq!(reopened.checkpoint().expect("re-checkpoint").absorbed, 0);
        let rewritten = std::fs::read(s3_engine::persist::snapshot_path(&dir)).expect("reread");
        prop_assert!(rewritten == bytes, "the re-checkpoint wrote different bytes");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Fleet shard servers bootstrapped from a wire-shipped snapshot
    /// (no shared builder) answer byte-identically to an in-process
    /// `ShardedEngine` over every transport and shard count, including
    /// after a post-bootstrap shipped ingest batch.
    #[test]
    fn fleet_bootstrap_is_byte_identical_over_every_transport(seed in 0u64..500) {
        let (builder, pool) = random_builder(seed);
        let instance = builder.snapshot();
        let snapshot = write_snapshot(&builder, &instance);
        let inst = Arc::new(instance);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB007);
        let queries = random_queries(&mut rng, inst.num_users(), &pool, 6);

        // One follow-up batch: the bootstrapped replicas must track
        // shipped ingest exactly like builder-grown ones.
        let step = {
            let steps = live_workload(&inst, &LiveWorkloadConfig {
                batches: 1,
                queries_per_batch: 4,
                seed: seed ^ 0xB00,
                ..LiveWorkloadConfig::default()
            });
            steps.into_iter().next().expect("one step")
        };
        let grown = {
            let (mut b, _) = random_builder(seed);
            let prev = b.snapshot();
            b.apply(&prev, &step.batch);
            Arc::new(b.snapshot())
        };

        for shards in [1usize, 2, 4] {
            let reference = ShardedEngine::new(Arc::clone(&inst), test_config(), shards);
            let expected: Vec<_> = queries.iter().map(|q| reference.query(q)).collect();
            let grown_reference = ShardedEngine::new(Arc::clone(&grown), test_config(), shards);

            for transport in ["local", "loopback", "socket"] {
                let mut hosts = Vec::new();
                let transports: Vec<Box<dyn ShardTransport>> = (0..shards)
                    .map(|s| match transport {
                        "local" => {
                            Box::new(LocalShard::awaiting(test_config())) as Box<dyn ShardTransport>
                        }
                        "loopback" => {
                            let (conn, host) =
                                ShardServer::spawn_loopback_bootstrap(test_config());
                            hosts.push(host);
                            Box::new(conn)
                        }
                        _ => {
                            let path = std::env::temp_dir().join(format!(
                                "s3-boot-{}-{seed:x}-{shards}-{s}.sock",
                                std::process::id()
                            ));
                            let (conn, host) =
                                ShardServer::spawn_unix_bootstrap(&path, test_config())
                                    .expect("bind unix socket");
                            hosts.push(host);
                            Box::new(conn)
                        }
                    })
                    .collect();
                let mut fleet = FleetEngine::bootstrap(&snapshot, test_config(), transports)
                    .expect("fleet bootstrap");
                prop_assert_eq!(fleet.num_shards(), shards);
                for (q, want) in queries.iter().zip(&expected) {
                    let got = fleet.query(q).expect("fleet query");
                    assert_identical(&got, want)?;
                }

                fleet.ingest(&step.batch).expect("fleet ingest");
                for spec in &step.queries {
                    let q = Query::new(spec.seeker, grown.query_keywords(&spec.text), spec.k);
                    let got = fleet.query(&q).expect("fleet query after ingest");
                    assert_identical(&got, &grown_reference.query(&q))?;
                }

                fleet.shutdown().expect("shutdown");
                for host in hosts {
                    host.join().expect("shard server exits cleanly");
                }
            }
        }
    }
}
