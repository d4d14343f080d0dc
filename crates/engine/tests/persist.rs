//! Durability, targeted: corruption robustness and refusals. Truncating
//! a snapshot or WAL file at any point, or flipping any byte, yields a
//! clean error (or, for the WAL, a recovered prefix of the committed
//! records) — never a panic, never silently wrong data. A flipped
//! snapshot resealed under a fresh CRC reaches the decoder and the cold
//! build, and still never panics; an old-version file is a typed error,
//! never a fresh seed; a fleet bootstrapped from a damaged snapshot
//! reports the cause. And restart byte-identity: a durable engine
//! reopened from its snapshot and WAL tail, the snapshot's bytes a pure
//! function of its builder, and a refused batch never journaled or
//! shipped. Fleet bootstrap lives in `identity.rs`.

mod common;
mod harness;

use common::Exec::{Fleet, InProcess};
use common::State::{Durable, Live};
use common::{config, random_builder, random_queries, Corpus, Scratch, Shape, Wire};
use harness::{attach, plain, run, Schedule};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s3_core::{
    read_snapshot, write_snapshot, IngestBatch, InstanceBuilder, UserId, UserRef, WriteAheadLog,
};
use s3_datasets::workload::{live_workload, LiveWorkloadConfig};
use s3_engine::{FleetEngine, LiveEngine, LocalShard, PersistError, ShardServer};
use s3_snap::SnapError;
use s3_text::Language;
use s3_wire::{ShardTransport, WireError};

/// A file whose header says version 2 — the format that still carried a
/// derived block — is a typed error, and a durable engine opened over it
/// fails instead of quietly starting from the seed.
#[test]
fn old_version_snapshots_fail_open_instead_of_reseeding() {
    let (builder, _) = random_builder(7);
    let mut bytes = write_snapshot(&builder, &builder.snapshot());
    bytes[8..10].copy_from_slice(&2u16.to_le_bytes());
    let dir = Scratch::new();
    std::fs::write(s3_engine::persist::snapshot_path(&dir.0), &bytes).expect("write v2");
    match LiveEngine::open(&dir.0, random_builder(7).0, config(0)) {
        Err(PersistError::Snapshot(SnapError::Version(2))) => {}
        Err(e) => panic!("expected a version error, got {e}"),
        Ok((_, report)) => panic!("a v2 snapshot must not open: {report}"),
    }
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
            vec![Box::new(LocalShard::awaiting(config(0)))];
        let client = FleetEngine::bootstrap(damaged, config(0), transports).map(drop);
        let server = ShardServer::from_snapshot(damaged, config(0), 1, 0).map(drop);
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
    let dir = Scratch::new();
    {
        let (live, _) = LiveEngine::open(&dir.0, seed_with(4), config(0)).expect("open");
        let mut batch = IngestBatch::new();
        batch.add_social_edge(UserRef::Existing(UserId(3)), UserRef::Existing(UserId(0)), 0.5);
        live.try_ingest(&batch).expect("journal and apply");
    }
    match LiveEngine::open(&dir.0, seed_with(1), config(0)) {
        Err(PersistError::Replay(e)) => {
            assert!(e.to_string().contains("unknown user u3"), "unexpected message: {e}")
        }
        Err(e) => panic!("expected a replay error, got {e}"),
        Ok((_, report)) => panic!("a WAL naming u3 must not replay over one user: {report}"),
    }
}

/// A batch naming a user the engine lacks is refused before it is
/// journaled or shipped: serving is unchanged, a reopen replays only the
/// good batch before it, and the fleet's servers never see it.
#[test]
fn a_bad_batch_is_rejected_before_it_is_journaled_or_shipped() {
    let seed = 11;
    let mut s = Schedule::new(Corpus::random(seed));
    let good = live_workload(&s.cold, &plain(seed ^ 0xBAD, 1, 8, 0.3)).remove(0);
    s.step(&good).reject().requery().reopen().requery();
    for shards in [1, 2] {
        run(Shape(Durable, InProcess, shards, 0), &s).expect("a durable engine");
    }
    let mut s = Schedule::new(Corpus::random(seed));
    s.reject().stream(random_queries, seed, 8);
    run(Shape(Live, Fleet(Wire::Unix), 2, 0), &s).expect("a fleet");
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
        let dir = Scratch::new();
        let path = dir.0.join("fuzz.wal");
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
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Grow a durable engine (a checkpoint between batches, so recovery
    /// reads a snapshot *and* a WAL tail), reopen it, and require every
    /// answer to equal a cold rebuild's, unsharded and sharded {2, 4}.
    #[test]
    fn reopened_engines_answer_byte_identically(seed in 0u64..500) {
        let mut s = Schedule::new(Corpus::random(seed));
        let steps = live_workload(&s.cold, &plain(seed ^ 0xBEEF, 2, 4, attach(seed)));
        s.step(&steps[0]).checkpoint().step(&steps[1]).reopen().requery();
        for shards in [1, 2, 4] {
            run(Shape(Durable, InProcess, shards, 0), &s)?;
        }
    }

    /// After appends, deletes, updates and component merges the live
    /// instance's snapshot is a cold build's bytes, the checkpoint writes
    /// exactly those, the engine reopened from them answers like the one
    /// that wrote them, and its own checkpoint rewrites them byte for
    /// byte.
    #[test]
    fn a_snapshot_is_a_pure_function_of_its_builder(seed in 0u64..500) {
        let mut s = Schedule::new(Corpus::random(seed));
        s.workload(&LiveWorkloadConfig {
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
        s.checkpoint().stream(random_queries, seed ^ 0xFACE, 8).reopen();
        s.stream(random_queries, seed ^ 0xFACE, 8).checkpoint();
        run(Shape(Durable, InProcess, 1, 0), &s)?;
    }
}
