//! One decoder property for every type the codec writes: each wire
//! message body, a shipped or journaled `IngestBatch`, and the snapshot's
//! builder block.
//!
//! Arbitrary bytes, and one-byte flips of a valid encoding, must decode
//! to an error or to a value `v` whose encoding decodes again to a value
//! with the same encoding — never a panic. The property does not ask for
//! "the same bytes as the input": a non-canonical varint (`0x80 0x00`)
//! decodes and re-encodes shorter. Decoding in place over a value that
//! already holds another must give the same result as decoding into a
//! fresh one (the reused-buffer path the fleet's round loop takes).
//!
//! Behind the CRCs: a snapshot or WAL record flipped and resealed under a
//! fresh checksum reaches the decoder, the cold build and the replay, and
//! still yields a typed error or a working instance, never a panic.

mod common;

use common::random_builder;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s3_core::{
    read_snapshot, write_snapshot, IngestBatch, InstanceBuilder, TagId, UserId, WAL_VERSION,
};
use s3_datasets::workload::{live_workload, LiveWorkloadConfig};
use s3_doc::TreeId;
use s3_engine::{EngineConfig, LiveEngine};
use s3_snap::{Codec, SnapReader};
use s3_wire::{
    encode_ingest, CompactAck, IngestAck, RoundReply, SelectionEntry, Snapshot, SnapshotAck,
    SnapshotChunk, Start, StopCheck,
};

/// Decode `bytes` as a `T`; on success the value's encoding must decode
/// again to the same encoding, and decoding in place over a value that
/// already holds one must agree.
fn decodes_stably<T: Codec + Default>(bytes: &[u8]) -> Result<bool, TestCaseError> {
    let mut fresh = T::default();
    if fresh.decode_into(&mut SnapReader::new(bytes)).is_err() {
        return Ok(false);
    }
    let mut once = Vec::new();
    fresh.encode(&mut once);
    let mut again = T::default();
    let redecoded = again.decode_into(&mut SnapReader::new(&once));
    prop_assert!(redecoded.is_ok(), "a decoded value's encoding must decode: {redecoded:?}");
    let mut twice = Vec::new();
    again.encode(&mut twice);
    prop_assert_eq!(&twice, &once, "re-encoding must be stable");

    let reused = again.decode_into(&mut SnapReader::new(bytes));
    prop_assert!(reused.is_ok(), "an in-place decode must agree with a fresh one: {reused:?}");
    let mut in_place = Vec::new();
    again.encode(&mut in_place);
    prop_assert_eq!(&in_place, &once, "an in-place decode must agree with a fresh one");
    Ok(true)
}

/// The property over `value`'s encoding, one byte flip of it, and as
/// many bytes of noise.
fn decoder_holds<T: Codec + Default>(value: &T, rng: &mut StdRng) -> Result<(), TestCaseError> {
    let mut valid = Vec::new();
    value.encode(&mut valid);
    prop_assert!(decodes_stably::<T>(&valid)?, "a valid encoding must decode");
    let mut flipped = valid.clone();
    let at = rng.gen_range(0..flipped.len());
    flipped[at] ^= rng.gen_range(1..=255u8);
    decodes_stably::<T>(&flipped)?;
    let noise: Vec<u8> =
        (0..rng.gen_range(0..=valid.len())).map(|_| rng.gen_range(0u8..=255)).collect();
    decodes_stably::<T>(&noise)?;
    Ok(())
}

fn any_f64(rng: &mut StdRng) -> f64 {
    f64::from_bits(rng.gen())
}

fn ids(rng: &mut StdRng) -> Vec<u32> {
    (0..rng.gen_range(0..6)).map(|_| rng.gen()).collect()
}

/// A small builder with one tombstone of each kind.
fn builder_with_tombstones(seed: u64) -> InstanceBuilder {
    let (mut b, _) = random_builder(seed);
    b.delete_user(UserId((seed % 5) as u32));
    b.delete_document(TreeId((seed % 7) as u32));
    b.delete_tag(TagId(0));
    b
}

/// One generated ingest batch, shaped like live traffic (documents,
/// tags, comments, a deletion and an update).
fn live_batch(builder: &InstanceBuilder, seed: u64) -> IngestBatch {
    let config = LiveWorkloadConfig {
        batches: 1,
        deletes_per_batch: 1,
        updates_per_batch: 1,
        seed,
        ..LiveWorkloadConfig::default()
    };
    live_workload(&builder.snapshot(), &config).remove(0).batch
}

fn test_config() -> EngineConfig {
    EngineConfig::builder().threads(1).cache_capacity(0).build()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Every message body, an ingest batch and the builder block.
    #[test]
    fn every_decoder_fails_cleanly_or_re_encodes_stably(seed in 0u64..1u64 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let r = &mut rng;
        let start = Start { seeker: r.gen(), k: r.gen(), keywords: ids(r) };
        decoder_holds(&start, r)?;
        let reply = RoundReply {
            no_match: r.gen(),
            iteration: r.gen(),
            threshold: any_f64(r),
            frontier_closed: r.gen(),
            candidates: r.gen(),
            rejected: r.gen(),
            components: r.gen(),
            pruned: r.gen(),
            admitted: (0..r.gen_range(0..6)).map(|_| (r.gen(), r.gen())).collect(),
            selection: (0..r.gen_range(0..6))
                .map(|_| SelectionEntry {
                    index: r.gen(),
                    doc: r.gen(),
                    lower: any_f64(r),
                    upper: any_f64(r),
                })
                .collect(),
        };
        decoder_holds(&reply, r)?;
        let stop = StopCheck { merged_full: r.gen(), min_lower: any_f64(r), selected: ids(r) };
        decoder_holds(&stop, r)?;
        let vote = any_f64(r);
        decoder_holds(&vote, r)?;
        let (detached, epoch, nodes, touched) = (r.gen(), r.gen(), r.gen(), r.gen());
        decoder_holds(&IngestAck { detached, epoch, nodes, touched }, r)?;
        let num_shards = r.gen_range(1..=u32::MAX);
        let header = Snapshot {
            num_shards,
            shard: r.gen_range(0..num_shards),
            total_len: r.gen(),
            num_chunks: r.gen(),
        };
        decoder_holds(&header, r)?;
        let bytes = ids(r).iter().map(|&b| b as u8).collect();
        decoder_holds(&SnapshotChunk { index: r.gen(), bytes }, r)?;
        let (nodes, users, docs, connections) = (r.gen(), r.gen(), r.gen(), r.gen());
        decoder_holds(&SnapshotAck { nodes, users, docs, connections }, r)?;
        let compact = CompactAck {
            epoch: r.gen(),
            nodes: r.gen(),
            users: r.gen(),
            docs: r.gen(),
            connections: r.gen(),
        };
        decoder_holds(&compact, r)?;

        let builder = builder_with_tombstones(seed % 64);
        decoder_holds(&live_batch(&builder, seed), r)?;
        decoder_holds(&builder, r)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// A snapshot payload byte flipped under a resealed CRC: `Err`, or an
    /// instance cold-built from a different valid builder.
    #[test]
    fn a_resealed_snapshot_loads_or_fails_cleanly(seed in 0u64..1u64 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let builder = builder_with_tombstones(seed % 64);
        let mut bytes = write_snapshot(&builder, &builder.snapshot());
        let at = rng.gen_range(14..bytes.len());
        bytes[at] ^= rng.gen_range(1..=255u8);
        let crc = s3_snap::crc32(&bytes[14..]);
        bytes[10..14].copy_from_slice(&crc.to_le_bytes());
        if let Ok((loaded, instance)) = read_snapshot(&bytes) {
            prop_assert_eq!(loaded.num_users(), instance.num_users());
        }
    }

    /// A WAL record byte flipped under a resealed CRC: `open` either
    /// replays the record or fails with a typed error.
    #[test]
    fn a_resealed_wal_record_replays_or_fails_cleanly(seed in 0u64..1u64 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut record = Vec::new();
        encode_ingest(&live_batch(&random_builder(seed % 64).0, seed), &mut record);
        let at = rng.gen_range(0..record.len());
        record[at] ^= rng.gen_range(1..=255u8);

        let mut wal = s3_core::wal::WAL_MAGIC.to_vec();
        wal.extend_from_slice(&WAL_VERSION.to_le_bytes());
        wal.extend_from_slice(&(record.len() as u32).to_le_bytes());
        wal.extend_from_slice(&s3_snap::crc32(&record).to_le_bytes());
        wal.extend_from_slice(&record);
        let dir = std::env::temp_dir()
            .join(format!("s3-decoders-wal-{}-{seed}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create test dir");
        std::fs::write(s3_engine::persist::wal_path(&dir), &wal).expect("write the WAL");
        let opened = LiveEngine::open(&dir, random_builder(seed % 64).0, test_config());
        std::fs::remove_dir_all(&dir).ok();
        if let Ok((_, report)) = opened {
            prop_assert_eq!(report.replayed, 1, "an intact record replays");
        }
    }
}
