//! Golden bytes of the three binary formats: one wire frame of each of
//! the fourteen message kinds, the WAL file after one durable ingest, and
//! one snapshot. Each is pinned by its length and FNV-1a-64 hash, so any
//! change to an encoder shows here before it reaches a peer or a disk.
//!
//! A change that moves one of these pins is a format change: it must bump
//! the matching version (`WIRE_VERSION`, `WAL_VERSION` or
//! `SNAPSHOT_VERSION`) and then re-pin. A WAL record *is* a
//! `WIRE_VERSION` ingest frame, so a bump of `WIRE_VERSION` must also bump
//! `WAL_VERSION`: a journal written by the old frame format would
//! otherwise replay through the new decoder.

use s3_core::{
    write_snapshot, DocRef, FragRef, IngestBatch, IngestDoc, InstanceBuilder, TagRef, TagSubject,
    TagSubjectRef, UserId, UserRef,
};
use s3_doc::{DocBuilder, DocNodeId, LocalNodeId, TreeId};
use s3_engine::{EngineConfig, LiveEngine};
use s3_text::Language;
use s3_wire::{
    CompactAck, IngestAck, Message, RoundReply, SelectionEntry, Snapshot, SnapshotAck,
    SnapshotChunk, Start, StopCheck, WireIngest,
};

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// `(length, hash)` of `bytes`, the form every pin below is written in.
fn pin(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fnv1a64(bytes))
}

/// A batch that fills every list and uses every reference variant: new
/// and existing users, documents, fragments and tags, a poster-less
/// document, an endorsement, and one retraction of each kind.
fn full_batch() -> IngestBatch {
    let mut b = IngestBatch::new();
    let u0 = b.add_user();
    b.add_user();
    b.add_social_edge(u0, UserRef::Existing(UserId(3)), 0.625);
    let mut doc = IngestDoc::new("post");
    let sec = doc.child(doc.root(), "sec");
    doc.child(sec, "para");
    doc.set_text(sec, "universities and degrees");
    doc.set_text(doc.root(), "a fresh degree");
    let d0 = b.add_document(doc, Some(u0));
    b.add_document(IngestDoc::new("reply"), Some(UserRef::Existing(UserId(1))));
    b.add_document(IngestDoc::new("bare"), None);
    b.add_comment(d0, FragRef::Existing(DocNodeId(5)));
    b.add_comment(DocRef::Existing(TreeId(2)), FragRef::New { doc: 1, node: LocalNodeId(0) });
    let frag = FragRef::New { doc: 0, node: LocalNodeId(1) };
    let t0 = b.add_tag(TagSubjectRef::Frag(frag), u0, Some("univers"));
    b.add_tag(TagSubjectRef::Tag(t0), UserRef::Existing(UserId(2)), None);
    b.add_tag(TagSubjectRef::Tag(TagRef::Existing(s3_core::TagId(4))), u0, Some("degre"));
    b.delete_user(UserId(7));
    b.delete_document(TreeId(8));
    b.delete_tag(s3_core::TagId(9));
    b.remove_social_edge(UserId(1), UserId(2));
    b.remove_comment(TreeId(3), DocNodeId(11));
    b
}

/// One frame of each kind, every field away from its default.
fn frames() -> Vec<(&'static str, Vec<u8>)> {
    let messages = [
        ("start", Message::Start(Start { seeker: 300, k: 5, keywords: vec![1, 200, 70_000] })),
        ("next_round", Message::NextRound),
        (
            "stop_check",
            Message::StopCheck(StopCheck {
                merged_full: true,
                min_lower: 0.25,
                selected: vec![0, 9],
            }),
        ),
        ("end_query", Message::EndQuery),
        ("shutdown", Message::Shutdown),
        (
            "snapshot",
            Message::Snapshot(Snapshot {
                num_shards: 4,
                shard: 2,
                total_len: 1 << 20,
                num_chunks: 3,
            }),
        ),
        (
            "snapshot_chunk",
            Message::SnapshotChunk(SnapshotChunk { index: 2, bytes: b"S3KSNAP\0tail".to_vec() }),
        ),
        ("compact", Message::Compact),
        (
            "round",
            Message::Round(RoundReply {
                no_match: true,
                iteration: 7,
                threshold: 1.5,
                frontier_closed: true,
                candidates: 40,
                rejected: 3,
                components: 12,
                pruned: 2,
                admitted: vec![(1, 17), (4, 300)],
                selection: vec![
                    SelectionEntry { index: 0, doc: 17, lower: 0.5, upper: 0.75 },
                    SelectionEntry { index: 3, doc: 300, lower: 0.125, upper: 1.0 },
                ],
            }),
        ),
        ("vote", Message::Vote(0.375)),
        (
            "ingest_ack",
            Message::IngestAck(IngestAck { detached: true, epoch: 3, nodes: 999, touched: 4 }),
        ),
        (
            "snapshot_ack",
            Message::SnapshotAck(SnapshotAck {
                nodes: 999,
                users: 40,
                docs: 70,
                connections: 1234,
            }),
        ),
        (
            "compact_ack",
            Message::CompactAck(CompactAck {
                epoch: 5,
                nodes: 800,
                users: 39,
                docs: 60,
                connections: 1000,
            }),
        ),
    ];
    let mut frames: Vec<(&'static str, Vec<u8>)> = messages
        .into_iter()
        .map(|(name, msg)| {
            let mut out = Vec::new();
            msg.encode(&mut out);
            (name, out)
        })
        .collect();
    let mut ingest = Vec::new();
    WireIngest::from_batch(&full_batch()).encode(&mut ingest);
    frames.push(("ingest", ingest));
    frames
}

/// A small instance with users (one named by URI), social edges, three
/// documents, a comment, a keyword tag, a tag on a tag, and one tombstone
/// of each kind.
fn fixed_builder() -> InstanceBuilder {
    let mut b = InstanceBuilder::new(Language::English);
    let u0 = b.add_user_with_uri("ex:u0");
    let u1 = b.add_user();
    let u2 = b.add_user();
    let u3 = b.add_user();
    b.add_social_edge(u1, u0, 0.7);
    b.add_social_edge(u0, u2, 0.25);
    let kws = b.analyze("universities and degrees");
    let mut doc = DocBuilder::new("post");
    let child = doc.child(doc.root(), "sec");
    doc.set_content(child, kws);
    let t = b.add_document(doc, Some(u0));
    let root = b.doc_root(t);
    let c = b.add_document(DocBuilder::new("reply"), Some(u1));
    b.add_comment_edge(c, root);
    let gone = b.add_document(DocBuilder::new("draft"), Some(u3));
    let kw = b.analyzer_mut().vocabulary_mut().intern("univers");
    let a = b.add_tag(TagSubject::Frag(root), u1, Some(kw));
    b.add_tag(TagSubject::Tag(a), u0, None);
    let retracted = b.add_tag(TagSubject::Frag(root), u2, None);
    assert!(b.delete_user(u3));
    assert!(b.delete_document(gone));
    assert!(b.delete_tag(retracted));
    b
}

/// A batch valid against [`fixed_builder`]: a new user following an
/// existing one, a posted document commenting on an existing root, and a
/// tag on the new document.
fn wal_batch() -> IngestBatch {
    let mut b = IngestBatch::new();
    let u = b.add_user();
    b.add_social_edge(u, UserRef::Existing(UserId(0)), 0.5);
    let mut doc = IngestDoc::new("post");
    let sec = doc.child(doc.root(), "sec");
    doc.set_text(sec, "fresh degrees");
    let d = b.add_document(doc, Some(u));
    b.add_comment(d, FragRef::Existing(DocNodeId(0)));
    let frag = FragRef::New { doc: 0, node: sec };
    b.add_tag(TagSubjectRef::Frag(frag), UserRef::Existing(UserId(1)), Some("degre"));
    b
}

#[test]
fn every_message_kind_keeps_its_bytes() {
    let want: [(&str, usize, u64); 14] = [
        ("start", 12, 0xc8c3_6f88_d575_c9c6),
        ("next_round", 2, 0x0824_ee07_b4df_dfe3),
        ("stop_check", 14, 0x22c8_978d_6736_1923),
        ("end_query", 2, 0x0824_f407_b4df_ea15),
        ("shutdown", 2, 0x0824_f207_b4df_e6af),
        ("snapshot", 8, 0xea6d_904f_1f2d_720b),
        ("snapshot_chunk", 16, 0x325b_f353_6142_e25c),
        ("compact", 2, 0x0824_f707_b4df_ef2e),
        ("round", 61, 0x4012_fc90_67d4_66a6),
        ("vote", 10, 0x5147_a0c5_a848_b25f),
        ("ingest_ack", 7, 0x4f66_2a11_2afc_5d9b),
        ("snapshot_ack", 8, 0xf878_bfa4_9c2e_d501),
        ("compact_ack", 9, 0x00ca_89b3_29c7_5c2c),
        ("ingest", 156, 0x98f8_bfd9_2d57_0d59),
    ];
    let got: Vec<(&str, usize, u64)> = frames()
        .iter()
        .map(|(name, bytes)| {
            let (len, hash) = pin(bytes);
            (*name, len, hash)
        })
        .collect();
    assert_eq!(got, want, "a frame's bytes changed");
}

#[test]
fn the_wal_after_one_durable_ingest_keeps_its_bytes() {
    let dir = std::env::temp_dir().join(format!("s3-golden-wal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create test dir");
    let config = EngineConfig::builder().threads(1).cache_capacity(0).build();
    {
        let (live, _) = LiveEngine::open(&dir, fixed_builder(), config).expect("open");
        live.try_ingest(&wal_batch()).expect("journal and apply");
    }
    let bytes = std::fs::read(s3_engine::persist::wal_path(&dir)).expect("read the WAL back");
    std::fs::remove_dir_all(&dir).ok();
    let (len, hash) = pin(&bytes);
    assert_eq!((len, hash), (90, 0x3deb_141f_3e0f_773f), "WAL bytes changed");
}

#[test]
fn a_snapshot_with_every_tombstone_keeps_its_bytes() {
    let builder = fixed_builder();
    let bytes = write_snapshot(&builder, &builder.snapshot());
    let (len, hash) = pin(&bytes);
    assert_eq!((len, hash), (471, 0x1497_4362_a4be_5f90), "snapshot bytes changed");
}
