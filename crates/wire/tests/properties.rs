//! Wire-format properties: (1) arbitrary byte strings never panic the
//! decoder — every outcome is a value or a `WireError`, never UB or an
//! abort; (2) encode→decode is the identity for every message type over
//! arbitrary contents (candidate pools, selections, ingest batches);
//! (3) framing honors the length prefix and the `MAX_FRAME` cap; (4) the
//! loopback duplex keeps a socket's contract.
//!
//! Structured inputs are generated from a per-case seed with `StdRng`
//! (the proptest shim has no combinators), so every failure reproduces.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s3_core::{
    DocRef, FragRef, IngestBatch, IngestDoc, TagId, TagRef, TagSubjectRef, UserId, UserRef,
};
use s3_doc::{DocNodeId, LocalNodeId, TreeId};
use s3_wire::{
    decode_ingest, encode_ingest, loopback_pair, peek_tag, read_frame, write_frame, CompactAck,
    IngestAck, Message, RequestBuf, RoundReply, SelectionEntry, Start, StopCheck, WireError,
    MAX_FRAME,
};

// ---- generators ---------------------------------------------------------

/// Any bit pattern except NaN (NaN breaks the `PartialEq` identity
/// assertion, not the codec — `f64_bits_survive` covers those bits).
fn wire_f64(rng: &mut StdRng) -> f64 {
    loop {
        let f = f64::from_bits(rng.gen::<u64>());
        if !f.is_nan() {
            return f;
        }
    }
}

fn word(rng: &mut StdRng, max_len: usize) -> String {
    let n = rng.gen_range(0..=max_len);
    (0..n).map(|_| rng.gen_range(b'a'..=b'z') as char).collect()
}

fn user_ref(rng: &mut StdRng) -> UserRef {
    if rng.gen_bool(0.5) {
        UserRef::Existing(UserId(rng.gen()))
    } else {
        UserRef::New(rng.gen::<u64>() as usize)
    }
}

fn doc_ref(rng: &mut StdRng) -> DocRef {
    if rng.gen_bool(0.5) {
        DocRef::Existing(TreeId(rng.gen()))
    } else {
        DocRef::New(rng.gen::<u64>() as usize)
    }
}

fn frag_ref(rng: &mut StdRng) -> FragRef {
    if rng.gen_bool(0.5) {
        FragRef::Existing(DocNodeId(rng.gen()))
    } else {
        FragRef::New { doc: rng.gen::<u64>() as usize, node: LocalNodeId(rng.gen()) }
    }
}

fn tag_subject(rng: &mut StdRng) -> TagSubjectRef {
    match rng.gen_range(0..3) {
        0 => TagSubjectRef::Frag(frag_ref(rng)),
        1 => TagSubjectRef::Tag(TagRef::Existing(TagId(rng.gen()))),
        _ => TagSubjectRef::Tag(TagRef::New(rng.gen::<u64>() as usize)),
    }
}

/// A structurally valid document tree: node 0 is the root, every later
/// node's parent precedes it, texts address distinct existing nodes
/// (`IngestDoc::set_text` replaces repeats, so duplicate text nodes would
/// not round-trip verbatim).
fn ingest_doc(rng: &mut StdRng) -> IngestDoc {
    let n = rng.gen_range(1..6usize);
    let mut doc = IngestDoc::new(word(rng, 6));
    for i in 1..n {
        let parent = LocalNodeId(rng.gen_range(0..i) as u32);
        doc.child(parent, word(rng, 6));
    }
    let mut text_nodes: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(0.5)).collect();
    // Texts replay in arbitrary node order.
    for i in (1..text_nodes.len()).rev() {
        text_nodes.swap(i, rng.gen_range(0..=i));
    }
    for node in text_nodes {
        doc.set_text(LocalNodeId(node), word(rng, 8));
    }
    doc
}

fn ingest_batch(rng: &mut StdRng) -> IngestBatch {
    let mut batch = IngestBatch::new();
    // Small: every user is one `add_user` call.
    for _ in 0..rng.gen_range(0..20u64) {
        batch.add_user();
    }
    for _ in 0..rng.gen_range(0..5usize) {
        batch.add_social_edge(user_ref(rng), user_ref(rng), wire_f64(rng));
    }
    for _ in 0..rng.gen_range(0..4usize) {
        let poster = rng.gen_bool(0.7).then(|| user_ref(rng));
        batch.add_document(ingest_doc(rng), poster);
    }
    for _ in 0..rng.gen_range(0..4usize) {
        batch.add_comment(doc_ref(rng), frag_ref(rng));
    }
    for _ in 0..rng.gen_range(0..4usize) {
        let keyword = rng.gen_bool(0.7).then(|| word(rng, 5));
        batch.add_tag(tag_subject(rng), user_ref(rng), keyword.as_deref());
    }
    for _ in 0..rng.gen_range(0..4usize) {
        batch.delete_user(UserId(rng.gen()));
    }
    for _ in 0..rng.gen_range(0..4usize) {
        batch.delete_document(TreeId(rng.gen()));
    }
    for _ in 0..rng.gen_range(0..4usize) {
        batch.delete_tag(TagId(rng.gen()));
    }
    for _ in 0..rng.gen_range(0..4usize) {
        batch.remove_social_edge(UserId(rng.gen()), UserId(rng.gen()));
    }
    for _ in 0..rng.gen_range(0..4usize) {
        batch.remove_comment(TreeId(rng.gen()), DocNodeId(rng.gen()));
    }
    batch
}

fn round_reply(rng: &mut StdRng) -> RoundReply {
    RoundReply {
        no_match: rng.gen(),
        iteration: rng.gen(),
        threshold: wire_f64(rng),
        frontier_closed: rng.gen(),
        candidates: rng.gen(),
        rejected: rng.gen(),
        components: rng.gen(),
        pruned: rng.gen(),
        admitted: (0..rng.gen_range(0..8usize)).map(|_| (rng.gen(), rng.gen())).collect(),
        selection: (0..rng.gen_range(0..8usize))
            .map(|_| SelectionEntry {
                index: rng.gen(),
                doc: rng.gen(),
                lower: wire_f64(rng),
                upper: wire_f64(rng),
            })
            .collect(),
    }
}

/// One random message of any of the eleven protocol kinds (snapshot
/// shipping aside).
fn message(rng: &mut StdRng) -> Message {
    match rng.gen_range(0..11) {
        0 => Message::Start(Start {
            seeker: rng.gen(),
            k: rng.gen(),
            keywords: (0..rng.gen_range(0..6usize)).map(|_| rng.gen()).collect(),
        }),
        1 => Message::NextRound,
        2 => Message::StopCheck(StopCheck {
            merged_full: rng.gen(),
            min_lower: wire_f64(rng),
            selected: (0..rng.gen_range(0..6usize)).map(|_| rng.gen()).collect(),
        }),
        3 => Message::EndQuery,
        4 => Message::Ingest(ingest_batch(rng)),
        5 => Message::Shutdown,
        6 => Message::Round(round_reply(rng)),
        7 => Message::Vote(wire_f64(rng)),
        8 => Message::IngestAck(IngestAck {
            detached: rng.gen(),
            epoch: rng.gen(),
            nodes: rng.gen(),
            touched: rng.gen(),
        }),
        9 => Message::Compact,
        _ => Message::CompactAck(CompactAck {
            epoch: rng.gen(),
            nodes: rng.gen(),
            users: rng.gen(),
            docs: rng.gen(),
            connections: rng.gen(),
        }),
    }
}

// ---- properties ---------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Arbitrary bytes never panic any decode entry point.
    #[test]
    fn arbitrary_bytes_never_panic(seed in 0u64..1u64 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.gen_range(0..256usize);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
        let _ = peek_tag(&bytes);
        let _ = Message::decode(&bytes);
        let _ = RequestBuf::default().read(&bytes);
        let mut reply = RoundReply::default();
        let _ = reply.decode_into(&bytes);
        let mut ingest = IngestBatch::default();
        let _ = decode_ingest(&bytes, &mut ingest);
        let mut buf = Vec::new();
        let _ = read_frame(&mut bytes.as_slice(), &mut buf);
    }

    /// Flipping any one byte of a valid encoding never panics either (the
    /// adversarial neighborhood of real traffic — much denser in
    /// near-valid prefixes than uniform noise).
    #[test]
    fn corrupted_frames_never_panic(seed in 0u64..1u64 << 32) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
        let mut frame = Vec::new();
        message(&mut rng).encode(&mut frame);
        let i = rng.gen_range(0..frame.len());
        frame[i] ^= rng.gen_range(1..=255u8);
        let _ = Message::decode(&frame);
        let _ = RequestBuf::default().read(&frame);
    }

    /// encode → decode is the identity for every message type.
    #[test]
    fn encode_decode_is_identity(seed in 0u64..1u64 << 32) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1D);
        let msg = message(&mut rng);
        let mut frame = Vec::new();
        msg.encode(&mut frame);
        let back = Message::decode(&frame).expect("own encoding must decode");
        prop_assert_eq!(back, msg);
    }

    /// Ingest batches survive the full batch → frame → batch round trip
    /// (the shape shipped to every shard replica and journaled to the WAL).
    #[test]
    fn ingest_batch_round_trips(seed in 0u64..1u64 << 32) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C4);
        let batch = ingest_batch(&mut rng);
        let mut frame = Vec::new();
        encode_ingest(&batch, &mut frame);
        let mut again = IngestBatch::default();
        decode_ingest(&frame, &mut again).expect("own encoding must decode");
        prop_assert_eq!(again, batch);
    }

    /// Framing: what `write_frame` produces, `read_frame` returns intact.
    #[test]
    fn frames_round_trip(seed in 0u64..1u64 << 32) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF2A);
        let len = rng.gen_range(0..512usize);
        let payload: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
        let mut stream = Vec::new();
        write_frame(&mut stream, &payload).expect("write to Vec");
        let mut out = Vec::new();
        read_frame(&mut stream.as_slice(), &mut out).expect("read own frame");
        prop_assert_eq!(out, payload);
    }

    /// f64 round-trips bit-for-bit — including NaN payloads, which the
    /// identity tests above exclude only because of `PartialEq`.
    #[test]
    fn f64_bits_survive(bits in 0u64..=u64::MAX) {
        let reply = RoundReply { threshold: f64::from_bits(bits), ..RoundReply::default() };
        let mut frame = Vec::new();
        reply.encode(&mut frame);
        let mut back = RoundReply::default();
        back.decode_into(&frame).expect("own encoding must decode");
        prop_assert_eq!(back.threshold.to_bits(), bits);
    }
}

#[test]
fn oversized_declared_length_is_rejected() {
    let mut stream = Vec::new();
    stream.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
    stream.extend_from_slice(&[0u8; 16]);
    let mut out = Vec::new();
    match read_frame(&mut stream.as_slice(), &mut out) {
        Err(WireError::FrameTooLarge(n)) => assert_eq!(n, MAX_FRAME + 1),
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
}

#[test]
fn wrong_version_is_rejected() {
    let mut frame = Vec::new();
    Message::Shutdown.encode(&mut frame);
    frame[0] ^= 0x40;
    match Message::decode(&frame) {
        Err(WireError::Version(_)) => {}
        other => panic!("expected Version error, got {other:?}"),
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut frame = Vec::new();
    Message::Vote(1.0).encode(&mut frame);
    frame.push(0);
    match Message::decode(&frame) {
        Err(WireError::TrailingBytes(1)) => {}
        other => panic!("expected TrailingBytes(1), got {other:?}"),
    }
}

/// Reads block until bytes arrive, a hangup reads as EOF once the
/// buffered bytes are drained, and a write to a hung-up peer fails with
/// `BrokenPipe`.
#[test]
fn loopback_behaves_like_a_socket() {
    use std::io::{Read, Write};
    let (mut a, mut b) = loopback_pair();
    let reader = std::thread::spawn(move || {
        let mut got = Vec::new();
        b.read_to_end(&mut got).map(|_| (got, b))
    });
    a.write_all(b"ping").unwrap();
    a.write_all(b"pong").unwrap();
    drop(a);
    let (got, mut b) = reader.join().unwrap().unwrap();
    assert_eq!(got, b"pingpong");
    assert_eq!(b.write(b"x").unwrap_err().kind(), std::io::ErrorKind::BrokenPipe);
}
