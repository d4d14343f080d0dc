//! The tombstone edge cases: deleting a component's last document,
//! deleting a bridge document (connectivity split), re-adding a deleted
//! keyword, and a wire-shipped deletion of an id no replica has seen.
//! And a durable engine through mutations, restarts and compaction.
//! Byte-identity of live engines and fleets through appends, deletions,
//! updates and compactions lives in `identity.rs`.

mod common;
mod harness;

use common::{config, Corpus, Exec, Rig, Shape, State, Wire};
use harness::{mutating, Schedule};
use proptest::prelude::*;
use s3_core::{InstanceBuilder, Query, SearchConfig};
use s3_datasets::workload::live_workload;
use s3_engine::LiveEngine;
use s3_text::Language;

/// A two-component corpus: `alpha`-docs by an author the seeker follows,
/// and one isolated `omega` doc in a component of its own.
fn two_components() -> (InstanceBuilder, s3_core::UserId) {
    let mut b = InstanceBuilder::new(Language::English);
    let author = b.add_user();
    let seeker = b.add_user();
    b.add_social_edge(seeker, author, 1.0);
    for text in ["alpha beta", "alpha gamma"] {
        let kws = b.analyze(text);
        let mut doc = s3_doc::DocBuilder::new("post");
        doc.set_content(doc.root(), kws);
        b.add_document(doc, Some(author));
    }
    let kws = b.analyze("omega");
    let mut doc = s3_doc::DocBuilder::new("post");
    doc.set_content(doc.root(), kws);
    b.add_document(doc, Some(seeker));
    (b, seeker)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Durable engines, unsharded and at 2 shards: a checkpoint between
    /// batches (so recovery reads a snapshot *and* a WAL tail), a refused
    /// batch that never reaches the WAL, a restart, a compaction that
    /// checkpoints before it publishes, a restart with nothing to replay,
    /// a checkpoint that rewrites the same bytes, and a shrink.
    #[test]
    fn mutated_durable_engine_survives_restart_and_compaction(seed in 0u64..500) {
        let mut s = Schedule::new(Corpus::random(seed));
        let steps = live_workload(&s.cold, &mutating(seed ^ 0xDEAD, 2));
        s.step(&steps[0]).checkpoint().step(&steps[1]).reject().reopen().requery();
        s.compact().reopen().checkpoint().requery().shrink();
        for (shards, cache) in [(1, 64), (2, 0)] {
            harness::run(Shape(State::Durable, Exec::InProcess, shards, cache), &s)?;
        }
    }
}

fn run(
    engine: &LiveEngine,
    seeker: s3_core::UserId,
    text: &str,
    k: usize,
) -> std::sync::Arc<s3_core::TopKResult> {
    let kws = engine.instance().query_keywords(text);
    engine.query(&Query::new(seeker, kws, k))
}

#[test]
fn deleting_a_components_last_document_empties_it() {
    let (b, seeker) = two_components();
    let engine = LiveEngine::new(b, config(64));
    assert_eq!(run(&engine, seeker, "omega", 5).hits.len(), 1);

    // TreeId(2) is the only document of the seeker's own component.
    let mut batch = s3_core::IngestBatch::new();
    batch.delete_document(s3_doc::TreeId(2));
    engine.ingest(&batch);
    assert!(run(&engine, seeker, "omega", 5).hits.is_empty(), "the component died with its doc");
    assert_eq!(run(&engine, seeker, "alpha", 5).hits.len(), 2, "other components unaffected");

    // Compaction reclaims the empty component without disturbing results.
    engine.compact().expect("compact");
    assert!(run(&engine, seeker, "omega", 5).hits.is_empty());
    assert_eq!(run(&engine, seeker, "alpha", 5).hits.len(), 2);
}

#[test]
fn deleting_a_bridge_document_splits_the_component() {
    // doc0 (author) ← comment doc2 (also by author) → targets doc1
    // (seeker): the comment bridges the two posters' content into one
    // component. Deleting it must split them — and the live engine must
    // agree byte-for-byte with a cold replay of the same events.
    let build = || {
        let mut b = InstanceBuilder::new(Language::English);
        let author = b.add_user();
        let seeker = b.add_user();
        b.add_social_edge(seeker, author, 1.0);
        let kws = b.analyze("alpha beta");
        let mut doc = s3_doc::DocBuilder::new("post");
        doc.set_content(doc.root(), kws);
        b.add_document(doc, Some(author));
        let kws = b.analyze("alpha gamma");
        let mut doc = s3_doc::DocBuilder::new("post");
        doc.set_content(doc.root(), kws);
        let mine = b.add_document(doc, Some(seeker));
        let kws = b.analyze("delta bridge");
        let mut doc = s3_doc::DocBuilder::new("comment");
        doc.set_content(doc.root(), kws);
        let bridge = b.add_document(doc, Some(author));
        let target = b.doc_root(mine);
        b.add_comment_edge(bridge, target);
        (b, seeker, bridge)
    };
    let (b, seeker, bridge) = build();
    let (mut reference, _, _) = build();
    let engine = LiveEngine::new(b, config(64));
    let components = |e: &LiveEngine| e.instance().graph().components().len();
    let before = components(&engine);

    let mut batch = s3_core::IngestBatch::new();
    batch.delete_document(bridge);
    engine.ingest(&batch);
    let prev = reference.snapshot();
    reference.apply(&prev, &batch);

    let after = components(&engine);
    assert!(after > before, "components split: {before} -> {after}");
    let cold = reference.snapshot();
    for text in ["alpha", "delta"] {
        let q = Query::new(seeker, cold.query_keywords(text), 5);
        let got = engine.query(&q);
        let want = cold.search(&q, &SearchConfig::default());
        assert_eq!(got.hits, want.hits);
        assert_eq!(got.candidate_docs, want.candidate_docs);
    }
}

#[test]
fn a_deleted_keyword_can_be_readded() {
    let (b, seeker) = two_components();
    let engine = LiveEngine::new(b, config(64));

    let mut batch = s3_core::IngestBatch::new();
    batch.delete_document(s3_doc::TreeId(2));
    engine.ingest(&batch);
    assert!(run(&engine, seeker, "omega", 5).hits.is_empty());

    // Re-add a document with the tombstoned keyword: the analyzer maps
    // "omega" back to the same stable KeywordId and results return.
    let mut batch = s3_core::IngestBatch::new();
    let mut doc = s3_core::IngestDoc::new("post");
    doc.set_text(doc.root(), "omega again");
    batch.add_document(doc, Some(s3_core::UserRef::Existing(seeker)));
    engine.ingest(&batch);
    let res = run(&engine, seeker, "omega", 5);
    assert_eq!(res.hits.len(), 1, "the re-added keyword is searchable again");
}

#[test]
fn wire_deletion_of_an_unseen_id_is_a_clean_no_op() {
    let corpus = Corpus::random(7);
    let mut rig = Rig::open(Shape(State::Live, Exec::Fleet(Wire::Local), 1, 0), &corpus);

    // Delete a tree no replica has ever allocated: the batch ships, every
    // replica treats it as an idempotent no-op, and the fleet stays in
    // lock-step with the untouched reference.
    let mut batch = s3_core::IngestBatch::new();
    batch.delete_document(s3_doc::TreeId(9999));
    batch.delete_user(s3_core::UserId(9999));
    rig.ingest(&batch).expect("unseen-id deletions must not error");

    let reference = &corpus.base;
    let q = Query::new(s3_core::UserId(0), reference.query_keywords("w0 w1"), 5);
    let got = rig.engine().query(&q).expect("fleet query");
    let want = reference.search(&q, &SearchConfig::default());
    assert_eq!(got.hits, want.hits);
    assert_eq!(got.candidate_docs, want.candidate_docs);
    rig.close();
}
