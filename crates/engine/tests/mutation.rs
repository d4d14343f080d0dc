//! The mutation acceptance property: after **any** interleaving of
//! appends, deletions, updates and compactions, the live engines answer
//! byte-identically to a cold rebuild of the same event history —
//! unsharded, sharded `{1, 2, 4}`, a fleet over the `Local`, `Loopback`
//! and unix-`Socket` transports, and across a durable snapshot + WAL
//! restart.
//!
//! Two reference levels anchor the property:
//!
//! * **Pre-compaction**: live ≡ a cold replay of the *full* event log,
//!   tombstones included (dead state skipped identically on both sides).
//! * **Post-compaction**: live ≡ the compaction of the same reference
//!   builder; `s3-core`'s `compact_equals_cold_build_of_survivors` ties
//!   that in turn to a true cold build of the surviving events only.
//!
//! Plus the tombstone edge cases: deleting a component's last document,
//! deleting a bridge document (connectivity split), re-adding a deleted
//! keyword, and a wire-shipped deletion of an id no replica has seen.

mod common;

use common::{assert_identical, random_builder};
use proptest::prelude::*;
use s3_core::{IngestBatch, InstanceBuilder, Query, SearchConfig, UserId};
use s3_datasets::workload::{live_workload, LiveWorkloadConfig};
use s3_doc::TreeId;
use s3_engine::{
    EngineConfig, FleetEngine, LiveEngine, LiveShardedEngine, LocalShard, RecoverySource,
    ShardHost, ShardServer,
};
use s3_text::Language;
use s3_wire::ShardTransport;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn test_config() -> EngineConfig {
    EngineConfig::builder().threads(1).cache_capacity(64).build()
}

fn mutating_workload(seed: u64) -> LiveWorkloadConfig {
    LiveWorkloadConfig {
        batches: 3,
        users_per_batch: 2,
        docs_per_batch: 3,
        tags_per_batch: 2,
        comments_per_batch: 1,
        deletes_per_batch: 1,
        updates_per_batch: 1,
        queries_per_batch: 5,
        k: 4,
        attach_probability: 0.25 + 0.5 * ((seed % 3) as f64 / 2.0),
        seed: seed ^ 0xDEAD,
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "s3-mutation-test-{}-{}-{tag}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Unsharded and sharded {1, 2, 4}: mutate, query, compact midway,
    /// mutate and query again — byte-identical to the cold reference at
    /// every step.
    #[test]
    fn mutated_live_engines_match_cold_rebuild(seed in 0u64..1000) {
        let flat = LiveEngine::new(random_builder(seed).0, test_config());
        let sharded: Vec<LiveShardedEngine> = [1usize, 2, 4]
            .into_iter()
            .map(|n| LiveShardedEngine::new(random_builder(seed).0, test_config(), n))
            .collect();
        let mut reference = random_builder(seed).0;
        let mut reference_prev = reference.snapshot();

        // Two phases around a compaction epoch: ids renumber densely when
        // the fleet compacts, so (like any real caller) the second phase's
        // batches are generated against the *compacted* state.
        for phase in 0..2u64 {
            let config = LiveWorkloadConfig {
                seed: seed ^ 0xDEAD ^ (phase << 17),
                batches: 2,
                ..mutating_workload(seed)
            };
            let steps = live_workload(&flat.instance(), &config);
            for step in &steps {
                flat.ingest(&step.batch);
                for engine in &sharded {
                    engine.ingest(&step.batch);
                }
                let (next, _) = reference.apply(&reference_prev, &step.batch);
                reference_prev = next;

                let cold = reference.snapshot();
                for spec in &step.queries {
                    let query =
                        Query::new(spec.seeker, cold.query_keywords(&spec.text), spec.k);
                    let expected = cold.search(&query, &SearchConfig::default());
                    // Twice: the second answer exercises the cache path.
                    for _ in 0..2 {
                        assert_identical(&flat.query(&query), &expected)?;
                    }
                    for engine in &sharded {
                        assert_identical(&engine.query(&query), &expected)?;
                    }
                }
            }

            // Compact everything between the phases: tombstones are
            // reclaimed, ids renumber densely, every cache drops — and
            // answers must not move relative to the compacted reference.
            if phase == 0 {
                prop_assert!(flat.dead_fraction() > 0.0, "mutations left tombstones");
                let report = flat.compact().expect("flat compact");
                prop_assert!(report.compaction.dropped_documents >= 1);
                prop_assert_eq!(flat.dead_fraction(), 0.0, "compaction reclaims every tombstone");
                for engine in &sharded {
                    let r = engine.compact().expect("sharded compact");
                    prop_assert_eq!(
                        r.compaction.dropped_documents,
                        report.compaction.dropped_documents
                    );
                }
                let (compacted, _) = reference.compact();
                reference = compacted;
                reference_prev = reference.snapshot();

                // Post-compaction answers match immediately, before any
                // further ingest.
                let cold = reference.snapshot();
                for (u, text) in [(0u32, "w0 w2"), (1, "w1"), (2, "ex:c0")] {
                    let query =
                        Query::new(s3_core::UserId(u), cold.query_keywords(text), 4);
                    let expected = cold.search(&query, &SearchConfig::default());
                    assert_identical(&flat.query(&query), &expected)?;
                    for engine in &sharded {
                        assert_identical(&engine.query(&query), &expected)?;
                    }
                }
            }
        }
    }

    /// The fleet: retraction batches ship over the wire to every replica,
    /// a compaction epoch runs across the whole fleet, and answers stay
    /// byte-identical to the cold reference — over all three transports.
    #[test]
    fn mutated_fleet_matches_cold_rebuild_over_transports(seed in 0u64..1000) {
        for shards in [1usize, 2, 4] {
            let mut hosts: Vec<ShardHost> = Vec::new();
            let transports: Vec<Box<dyn ShardTransport>> = (0..shards)
                .map(|s| {
                    let server =
                        ShardServer::new(random_builder(seed).0, test_config(), shards, s);
                    // One transport per shard count keeps the matrix
                    // affordable; all three kinds are exercised.
                    match shards {
                        1 => Box::new(LocalShard::new(server)) as Box<dyn ShardTransport>,
                        2 => {
                            let (conn, host) = server.spawn_loopback();
                            hosts.push(host);
                            Box::new(conn)
                        }
                        _ => {
                            let path = std::env::temp_dir().join(format!(
                                "s3-mut-{}-{seed:x}-{shards}-{s}.sock",
                                std::process::id()
                            ));
                            let (conn, host) =
                                server.spawn_unix(&path).expect("bind unix socket");
                            hosts.push(host);
                            Box::new(conn)
                        }
                    }
                })
                .collect();
            let mut fleet = FleetEngine::new(random_builder(seed).0, test_config(), transports);
            let mut reference = random_builder(seed).0;
            let mut reference_prev = reference.snapshot();

            // Phase 0: mutate, then run a fleet-wide compaction epoch.
            // Phase 1: keep mutating against the compacted state.
            for phase in 0..2u64 {
                let config = LiveWorkloadConfig {
                    seed: seed ^ 0xF1EE ^ (phase << 13),
                    batches: 1,
                    ..mutating_workload(seed)
                };
                let steps = live_workload(&reference.snapshot(), &config);
                for step in &steps {
                    fleet.ingest(&step.batch).expect("fleet ingest");
                    let (next, _) = reference.apply(&reference_prev, &step.batch);
                    reference_prev = next;

                    let cold = reference.snapshot();
                    for spec in &step.queries {
                        let q = Query::new(spec.seeker, cold.query_keywords(&spec.text), spec.k);
                        let got = fleet.query(&q).expect("fleet query");
                        assert_identical(&got, &cold.search(&q, &SearchConfig::default()))?;
                    }
                }

                if phase == 0 {
                    // Fleet-wide compaction epoch: every replica compacts,
                    // acks a state fingerprint, and the client cross-checks
                    // them — divergence would be a hard error here.
                    let report = fleet.compact().expect("fleet compact");
                    prop_assert!(report.dropped_documents >= 1);
                    let (compacted, _) = reference.compact();
                    reference = compacted;
                    reference_prev = reference.snapshot();

                    let cold = reference.snapshot();
                    let q = Query::new(s3_core::UserId(0), cold.query_keywords("w0 w1"), 4);
                    let got = fleet.query(&q).expect("post-compaction fleet query");
                    assert_identical(&got, &cold.search(&q, &SearchConfig::default()))?;
                }
            }
            fleet.shutdown().expect("shutdown");
            for host in hosts {
                host.join().expect("shard server exits cleanly");
            }
        }
    }

    /// Durability: retraction batches journal through the WAL and replay
    /// on restart; a compaction checkpoints (snapshot + WAL truncation)
    /// before publishing, so a post-compaction restart recovers the
    /// compacted state with nothing left to replay.
    #[test]
    fn mutated_durable_engine_survives_restart_and_compaction(seed in 0u64..500) {
        let dir = tmpdir("mutate");
        let steps = {
            let base = random_builder(seed).0.snapshot();
            live_workload(&base, &LiveWorkloadConfig { batches: 2, ..mutating_workload(seed) })
        };
        let mut reference = random_builder(seed).0;
        let mut reference_prev = reference.snapshot();
        for step in &steps {
            let (next, _) = reference.apply(&reference_prev, &step.batch);
            reference_prev = next;
        }

        // First life: batch 0 checkpointed, batch 1 (with its retraction
        // records) left as the WAL tail.
        {
            let (engine, report) =
                LiveEngine::open(&dir, random_builder(seed).0, test_config()).expect("open");
            prop_assert_eq!(report.source, RecoverySource::Seed);
            engine.ingest(&steps[0].batch);
            engine.checkpoint().expect("checkpoint");
            engine.ingest(&steps[1].batch);
        }

        // Second life: the retraction tail replays; answers match the
        // full-log cold reference.
        let cold = reference.snapshot();
        {
            let (engine, report) =
                LiveEngine::open(&dir, random_builder(seed).0, test_config()).expect("reopen");
            prop_assert_eq!(report.source, RecoverySource::Snapshot);
            prop_assert_eq!(report.replayed, 1, "the retraction batch replays from the WAL");
            for step in &steps {
                for spec in &step.queries {
                    let q = Query::new(spec.seeker, cold.query_keywords(&spec.text), spec.k);
                    assert_identical(&engine.query(&q), &cold.search(&q, &SearchConfig::default()))?;
                }
            }
            // Compact: the durable checkpoint happens before the swap, so
            // the WAL is empty and the on-disk snapshot is the compacted
            // state.
            let report = engine.compact().expect("compact");
            prop_assert!(report.checkpointed.is_some(), "durable compaction checkpoints");
        }

        // Third life: recovery loads the compacted snapshot directly.
        let (mut compacted_ref, _) = reference.compact();
        let cold = compacted_ref.snapshot();
        {
            let (engine, report) = LiveEngine::open(&dir, random_builder(seed).0, test_config())
                .expect("reopen compacted");
            prop_assert_eq!(report.source, RecoverySource::Snapshot);
            prop_assert_eq!(report.replayed, 0, "compaction left no WAL tail");
            prop_assert_eq!(engine.dead_fraction(), 0.0);
            for step in &steps {
                for spec in &step.queries {
                    let q = Query::new(spec.seeker, cold.query_keywords(&spec.text), spec.k);
                    assert_identical(&engine.query(&q), &cold.search(&q, &SearchConfig::default()))?;
                }
            }

            // A compaction that shrinks the graph under the buffers the
            // engine keeps between queries: serve from the user whose node
            // comes last, delete every document but the newest, compact,
            // and every answer over the surviving keywords must be the
            // shrunk reference's.
            let texts = ["w0", "w1", "w2", "ex:c0"];
            let last = (0..cold.num_users() as u32).map(UserId).max_by_key(|&u| cold.user_node(u));
            let last = last.expect("the corpus has users");
            for text in texts {
                let q = Query::new(last, cold.query_keywords(text), 4);
                assert_identical(&engine.query(&q), &cold.search(&q, &SearchConfig::default()))?;
            }
            let mut shrink = IngestBatch::new();
            for t in 0..cold.num_documents() - 1 {
                shrink.delete_document(TreeId(t as u32));
            }
            engine.ingest(&shrink);
            compacted_ref.apply(&cold, &shrink);
            engine.compact().expect("compact the shrink");
            let shrunk = compacted_ref.compact().0.snapshot();
            prop_assert!(
                shrunk.graph().num_nodes() <= cold.user_node(last).index(),
                "the graph shrank below the last seeker's node"
            );
            let mut keywords: Vec<_> = shrunk
                .graph()
                .components()
                .iter()
                .flat_map(|c| shrunk.component_keywords(c).iter().copied())
                .collect();
            keywords.sort_unstable();
            keywords.dedup();
            prop_assert!(!keywords.is_empty(), "the newest document still answers");
            for u in (0..shrunk.num_users() as u32).map(UserId) {
                for &k in &keywords {
                    let q = Query::new(u, vec![k], 4);
                    let want = shrunk.search(&q, &SearchConfig::default());
                    assert_identical(&engine.query(&q), &want)?;
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---- tombstone edge cases ------------------------------------------------

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
    let engine = LiveEngine::new(b, test_config());
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
    let engine = LiveEngine::new(b, test_config());
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
    let engine = LiveEngine::new(b, test_config());

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
    let seed = 7;
    let server = ShardServer::new(random_builder(seed).0, test_config(), 1, 0);
    let transports: Vec<Box<dyn ShardTransport>> = vec![Box::new(LocalShard::new(server))];
    let mut fleet = FleetEngine::new(random_builder(seed).0, test_config(), transports);

    // Delete a tree no replica has ever allocated: the batch ships, every
    // replica treats it as an idempotent no-op, and the fleet stays in
    // lock-step with the untouched reference.
    let mut batch = s3_core::IngestBatch::new();
    batch.delete_document(s3_doc::TreeId(9999));
    batch.delete_user(s3_core::UserId(9999));
    fleet.ingest(&batch).expect("unseen-id deletions must not error");

    let reference = random_builder(seed).0.snapshot();
    let q = Query::new(s3_core::UserId(0), reference.query_keywords("w0 w1"), 5);
    let got = fleet.query(&q).expect("fleet query");
    let want = reference.search(&q, &SearchConfig::default());
    assert_eq!(got.hits, want.hits);
    assert_eq!(got.candidate_docs, want.candidate_docs);
    fleet.shutdown().expect("shutdown");
}
