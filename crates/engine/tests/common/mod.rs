//! Shared generators and assertions for the serving-layer test suites
//! (`parity.rs`, `resume.rs`, `sharding.rs`).

#![allow(dead_code)] // each test binary uses a subset

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s3_core::{IngestBatch, InstanceBuilder, Query, S3Instance, TagSubject, TopKResult, UserId};
use s3_doc::DocBuilder;
use s3_snap::Codec;
use s3_text::{KeywordId, Language};

/// Seeded random instance exercising every data-model feature: multi-node
/// documents, an ontology bridge, keyword tags, endorsements, comments.
pub fn random_instance(seed: u64) -> (S3Instance, Vec<KeywordId>) {
    let (b, queryable) = random_builder(seed);
    (b.build(), queryable)
}

/// The builder behind [`random_instance`], before freezing — fully
/// deterministic per seed, so repeated calls yield *identical* builders:
/// the replica generator for fleet tests (client and every shard server
/// must grow from the same data).
pub fn random_builder(seed: u64) -> (InstanceBuilder, Vec<KeywordId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = InstanceBuilder::new(Language::English);

    // Ontology: classes c0..c1 with specializations s0..s1.
    let mut pool = Vec::new();
    let mut class_kws = Vec::new();
    for i in 0..2 {
        let class = b.intern_entity_keyword(&format!("ex:c{i}"));
        let spec = b.intern_entity_keyword(&format!("ex:s{i}"));
        let (cu, su) = {
            let d = b.rdf_mut().dictionary_mut();
            (d.intern(&format!("ex:c{i}")), d.intern(&format!("ex:s{i}")))
        };
        b.rdf_mut().insert(su, s3_rdf::vocabulary::RDFS_SUBCLASS_OF, s3_rdf::Term::Uri(cu), 1.0);
        class_kws.push(class);
        pool.push(spec);
    }
    for i in 0..6 {
        pool.push(b.analyzer_mut().vocabulary_mut().intern(&format!("w{i}")));
    }

    let users: Vec<UserId> = (0..5).map(|_| b.add_user()).collect();
    for _ in 0..10 {
        let x = rng.gen_range(0..users.len());
        let y = rng.gen_range(0..users.len());
        if x != y {
            b.add_social_edge(users[x], users[y], rng.gen_range(0.1..=1.0));
        }
    }

    let mut roots = Vec::new();
    for d in 0..7 {
        let mut doc = DocBuilder::new("doc");
        let mut targets = vec![doc.root()];
        for _ in 0..rng.gen_range(0..3usize) {
            let parent = targets[rng.gen_range(0..targets.len())];
            targets.push(doc.child(parent, "sec"));
        }
        for &node in &targets {
            let kws: Vec<KeywordId> =
                (0..rng.gen_range(0..4usize)).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
            for &k in &kws {
                b.analyzer_mut().vocabulary_mut().add_occurrences(k, 1);
            }
            doc.add_content(node, kws);
        }
        let poster =
            if rng.gen_bool(0.9) { Some(users[rng.gen_range(0..users.len())]) } else { None };
        let tree = b.add_document(doc, poster);
        if d > 0 && rng.gen_bool(0.4) {
            let target = roots[rng.gen_range(0..roots.len())];
            b.add_comment_edge(tree, target);
        }
        roots.push(b.doc_root(tree));
    }

    for _ in 0..5 {
        if rng.gen_bool(0.6) {
            let subject = TagSubject::Frag(roots[rng.gen_range(0..roots.len())]);
            let author = users[rng.gen_range(0..users.len())];
            let keyword = if rng.gen_bool(0.7) {
                let k = pool[rng.gen_range(0..pool.len())];
                b.analyzer_mut().vocabulary_mut().add_occurrences(k, 1);
                Some(k)
            } else {
                None
            };
            b.add_tag(subject, author, keyword);
        }
    }

    let mut queryable = class_kws;
    queryable.extend(pool);
    (b, queryable)
}

/// Random query workload over the instance's keyword pool.
pub fn random_queries(
    rng: &mut StdRng,
    num_users: usize,
    pool: &[KeywordId],
    n: usize,
) -> Vec<Query> {
    (0..n)
        .map(|_| {
            let seeker = UserId(rng.gen_range(0..num_users) as u32);
            let n_kw = rng.gen_range(1..3usize);
            let kws = (0..n_kw).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
            Query::new(seeker, kws, rng.gen_range(1..5usize))
        })
        .collect()
}

/// A seeker-skewed stream: 70 % of the queries come from a hot pair of
/// seekers (the Zipf-like shape of real social-search traffic), with
/// keywords and k varied so the result cache cannot absorb the repeats.
/// Consecutive same-seeker queries must each start their propagation
/// afresh.
pub fn skewed_queries(
    rng: &mut StdRng,
    num_users: usize,
    pool: &[KeywordId],
    n: usize,
) -> Vec<Query> {
    (0..n)
        .map(|i| {
            let seeker = if rng.gen_bool(0.7) {
                UserId((i % 2) as u32) // hot pair
            } else {
                UserId(rng.gen_range(0..num_users) as u32)
            };
            let n_kw = rng.gen_range(1..3usize);
            let kws = (0..n_kw).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
            Query::new(seeker, kws, rng.gen_range(1..6usize))
        })
        .collect()
}

/// Byte-identical result comparison: stop reason, candidate list, hits
/// with exact bounds.
pub fn assert_identical(a: &TopKResult, b: &TopKResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.stats.stop, b.stats.stop);
    prop_assert_eq!(&a.candidate_docs, &b.candidate_docs);
    prop_assert_eq!(a.hits.len(), b.hits.len());
    for (x, y) in a.hits.iter().zip(b.hits.iter()) {
        prop_assert_eq!(x.doc, y.doc);
        prop_assert!(x.lower == y.lower, "lower {} != {}", x.lower, y.lower);
        prop_assert!(x.upper == y.upper, "upper {} != {}", x.upper, y.upper);
    }
    Ok(())
}

/// An ingest frame whose `new_users` count says 2^40: a valid frame of
/// seventeen bytes that would have `apply` add users one at a time past
/// the u32 ids.
pub fn oversized_ingest_frame() -> Vec<u8> {
    ingest_frame_adding_users(1 << 40)
}

/// An otherwise empty ingest frame whose `new_users` count says
/// `new_users`.
pub fn ingest_frame_adding_users(new_users: usize) -> Vec<u8> {
    let (empty, mut body, mut frame) = (IngestBatch::new(), Vec::new(), Vec::new());
    empty.encode(&mut body);
    s3_wire::encode_ingest(&empty, &mut frame);
    // `new_users` is the body's first field: one byte while it is zero.
    let at = frame.len() - body.len();
    let mut count = Vec::new();
    new_users.encode(&mut count);
    frame.splice(at..at + 1, count);
    frame
}
