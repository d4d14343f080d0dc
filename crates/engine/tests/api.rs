//! The unified API: every engine type answers byte-identically through
//! the `Engine` and `Ingest` traits, and answers `NoMatch` for a seeker
//! it lacks.

mod common;
mod harness;

use common::Exec::{Fleet, InProcess};
use common::State::{Frozen, Live};
use common::{random_queries, Corpus, Rig, Shape, Wire};
use harness::{ingesting, run, Schedule};
use proptest::prelude::*;
use s3_core::{InstanceBuilder, Query, StopReason, UserId};
use s3_text::{KeywordId, Language};

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// `query`, `serve` and `stats` through `dyn Engine`, cache off so
    /// every `serve` reaches the admission gate: all five engine types
    /// answer like a cold `S3kEngine` run, and the load counters agree.
    #[test]
    fn every_engine_type_answers_identically_through_the_trait(seed in 0u64..3000) {
        let mut s = Schedule::new(Corpus::random(seed));
        s.stream(random_queries, seed ^ 0xAB1, 8).through_trait();
        let rows = [
            (Frozen, InProcess, 1),
            (Frozen, InProcess, 2),
            (Live, InProcess, 1),
            (Live, InProcess, 2),
            (Live, Fleet(Wire::Local), 2),
        ];
        for (state, exec, shards) in rows {
            run(Shape(state, exec, shards, 0), &s)?;
        }
    }

    /// `ingest` through `dyn Ingest`: after every batch, each
    /// ingest-capable engine type answers like a cold rebuild.
    #[test]
    fn ingest_capable_engines_match_a_cold_rebuild_through_the_trait(seed in 0u64..1000) {
        let s = ingesting(seed);
        for (exec, shards) in [(InProcess, 1), (InProcess, 2), (Fleet(Wire::Local), 2)] {
            run(Shape(Live, exec, shards, 0), &s)?;
        }
    }
}

/// A query no document can match is `NoMatch` before its seeker is
/// looked up: every engine answers it for a seeker the instance does not
/// have, instead of panicking.
#[test]
fn no_match_from_an_unknown_seeker_is_answered_by_every_engine() {
    let corpus = Corpus::new(
        || {
            let mut b = InstanceBuilder::new(Language::English);
            let u = b.add_user();
            let kws = b.analyze("a degree");
            let mut doc = s3_doc::DocBuilder::new("post");
            doc.set_content(doc.root(), kws);
            b.add_document(doc, Some(u));
            b
        },
        Vec::new(),
    );
    let q = Query::new(UserId(7), vec![KeywordId(9999)], 3);
    let shapes = [
        Shape(Frozen, InProcess, 1, 0),
        Shape(Frozen, InProcess, 2, 0),
        Shape(Live, InProcess, 1, 0),
        Shape(Live, Fleet(Wire::Loopback), 1, 0),
    ];
    for shape in shapes {
        let mut rig = Rig::open(shape, &corpus);
        let got = rig.engine().query(&q).expect("trait query");
        assert_eq!(got.stats.stop, StopReason::NoMatch, "{shape:?}");
        assert!(got.hits.is_empty(), "{shape:?}");
        rig.close();
    }
}
