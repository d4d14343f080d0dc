//! Live-ingestion correctness: after **any** sequence of ingest batches,
//! the live engines answer byte-identically to a cold
//! `InstanceBuilder::snapshot` of the same final data — on the unsharded
//! path and on sharded `{1, 2, 4}` fleets (detached or attached batches;
//! the front cache recomputes on the post-ingest snapshot either
//! way).
//!
//! The batches come from the replayable update-workload generator
//! (`s3_datasets::workload::live_workload`), seeded per proptest case and
//! mixing detached batches (new users/docs/tags among themselves) with
//! attached ones (social edges from existing users, tags and comments on
//! existing documents, component merges).

mod common;

use proptest::prelude::*;
use s3_core::{InstanceBuilder, Query, SearchConfig};
use s3_datasets::workload::{live_workload, LiveWorkloadConfig};
use s3_engine::{EngineConfig, LiveEngine, LiveShardedEngine};
use s3_text::Language;

/// A small deterministic base corpus: a handful of users, documents and
/// tags over the same stem-stable word pool the generator uses.
fn base_builder(seed: u64) -> InstanceBuilder {
    let mut b = InstanceBuilder::new(Language::English);
    let users: Vec<_> = (0..4).map(|_| b.add_user()).collect();
    let mut x = seed;
    let mut next = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 33) as usize
    };
    for (i, &u) in users.iter().enumerate() {
        let v = users[(i + 1 + next() % 3) % users.len()];
        if u != v {
            b.add_social_edge(u, v, 0.2 + 0.1 * ((next() % 8) as f64));
        }
    }
    let words = ["alpha", "beta", "gamma", "delta", "omega"];
    for i in 0..3 {
        let text = format!("{} {}", words[next() % words.len()], words[next() % words.len()]);
        let kws = b.analyze(&text);
        let mut doc = s3_doc::DocBuilder::new("post");
        doc.set_content(doc.root(), kws);
        let t = b.add_document(doc, Some(users[i % users.len()]));
        if next() % 2 == 0 {
            let root = b.doc_root(t);
            b.add_tag(s3_core::TagSubject::Frag(root), users[next() % users.len()], None);
        }
    }
    b
}

fn engine_builder() -> s3_engine::EngineConfigBuilder {
    EngineConfig::builder().threads(2).cache_capacity(128)
}

fn engine_config() -> EngineConfig {
    engine_builder().build()
}

/// Per-fleet cache capacities: the live paths must stay byte-identical
/// to a cold rebuild whether the cache churns on every insert, churns
/// often, or holds everything.
fn capacity_config(arm: usize) -> EngineConfig {
    engine_builder().cache_capacity([1, 8, 128][arm]).build()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// The acceptance property: live == cold rebuild, unsharded and
    /// sharded {1, 2, 4}, for arbitrary batch sequences.
    #[test]
    fn live_engines_match_cold_rebuild(seed in 0u64..1000) {
        // One builder replica per engine (each live engine retains and
        // grows its own), plus one for the cold reference.
        let flat = LiveEngine::new(base_builder(seed), engine_config());
        let sharded: Vec<LiveShardedEngine> = [1usize, 2, 4]
            .into_iter()
            .enumerate()
            .map(|(arm, n)| LiveShardedEngine::new(base_builder(seed), capacity_config(arm), n))
            .collect();
        let mut reference = base_builder(seed);
        let mut reference_prev = reference.snapshot();

        let config = LiveWorkloadConfig {
            batches: 3,
            users_per_batch: 2,
            docs_per_batch: 2,
            tags_per_batch: 2,
            comments_per_batch: 1,
            queries_per_batch: 6,
            k: 4,
            attach_probability: 0.25 + 0.5 * ((seed % 3) as f64 / 2.0),
            seed: seed ^ 0xF00D,
            ..LiveWorkloadConfig::default()
        };
        let steps = live_workload(&flat.instance(), &config);

        for step in &steps {
            let report = flat.ingest(&step.batch);
            for engine in &sharded {
                let r = engine.ingest(&step.batch);
                prop_assert_eq!(r.summary.detached, report.summary.detached);
            }
            // The cold reference replays the same batch (apply keeps the
            // builder growing) but is judged by a full cold snapshot.
            let (next, _) = reference.apply(&reference_prev, &step.batch);
            reference_prev = next;
            let cold = reference.snapshot();
            let cold_config = SearchConfig::default();

            for spec in &step.queries {
                let kws = cold.query_keywords(&spec.text);
                let query = Query::new(spec.seeker, kws, spec.k);
                let expected = cold.search(&query, &cold_config);
                // Run twice: the second answer exercises the cache path.
                for _ in 0..2 {
                    let got = flat.query(&query);
                    prop_assert_eq!(&got.hits, &expected.hits, "unsharded vs cold");
                    prop_assert_eq!(&got.candidate_docs, &expected.candidate_docs);
                    prop_assert_eq!(got.stats.stop, expected.stats.stop);
                }
                for engine in &sharded {
                    let got = engine.query(&query);
                    prop_assert_eq!(
                        &got.hits,
                        &expected.hits,
                        "sharded({}) vs cold",
                        engine.engine().num_shards()
                    );
                    prop_assert_eq!(&got.candidate_docs, &expected.candidate_docs);
                    prop_assert_eq!(got.stats.stop, expected.stats.stop);
                }
            }
        }
    }

    /// Detached-only sequences are classified detached at every ingest,
    /// and results must still match cold.
    #[test]
    fn detached_sequences_stay_scoped_and_exact(seed in 0u64..1000) {
        let live = LiveShardedEngine::new(base_builder(seed), engine_config(), 2);
        let mut reference = base_builder(seed);
        let mut reference_prev = reference.snapshot();

        let config = LiveWorkloadConfig {
            batches: 3,
            attach_probability: 0.0,
            queries_per_batch: 4,
            seed: seed ^ 0xD157,
            ..LiveWorkloadConfig::default()
        };
        for step in live_workload(&live.instance(), &config) {
            let report = live.ingest(&step.batch);
            prop_assert!(report.summary.detached);
            let (next, _) = reference.apply(&reference_prev, &step.batch);
            reference_prev = next;
            let cold = reference.snapshot();
            for spec in &step.queries {
                let kws = cold.query_keywords(&spec.text);
                let query = Query::new(spec.seeker, kws, spec.k);
                let expected = cold.search(&query, &SearchConfig::default());
                let got = live.query(&query);
                prop_assert_eq!(&got.hits, &expected.hits);
            }
        }
    }
}
