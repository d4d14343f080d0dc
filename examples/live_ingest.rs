//! Live ingestion: feeding documents, users, tags and social edges into a
//! serving engine without a stop-the-world rebuild.
//!
//! Builds a synthetic Twitter-shaped corpus, serves it from a
//! [`s3::engine::LiveShardedEngine`] (2 shards) and replays an update
//! workload against it: each step ingests a batch (published by an atomic
//! snapshot swap — queries never stop) and then queries the grown corpus.
//! Every batch purges the result cache, whether it is detached (new users
//! posting new content) or touches existing data.
//!
//! ```text
//! cargo run --release --example live_ingest
//! ```

use s3::core::{IngestBatch, IngestDoc, Query, UserRef};
use s3::datasets::workload::{live_workload, LiveWorkloadConfig};
use s3::datasets::{twitter, Scale};
use s3::engine::{EngineConfig, LiveShardedEngine};

fn main() {
    let mut config = twitter::TwitterConfig::scaled(Scale::Tiny);
    config.users = 60;
    config.tweets = 400;
    let (builder, meta, _) = twitter::generate_builder(&config);
    println!("base corpus: {} documents from {} tweets", meta.documents, meta.tweets);

    let live = LiveShardedEngine::new(
        builder,
        EngineConfig::builder().threads(2).cache_capacity(512).build(),
        2,
    );
    println!(
        "serving {} users / {} documents over {} shards\n",
        live.instance().num_users(),
        live.instance().num_documents(),
        live.engine().num_shards()
    );

    // ---- A replayable update workload: ingest, then query. ----
    let steps = live_workload(
        &live.instance(),
        &LiveWorkloadConfig { batches: 3, attach_probability: 0.5, ..Default::default() },
    );
    for (i, step) in steps.iter().enumerate() {
        let report = live.ingest(&step.batch);
        println!("step {i}: {report}");
        let instance = live.instance();
        let mut answered = 0;
        for spec in &step.queries {
            let kws = instance.query_keywords(&spec.text);
            if !live.query(&Query::new(spec.seeker, kws, spec.k)).hits.is_empty() {
                answered += 1;
            }
        }
        println!(
            "        {} documents served; {answered}/{} queries answered",
            instance.num_documents(),
            step.queries.len()
        );
    }

    // ---- A hand-written detached batch: a new author's first post,
    // followed (and tagged) by a new fan. Nothing points at existing
    // data. ----
    let mut batch = IngestBatch::new();
    let author = batch.add_user();
    let fan = batch.add_user();
    batch.add_social_edge(fan, author, 0.9);
    let mut doc = IngestDoc::new("post");
    doc.set_text(doc.root(), "announcing an entirely new topic");
    batch.add_document(doc, Some(author));
    batch.add_tag(
        s3::core::TagSubjectRef::Frag(s3::core::FragRef::New {
            doc: 0,
            node: s3::doc::LocalNodeId(0),
        }),
        fan,
        Some("topic"),
    );
    let report = live.ingest(&batch);
    assert!(report.summary.detached);
    println!("\nnew author onboarded: {report}");

    // Batch user ids map onto the instance in order: the author is the
    // second-to-last user now.
    assert_eq!(author, UserRef::New(0));
    let author_id = s3::core::UserId((live.instance().num_users() - 2) as u32);
    let kws = live.instance().query_keywords("topic");
    let hits = live.query(&Query::new(author_id, kws, 3)).hits.len();
    println!("the new author's search finds {hits} hit(s)");
    assert!(hits > 0);

    // The final serving report: every ingest's epoch bump shows up as
    // `invalidated` entries.
    println!("\nfront cache: {}", live.cache_stats());
}
