//! Heap audit of the cold freeze.
//!
//! A counting `#[global_allocator]` tracks the live heap bytes and their
//! high-water mark. The `con(d,k)` fixpoint runs one content component at
//! a time, so what it holds beyond the index it returns is bounded by the
//! largest component's working set, not by the corpus: on the `docs-8k`
//! shape (8,000 tweets in 9,039 components, the largest 76 members) the
//! peak inside `ConnectionIndex::build` exceeds what the index keeps by
//! at most 1 MB, the peak inside `InstanceBuilder::snapshot` exceeds
//! what is live after it by at most 2 MB, and halving the corpus moves
//! the `con` transient by at most 0.25 MB. Exact byte counts, no clock.
//!
//! The paper-shape corpora (85 % retweets: `social-1k` and `Scale::Small`)
//! each have one component holding most of their derivation. The plain
//! retweets of a tweet derive and store as one source list, so that
//! component's working set and the index grow with its signatures and
//! retweeters, not with their product: the `con` transient stays within
//! 2 MB on `social-1k` and 23 MB on `Scale::Small`, whose index holds
//! 718,716 tuples in at most 1.1 MB.

mod heap;

use heap::{freeze, mb, twitter_config, MB};
use s3::datasets::twitter::{self, TwitterConfig};
use s3::datasets::Scale;

/// The `docs-8k` corpus's generator fields at `tweets` tweets (two per
/// user, 30 % retweets).
fn docs_config(tweets: usize) -> TwitterConfig {
    twitter_config(tweets / 2, tweets, 0.3)
}

#[test]
fn the_freeze_holds_at_most_the_largest_component_beyond_what_it_keeps() {
    let half = twitter::generate_builder(&docs_config(4000)).0;
    let con_half = freeze(&half).con;
    drop(half);
    let full = twitter::generate_builder(&docs_config(8000)).0;
    let docs = freeze(&full);
    drop(full);
    println!(
        "docs-8k: con transient {:.3} MB at 4,000 tweets, {:.3} MB at 8,000; \
         snapshot() transient {:.3} MB; index {:.3} MB for {} tuples",
        mb(con_half),
        mb(docs.con),
        mb(docs.snapshot),
        mb(docs.index),
        docs.tuples
    );

    let social = freeze(&twitter::generate_builder(&twitter_config(480, 990, 0.85)).0);
    println!(
        "social-1k: con transient {:.3} MB, index {:.3} MB for {} tuples",
        mb(social.con),
        mb(social.index),
        social.tuples
    );

    let paper = freeze(&twitter::generate_builder(&TwitterConfig::scaled(Scale::Small)).0);
    println!(
        "paper shape (Scale::Small): con transient {:.3} MB, snapshot() transient {:.3} MB, \
         index {:.3} MB for {} tuples",
        mb(paper.con),
        mb(paper.snapshot),
        mb(paper.index),
        paper.tuples
    );

    assert!(docs.con <= MB, "con transient {} B on docs-8k", docs.con);
    assert!(docs.snapshot <= 2 * MB, "snapshot() transient {} B on docs-8k", docs.snapshot);
    assert!(
        docs.con <= con_half + MB / 4,
        "con transient grows with the corpus: {con_half} B → {} B",
        docs.con
    );
    assert!(docs.index <= 39 * MB / 10, "index {} B on docs-8k", docs.index);
    assert!(social.con <= 2 * MB, "con transient {} B on social-1k", social.con);
    assert!(paper.con <= 23 * MB, "con transient {} B on the paper shape", paper.con);
    assert!(paper.index <= 11 * MB / 10, "index {} B on the paper shape", paper.index);
}
