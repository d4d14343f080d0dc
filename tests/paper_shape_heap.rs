//! Heap audit of the cold freeze on the paper's shape at scale: the
//! Twitter generator at 85 % retweets with the `social-1k` corpus's rule
//! times eight (3,840 users, 7,920 tweets; 3,318,084 `con(d,k)` tuples).
//!
//! The plain retweets of a tweet derive and store as one source list, so
//! the index holds at most a tenth of the bytes one [`Connection`] per
//! tuple would take, and the `con` build peaks at most 50 MB above it.
//! Exact byte counts, no clock. Ignored by default, so the debug suite
//! stays on the smaller corpora; CI's smoke job runs it in release with
//! `cargo test --release --test paper_shape_heap -- --ignored --nocapture`.

mod heap;

use heap::{freeze, mb, twitter_config, MB};
use s3::core::Connection;
use s3::datasets::twitter;

#[test]
#[ignore = "a 7,920-tweet corpus, run in release with --ignored"]
fn the_paper_shape_at_3840_users_freezes_factored() {
    let corpus = freeze(&twitter::generate_builder(&twitter_config(3840, 7920, 0.85)).0);
    let unfactored = corpus.tuples * std::mem::size_of::<Connection>();
    println!(
        "paper shape, 3,840 users: con transient {:.3} MB, snapshot() transient {:.3} MB, \
         index {:.3} MB for {} tuples ({:.3} MB at one Connection per tuple)",
        mb(corpus.con),
        mb(corpus.snapshot),
        mb(corpus.index),
        corpus.tuples,
        mb(unfactored)
    );
    assert_eq!(corpus.tuples, 3_318_084);
    assert!(corpus.index <= unfactored / 10, "index {} B", corpus.index);
    assert!(corpus.con <= 50 * MB, "con transient {} B", corpus.con);
}
