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
//! The paper-shape corpus (`Scale::Small`, 85 % retweets) has one
//! component holding most of its derivation; its transient is printed,
//! not gated.
//!
//! Single `#[test]` on purpose: the counters are process-global, so
//! concurrently-running tests would bleed into each other's windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use s3::core::connections::TagInput;
use s3::core::{ConnectionIndex, InstanceBuilder};
use s3::datasets::twitter::{self, TwitterConfig};
use s3::datasets::Scale;

/// Live heap bytes and their high-water mark since the last [`reset_peak`].
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Old and new block coexist during a moving realloc.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::SeqCst), Ordering::SeqCst);
}

/// Run `f`; return its value and how far the heap peaked above what is
/// live once it returned.
fn transient<T>(f: impl FnOnce() -> T) -> (T, usize) {
    reset_peak();
    let out = f();
    (out, PEAK.load(Ordering::SeqCst) - LIVE.load(Ordering::SeqCst))
}

/// The `docs-8k` benchmark corpus's generator fields at `tweets` tweets
/// (two per user, 30 % retweets).
fn docs_config(tweets: usize) -> TwitterConfig {
    let users = tweets / 2;
    TwitterConfig {
        users,
        tweets,
        retweet_ratio: 0.3,
        vocab_size: tweets + 500,
        hashtags: tweets / 10 + 30,
        communities: users / 40,
        ..TwitterConfig::scaled(Scale::Small)
    }
}

/// The freeze's transient, then the `con` build's on the frozen inputs.
fn freeze_transients(builder: &InstanceBuilder) -> (usize, usize) {
    let (instance, snapshot) = transient(|| builder.snapshot());
    let graph = instance.graph();
    let tags: Vec<TagInput> = instance
        .tags()
        .iter()
        .map(|t| TagInput {
            subject: t.subject,
            author_node: instance.user_node(t.author),
            keyword: t.keyword,
        })
        .collect();
    let (index, con) = transient(|| {
        ConnectionIndex::build(instance.forest(), &tags, instance.comment_pairs(), |d| {
            graph.node_of_frag(d).expect("every fragment has a graph node")
        })
    });
    assert_eq!(index.len(), instance.connections().len(), "the direct build is the same index");
    (snapshot, con)
}

#[test]
fn the_freeze_holds_at_most_the_largest_component_beyond_what_it_keeps() {
    const MB: usize = 1_000_000;
    let mb = |bytes: usize| bytes as f64 / MB as f64;

    let half = twitter::generate_builder(&docs_config(4000)).0;
    let (_, con_half) = freeze_transients(&half);
    drop(half);
    let full = twitter::generate_builder(&docs_config(8000)).0;
    let (snapshot, con) = freeze_transients(&full);
    drop(full);
    println!(
        "docs-8k: con transient {:.3} MB at 4,000 tweets, {:.3} MB at 8,000; \
         snapshot() transient {:.3} MB",
        mb(con_half),
        mb(con),
        mb(snapshot)
    );

    let paper = twitter::generate_builder(&TwitterConfig::scaled(Scale::Small)).0;
    let (paper_snapshot, paper_con) = freeze_transients(&paper);
    println!(
        "paper shape (Scale::Small): con transient {:.3} MB, snapshot() transient {:.3} MB",
        mb(paper_con),
        mb(paper_snapshot)
    );

    assert!(con <= MB, "con transient {con} B on docs-8k");
    assert!(snapshot <= 2 * MB, "snapshot() transient {snapshot} B on docs-8k");
    assert!(
        con <= con_half + MB / 4,
        "con transient grows with the corpus: {con_half} B → {con} B"
    );
}
