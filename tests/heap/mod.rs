//! A counting `#[global_allocator]` and the cold-freeze measurements the
//! heap audits share. Every test binary that declares `mod heap;` counts
//! its own allocations; the counters are process-global, so each such
//! binary holds a single `#[test]`, or concurrently-running tests would
//! bleed into each other's windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use s3::core::connections::TagInput;
use s3::core::{ConnectionIndex, InstanceBuilder};
use s3::datasets::twitter::TwitterConfig;
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

pub const MB: usize = 1_000_000;

pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / MB as f64
}

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

/// The Twitter generator at `users` users and `tweets` tweets:
/// `TwitterConfig::scaled(Small)` with its size-dependent fields rescaled,
/// the rule the benchmark's `docs-8k` (4,000 users, 8,000 tweets, 30 %
/// retweets) and `social-1k` (480, 990, 85 %) corpora follow.
pub fn twitter_config(users: usize, tweets: usize, retweet_ratio: f64) -> TwitterConfig {
    TwitterConfig {
        users,
        tweets,
        retweet_ratio,
        vocab_size: tweets + 500,
        hashtags: tweets / 10 + 30,
        communities: users / 40,
        ..TwitterConfig::scaled(Scale::Small)
    }
}

/// What one cold freeze holds, in heap bytes.
#[derive(Debug, Clone, Copy)]
pub struct Freeze {
    /// `snapshot()`'s peak above what is live after it.
    pub snapshot: usize,
    /// The `con` build's peak above what is live after it.
    pub con: usize,
    /// What the index the `con` build returns holds.
    pub index: usize,
    /// The index's `len()`: its tuples, one per source.
    pub tuples: usize,
}

/// The freeze's transient, then the `con` build's on the frozen inputs
/// and the heap its index keeps.
pub fn freeze(builder: &InstanceBuilder) -> Freeze {
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
    let before = LIVE.load(Ordering::SeqCst);
    let (index, con) = transient(|| {
        ConnectionIndex::build(instance.forest(), &tags, instance.comment_pairs(), |d| {
            graph.node_of_frag(d).expect("every fragment has a graph node")
        })
    });
    let index_heap = LIVE.load(Ordering::SeqCst) - before;
    assert_eq!(index.len(), instance.connections().len(), "the direct build is the same index");
    Freeze { snapshot, con, index: index_heap, tuples: index.len() }
}
