//! Steady-state allocation audit of the propagation hot path.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up pass has grown every buffer to its high-water mark, replaying
//! the same step sequence must perform **zero** heap allocations, pushed
//! and gathered steps alike, `reset` and the on-demand `prox_leq` of
//! every node (users, tags, roots and inner fragments of multi-node trees)
//! included. This is the contract the serving layer's scratch reuse
//! depends on.
//!
//! Single `#[test]` on purpose: the counter is process-global, so
//! concurrently-running tests would bleed into each other's windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s3_doc::{DocBuilder, Forest};
use s3_graph::{EdgeKind, GraphBuilder, NodeId, Propagation, SocialGraph};

/// Counts allocation *events* (alloc + realloc; deallocs are free to
/// ignore — a steady-state path that allocates must call one of these).
struct CountingAlloc;

static ALLOC_EVENTS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A mid-size deterministic instance: enough users, trees and comment
/// chains that a propagation runs several non-trivial steps.
fn build_graph() -> SocialGraph {
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let mut forest = Forest::new();
    let mut trees = Vec::new();
    for d in 0..24 {
        let mut b = DocBuilder::new(format!("doc{d}"));
        let mut nodes = vec![b.root()];
        for _ in 0..rng.gen_range(0..5usize) {
            let parent = nodes[rng.gen_range(0..nodes.len())];
            nodes.push(b.child(parent, "sec"));
        }
        trees.push(forest.add_document(b));
    }
    let mut g = GraphBuilder::new(forest);
    let users: Vec<NodeId> = (0..40).map(|_| g.add_user()).collect();
    let roots: Vec<NodeId> = trees.iter().map(|&t| g.register_tree(t)).collect();
    for _ in 0..80 {
        let a = users[rng.gen_range(0..users.len())];
        let b = users[rng.gen_range(0..users.len())];
        if a != b {
            g.add_edge(a, b, EdgeKind::Social, rng.gen_range(0.1..=1.0));
        }
    }
    for (i, &root) in roots.iter().enumerate() {
        let poster = users[rng.gen_range(0..users.len())];
        g.add_edge(root, poster, EdgeKind::PostedBy, 1.0);
        if i > 0 && rng.gen_bool(0.6) {
            let target = roots[rng.gen_range(0..i)];
            g.add_edge(root, target, EdgeKind::CommentsOn, rng.gen_range(0.1..=1.0));
        }
    }
    // A dense core: 16 users, each following every other, reached from
    // the seeker's side, so the border grows dense enough to gather.
    let core: Vec<NodeId> = (0..16).map(|_| g.add_user()).collect();
    g.add_edge(users[0], core[0], EdgeKind::Social, 0.5);
    for &a in &core {
        for &b in &core {
            if a != b {
                g.add_edge(a, b, EdgeKind::Social, rng.gen_range(0.1..=1.0));
            }
        }
    }
    g.build()
}

const STEPS: usize = 8;

/// Run the fixed step sequence — every step followed by `prox_leq` of
/// every node — and return the allocation events counted over it (reset
/// included, so every pass replays the same trajectory) and the number
/// of its steps that gathered.
fn run_pass(p: &mut Propagation<'_>, seeker: NodeId, newly: &mut Vec<NodeId>) -> (usize, u32) {
    let before = ALLOC_EVENTS.load(Ordering::SeqCst);
    p.reset(seeker);
    for _ in 0..STEPS {
        p.step_into(1, false, newly);
        for node in p.graph().nodes() {
            std::hint::black_box(p.prox_leq(node));
        }
    }
    (ALLOC_EVENTS.load(Ordering::SeqCst) - before, p.gathered_steps())
}

#[test]
fn steady_state_step_into_allocates_nothing() {
    let graph = build_graph();
    let forest = graph.forest();
    assert!(forest.trees().any(|t| forest.tree_len(t) > 2), "multi-node trees exercised");
    let seeker = NodeId(0);
    let mut p = Propagation::new(&graph, 1.5, seeker);
    let mut newly = Vec::new();

    // Warm-up: one full pass grows every scratch buffer to its
    // high-water mark.
    run_pass(&mut p, seeker, &mut newly);

    // Steady state: replaying the same trajectory must not touch the
    // allocator, reset included.
    let (seq, gathered) = run_pass(&mut p, seeker, &mut newly);
    assert_eq!(seq, 0, "sequential step_into allocated {seq} times after warm-up");
    // The window covers both directions: pushed steps while the border is
    // sparse, gathered ones once the core makes it dense.
    assert!(0 < gathered && gathered < STEPS as u32, "{gathered} of {STEPS} steps gathered");
}
