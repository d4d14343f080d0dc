//! Sparse-reset and detached-state equivalence for [`Propagation`].
//!
//! `Propagation::reset` clears only the journaled (touched) entries; these
//! properties certify that after *any* number of steps a reset propagation
//! is indistinguishable from a freshly constructed one on every
//! observable: per-node proximities and visited flags over the whole
//! graph, border mass, attenuation bound, step counter, frontier-closure
//! flag, and every subsequent step.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s3_doc::{DocBuilder, Forest};
use s3_graph::{EdgeKind, GraphBuilder, NodeId, Propagation, PropagationState, SocialGraph};

/// A seeded random instance graph: users with social edges, multi-node
/// documents with posters, comment edges between documents.
fn random_graph(seed: u64) -> SocialGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut forest = Forest::new();
    let num_docs = rng.gen_range(2..6usize);
    let mut trees = Vec::new();
    for d in 0..num_docs {
        let mut b = DocBuilder::new(format!("doc{d}"));
        let mut nodes = vec![b.root()];
        for _ in 0..rng.gen_range(0..4usize) {
            let parent = nodes[rng.gen_range(0..nodes.len())];
            nodes.push(b.child(parent, "sec"));
        }
        trees.push((forest.add_document(b), nodes));
    }
    let mut g = GraphBuilder::new(forest);
    let users: Vec<NodeId> = (0..rng.gen_range(2..6usize)).map(|_| g.add_user()).collect();
    let roots: Vec<NodeId> = trees.iter().map(|&(t, _)| g.register_tree(t)).collect();
    for _ in 0..rng.gen_range(2..10usize) {
        let a = users[rng.gen_range(0..users.len())];
        let b = users[rng.gen_range(0..users.len())];
        if a != b {
            g.add_edge(a, b, EdgeKind::Social, rng.gen_range(0.1..=1.0));
        }
    }
    for (i, &root) in roots.iter().enumerate() {
        if rng.gen_bool(0.8) {
            let poster = users[rng.gen_range(0..users.len())];
            g.add_edge(root, poster, EdgeKind::PostedBy, 1.0);
        }
        if i > 0 && rng.gen_bool(0.5) {
            let target = roots[rng.gen_range(0..i)];
            g.add_edge(root, target, EdgeKind::CommentsOn, rng.gen_range(0.1..=1.0));
        }
    }
    g.build()
}

/// Every observable of the two propagations must agree exactly, over the
/// whole graph (not just touched nodes — residue from a sloppy sparse
/// reset would show up precisely in the untouched remainder).
fn assert_equivalent(
    graph: &SocialGraph,
    a: &mut Propagation<'_>,
    b: &mut Propagation<'_>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.iteration(), b.iteration());
    prop_assert_eq!(a.seeker(), b.seeker());
    prop_assert!(a.border_mass() == b.border_mass());
    prop_assert!(a.bound_beyond() == b.bound_beyond());
    prop_assert_eq!(a.frontier_closed(), b.frontier_closed());
    prop_assert_eq!(a.touched_count(), b.touched_count());
    for node in graph.nodes() {
        let (pa, pb) = (a.prox_leq(node), b.prox_leq(node));
        prop_assert!(pa == pb, "prox mismatch at {:?}: {} vs {}", node, pa, pb);
        prop_assert_eq!(a.visited(node), b.visited(node));
    }
    prop_assert_eq!(
        a.visited_journal().collect::<Vec<_>>(),
        b.visited_journal().collect::<Vec<_>>()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 60, ..ProptestConfig::default() })]

    /// reset() after an arbitrary number of steps equals a fresh
    /// `Propagation::new`, now and on every later step.
    #[test]
    fn sparse_reset_equals_fresh_propagation(seed in 0u64..4000) {
        let graph = random_graph(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let gamma = [1.2, 1.5, 2.0][rng.gen_range(0..3usize)];
        let users: Vec<NodeId> =
            graph.nodes().filter(|&n| graph.frag_of_node(n).is_none()).collect();
        let first = users[rng.gen_range(0..users.len())];
        let second = users[rng.gen_range(0..users.len())];

        let mut reused = Propagation::new(&graph, gamma, first);
        for _ in 0..rng.gen_range(0..12usize) {
            reused.step();
        }
        reused.reset(second);
        let mut fresh = Propagation::new(&graph, gamma, second);
        assert_equivalent(&graph, &mut reused, &mut fresh)?;
        for _ in 0..8 {
            let a = reused.step();
            let b = fresh.step();
            prop_assert_eq!(a, b);
            assert_equivalent(&graph, &mut reused, &mut fresh)?;
        }
    }

    /// A detach/attach round trip through `PropagationState` preserves a
    /// warm propagation exactly, and resets exactly on seeker change.
    #[test]
    fn state_round_trip_preserves_or_resets_exactly(seed in 0u64..4000) {
        let graph = random_graph(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA77AC4);
        let users: Vec<NodeId> =
            graph.nodes().filter(|&n| graph.frag_of_node(n).is_none()).collect();
        let si = rng.gen_range(0..users.len());
        let seeker = users[si];
        // A distinct seeker, so re-attaching under it must reset.
        let other = users[(si + 1) % users.len()];

        let mut warm = Propagation::new(&graph, 1.5, seeker);
        let mut shadow = Propagation::new(&graph, 1.5, seeker);
        for _ in 0..rng.gen_range(0..8usize) {
            warm.step();
            shadow.step();
        }
        // Same seeker: nothing may change.
        let mut warm2 = Propagation::attach(&graph, 1.5, seeker, warm.detach());
        assert_equivalent(&graph, &mut warm2, &mut shadow)?;
        // Other seeker: equals a fresh propagation.
        let mut reattached = Propagation::attach(&graph, 1.5, other, warm2.detach());
        let mut fresh = Propagation::new(&graph, 1.5, other);
        assert_equivalent(&graph, &mut reattached, &mut fresh)?;
        // A default (never-attached) state also starts cold.
        let mut blank = Propagation::attach(&graph, 1.5, other, PropagationState::new());
        assert_equivalent(&graph, &mut blank, &mut fresh)?;
    }
}
