//! Naive path-enumeration oracle for social proximity.
//!
//! Implements Definition 3.3 + §3.4 *literally*: enumerate every social path
//! of length ≤ `max_len` (chains of network edges whose consecutive edges
//! meet inside a vertical neighborhood, §2.5), normalize each edge by the
//! weight of its entry neighborhood, and sum `Cγ · prox→(p)/γ^|p|`.
//!
//! Exponential — for tests only. The property tests in this crate and in
//! `s3-core` certify [`crate::Propagation`] against this oracle.

use crate::graph::SocialGraph;
use crate::node::NodeId;

/// `prox≤max_len(from, to)` by explicit path enumeration.
pub fn naive_prox(
    graph: &SocialGraph,
    gamma: f64,
    from: NodeId,
    to: NodeId,
    max_len: usize,
) -> f64 {
    let c_gamma = (gamma - 1.0) / gamma;
    let mut total = 0.0;
    // Empty path: from ⇝ to when they share a vertical neighborhood.
    if graph.same_neighborhood(from, to) {
        total += c_gamma;
    }
    let mut stack: Vec<(NodeId, usize, f64)> = vec![(from, 0, 1.0)];
    while let Some((arrival, len, product)) = stack.pop() {
        if len >= max_len {
            continue;
        }
        let w_nb = graph.neighborhood_weight(arrival);
        if w_nb <= 0.0 {
            continue;
        }
        for m in graph.neighborhood_nodes(arrival) {
            for (target, _, ew) in graph.out_edges(m) {
                let p2 = product * ew / w_nb;
                if graph.same_neighborhood(target, to) {
                    total += c_gamma * p2 / gamma.powi(len as i32 + 1);
                }
                stack.push((target, len + 1, p2));
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::EdgeKind;
    use crate::graph::GraphBuilder;
    use crate::propagation::Propagation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use s3_doc::{DocBuilder, Forest};

    /// Random small instance: a few users, trees and tags with random edges.
    fn random_instance(seed: u64) -> (SocialGraph, Vec<NodeId>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut forest = Forest::new();
        let n_trees = rng.gen_range(1..4usize);
        let mut trees = Vec::new();
        for _ in 0..n_trees {
            let mut b = DocBuilder::new("d");
            let n_extra = rng.gen_range(0..4usize);
            let mut nodes = vec![b.root()];
            for _ in 0..n_extra {
                let parent = nodes[rng.gen_range(0..nodes.len())];
                nodes.push(b.child(parent, "c"));
            }
            trees.push(forest.add_document(b));
        }
        let mut g = GraphBuilder::new(forest);
        let users: Vec<NodeId> = (0..rng.gen_range(2..5usize)).map(|_| g.add_user()).collect();
        let mut all: Vec<NodeId> = users.clone();
        let mut frags: Vec<NodeId> = Vec::new();
        for &t in &trees {
            let root = g.register_tree(t);
            for i in 0..g.forest().tree_len(t) {
                frags.push(NodeId(root.0 + i as u32));
            }
            let poster = users[rng.gen_range(0..users.len())];
            g.add_edge(root, poster, EdgeKind::PostedBy, 1.0);
        }
        all.extend_from_slice(&frags);
        // Random social edges.
        for _ in 0..rng.gen_range(1..6usize) {
            let a = users[rng.gen_range(0..users.len())];
            let b = users[rng.gen_range(0..users.len())];
            if a != b {
                g.add_edge(a, b, EdgeKind::Social, rng.gen_range(0.1..1.0));
            }
        }
        // A tag on a random fragment.
        if rng.gen_bool(0.7) && !frags.is_empty() {
            let tag = g.add_tag();
            all.push(tag);
            let target = frags[rng.gen_range(0..frags.len())];
            g.add_edge(tag, target, EdgeKind::HasSubject, 1.0);
            let author = users[rng.gen_range(0..users.len())];
            g.add_edge(tag, author, EdgeKind::HasAuthor, 1.0);
        }
        (g.build(), all)
    }

    #[test]
    fn propagation_matches_naive_enumeration() {
        for seed in 0..25u64 {
            let (graph, nodes) = random_instance(seed);
            let gamma = 1.0 + (seed % 3) as f64 * 0.5 + 0.25; // 1.25, 1.75, 2.25
            let seeker = nodes[0];
            let max_len = 4;
            let mut engine = Propagation::new(&graph, gamma, seeker);
            for _ in 0..max_len {
                engine.step();
            }
            for &node in &nodes {
                let expected = naive_prox(&graph, gamma, seeker, node, max_len);
                let got = engine.prox_leq(node);
                assert!(
                    (expected - got).abs() < 1e-9,
                    "seed {seed}: prox≤{max_len}({seeker}, {node}) = {got}, naive = {expected}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 48,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Differential property for the SoA/bitset layout: over random
        /// graphs and random step counts, the propagation matches the
        /// path-enumeration oracle at every depth, reports newly-visited
        /// nodes in ascending id order, and keeps `visited_journal()` equal
        /// to the seeker followed by every step's newly list in turn — the
        /// first-visit order the search's discovery sees.
        #[test]
        fn step_sequences_match_oracle_and_journal_order(seed in 0u64..2000) {
            use proptest::prelude::{prop_assert, prop_assert_eq};
            let (graph, nodes) = random_instance(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x0D1F);
            let gamma = 1.0 + (seed % 3) as f64 * 0.5 + 0.25; // 1.25, 1.75, 2.25
            let seeker = nodes[rng.gen_range(0..nodes.len())];
            let depths = rng.gen_range(1..5usize);
            let mut engine = Propagation::new(&graph, gamma, seeker);
            let mut journal = vec![seeker];
            for depth in 1..=depths {
                let newly = engine.step().to_vec();
                prop_assert!(
                    newly.windows(2).all(|w| w[0].0 < w[1].0),
                    "newly-visited list must be ascending: {:?}",
                    newly
                );
                journal.extend(newly);
                prop_assert_eq!(
                    engine.visited_journal().collect::<Vec<_>>(),
                    journal.clone(),
                    "journal must be the concatenated first-visit order"
                );
                for &node in &nodes {
                    let expected = naive_prox(&graph, gamma, seeker, node, depth);
                    let got = engine.prox_leq(node);
                    prop_assert!(
                        (expected - got).abs() < 1e-9,
                        "seed {}: prox≤{}({}, {}) = {}, naive = {}",
                        seed, depth, seeker, node, got, expected
                    );
                }
            }
        }
    }

    #[test]
    fn naive_upper_bound_holds() {
        // prox≤n + B>n must dominate prox≤(n+5): check on random instances.
        for seed in 0..10u64 {
            let (graph, nodes) = random_instance(seed + 100);
            let gamma = 1.5;
            let seeker = nodes[0];
            let mut short = Propagation::new(&graph, gamma, seeker);
            for _ in 0..2 {
                short.step();
            }
            let bound = short.bound_beyond();
            let mut long = Propagation::new(&graph, gamma, seeker);
            for _ in 0..7 {
                long.step();
            }
            for &node in &nodes {
                assert!(
                    short.prox_leq(node) + bound + 1e-9 >= long.prox_leq(node),
                    "seed {}: B>n violated at {node}",
                    seed + 100
                );
            }
        }
    }
}
