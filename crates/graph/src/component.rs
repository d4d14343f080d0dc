//! Content components (paper §5.2).
//!
//! "Reachability by such edges [`S3:partOf`, `S3:commentsOn±`,
//! `S3:hasSubject±`] defines a partition of the documents into connected
//! components. … a fragment matches the query keywords iff its component
//! matches it, leading to an efficient pruning procedure."
//!
//! Components are computed once at graph freeze with a union-find; users are
//! singletons (social edges are not content edges).

use crate::node::{NodeId, NodeKind};
use serde::{Deserialize, Serialize};

/// Dense component id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CompId(pub u32);

impl CompId {
    /// The id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The frozen partition. The member lists are one flat CSR: component
/// `c`'s nodes, ascending, are `nodes[offsets[c]..offsets[c + 1]]` — one
/// allocation where a list per component cost a header and a heap block
/// for every one of them (most are singleton users).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Components {
    comp_of: Vec<CompId>,
    offsets: Vec<u32>,
    nodes: Vec<NodeId>,
}

impl Components {
    /// Build the partition: unite each registered tree's node range, then
    /// the endpoints of every content-closure edge.
    pub fn build(
        num_nodes: usize,
        kinds: &[NodeKind],
        tree_ranges: impl Iterator<Item = std::ops::Range<usize>>,
        content_edges: impl Iterator<Item = (NodeId, NodeId)>,
    ) -> Self {
        Components::build_inner(num_nodes, kinds, tree_ranges, content_edges, None)
    }

    /// [`Self::build`] with **stable ids** relative to a previous partition
    /// of a node-prefix of this graph (live ingestion appends nodes, never
    /// renumbers them):
    ///
    /// * the component containing a previous component's **first member**
    ///   keeps that id — so untouched components keep their id, and
    ///   components merged by a new content edge collapse onto the
    ///   smallest id among those they absorbed (first-claimant wins);
    /// * when edge *removal* (tombstone retraction) splits a previous
    ///   component, only the part holding its first member keeps the old
    ///   id; every split-off part receives a fresh id like a component of
    ///   only-new nodes — so side tables keyed by the old id are never
    ///   silently shared by two disjoint node sets;
    /// * a component of only-new or split-off nodes receives the next
    ///   fresh id, in first-member order;
    /// * an old id whose component was merged away (or emptied by
    ///   deletion) stays allocated with an empty member list (ids stay
    ///   dense; `Vec`-indexed side tables keyed by `CompId` never shift).
    ///
    /// Under pure appends the surviving ids are ordered exactly as a
    /// from-scratch [`Self::build`] of the same graph orders its dense ids
    /// (both follow first-member node order); retraction splits may break
    /// that relative order until the next compaction renumbers densely.
    pub fn build_extending(
        prev: &Components,
        num_nodes: usize,
        kinds: &[NodeKind],
        tree_ranges: impl Iterator<Item = std::ops::Range<usize>>,
        content_edges: impl Iterator<Item = (NodeId, NodeId)>,
    ) -> Self {
        assert!(prev.comp_of.len() <= num_nodes, "extension cannot drop nodes");
        Components::build_inner(num_nodes, kinds, tree_ranges, content_edges, Some(prev))
    }

    fn build_inner(
        num_nodes: usize,
        kinds: &[NodeKind],
        tree_ranges: impl Iterator<Item = std::ops::Range<usize>>,
        content_edges: impl Iterator<Item = (NodeId, NodeId)>,
        prev: Option<&Components>,
    ) -> Self {
        let mut uf = UnionFind::new(num_nodes);
        for range in tree_ranges {
            let root = range.start;
            for i in range {
                uf.union(root, i);
            }
        }
        for (a, b) in content_edges {
            uf.union(a.index(), b.index());
        }
        // Relabeling: dense fresh ids, or stable-prefix ids when extending.
        let mut label = vec![u32::MAX; num_nodes];
        let mut num_comps = 0u32;
        if let Some(prev) = prev {
            // Each previous component's *first member* claims its old id
            // for the root it now lives under (a root absorbing several
            // old components keeps the smallest — ids ascend with first
            // members, so ascending-id iteration visits claims in order).
            // A split-off part that lost the first member claims nothing
            // and falls through to a fresh id below: one old id is never
            // shared by two disjoint node sets.
            for c in prev.iter() {
                if let Some(&m0) = prev.members(c).first() {
                    let r = uf.find(m0.index());
                    if label[r] > c.0 {
                        label[r] = c.0;
                    }
                }
            }
            num_comps = prev.len() as u32;
        }
        let mut comp_of = Vec::with_capacity(num_nodes);
        for i in 0..num_nodes {
            let r = uf.find(i);
            if label[r] == u32::MAX {
                label[r] = num_comps;
                num_comps += 1;
            }
            comp_of.push(CompId(label[r]));
        }
        // Counting sort by component; ascending node order within each.
        let mut offsets = vec![0u32; num_comps as usize + 1];
        for &c in &comp_of {
            offsets[c.index() + 1] += 1;
        }
        for c in 0..num_comps as usize {
            offsets[c + 1] += offsets[c];
        }
        let mut cursor = offsets[..num_comps as usize].to_vec();
        let mut nodes = vec![NodeId(0); num_nodes];
        for (i, &c) in comp_of.iter().enumerate() {
            nodes[cursor[c.index()] as usize] = NodeId(i as u32);
            cursor[c.index()] += 1;
        }
        debug_assert_eq!(kinds.len(), num_nodes);
        Components { comp_of, offsets, nodes }
    }

    /// The component of a node.
    pub fn component_of(&self, node: NodeId) -> CompId {
        self.comp_of[node.index()]
    }

    /// The member nodes of a component (ascending ids).
    pub fn members(&self, comp: CompId) -> &[NodeId] {
        let c = comp.index();
        &self.nodes[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True for an empty graph.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over component ids.
    pub fn iter(&self) -> impl Iterator<Item = CompId> {
        (0..self.len() as u32).map(CompId)
    }
}

/// Path-halving union-find.
#[derive(Debug)]
struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n as u32).collect(), rank: vec![0; n] }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            let grand = self.parent[self.parent[x] as usize];
            self.parent[x] = grand;
            x = grand as usize;
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb as u32,
            std::cmp::Ordering::Greater => self.parent[rb] = ra as u32,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra as u32;
                self.rank[ra] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 1);
        uf.union(3, 4);
        assert_eq!(uf.find(0), uf.find(1));
        assert_eq!(uf.find(3), uf.find(4));
        assert_ne!(uf.find(0), uf.find(3));
        uf.union(1, 3);
        assert_eq!(uf.find(0), uf.find(4));
        assert_ne!(uf.find(2), uf.find(0));
    }

    #[test]
    fn build_partitions() {
        // 6 nodes: users 0,1; tree [2..5); tag 5 attached to node 3.
        let kinds = vec![
            NodeKind::User(0),
            NodeKind::User(1),
            NodeKind::Frag(s3_doc::DocNodeId(0)),
            NodeKind::Frag(s3_doc::DocNodeId(1)),
            NodeKind::Frag(s3_doc::DocNodeId(2)),
            NodeKind::Tag(0),
        ];
        let comps = Components::build(
            6,
            &kinds,
            std::iter::once(2..5),
            std::iter::once((NodeId(5), NodeId(3))),
        );
        assert_eq!(comps.component_of(NodeId(2)), comps.component_of(NodeId(4)));
        assert_eq!(comps.component_of(NodeId(5)), comps.component_of(NodeId(3)));
        assert_ne!(comps.component_of(NodeId(0)), comps.component_of(NodeId(1)));
        assert_ne!(comps.component_of(NodeId(0)), comps.component_of(NodeId(2)));
        assert_eq!(comps.len(), 3);
        assert_eq!(comps.members(comps.component_of(NodeId(2))).len(), 4);
    }

    #[test]
    fn empty_graph() {
        let comps = Components::build(0, &[], std::iter::empty(), std::iter::empty());
        assert!(comps.is_empty());
        assert_eq!(comps.len(), 0);
    }

    #[test]
    fn extending_keeps_untouched_ids_and_appends_new_ones() {
        // Base: users 0,1 and tree [2..4) — three components.
        let kinds = vec![
            NodeKind::User(0),
            NodeKind::User(1),
            NodeKind::Frag(s3_doc::DocNodeId(0)),
            NodeKind::Frag(s3_doc::DocNodeId(1)),
        ];
        let base = Components::build(4, &kinds, std::iter::once(2..4), std::iter::empty());
        // Append a new tree [4..5) plus a tag 5 on it: one new component.
        let mut kinds2 = kinds.clone();
        kinds2.push(NodeKind::Frag(s3_doc::DocNodeId(2)));
        kinds2.push(NodeKind::Tag(0));
        let ext = Components::build_extending(
            &base,
            6,
            &kinds2,
            [2..4usize, 4..5].into_iter(),
            std::iter::once((NodeId(5), NodeId(4))),
        );
        for i in 0..4u32 {
            assert_eq!(ext.component_of(NodeId(i)), base.component_of(NodeId(i)));
        }
        assert_eq!(ext.len(), base.len() + 1);
        let new_comp = ext.component_of(NodeId(4));
        assert_eq!(new_comp.index(), base.len(), "fresh ids append after the old ones");
        assert_eq!(ext.members(new_comp), &[NodeId(4), NodeId(5)]);
    }

    #[test]
    fn extending_split_keeps_id_with_first_member_and_mints_fresh_ids() {
        // Three single-node trees bridged into one component, then the
        // bridging edges disappear (tombstoned comment edges): the part
        // holding the first member keeps the id, the others get fresh ids.
        let kinds = vec![
            NodeKind::Frag(s3_doc::DocNodeId(0)),
            NodeKind::Frag(s3_doc::DocNodeId(1)),
            NodeKind::Frag(s3_doc::DocNodeId(2)),
        ];
        let ranges = || [0..1usize, 1..2, 2..3].into_iter();
        let base = Components::build(
            3,
            &kinds,
            ranges(),
            [(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))].into_iter(),
        );
        assert_eq!(base.len(), 1);
        let split = Components::build_extending(&base, 3, &kinds, ranges(), std::iter::empty());
        assert_eq!(split.component_of(NodeId(0)), CompId(0), "first member keeps the id");
        assert_ne!(split.component_of(NodeId(1)), CompId(0), "split-off part gets a fresh id");
        assert_ne!(split.component_of(NodeId(2)), split.component_of(NodeId(1)));
        assert_eq!(split.len(), 3);
        assert_eq!(split.members(CompId(0)), &[NodeId(0)]);
    }

    #[test]
    fn extending_split_never_aliases_one_old_id_to_two_parts() {
        // Regression: the old min-over-members relabeling let *both* halves
        // of a split claim the same previous id, silently fusing disjoint
        // node sets under one component. Two two-node components, each
        // split apart: the four resulting parts must all be distinct.
        let kinds = vec![
            NodeKind::Frag(s3_doc::DocNodeId(0)),
            NodeKind::Frag(s3_doc::DocNodeId(1)),
            NodeKind::Frag(s3_doc::DocNodeId(2)),
            NodeKind::Frag(s3_doc::DocNodeId(3)),
        ];
        let ranges = || [0..1usize, 1..2, 2..3, 3..4].into_iter();
        let base = Components::build(
            4,
            &kinds,
            ranges(),
            [(NodeId(0), NodeId(1)), (NodeId(2), NodeId(3))].into_iter(),
        );
        assert_eq!(base.len(), 2);
        let split = Components::build_extending(&base, 4, &kinds, ranges(), std::iter::empty());
        let parts: std::collections::HashSet<CompId> =
            (0..4).map(|i| split.component_of(NodeId(i))).collect();
        assert_eq!(parts.len(), 4, "every split part must be its own component");
        assert_eq!(split.component_of(NodeId(0)), base.component_of(NodeId(0)));
        assert_eq!(split.component_of(NodeId(2)), base.component_of(NodeId(2)));
    }

    #[test]
    fn extending_merge_keeps_smallest_id_and_leaves_the_other_empty() {
        // Two single-node trees, then a new comment node bridging them.
        let kinds =
            vec![NodeKind::Frag(s3_doc::DocNodeId(0)), NodeKind::Frag(s3_doc::DocNodeId(1))];
        let base = Components::build(2, &kinds, [0..1usize, 1..2].into_iter(), std::iter::empty());
        assert_eq!(base.len(), 2);
        let mut kinds2 = kinds.clone();
        kinds2.push(NodeKind::Frag(s3_doc::DocNodeId(2)));
        let ext = Components::build_extending(
            &base,
            3,
            &kinds2,
            [0..1usize, 1..2, 2..3].into_iter(),
            [(NodeId(2), NodeId(0)), (NodeId(2), NodeId(1))].into_iter(),
        );
        let survivor = ext.component_of(NodeId(0));
        assert_eq!(survivor, CompId(0), "merge collapses onto the smallest id");
        assert_eq!(ext.component_of(NodeId(1)), survivor);
        assert_eq!(ext.component_of(NodeId(2)), survivor);
        assert_eq!(ext.len(), 2, "the dead id stays allocated");
        assert!(ext.members(CompId(1)).is_empty(), "merged-away component is empty");
        assert_eq!(ext.members(survivor), &[NodeId(0), NodeId(1), NodeId(2)]);
    }
}
