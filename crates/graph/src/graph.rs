//! The social graph: construction ([`GraphBuilder`]) and the frozen,
//! query-ready form ([`SocialGraph`]).
//!
//! Freezing computes the derived structures everything else needs: a CSR
//! adjacency over network edges and its transpose (the in-edges, in the
//! order a propagation step emits them), the vertical-neighborhood
//! weights `W(neigh(n))` of §2.5, and the content components of §5.2.

use crate::component::{CompId, Components};
use crate::edge::EdgeKind;
use crate::node::{NodeId, NodeKind};
use s3_doc::{DocNodeId, Forest, TreeId};

const UNREGISTERED: u32 = u32::MAX;

/// Entry of [`SocialGraph::frag_parents`] for a node without a parent
/// fragment: a tree root, a user or a tag.
pub const NO_PARENT: u32 = u32::MAX;

/// The flat tree topology: for every fragment node the graph node of its
/// parent fragment, [`NO_PARENT`] elsewhere. Derived from the forest and
/// the node kinds. Relies on [`GraphBuilder::register_tree`]'s layout:
/// the fragments of a tree sit on consecutive node ids in pre-order, so a
/// fragment's parent lies `f - p` ids before it.
fn frag_parents(forest: &Forest, kinds: &[NodeKind]) -> Vec<u32> {
    let mut parents = vec![NO_PARENT; kinds.len()];
    for (v, &kind) in kinds.iter().enumerate() {
        let NodeKind::Frag(f) = kind else { continue };
        if let Some(p) = forest.parent(f) {
            parents[v] = (v - (f.index() - p.index())) as u32;
        }
    }
    parents
}

/// Every node once, in the order a propagation step emits from them:
/// the registered trees ascending by [`TreeId`], each tree's nodes
/// ascending, then the users and tags ascending by id. Tree order and
/// node order differ whenever trees were registered out of id order.
fn emission_order<'a>(
    forest: &'a Forest,
    kinds: &'a [NodeKind],
    tree_root_node: &'a [u32],
) -> impl Iterator<Item = usize> + 'a {
    let trees = forest.trees().filter_map(move |t| match tree_root_node[t.index()] {
        UNREGISTERED => None,
        base => Some(base as usize..base as usize + forest.tree_len(t)),
    });
    let singles = kinds.iter().enumerate().filter(|(_, k)| !k.is_frag()).map(|(v, _)| v);
    trees.flatten().chain(singles)
}

/// Mutable graph under construction. Nodes of a registered document tree
/// receive contiguous ids in pre-order.
#[derive(Debug)]
pub struct GraphBuilder {
    forest: Forest,
    kinds: Vec<NodeKind>,
    frag_node: Vec<u32>,
    tree_root_node: Vec<u32>,
    edges: Vec<(NodeId, NodeId, EdgeKind, f64)>,
    num_users: u32,
    num_tags: u32,
}

impl GraphBuilder {
    /// Start building over a frozen document forest.
    pub fn new(forest: Forest) -> Self {
        let frag_node = vec![UNREGISTERED; forest.num_nodes()];
        let tree_root_node = vec![UNREGISTERED; forest.num_trees()];
        GraphBuilder {
            forest,
            kinds: Vec::new(),
            frag_node,
            tree_root_node,
            edges: Vec::new(),
            num_users: 0,
            num_tags: 0,
        }
    }

    /// The underlying forest.
    pub fn forest(&self) -> &Forest {
        &self.forest
    }

    /// Add a user node.
    pub fn add_user(&mut self) -> NodeId {
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(NodeKind::User(self.num_users));
        self.num_users += 1;
        id
    }

    /// Add a tag node.
    pub fn add_tag(&mut self) -> NodeId {
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(NodeKind::Tag(self.num_tags));
        self.num_tags += 1;
        id
    }

    /// Register every node of a document tree as a fragment node; returns
    /// the node id of the tree root. Ids are contiguous in pre-order.
    pub fn register_tree(&mut self, tree: TreeId) -> NodeId {
        assert_eq!(self.tree_root_node[tree.index()], UNREGISTERED, "tree registered twice");
        let base = self.kinds.len() as u32;
        self.tree_root_node[tree.index()] = base;
        for doc_idx in self.forest.tree_range(tree) {
            self.frag_node[doc_idx] = self.kinds.len() as u32;
            self.kinds.push(NodeKind::Frag(DocNodeId(doc_idx as u32)));
        }
        NodeId(base)
    }

    /// The graph node of a document node, if its tree was registered.
    pub fn node_of_frag(&self, f: DocNodeId) -> Option<NodeId> {
        match self.frag_node[f.index()] {
            UNREGISTERED => None,
            id => Some(NodeId(id)),
        }
    }

    /// Add a network edge; for invertible kinds the inverse edge is added
    /// automatically (the paper's `s p̄ o ∈ I iff o p s ∈ I`, §2.4).
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, kind: EdgeKind, weight: f64) {
        debug_assert!(weight > 0.0 && weight <= 1.0, "edge weight {weight} outside (0,1]");
        self.edges.push((from, to, kind, weight));
        if let Some(inv) = kind.inverse() {
            self.edges.push((to, from, inv, weight));
        }
    }

    /// Number of nodes so far.
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Freeze into a [`SocialGraph`].
    pub fn build(self) -> SocialGraph {
        self.build_inner(None)
    }

    /// Freeze into a [`SocialGraph`] whose component ids extend `prev`
    /// stably (see [`Components::build_extending`]) — the live-ingestion
    /// path, where the graph strictly appends nodes to the one `prev`
    /// partitioned and side tables indexed by [`CompId`] must not shift.
    pub fn build_extending(self, prev: &Components) -> SocialGraph {
        self.build_inner(Some(prev))
    }

    fn build_inner(self, prev_comps: Option<&Components>) -> SocialGraph {
        let n = self.kinds.len();
        // CSR over out-edges.
        let mut degree = vec![0u32; n];
        for &(from, _, _, _) in &self.edges {
            degree[from.index()] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let m = self.edges.len();
        let mut targets = vec![NodeId(0); m];
        let mut weights = vec![0.0f64; m];
        let mut ekinds = vec![EdgeKind::Social; m];
        let mut cursor = offsets[..n].to_vec();
        for &(from, to, kind, w) in &self.edges {
            let slot = cursor[from.index()] as usize;
            cursor[from.index()] += 1;
            targets[slot] = to;
            weights[slot] = w;
            ekinds[slot] = kind;
        }

        // Per-node total outgoing weight.
        let mut out_weight = vec![0.0f64; n];
        for i in 0..n {
            let (s, e) = (offsets[i] as usize, offsets[i + 1] as usize);
            out_weight[i] = weights[s..e].iter().sum();
        }

        // W(neigh(n)) (§2.5): for users/tags the node itself; for fragments
        // the ancestor-or-self chain plus the subtree.
        let mut nb_weight = out_weight.clone();
        for tree in self.forest.trees() {
            let base = self.tree_root_node[tree.index()];
            if base == UNREGISTERED {
                continue;
            }
            let range = self.forest.tree_range(tree);
            let first_doc = range.start;
            let len = range.len();
            // anc[i]: sum of out_weight over strict ancestors.
            let mut anc = vec![0.0f64; len];
            // sub[i]: sum of out_weight over the subtree (incl. self).
            let mut sub = vec![0.0f64; len];
            for (i, doc_idx) in range.clone().enumerate() {
                let node = base as usize + i;
                sub[i] = out_weight[node];
                if let Some(p) = self.forest.parent(DocNodeId(doc_idx as u32)) {
                    let pi = p.index() - first_doc;
                    let pnode = base as usize + pi;
                    anc[i] = anc[pi] + out_weight[pnode];
                }
            }
            for i in (0..len).rev() {
                let doc_idx = first_doc + i;
                if let Some(p) = self.forest.parent(DocNodeId(doc_idx as u32)) {
                    let pi = p.index() - first_doc;
                    sub[pi] += sub[i];
                }
            }
            for i in 0..len {
                nb_weight[base as usize + i] = anc[i] + sub[i];
            }
        }

        // The reverse CSR, filled source by source in emission order so
        // each target's in-edges come out in that order.
        let mut in_offsets = vec![0u32; n + 1];
        for &t in &targets {
            in_offsets[t.index() + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut in_sources = vec![NodeId(0); m];
        let mut in_weights = vec![0.0f64; m];
        let mut cursor = in_offsets[..n].to_vec();
        for src in emission_order(&self.forest, &self.kinds, &self.tree_root_node) {
            let (s, e) = (offsets[src] as usize, offsets[src + 1] as usize);
            for (&t, &w) in targets[s..e].iter().zip(&weights[s..e]) {
                let slot = &mut cursor[t.index()];
                in_sources[*slot as usize] = NodeId(src as u32);
                in_weights[*slot as usize] = w;
                *slot += 1;
            }
        }

        let tree_ranges =
            self.forest.trees().filter(|t| self.tree_root_node[t.index()] != UNREGISTERED).map(
                |t| {
                    let base = self.tree_root_node[t.index()] as usize;
                    base..base + self.forest.tree_len(t)
                },
            );
        let content_edges = self
            .edges
            .iter()
            .filter(|(_, _, k, _)| k.is_content_closure())
            .map(|&(f, t, _, _)| (f, t));
        let components = match prev_comps {
            Some(prev) => {
                Components::build_extending(prev, n, &self.kinds, tree_ranges, content_edges)
            }
            None => Components::build(n, &self.kinds, tree_ranges, content_edges),
        };

        let frag_parent = frag_parents(&self.forest, &self.kinds);
        SocialGraph {
            forest: self.forest,
            kinds: self.kinds,
            frag_node: self.frag_node,
            frag_parent,
            tree_root_node: self.tree_root_node,
            offsets,
            targets,
            weights,
            ekinds,
            in_offsets,
            in_sources,
            in_weights,
            nb_weight,
            components,
            num_users: self.num_users,
            num_tags: self.num_tags,
        }
    }
}

/// Immutable, query-ready social graph.
#[derive(Debug)]
pub struct SocialGraph {
    forest: Forest,
    kinds: Vec<NodeKind>,
    frag_node: Vec<u32>,
    frag_parent: Vec<u32>,
    tree_root_node: Vec<u32>,
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
    weights: Vec<f64>,
    ekinds: Vec<EdgeKind>,
    /// The reverse CSR: `in_offsets[t]..in_offsets[t + 1]` indexes the
    /// in-edges of `t` in `in_sources`/`in_weights`, ordered by
    /// [`emission_order`] of the source, then CSR order within a source.
    in_offsets: Vec<u32>,
    in_sources: Vec<NodeId>,
    in_weights: Vec<f64>,
    nb_weight: Vec<f64>,
    components: Components,
    num_users: u32,
    num_tags: u32,
}

impl SocialGraph {
    /// The document forest.
    pub fn forest(&self) -> &Forest {
        &self.forest
    }

    /// Node kind.
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.kinds[node.index()]
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Number of user nodes.
    pub fn num_users(&self) -> usize {
        self.num_users as usize
    }

    /// Number of tag nodes.
    pub fn num_tags(&self) -> usize {
        self.num_tags as usize
    }

    /// Number of directed network edges (inverses included).
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// The graph node of a document node, if registered.
    pub fn node_of_frag(&self, f: DocNodeId) -> Option<NodeId> {
        match self.frag_node[f.index()] {
            UNREGISTERED => None,
            id => Some(NodeId(id)),
        }
    }

    /// The document node behind a fragment graph-node.
    pub fn frag_of_node(&self, node: NodeId) -> Option<DocNodeId> {
        self.kinds[node.index()].as_frag()
    }

    /// The graph node of a registered tree's root (the first node of its
    /// contiguous range).
    pub fn tree_root_node(&self, tree: TreeId) -> Option<NodeId> {
        match self.tree_root_node[tree.index()] {
            UNREGISTERED => None,
            base => Some(NodeId(base)),
        }
    }

    /// Graph-node range of a registered tree (contiguous, pre-order).
    pub fn tree_node_range(&self, tree: TreeId) -> Option<std::ops::Range<usize>> {
        let base = self.tree_root_node(tree)?.index();
        Some(base..base + self.forest.tree_len(tree))
    }

    /// The tree topology as one flat per-node array: the graph node of
    /// each fragment node's parent fragment, [`NO_PARENT`] for tree roots,
    /// users and tags. A tree's nodes are consecutive in pre-order, so the
    /// run of entries other than `NO_PARENT` after a root is exactly that
    /// tree, and the run after any fragment `v` with entries `>= v` is its
    /// subtree — the propagation's per-tree passes read these contiguous
    /// slices instead of walking the forest.
    pub fn frag_parents(&self) -> &[u32] {
        &self.frag_parent
    }

    /// Outgoing network edges of a node: `(target, kind, weight)`.
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = (NodeId, EdgeKind, f64)> + '_ {
        let (s, e) = (self.offsets[node.index()] as usize, self.offsets[node.index() + 1] as usize);
        (s..e).map(move |i| (self.targets[i], self.ekinds[i], self.weights[i]))
    }

    /// The CSR slices of a node's out edges: `(targets, weights)`,
    /// index-aligned and contiguous. The propagation's emission loop
    /// iterates these zipped so the neighbor multiply-adds run without
    /// per-edge bounds checks (and in the fixed CSR order the reduction
    /// contract documents).
    pub fn out_edge_slices(&self, node: NodeId) -> (&[NodeId], &[f64]) {
        let (s, e) = (self.offsets[node.index()] as usize, self.offsets[node.index() + 1] as usize);
        (&self.targets[s..e], &self.weights[s..e])
    }

    /// Out-degree of a node.
    pub fn out_degree(&self, node: NodeId) -> usize {
        (self.offsets[node.index() + 1] - self.offsets[node.index()]) as usize
    }

    /// The reverse-CSR slices of a node's in-edges: `(sources, weights)`,
    /// index-aligned, with the sources in emission order — registered
    /// trees ascending by [`TreeId`] (each tree's nodes ascending), then
    /// users and tags ascending by id — and a source's parallel edges in
    /// its CSR order. Summing `emit(source) · weight` over these slices
    /// left to right adds exactly the terms, in exactly the order, that
    /// a push step scatters into the node; the propagation's gather
    /// direction relies on it.
    pub fn in_edge_slices(&self, node: NodeId) -> (&[NodeId], &[f64]) {
        let (s, e) =
            (self.in_offsets[node.index()] as usize, self.in_offsets[node.index() + 1] as usize);
        (&self.in_sources[s..e], &self.in_weights[s..e])
    }

    /// The whole reverse CSR, `(offsets, sources, weights)`: node `t`'s
    /// in-edges are `offsets[t]..offsets[t + 1]` of the two index-aligned
    /// arrays, as [`Self::in_edge_slices`] slices them. A gather walks
    /// every node, so it reads the offsets in pairs instead of indexing
    /// them twice per node.
    pub(crate) fn in_edges_csr(&self) -> (&[u32], &[NodeId], &[f64]) {
        (&self.in_offsets, &self.in_sources, &self.in_weights)
    }

    /// `W(neigh(n))` (§2.5): total weight of network edges leaving any
    /// vertical neighbor of `n` — the denominator of path normalization.
    pub fn neighborhood_weight(&self, node: NodeId) -> f64 {
        self.nb_weight[node.index()]
    }

    /// `W(neigh(n))` of every node, indexed by node id.
    pub fn neighborhood_weights(&self) -> &[f64] {
        &self.nb_weight
    }

    /// The vertical neighborhood of a node, as graph nodes (ancestors +
    /// subtree for fragments; the singleton otherwise). Mainly for tests
    /// and the naive oracle — hot paths use contiguous ranges instead.
    pub fn neighborhood_nodes(&self, node: NodeId) -> Vec<NodeId> {
        match self.kinds[node.index()] {
            NodeKind::User(_) | NodeKind::Tag(_) => vec![node],
            NodeKind::Frag(f) => {
                let mut out = Vec::new();
                for anc in self.forest.ancestors(f) {
                    out.push(self.node_of_frag(anc).expect("tree registered"));
                }
                for d in self.forest.fragments(f) {
                    out.push(self.node_of_frag(d).expect("tree registered"));
                }
                out.sort_unstable();
                out
            }
        }
    }

    /// Are `a` and `b` in the same vertical neighborhood (`a = b`, or the
    /// fragment relation holds between them)?
    pub fn same_neighborhood(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return true;
        }
        match (self.frag_of_node(a), self.frag_of_node(b)) {
            (Some(fa), Some(fb)) => self.forest.is_vertical_neighbor(fa, fb),
            _ => false,
        }
    }

    /// The content components (§5.2 pruning partition).
    pub fn components(&self) -> &Components {
        &self.components
    }

    /// The documents (trees, identified by their root fragment's tree) whose
    /// nodes lie in `comp`. A registered tree is always wholly contained in
    /// one component, so each tree is yielded exactly once, in id order.
    pub fn component_documents(&self, comp: CompId) -> impl Iterator<Item = TreeId> + '_ {
        self.components
            .members(comp)
            .iter()
            .filter_map(move |&n| self.frag_of_node(n))
            .filter(|&f| self.forest.parent(f).is_none())
            .map(|f| self.forest.tree_of(f))
    }

    /// Number of documents (trees) in a component.
    pub fn component_doc_count(&self, comp: CompId) -> usize {
        self.component_documents(comp).count()
    }

    /// The user nodes in `comp`. Social and authorship edges are not content
    /// edges, so under the §5.2 partition every user is a singleton
    /// component — this yields at most one node, but routers should not
    /// assume that.
    pub fn component_users(&self, comp: CompId) -> impl Iterator<Item = NodeId> + '_ {
        self.components
            .members(comp)
            .iter()
            .copied()
            .filter(move |&n| self.kinds[n.index()].is_user())
    }

    /// All nodes of a given kind predicate (testing convenience).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.kinds.len() as u32).map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_doc::DocBuilder;

    /// Build the Figure 3 instance of the paper:
    /// users u0..u3, documents URI0 (with children URI0.0 → URI0.0.0 and
    /// URI0.1) and URI1, and tag a0.
    pub(crate) fn figure3() -> (SocialGraph, Vec<NodeId>, Vec<NodeId>, NodeId) {
        let mut forest = Forest::new();
        let mut b0 = DocBuilder::new("doc"); // URI0
        let n00 = b0.child(b0.root(), "sec"); // URI0.0
        let _n000 = b0.child(n00, "p"); // URI0.0.0
        let _n01 = b0.child(b0.root(), "sec"); // URI0.1
        let t0 = forest.add_document(b0);
        let b1 = DocBuilder::new("doc"); // URI1
        let t1 = forest.add_document(b1);

        let mut g = GraphBuilder::new(forest);
        let users: Vec<NodeId> = (0..4).map(|_| g.add_user()).collect();
        let root0 = g.register_tree(t0);
        let uri0 = root0;
        let uri0_0 = NodeId(root0.0 + 1);
        let uri0_0_0 = NodeId(root0.0 + 2);
        let uri0_1 = NodeId(root0.0 + 3);
        let uri1 = g.register_tree(t1);
        let a0 = g.add_tag();

        // Social edges of Figure 3.
        g.add_edge(users[0], users[3], EdgeKind::Social, 0.3);
        g.add_edge(users[1], users[3], EdgeKind::Social, 0.5);
        g.add_edge(users[3], users[2], EdgeKind::Social, 0.5);
        g.add_edge(users[2], users[3], EdgeKind::Social, 0.7);
        // Posting.
        g.add_edge(uri0, users[0], EdgeKind::PostedBy, 1.0);
        g.add_edge(uri1, users[1], EdgeKind::PostedBy, 1.0);
        // URI1 comments on URI0.1; URI0.0 is commented by nothing else.
        g.add_edge(uri1, uri0_1, EdgeKind::CommentsOn, 1.0);
        // Tag a0 on URI0.0.0 by u2.
        g.add_edge(a0, uri0_0_0, EdgeKind::HasSubject, 1.0);
        g.add_edge(a0, users[2], EdgeKind::HasAuthor, 1.0);

        let graph = g.build();
        (graph, users, vec![uri0, uri0_0, uri0_0_0, uri0_1, uri1], a0)
    }

    #[test]
    fn figure3_shape() {
        let (g, users, docs, a0) = figure3();
        assert_eq!(g.num_users(), 4);
        assert_eq!(g.num_tags(), 1);
        assert_eq!(g.num_nodes(), 4 + 5 + 1);
        assert!(g.kind(users[0]).is_user());
        assert!(g.kind(docs[0]).is_frag());
        assert!(g.kind(a0).is_tag());
        // 4 social + (1+1 posted)×2 + 1×2 comments + 2×2 tag edges = 14.
        assert_eq!(g.num_edges(), 14);
    }

    #[test]
    fn inverse_edges_are_materialized() {
        let (g, users, docs, _) = figure3();
        let from_u0: Vec<_> = g.out_edges(users[0]).collect();
        assert!(from_u0.iter().any(|&(t, k, _)| t == docs[0] && k == EdgeKind::PostedByInv));
        assert!(from_u0
            .iter()
            .any(|&(t, k, w)| t == users[3] && k == EdgeKind::Social && w == 0.3));
        assert_eq!(g.out_degree(users[0]), 2);
    }

    #[test]
    fn example_2_3_normalization_weights() {
        // Paper Example 2.3: the first edge of the path from u0 is
        // normalized by W(neigh(u0)) = 1 + 0.3; the edge leaving URI0.0.0
        // after the vertical traversal is normalized by the 4 weight-1
        // edges leaving fragments of URI0.
        let (g, users, docs, _) = figure3();
        assert!((g.neighborhood_weight(users[0]) - 1.3).abs() < 1e-12);
        // Edges leaving the URI0 tree: postedBy (URI0→u0), commentsOn⁻
        // (URI0.1→URI1), hasSubject⁻ (URI0.0.0→a0) = 3 total for the root's
        // neighborhood (the whole tree).
        assert!((g.neighborhood_weight(docs[0]) - 3.0).abs() < 1e-12);
        // neigh(URI0.0.0) = {URI0, URI0.0, URI0.0.0}: edges out are
        // postedBy from URI0 and hasSubject⁻ from URI0.0.0 → weight 2.
        assert!((g.neighborhood_weight(docs[2]) - 2.0).abs() < 1e-12);
        // neigh(URI0.1) = {URI0, URI0.1}: postedBy + commentsOn⁻ → 2.
        assert!((g.neighborhood_weight(docs[3]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn neighborhood_nodes_follow_definition() {
        let (g, _, docs, a0) = figure3();
        let nb = g.neighborhood_nodes(docs[2]); // URI0.0.0
        assert_eq!(nb, vec![docs[0], docs[1], docs[2]]);
        // A leaf in the other branch: {URI0, URI0.1}.
        let nb = g.neighborhood_nodes(docs[3]);
        assert_eq!(nb, vec![docs[0], docs[3]]);
        assert_eq!(g.neighborhood_nodes(a0), vec![a0]);
        assert!(g.same_neighborhood(docs[0], docs[2]));
        assert!(!g.same_neighborhood(docs[2], docs[3]));
    }

    #[test]
    fn frag_parents_flatten_the_forest() {
        let (g, users, docs, a0) = figure3();
        let parents = g.frag_parents();
        for &n in users.iter().chain([&docs[0], &docs[4], &a0]) {
            assert_eq!(parents[n.index()], NO_PARENT, "{n:?} has no parent fragment");
        }
        assert_eq!(parents[docs[1].index()], docs[0].0); // URI0.0 under URI0
        assert_eq!(parents[docs[2].index()], docs[1].0); // URI0.0.0 under URI0.0
        assert_eq!(parents[docs[3].index()], docs[0].0); // URI0.1 under URI0
        assert_eq!(g.tree_root_node(TreeId(1)), Some(docs[4]));
    }

    #[test]
    fn components_partition() {
        // URI0's tree, URI1 (comments on URI0.1) and a0 (hasSubject into the
        // tree) are one component; users are singletons.
        let (g, users, docs, a0) = figure3();
        let comps = g.components();
        let c = comps.component_of(docs[0]);
        for &n in &[docs[1], docs[2], docs[3], docs[4], a0] {
            assert_eq!(comps.component_of(n), c);
        }
        assert_ne!(comps.component_of(users[0]), c);
        assert_ne!(comps.component_of(users[0]), comps.component_of(users[1]));
        assert_eq!(comps.members(c).len(), 6);
    }

    #[test]
    fn component_membership_queries() {
        let (g, users, docs, _) = figure3();
        let comps = g.components();
        // The content component: both trees, zero users.
        let c = comps.component_of(docs[0]);
        let trees: Vec<TreeId> = g.component_documents(c).collect();
        assert_eq!(trees, vec![TreeId(0), TreeId(1)]);
        assert_eq!(g.component_doc_count(c), 2);
        assert_eq!(g.component_users(c).count(), 0);
        // A user singleton: one user, zero documents.
        let cu = comps.component_of(users[0]);
        assert_eq!(g.component_doc_count(cu), 0);
        assert_eq!(g.component_users(cu).collect::<Vec<_>>(), vec![users[0]]);
        // Every document lives in exactly one component.
        let total: usize = comps.iter().map(|comp| g.component_doc_count(comp)).sum();
        assert_eq!(total, g.forest().num_trees());
    }

    /// Four documents (two with children) registered out of `TreeId`
    /// order among users and a tag; `extended` appends a second batch —
    /// two more trees, a user, edges between old and new nodes — on top
    /// of exactly the same first batch, as live ingestion does.
    fn shuffled(extended: bool) -> GraphBuilder {
        let mut forest = Forest::new();
        let mut trees = Vec::new();
        for d in 0..4 {
            let mut b = DocBuilder::new(format!("doc{d}"));
            if d % 2 == 0 {
                let sec = b.child(b.root(), "sec");
                b.child(sec, "p");
                b.child(b.root(), "sec");
            }
            trees.push(forest.add_document(b));
        }
        let mut g = GraphBuilder::new(forest);
        let u0 = g.add_user();
        let r2 = g.register_tree(trees[2]);
        let u1 = g.add_user();
        let r0 = g.register_tree(trees[0]);
        let tag = g.add_tag();
        g.add_edge(u0, u1, EdgeKind::Social, 0.4);
        g.add_edge(u1, u0, EdgeKind::Social, 0.6);
        g.add_edge(r2, u1, EdgeKind::PostedBy, 1.0);
        g.add_edge(r0, u0, EdgeKind::PostedBy, 1.0);
        g.add_edge(NodeId(r0.0 + 3), NodeId(r2.0 + 2), EdgeKind::CommentsOn, 0.5);
        g.add_edge(tag, NodeId(r2.0 + 1), EdgeKind::HasSubject, 1.0);
        g.add_edge(tag, u0, EdgeKind::HasAuthor, 1.0);
        if extended {
            let r3 = g.register_tree(trees[3]);
            let u2 = g.add_user();
            let r1 = g.register_tree(trees[1]);
            g.add_edge(u2, u0, EdgeKind::Social, 0.3);
            g.add_edge(r3, u2, EdgeKind::PostedBy, 1.0);
            g.add_edge(r1, u0, EdgeKind::PostedBy, 1.0);
            g.add_edge(r1, NodeId(r0.0 + 1), EdgeKind::CommentsOn, 0.7);
            g.add_edge(r3, r2, EdgeKind::CommentsOn, 0.2);
        }
        g
    }

    /// The reverse CSR is the forward CSR transposed: every `(source,
    /// target, weight)` once, and each target's in-edges ordered by the
    /// source's emission rank (trees by `TreeId`, their nodes ascending,
    /// then users and tags by id), a source's parallel edges in CSR order.
    fn assert_reverse_is_transpose(g: &SocialGraph) {
        let trees = g.forest().trees().filter_map(|t| g.tree_node_range(t));
        let singles = g.nodes().filter(|&v| !g.kind(v).is_frag()).map(NodeId::index);
        let order: Vec<usize> = trees.flatten().chain(singles).collect();
        assert_eq!(order.len(), g.num_nodes(), "the emission order covers every node once");
        let mut expected = vec![Vec::new(); g.num_nodes()];
        for &src in &order {
            for (t, _, w) in g.out_edges(NodeId(src as u32)) {
                expected[t.index()].push((NodeId(src as u32), w.to_bits()));
            }
        }
        let mut in_edges = 0;
        for t in g.nodes() {
            let (sources, weights) = g.in_edge_slices(t);
            let got: Vec<_> = sources.iter().zip(weights).map(|(&s, w)| (s, w.to_bits())).collect();
            assert_eq!(got, expected[t.index()], "in-edges of {t:?}");
            in_edges += got.len();
        }
        assert_eq!(in_edges, g.num_edges());
    }

    #[test]
    fn reverse_csr_is_the_forward_csr_transposed() {
        let (fig3, ..) = figure3();
        assert_reverse_is_transpose(&fig3);
        let base = shuffled(false).build();
        assert_reverse_is_transpose(&base);
        let extended = shuffled(true).build_extending(base.components());
        assert!(extended.num_nodes() > base.num_nodes());
        assert_reverse_is_transpose(&extended);
        // Node order and tree order disagree: tree 2 sits before tree 0.
        assert!(extended.tree_root_node(TreeId(2)) < extended.tree_root_node(TreeId(0)));
    }

    #[test]
    #[should_panic(expected = "tree registered twice")]
    fn double_registration_panics() {
        let mut forest = Forest::new();
        let t = forest.add_document(DocBuilder::new("d"));
        let mut g = GraphBuilder::new(forest);
        g.register_tree(t);
        g.register_tree(t);
    }
}
