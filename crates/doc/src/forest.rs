//! The document forest: every tree of an S3 instance in one arena.
//!
//! Nodes of a tree occupy a **contiguous id range in pre-order**, so that a
//! subtree is exactly the id interval `[n, n + subtree_size(n))`. The
//! proximity-propagation engine of `s3-graph` exploits this: sums over
//! vertical neighborhoods (ancestors + descendants, Definition 2.2) become
//! an ancestor walk plus one contiguous range sum.

use crate::builder::DocBuilder;
use crate::dewey::Dewey;
use s3_snap::{put_str, put_u32v, put_usize, SnapError, SnapReader};
use s3_text::KeywordId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Global id of a document node (= of the fragment rooted there).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DocNodeId(pub u32);

impl DocNodeId {
    /// The id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DocNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Id of a document tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TreeId(pub u32);

impl TreeId {
    /// The id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct TreeData {
    /// First node id of the tree (its root).
    first: u32,
    /// Number of nodes.
    len: u32,
    /// Resolution of builder-local ids to global ids.
    local_map: Vec<DocNodeId>,
    /// Optional external URI of the document.
    uri: Option<String>,
}

/// The forest arena. See the crate docs for an example.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Forest {
    trees: Vec<TreeData>,
    // Struct-of-arrays node storage, indexed by DocNodeId.
    tree_of: Vec<TreeId>,
    parent: Vec<Option<DocNodeId>>,
    depth: Vec<u32>,
    child_rank: Vec<u16>,
    subtree_size: Vec<u32>,
    name: Vec<u32>,
    content: Vec<Vec<KeywordId>>,
    // Node-name interning.
    names: Vec<String>,
    name_ids: HashMap<String, u32>,
}

impl Forest {
    /// Empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Freeze a [`DocBuilder`] into the forest; returns the new tree's id.
    pub fn add_document(&mut self, builder: DocBuilder) -> TreeId {
        let tree_id = TreeId(self.trees.len() as u32);
        let first = self.tree_of.len() as u32;
        let n = builder.nodes.len();
        let mut local_map = vec![DocNodeId(u32::MAX); n];

        // Pre-order traversal assigning contiguous global ids.
        // Stack entries: (local id, parent global id, depth, child rank).
        let mut stack: Vec<(u32, Option<DocNodeId>, u32, u16)> = vec![(0, None, 0, 0)];
        while let Some((local, parent, depth, rank)) = stack.pop() {
            let global = DocNodeId(self.tree_of.len() as u32);
            local_map[local as usize] = global;
            let pending = &builder.nodes[local as usize];
            self.tree_of.push(tree_id);
            self.parent.push(parent);
            self.depth.push(depth);
            self.child_rank.push(rank);
            self.subtree_size.push(1); // fixed up below
            let name_id = self.intern_name(&pending.name);
            self.name.push(name_id);
            self.content.push(pending.content.clone());
            // Push children in reverse so they pop in document order.
            for (i, &child) in pending.children.iter().enumerate().rev() {
                stack.push((child.0, Some(global), depth + 1, (i + 1) as u16));
            }
        }

        // Subtree sizes: reverse pre-order accumulation onto parents.
        let last = self.tree_of.len() - 1;
        for i in (first as usize..=last).rev() {
            if let Some(p) = self.parent[i] {
                self.subtree_size[p.index()] += self.subtree_size[i];
            }
        }

        self.trees.push(TreeData { first, len: n as u32, local_map, uri: builder.uri });
        tree_id
    }

    fn intern_name(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.name_ids.insert(name.to_string(), id);
        id
    }

    /// Resolve a builder-local node id within `tree`.
    pub fn resolve(&self, tree: TreeId, local: crate::builder::LocalNodeId) -> DocNodeId {
        self.trees[tree.index()].local_map[local.0 as usize]
    }

    /// The root node of a tree.
    pub fn root(&self, tree: TreeId) -> DocNodeId {
        DocNodeId(self.trees[tree.index()].first)
    }

    /// The tree a node belongs to.
    pub fn tree_of(&self, node: DocNodeId) -> TreeId {
        self.tree_of[node.index()]
    }

    /// External URI of a tree's document, if one was set.
    pub fn uri(&self, tree: TreeId) -> Option<&str> {
        self.trees[tree.index()].uri.as_deref()
    }

    /// Parent of a node (`None` at roots).
    pub fn parent(&self, node: DocNodeId) -> Option<DocNodeId> {
        self.parent[node.index()]
    }

    /// Depth of a node (root = 0).
    pub fn depth(&self, node: DocNodeId) -> u32 {
        self.depth[node.index()]
    }

    /// Node name.
    pub fn name(&self, node: DocNodeId) -> &str {
        &self.names[self.name[node.index()] as usize]
    }

    /// Keyword content of a node (paper: `n S3:contains k` triples).
    pub fn content(&self, node: DocNodeId) -> &[KeywordId] {
        &self.content[node.index()]
    }

    /// Number of nodes in the whole forest.
    pub fn num_nodes(&self) -> usize {
        self.tree_of.len()
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Iterate over all tree ids.
    pub fn trees(&self) -> impl Iterator<Item = TreeId> {
        (0..self.trees.len() as u32).map(TreeId)
    }

    /// The contiguous global-id range of a tree's nodes (pre-order).
    pub fn tree_range(&self, tree: TreeId) -> std::ops::Range<usize> {
        let t = &self.trees[tree.index()];
        t.first as usize..(t.first + t.len) as usize
    }

    /// Number of nodes in one tree.
    pub fn tree_len(&self, tree: TreeId) -> usize {
        self.trees[tree.index()].len as usize
    }

    /// The contiguous global-id range of the subtree rooted at `node`
    /// (`Frag(node)`, including `node` itself).
    pub fn subtree_range(&self, node: DocNodeId) -> std::ops::Range<usize> {
        node.index()..node.index() + self.subtree_size[node.index()] as usize
    }

    /// Iterate over the fragments of a document/fragment, i.e. its subtree
    /// in pre-order (paper: `Frag(d)`).
    pub fn fragments(&self, node: DocNodeId) -> impl Iterator<Item = DocNodeId> {
        self.subtree_range(node).map(|i| DocNodeId(i as u32))
    }

    /// Ancestors of a node, nearest first, excluding the node itself.
    pub fn ancestors(&self, node: DocNodeId) -> impl Iterator<Item = DocNodeId> + '_ {
        std::iter::successors(self.parent(node), move |&n| self.parent(n))
    }

    /// Ancestor-or-self chain, from the node up to the root.
    pub fn ancestors_or_self(&self, node: DocNodeId) -> impl Iterator<Item = DocNodeId> + '_ {
        std::iter::successors(Some(node), move |&n| self.parent(n))
    }

    /// Is `a` an ancestor of (or equal to) `f`? O(1) via id intervals.
    pub fn is_ancestor_or_self(&self, a: DocNodeId, f: DocNodeId) -> bool {
        self.tree_of(a) == self.tree_of(f) && self.subtree_range(a).contains(&f.index())
    }

    /// Vertical-neighbor test (Definition 2.2): one is a fragment of the
    /// other. A node is conventionally in its own neighborhood.
    pub fn is_vertical_neighbor(&self, a: DocNodeId, b: DocNodeId) -> bool {
        self.is_ancestor_or_self(a, b) || self.is_ancestor_or_self(b, a)
    }

    /// The paper's `pos(d, f)`: the Dewey path from `d` down to `f`;
    /// `None` when `d` is not an ancestor-or-self of `f`.
    pub fn pos(&self, d: DocNodeId, f: DocNodeId) -> Option<Dewey> {
        if !self.is_ancestor_or_self(d, f) {
            return None;
        }
        let mut ranks = Vec::with_capacity((self.depth(f) - self.depth(d)) as usize);
        let mut cur = f;
        while cur != d {
            ranks.push(self.child_rank[cur.index()]);
            cur = self.parent(cur).expect("d is an ancestor, walk cannot pass the root");
        }
        ranks.reverse();
        Some(Dewey::from_path(ranks))
    }

    /// `|pos(d, f)|` without materializing the path: the structural distance
    /// used by the concrete score (Definition 3.5).
    pub fn structural_distance(&self, d: DocNodeId, f: DocNodeId) -> Option<u32> {
        if !self.is_ancestor_or_self(d, f) {
            return None;
        }
        Some(self.depth(f) - self.depth(d))
    }

    /// Children of a node, in document order.
    pub fn children(&self, node: DocNodeId) -> Vec<DocNodeId> {
        let mut out = Vec::new();
        let range = self.subtree_range(node);
        let mut i = node.index() + 1;
        while i < range.end {
            out.push(DocNodeId(i as u32));
            i += self.subtree_size[i] as usize;
        }
        out
    }

    /// Total number of keyword occurrences stored in the forest.
    pub fn total_keywords(&self) -> usize {
        self.content.iter().map(|c| c.len()).sum()
    }

    /// Rebuild a [`DocBuilder`] equivalent to one frozen tree: re-adding
    /// the returned builder to any forest reproduces the tree's pre-order
    /// shape, names, content and URI exactly, so a node at offset `i`
    /// within the tree's range lands at offset `i` again. Compaction
    /// relies on this to remap fragment ids across a rebuild.
    pub fn extract(&self, tree: TreeId) -> DocBuilder {
        let range = self.tree_range(tree);
        let root = self.root(tree);
        let mut b = DocBuilder::new(self.name(root));
        b.set_content(b.root(), self.content(root).to_vec());
        // Nodes are pre-order contiguous, so walking the range in order
        // visits every parent before its children, and appending each
        // child in ascending id order preserves document order — the
        // re-frozen pre-order assigns the same offsets.
        for i in range.start + 1..range.end {
            let node = DocNodeId(i as u32);
            let parent = self.parent(node).expect("non-root node has a parent");
            let local = b.child(
                crate::builder::LocalNodeId((parent.index() - range.start) as u32),
                self.name(node),
            );
            debug_assert_eq!(local.0 as usize, i - range.start);
            b.set_content(local, self.content(node).to_vec());
        }
        match self.uri(tree) {
            Some(uri) => b.with_uri(uri),
            None => b,
        }
    }

    /// Serialize for the durable snapshot format: the tree directory and
    /// the struct-of-arrays node storage, verbatim. The name-interning
    /// index is rebuilt on read, so the encoding is independent of
    /// hash-map iteration order.
    pub fn snap_write(&self, out: &mut Vec<u8>) {
        put_usize(out, self.names.len());
        for name in &self.names {
            put_str(out, name);
        }
        put_usize(out, self.trees.len());
        for t in &self.trees {
            put_u32v(out, t.first);
            put_u32v(out, t.len);
            put_usize(out, t.local_map.len());
            for &n in &t.local_map {
                put_u32v(out, n.0);
            }
            match &t.uri {
                None => out.push(0),
                Some(uri) => {
                    out.push(1);
                    put_str(out, uri);
                }
            }
        }
        put_usize(out, self.tree_of.len());
        for i in 0..self.tree_of.len() {
            put_u32v(out, self.tree_of[i].0);
            match self.parent[i] {
                None => out.push(0),
                Some(p) => {
                    out.push(1);
                    put_u32v(out, p.0);
                }
            }
            put_u32v(out, self.depth[i]);
            put_u32v(out, self.child_rank[i] as u32);
            put_u32v(out, self.subtree_size[i]);
            put_u32v(out, self.name[i]);
            put_usize(out, self.content[i].len());
            for &k in &self.content[i] {
                put_u32v(out, k.0);
            }
        }
    }

    /// Decode a forest written by [`Self::snap_write`]. Structural
    /// indices (tree ids, parents, name ids) are validated; never panics
    /// on malformed input.
    pub fn snap_read(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut f = Forest::default();
        let names = r.seq(1)?;
        for i in 0..names {
            let name = r.str()?;
            if f.name_ids.insert(name.to_owned(), i as u32).is_some() {
                return Err(SnapError::Value("duplicate forest node name"));
            }
            f.names.push(name.to_owned());
        }
        let trees = r.seq(3)?;
        for _ in 0..trees {
            let first = r.u32v()?;
            let len = r.u32v()?;
            let locals = r.seq(1)?;
            let mut local_map = Vec::with_capacity(locals);
            for _ in 0..locals {
                local_map.push(DocNodeId(r.u32v()?));
            }
            let uri = match r.u8()? {
                0 => None,
                1 => Some(r.str()?.to_owned()),
                _ => return Err(SnapError::Value("tree uri option discriminant")),
            };
            f.trees.push(TreeData { first, len, local_map, uri });
        }
        let nodes = r.seq(7)?;
        for i in 0..nodes {
            let tree = r.u32v()?;
            if tree as usize >= f.trees.len() {
                return Err(SnapError::Value("node tree id out of range"));
            }
            f.tree_of.push(TreeId(tree));
            f.parent.push(match r.u8()? {
                0 => None,
                1 => {
                    let p = r.u32v()?;
                    if p as usize >= i {
                        return Err(SnapError::Value("node parent not an earlier node"));
                    }
                    Some(DocNodeId(p))
                }
                _ => return Err(SnapError::Value("node parent option discriminant")),
            });
            f.depth.push(r.u32v()?);
            let rank = r.u32v()?;
            f.child_rank
                .push(u16::try_from(rank).map_err(|_| SnapError::Value("child rank overflow"))?);
            f.subtree_size.push(r.u32v()?);
            let name = r.u32v()?;
            if name as usize >= f.names.len() {
                return Err(SnapError::Value("node name id out of range"));
            }
            f.name.push(name);
            let kws = r.seq(1)?;
            let mut content = Vec::with_capacity(kws);
            for _ in 0..kws {
                content.push(KeywordId(r.u32v()?));
            }
            f.content.push(content);
        }
        // The tree directory must tile the node range exactly, or the
        // interval arithmetic (subtree/tree ranges) would index out of
        // bounds later.
        let mut expect_first = 0u32;
        for t in &f.trees {
            if t.first != expect_first || t.local_map.len() != t.len as usize {
                return Err(SnapError::Value("tree directory does not tile the node range"));
            }
            for &n in &t.local_map {
                if n.index() < t.first as usize || n.index() >= (t.first + t.len) as usize {
                    return Err(SnapError::Value("local map outside its tree range"));
                }
            }
            expect_first =
                expect_first.checked_add(t.len).ok_or(SnapError::Value("tree range overflow"))?;
        }
        if expect_first as usize != f.tree_of.len() {
            return Err(SnapError::Value("tree directory does not cover every node"));
        }
        for tree in f.trees() {
            f.check_tree(tree)?;
        }
        Ok(f)
    }

    /// Validate one decoded tree against what [`Self::add_document`]
    /// would have stored: its nodes carry its id, the parent links form a
    /// pre-order tree rooted at its first node, and the derived depth,
    /// child-rank and subtree-size columns agree with those links. The
    /// cold build downstream relies on every one of these.
    fn check_tree(&self, tree: TreeId) -> Result<(), SnapError> {
        let range = self.tree_range(tree);
        let first = range.start;
        let mut seen = vec![false; range.len()];
        for &n in &self.trees[tree.index()].local_map {
            if std::mem::replace(&mut seen[n.index() - first], true) {
                return Err(SnapError::Value("local map is not a permutation of its tree"));
            }
        }
        if self.trees[tree.index()].local_map.first() != Some(&DocNodeId(first as u32)) {
            return Err(SnapError::Value("local root is not the tree's first node"));
        }
        // `chain` is the ancestor-or-self chain of the previous node; in
        // pre-order a node's parent lies on it.
        let mut chain: Vec<usize> = Vec::new();
        let mut ranks = vec![0u16; range.len()];
        for i in range.clone() {
            let (depth, rank) = match self.parent[i] {
                None if i == first => (0, 0),
                Some(p) if i != first => {
                    let p = p.index();
                    while chain.last().is_some_and(|&top| top != p) {
                        chain.pop();
                    }
                    if chain.is_empty() {
                        return Err(SnapError::Value("node parent breaks the pre-order"));
                    }
                    ranks[p - first] = ranks[p - first].wrapping_add(1);
                    (self.depth[p] + 1, ranks[p - first])
                }
                _ => return Err(SnapError::Value("tree root and parent links disagree")),
            };
            if self.tree_of[i] != tree || self.depth[i] != depth || self.child_rank[i] != rank {
                return Err(SnapError::Value("node columns disagree with the parent links"));
            }
            chain.push(i);
        }
        let mut sizes = vec![1u32; range.len()];
        for i in range.clone().rev() {
            if let Some(p) = self.parent[i] {
                sizes[p.index() - first] += sizes[i - first];
            }
        }
        if sizes[..] != self.subtree_size[range] {
            return Err(SnapError::Value("subtree sizes disagree with the parent links"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DocBuilder;

    /// The running-example document d0 with fragments d0.3.2 and d0.5.1
    /// (Figure 1), shrunk to ranks (1.1) and (2.1) for test brevity plus a
    /// full-rank variant below.
    fn sample() -> (Forest, DocNodeId, DocNodeId, DocNodeId, DocNodeId, DocNodeId) {
        let mut forest = Forest::new();
        let mut b = DocBuilder::new("article");
        let s3 = b.child(b.root(), "section");
        let s3_2 = b.child(s3, "p");
        let s5 = b.child(b.root(), "section");
        let s5_1 = b.child(s5, "p");
        let t = forest.add_document(b);
        forest.clone_with(t, s3, s3_2, s5, s5_1)
    }

    impl Forest {
        fn clone_with(
            self,
            t: TreeId,
            s3: crate::builder::LocalNodeId,
            s3_2: crate::builder::LocalNodeId,
            s5: crate::builder::LocalNodeId,
            s5_1: crate::builder::LocalNodeId,
        ) -> (Forest, DocNodeId, DocNodeId, DocNodeId, DocNodeId, DocNodeId) {
            let root = self.root(t);
            let a = self.resolve(t, s3);
            let b = self.resolve(t, s3_2);
            let c = self.resolve(t, s5);
            let d = self.resolve(t, s5_1);
            (self, root, a, b, c, d)
        }
    }

    #[test]
    fn preorder_contiguity() {
        let (f, root, s3, s3_2, s5, s5_1) = sample();
        assert_eq!(root.0 + 1, s3.0);
        assert_eq!(s3.0 + 1, s3_2.0);
        assert_eq!(s3_2.0 + 1, s5.0);
        assert_eq!(s5.0 + 1, s5_1.0);
        assert_eq!(f.subtree_range(root).len(), 5);
        assert_eq!(f.subtree_range(s3).len(), 2);
        assert_eq!(f.subtree_range(s5_1).len(), 1);
    }

    #[test]
    fn positions() {
        let (f, root, s3, s3_2, _s5, s5_1) = sample();
        assert_eq!(f.pos(root, s3_2).unwrap().as_slice(), &[1, 1]);
        assert_eq!(f.pos(root, s5_1).unwrap().as_slice(), &[2, 1]);
        assert_eq!(f.pos(s3, s3_2).unwrap().as_slice(), &[1]);
        assert_eq!(f.pos(root, root).unwrap().as_slice(), &[] as &[u16]);
        assert_eq!(f.pos(s3, s5_1), None);
        assert_eq!(f.structural_distance(root, s3_2), Some(2));
    }

    #[test]
    fn vertical_neighborhood_per_definition_2_2() {
        let (f, root, s3, s3_2, s5, s5_1) = sample();
        assert!(f.is_vertical_neighbor(root, s3_2));
        assert!(f.is_vertical_neighbor(s3_2, root));
        assert!(f.is_vertical_neighbor(s3, s3_2));
        // Disjoint subtrees are NOT vertical neighbors (u3/u4 in Figure 1).
        assert!(!f.is_vertical_neighbor(s3_2, s5_1));
        assert!(!f.is_vertical_neighbor(s3, s5));
        // Reflexive by convention.
        assert!(f.is_vertical_neighbor(s3, s3));
    }

    #[test]
    fn two_trees_are_independent() {
        let mut f = Forest::new();
        let t1 = f.add_document(DocBuilder::new("a"));
        let mut b2 = DocBuilder::new("b");
        let child = b2.child(b2.root(), "c");
        let t2 = f.add_document(b2);
        let r1 = f.root(t1);
        let r2 = f.root(t2);
        let c2 = f.resolve(t2, child);
        assert_ne!(f.tree_of(r1), f.tree_of(r2));
        assert!(!f.is_vertical_neighbor(r1, r2));
        assert!(!f.is_ancestor_or_self(r1, c2));
        assert_eq!(f.num_trees(), 2);
        assert_eq!(f.num_nodes(), 3);
    }

    #[test]
    fn children_in_document_order() {
        let mut fst = Forest::new();
        let mut b = DocBuilder::new("r");
        let c1 = b.child(b.root(), "c1");
        let c2 = b.child(b.root(), "c2");
        let c3 = b.child(b.root(), "c3");
        b.child(c2, "g");
        let t = fst.add_document(b);
        let root = fst.root(t);
        let kids = fst.children(root);
        assert_eq!(kids, vec![fst.resolve(t, c1), fst.resolve(t, c2), fst.resolve(t, c3)]);
        assert_eq!(fst.name(kids[1]), "c2");
        // Dewey ranks follow document order.
        assert_eq!(fst.pos(root, kids[2]).unwrap().as_slice(), &[3]);
    }

    #[test]
    fn content_and_names() {
        let mut fst = Forest::new();
        let mut b = DocBuilder::new("tweet");
        let text = b.child_with_content(b.root(), "text", vec![s3_text::KeywordId(5)]);
        let t = fst.add_document(b);
        let text = fst.resolve(t, text);
        assert_eq!(fst.content(text), &[s3_text::KeywordId(5)]);
        assert_eq!(fst.name(text), "text");
        assert_eq!(fst.total_keywords(), 1);
    }

    #[test]
    fn extract_round_trips_a_tree() {
        let mut fst = Forest::new();
        let mut b = DocBuilder::new("article");
        let s1 = b.child(b.root(), "section");
        b.child_with_content(s1, "p", vec![KeywordId(3), KeywordId(9)]);
        let s2 = b.child(b.root(), "section");
        b.child_with_content(s2, "p", vec![KeywordId(5)]);
        b.set_content(b.root(), vec![KeywordId(1)]);
        let filler = fst.add_document(DocBuilder::new("noise"));
        let t = fst.add_document(b.with_uri("ex:d0"));

        let mut copy = Forest::new();
        let t2 = copy.add_document(fst.extract(t));
        assert_eq!(copy.tree_len(t2), fst.tree_len(t));
        assert_eq!(copy.uri(t2), Some("ex:d0"));
        let (old_range, new_range) = (fst.tree_range(t), copy.tree_range(t2));
        for offset in 0..fst.tree_len(t) {
            let old = DocNodeId((old_range.start + offset) as u32);
            let new = DocNodeId((new_range.start + offset) as u32);
            assert_eq!(fst.name(old), copy.name(new));
            assert_eq!(fst.content(old), copy.content(new));
            assert_eq!(fst.depth(old), copy.depth(new));
            assert_eq!(
                fst.parent(old).map(|p| p.index() - old_range.start),
                copy.parent(new).map(|p| p.index() - new_range.start),
            );
        }
        let _ = filler;
    }

    #[test]
    fn decode_rejects_columns_that_disagree_with_the_parent_links() {
        let (f, ..) = sample();
        let mut f2 = f.clone();
        f2.add_document(DocBuilder::new("other"));
        let decode = |f: &Forest| {
            let mut bytes = Vec::new();
            f.snap_write(&mut bytes);
            Forest::snap_read(&mut SnapReader::new(&bytes))
        };
        assert!(decode(&f2).is_ok());
        let tampered: [fn(&mut Forest); 6] = [
            |f| f.parent[5] = Some(DocNodeId(0)), // a root gains a parent
            |f| f.parent[4] = Some(DocNodeId(2)), // child of a closed subtree
            |f| f.depth[2] += 1,
            |f| f.child_rank[3] = 1,
            |f| f.subtree_size[1] = 1,
            |f| f.trees[0].local_map.swap(0, 1),
        ];
        for (i, tamper) in tampered.iter().enumerate() {
            let mut bad = f2.clone();
            tamper(&mut bad);
            assert!(decode(&bad).is_err(), "tampering {i} must be rejected");
        }
    }

    #[test]
    fn ancestors_iterate_to_root() {
        let (f, root, s3, s3_2, _, _) = sample();
        let ancs: Vec<DocNodeId> = f.ancestors(s3_2).collect();
        assert_eq!(ancs, vec![s3, root]);
        let chain: Vec<DocNodeId> = f.ancestors_or_self(s3_2).collect();
        assert_eq!(chain, vec![s3_2, s3, root]);
    }
}
