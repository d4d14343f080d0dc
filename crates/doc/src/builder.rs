//! Incremental construction of one document tree, before it is frozen into
//! the [`crate::Forest`].

use s3_text::KeywordId;

/// Node id local to one [`DocBuilder`]; resolved to a global
/// [`crate::DocNodeId`] once the document is added to a forest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LocalNodeId(pub u32);

s3_snap::codec!(struct LocalNodeId { 0 });

/// A node under construction. (Parent linkage is implied by membership in
/// the parent's `children`; the frozen `Forest` rebuilds parent pointers
/// during its pre-order traversal.)
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PendingNode {
    pub(crate) name: String,
    pub(crate) content: Vec<KeywordId>,
    pub(crate) children: Vec<LocalNodeId>,
}

/// Builder for one tree-shaped document (paper §2.3: unranked ordered tree;
/// children keep insertion order, which defines their 1-based Dewey ranks).
#[derive(Debug, Clone, PartialEq)]
pub struct DocBuilder {
    pub(crate) nodes: Vec<PendingNode>,
    /// Optional external URI string for the document root (kept for
    /// debugging/interop; internal identity is the node id).
    pub(crate) uri: Option<String>,
}

impl DocBuilder {
    /// Start a document whose root node has the given name.
    pub fn new(root_name: impl Into<String>) -> Self {
        DocBuilder {
            nodes: vec![PendingNode {
                name: root_name.into(),
                content: Vec::new(),
                children: Vec::new(),
            }],
            uri: None,
        }
    }

    /// The root node id.
    pub fn root(&self) -> LocalNodeId {
        LocalNodeId(0)
    }

    /// Attach an external URI string to the document.
    pub fn with_uri(mut self, uri: impl Into<String>) -> Self {
        self.uri = Some(uri.into());
        self
    }

    /// Append a child node under `parent`; returns its id.
    pub fn child(&mut self, parent: LocalNodeId, name: impl Into<String>) -> LocalNodeId {
        let id = LocalNodeId(self.nodes.len() as u32);
        self.nodes.push(PendingNode {
            name: name.into(),
            content: Vec::new(),
            children: Vec::new(),
        });
        self.nodes[parent.0 as usize].children.push(id);
        id
    }

    /// Append a child that immediately carries content.
    pub fn child_with_content(
        &mut self,
        parent: LocalNodeId,
        name: impl Into<String>,
        content: Vec<KeywordId>,
    ) -> LocalNodeId {
        let id = self.child(parent, name);
        self.set_content(id, content);
        id
    }

    /// Set (replace) the keyword content of a node.
    pub fn set_content(&mut self, node: LocalNodeId, content: Vec<KeywordId>) {
        self.nodes[node.0 as usize].content = content;
    }

    /// Add keywords to a node's content.
    pub fn add_content(&mut self, node: LocalNodeId, content: impl IntoIterator<Item = KeywordId>) {
        self.nodes[node.0 as usize].content.extend(content);
    }

    /// The name of a node.
    pub fn name(&self, node: LocalNodeId) -> &str {
        &self.nodes[node.0 as usize].name
    }

    /// The children of a node, in insertion order (their Dewey ranks).
    /// Node ids are assigned sequentially, so re-adding every node in id
    /// order with its recorded parent reproduces each child list exactly
    /// — the invariant the encoding of an ingest document relies on.
    pub fn children(&self, node: LocalNodeId) -> &[LocalNodeId] {
        &self.nodes[node.0 as usize].children
    }

    /// Number of nodes so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// A builder always has at least the root.
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_shape() {
        let mut b = DocBuilder::new("tweet");
        let text = b.child(b.root(), "text");
        let date = b.child(b.root(), "date");
        b.set_content(text, vec![KeywordId(7)]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.nodes[0].children, vec![text, date]);
        assert!(b.nodes[b.root().0 as usize].children.contains(&text));
        assert_eq!(b.nodes[text.0 as usize].content, vec![KeywordId(7)]);
    }

    #[test]
    fn uri_is_kept() {
        let b = DocBuilder::new("doc").with_uri("ex:d0");
        assert_eq!(b.uri.as_deref(), Some("ex:d0"));
    }
}
