//! Graph nodes: users, fragments, tags.

use s3_doc::DocNodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense id of a graph node. Fragment nodes of one document tree occupy a
/// contiguous id range in pre-order (mirroring `s3_doc::Forest`), which the
/// propagation engine exploits for vertical-neighborhood sums.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// What a graph node stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// A social-network user (`Ω`); payload = dense user index.
    User(u32),
    /// A document node / fragment (`D`).
    Frag(DocNodeId),
    /// A tag (`T`); payload = dense tag index.
    Tag(u32),
}

impl NodeKind {
    /// Is this a user?
    #[inline]
    pub fn is_user(self) -> bool {
        matches!(self, NodeKind::User(_))
    }

    /// Is this a fragment?
    #[inline]
    pub fn is_frag(self) -> bool {
        matches!(self, NodeKind::Frag(_))
    }

    /// Is this a tag?
    #[inline]
    pub fn is_tag(self) -> bool {
        matches!(self, NodeKind::Tag(_))
    }

    /// The fragment id, if this is a fragment node.
    #[inline]
    pub fn as_frag(self) -> Option<DocNodeId> {
        match self {
            NodeKind::Frag(d) => Some(d),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(NodeKind::User(0).is_user());
        assert!(NodeKind::Tag(1).is_tag());
        let f = NodeKind::Frag(DocNodeId(3));
        assert!(f.is_frag());
        assert_eq!(f.as_frag(), Some(DocNodeId(3)));
        assert_eq!(NodeKind::User(0).as_frag(), None);
    }
}
