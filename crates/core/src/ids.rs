//! Instance-level identifiers.

use s3_doc::DocNodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense id of a social-network user (`Ω`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct UserId(pub u32);

s3_snap::codec!(struct UserId { 0 });

impl UserId {
    /// The id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// Dense id of a tag (`T`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TagId(pub u32);

s3_snap::codec!(struct TagId { 0 });

impl TagId {
    /// The id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TagId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// What a tag is about (§2.4: "The tag subject is either a document or
/// another tag. The latter allows to express higher-level annotations").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TagSubject {
    /// A document fragment.
    Frag(DocNodeId),
    /// Another tag (higher-level annotation, requirement R4).
    Tag(TagId),
}

s3_snap::codec!(enum TagSubject { 0 => Frag(DocNodeId), 1 => Tag(TagId) });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(UserId(3).to_string(), "u3");
        assert_eq!(TagId(0).to_string(), "a0");
    }

    #[test]
    fn subjects() {
        let s = TagSubject::Frag(DocNodeId(1));
        assert_ne!(s, TagSubject::Tag(TagId(1)));
    }
}
