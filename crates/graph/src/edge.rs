//! Network-edge kinds (paper §2.4–§2.5).

use serde::{Deserialize, Serialize};

/// The S3 properties that form network edges, plus the paper's inverse
/// properties (§2.4). `S3:partOf` and `S3:contains` are deliberately absent:
/// they "merely describe data content and not an interaction" (§2.5) — the
/// tree structure lives in `s3_doc::Forest` and content in the `con` index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeKind {
    /// `S3:social` (or any specialization): user → user, weighted.
    Social,
    /// `S3:postedBy`: document → posting user.
    PostedBy,
    /// Inverse: user → document they posted.
    PostedByInv,
    /// `S3:commentsOn`: comment document → commented fragment.
    CommentsOn,
    /// Inverse: fragment → comment on it.
    CommentsOnInv,
    /// `S3:hasSubject`: tag → tagged document-or-tag.
    HasSubject,
    /// Inverse: document-or-tag → tag on it.
    HasSubjectInv,
    /// `S3:hasAuthor`: tag → its author.
    HasAuthor,
    /// Inverse: user → tag they authored.
    HasAuthorInv,
}

impl EdgeKind {
    /// The inverse kind, where one exists (social links are directed and
    /// carry their own weight in each direction).
    pub fn inverse(self) -> Option<EdgeKind> {
        use EdgeKind::*;
        match self {
            Social => None,
            PostedBy => Some(PostedByInv),
            PostedByInv => Some(PostedBy),
            CommentsOn => Some(CommentsOnInv),
            CommentsOnInv => Some(CommentsOn),
            HasSubject => Some(HasSubjectInv),
            HasSubjectInv => Some(HasSubject),
            HasAuthor => Some(HasAuthorInv),
            HasAuthorInv => Some(HasAuthor),
        }
    }

    /// Is this one of the edges Algorithm `GetDocuments` chases to discover
    /// related documents (§4.1): `S3:commentsOn`, `S3:commentsOn⁻`,
    /// `S3:hasSubject`, `S3:hasSubject⁻`? (`S3:partOf` chains are implicit:
    /// a whole tree is one unit.) These edges also define the content
    /// components of the §5.2 pruning optimization.
    pub fn is_content_closure(self) -> bool {
        use EdgeKind::*;
        matches!(self, CommentsOn | CommentsOnInv | HasSubject | HasSubjectInv)
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        use EdgeKind::*;
        match self {
            Social => "S3:social",
            PostedBy => "S3:postedBy",
            PostedByInv => "S3:postedBy⁻",
            CommentsOn => "S3:commentsOn",
            CommentsOnInv => "S3:commentsOn⁻",
            HasSubject => "S3:hasSubject",
            HasSubjectInv => "S3:hasSubject⁻",
            HasAuthor => "S3:hasAuthor",
            HasAuthorInv => "S3:hasAuthor⁻",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverses_are_involutive() {
        use EdgeKind::*;
        for k in [PostedBy, CommentsOn, HasSubject, HasAuthor] {
            let inv = k.inverse().unwrap();
            assert_eq!(inv.inverse(), Some(k));
        }
        assert_eq!(Social.inverse(), None);
    }

    #[test]
    fn content_closure_kinds() {
        use EdgeKind::*;
        assert!(CommentsOn.is_content_closure());
        assert!(HasSubjectInv.is_content_closure());
        assert!(!Social.is_content_closure());
        assert!(!PostedBy.is_content_closure());
        assert!(!HasAuthor.is_content_closure());
    }
}
