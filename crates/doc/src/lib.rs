//! Structured-document substrate (paper §2.3).
//!
//! S3 documents are unranked, ordered trees of nodes (think XML or JSON):
//! every node has a URI, a name from a set `N` of node names, and a content
//! seen as a set of keywords (tokenized, stop-word-filtered, stemmed — see
//! the `s3-text` crate). Any subtree rooted at a node of document `d` is a
//! *fragment* of `d`; documents and fragments are identified by the URI of
//! their root node.
//!
//! This crate provides:
//!
//! * [`Forest`]: an arena holding every document tree of an instance, with
//!   per-node parent/children/depth and Euler-tour intervals (the basis of
//!   all subtree operations);
//! * [`dewey`]: Dewey-style positions — the paper's `pos(d, f)` function
//!   (§2.3 "Fragment position", implemented in the style of ORDPATH / Dewey
//!   labels as in the cited [19, 22]);
//! * vertical neighborhoods (Definition 2.2): two nodes are vertical
//!   neighbors iff one is a fragment of the other, i.e. the
//!   ancestor/descendant relation — *not* membership in the same tree;
//! * [`DocBuilder`]: an ergonomic way to construct documents.
//!
//! # Example
//!
//! ```
//! use s3_doc::{DocBuilder, Forest};
//!
//! let mut forest = Forest::new();
//! let mut b = DocBuilder::new("article");
//! let section = b.child(b.root(), "section");
//! let para = b.child(section, "p");
//! let other = b.child(b.root(), "aside");
//! let doc = forest.add_document(b);
//!
//! let root = forest.root(doc);
//! let para = forest.resolve(doc, para);
//! let other = forest.resolve(doc, other);
//! // pos(d, f): the paper's Dewey position of a fragment in a document.
//! assert_eq!(forest.pos(root, para).unwrap().as_slice(), &[1, 1]);
//! // Vertical neighborhood: root~para holds, but the two leaves are not
//! // vertical neighbors of each other (Definition 2.2).
//! assert!(forest.is_vertical_neighbor(root, para));
//! assert!(!forest.is_vertical_neighbor(para, other));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod builder;
pub mod dewey;
pub mod forest;
pub mod json;
pub mod xml;

pub use builder::{DocBuilder, LocalNodeId};
pub use dewey::Dewey;
pub use forest::{DocNodeId, Forest, TreeId};
pub use json::{parse_json, JsonError};
pub use xml::{parse_xml, XmlError};
