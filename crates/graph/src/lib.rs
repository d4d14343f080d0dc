//! Entity-graph substrate (paper §2.5, §3.4 and the §5.2 optimizations).
//!
//! This crate holds the *network* view of an S3 instance: users, document
//! fragments and tags as nodes, and the paper's **network edges** — edges
//! whose properties are in the S3 namespace other than `S3:partOf`, with
//! users/documents/tags at both ends (`S3:social`, `S3:postedBy`,
//! `S3:commentsOn`, `S3:hasSubject`, `S3:hasAuthor` and their inverses).
//!
//! On top of it:
//!
//! * **vertical-neighborhood normalization** (§2.5 "Path normalization"):
//!   the weight of an edge taken after arriving at node `n` is divided by
//!   the total weight of the network edges leaving any vertical neighbor of
//!   `n` — [`SocialGraph::neighborhood_weight`];
//! * **proximity propagation** ([`Propagation`]): the paper's `borderProx`
//!   iteration (§5.2), an exact O(V+E)-per-step evaluation of the concrete
//!   social proximity of §3.4 — `prox(a,b) = Cγ · Σ_p prox→(p)/γ^|p|` — over
//!   *all* paths, with the long-path attenuation bound `B>n` that drives
//!   S3k's termination;
//! * **content components** ([`Components`]): the partition of documents
//!   and tags under `partOf` / `commentsOn±` / `hasSubject±` reachability,
//!   the pruning structure of §5.2;
//! * a **naive path-enumeration oracle** ([`naive`]) used by the test suite
//!   to certify the propagation engine against Definition 3.3 semantics.
//!
//! An explore step runs on the caller's thread; queries are parallel one
//! level up, across the serving layer's batch workers and shards.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod bitset;
pub mod component;
pub mod edge;
pub mod graph;
pub mod naive;
pub mod node;
pub mod propagation;

pub use bitset::BitSet;
pub use component::{CompId, Components};
pub use edge::EdgeKind;
pub use graph::{GraphBuilder, SocialGraph};
pub use node::{NodeId, NodeKind};
pub use propagation::{Propagation, PropagationState};
