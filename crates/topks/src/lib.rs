//! TopkS — the baseline system the paper compares against (§5.1), a Rust
//! re-implementation of the top-k social search of Maniu & Cautis,
//! *Network-aware search in social tagging applications* (CIKM 2013),
//! reference \[18\] of the paper.
//!
//! TopkS works on the flat **UIT** (user, item, tag) model:
//!
//! * users with weighted links (one number per directed pair);
//! * atomic items — no internal structure, no fragments;
//! * `(user, item, tag)` triples — no semantics, no tag-to-tag relations.
//!
//! The item score blends a social and a content part,
//! `α · social + (1−α) · content` (the paper sweeps α ∈ {0.25, 0.5, 0.75}),
//! where the social proximity between two users is the **single best path**
//! (maximum product of edge weights) — *not* the all-paths aggregation of
//! S3 — explored incrementally with a Dijkstra-style expansion, and the
//! termination uses NRA-style upper bounds in the spirit of Fagin's
//! threshold algorithms (\[8\] in the paper).
//!
//! [`convert`] adapts an S3 instance into UIT exactly as §5.1 describes
//! (tweets merged with their retweets/replies into one item, etc.), so the
//! benchmark harness can run both systems on the same data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod convert;
pub mod model;
pub mod search;

pub use convert::{uit_from_s3, UitAdaptation};
pub use model::{ItemId, UitInstance};
pub use search::{TopkSConfig, TopkSEngine, TopkSHit, TopkSResult, TopkSStats};
