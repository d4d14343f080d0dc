//! Synthetic dataset generators standing in for the paper's three crawls
//! (§5.1), plus the query-workload generator.
//!
//! The paper evaluates on three real datasets that cannot be redistributed:
//! a one-day Twitter crawl (I1), a Vodkaster dump (I2, French) and the Yelp
//! Dataset Challenge (I3). This crate builds **seeded synthetic instances
//! with the same construction rules and the same shape parameters** (see
//! the substitution table in DESIGN.md):
//!
//! * [`twitter`] — 3-node tweet documents (text/date/geo), ~85% retweets
//!   modeled as hashtag tags + endorsements on the retweeted tweet, ~6.9%
//!   replies as `S3:commentsOn`, DBpedia-style semantic enrichment, and
//!   Jaccard-similarity user edges with the paper's 0.1 threshold;
//! * [`vodkaster`] — movies whose first comment is the document, later
//!   comments comment on the first, one fragment per sentence, `follow`
//!   edges of weight 1, **no** knowledge base (the paper did not match the
//!   French corpus against one);
//! * [`yelp`] — businesses with chained reviews, friend edges of weight 1,
//!   semantic enrichment on;
//! * [`ontology`] — the DBpedia stand-in: a class tree (`≺sc`), typed
//!   entities with `foaf:name` surface forms that the text generator
//!   injects into documents (the entity-linking path of §5.1);
//! * [`text`] — Zipf-distributed vocabulary and sentence generation;
//! * [`workload`] — the paper's `qset(f, l, k)` workloads: `f` ∈ {rare,
//!   common} keyword frequency class, `l` ∈ {1, 5} keywords, `k` ∈ {1, 5,
//!   10, 50} results, 100 queries each (§5.1 "Queries").
//!
//! Everything is deterministic given a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod ontology;
pub mod text;
pub mod twitter;
pub mod vodkaster;
pub mod workload;
pub mod yelp;
pub mod zipf;

pub use ontology::{Ontology, OntologyConfig};
pub use text::TextGen;
pub use twitter::{TwitterConfig, TwitterDataset};
pub use vodkaster::{VodkasterConfig, VodkasterDataset};
pub use workload::{QuerySpec, Workload, WorkloadConfig};
pub use yelp::{YelpConfig, YelpDataset};
pub use zipf::Zipf;

/// Preset scales for the three instances. `tiny` is for unit tests,
/// `small` for the default benchmark harness run, `medium` for longer
/// harness runs; the paper-size instances are reachable by scaling the
/// individual configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A few dozen users — unit tests.
    Tiny,
    /// Hundreds of users — quick benchmark runs.
    Small,
    /// Thousands of users — representative benchmark runs.
    Medium,
}

impl Scale {
    /// Multiplier applied to the baseline (Small) sizes.
    pub fn factor(self) -> f64 {
        match self {
            Scale::Tiny => 0.1,
            Scale::Small => 1.0,
            Scale::Medium => 5.0,
        }
    }
}
