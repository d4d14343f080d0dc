//! The S3 data model and the S3k top-k keyword-search algorithm
//! (reproduction of Bonaque, Cautis, Goasdoué, Manolescu — *Social,
//! Structured and Semantic Search*, EDBT 2016).
//!
//! # What this crate provides
//!
//! * [`InstanceBuilder`] / [`S3Instance`] — the data model of §2: users and
//!   weighted social relationships, structured documents (via `s3-doc`),
//!   tags (including higher-level tags and keyword-less endorsements), an
//!   RDF/RDFS semantic layer (via `s3-rdf`), all interconnected through the
//!   network edges of §2.5 (via `s3-graph`);
//! * [`connections`] — the `con(d, k)` connection relation of §3.2, built
//!   as a seeker-independent index;
//! * [`score`] — the generic score interface of §3.3 and the concrete S3k
//!   score of Definition 3.5;
//! * [`search`] — the S3k query-answering algorithm of §4, with both the
//!   threshold-based stop condition and any-time termination;
//! * [`oracle`] — a brute-force reference implementation used by the test
//!   suite to certify S3k's correctness (Theorems 4.1–4.3) on small
//!   instances.
//!
//! # Quick start
//!
//! ```
//! use s3_core::{InstanceBuilder, Query, SearchConfig};
//! use s3_doc::DocBuilder;
//! use s3_text::Language;
//!
//! let mut b = InstanceBuilder::new(Language::English);
//! let alice = b.add_user();
//! let bob = b.add_user();
//! b.add_social_edge(alice, bob, 0.8);
//!
//! let kws = b.analyze("a degree gives more opportunities");
//! let mut doc = DocBuilder::new("post");
//! let text = doc.root();
//! doc.set_content(text, kws);
//! b.add_document(doc, Some(bob));
//!
//! let instance = b.build();
//! let degree = instance.query_keywords("degree");
//! let results = instance.search(&Query::new(alice, degree, 3), &SearchConfig::default());
//! assert_eq!(results.hits.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod clock;
pub mod connections;
pub mod export;
pub mod ids;
pub mod ingest;
pub mod instance;
pub mod oracle;
pub mod partition;
pub mod score;
pub mod search;
pub mod snapshot;
pub mod wal;

pub use clock::SearchClock;
pub use connections::{ConnType, Connection, ConnectionIndex};
// The component id and the propagation are part of this crate's public
// API (component keyword sets, partitioning, per-layer probes);
// re-exported so layers above `core` need not reach into `s3-graph`.
pub use ids::{TagId, TagSubject, UserId};
pub use ingest::{
    DocRef, FragRef, IngestBatch, IngestDoc, IngestError, IngestSummary, TagRef, TagSubjectRef,
    UserRef, MAX_NEW_USERS,
};
pub use instance::{CompactionReport, InstanceBuilder, InstanceStats, S3Instance};
pub use partition::ComponentPartition;
pub use s3_graph::{CompId, Propagation};
pub use score::{AnyKeywordScore, S3kScore, ScoreModel, TypeWeightedScore};
pub use search::{
    FleetShard, Hit, MergeScratch, QualityBound, Query, Round, RoundExecutor, S3kEngine,
    S3kSession, SearchConfig, SearchScratch, SearchStats, StopReason, TopKResult,
};
pub use snapshot::{
    load_snapshot, read_snapshot, save_snapshot, write_snapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use wal::{WalRecovery, WriteAheadLog, MAX_WAL_RECORD, WAL_VERSION};
