//! Facade crate for the S3 reproduction (Bonaque, Cautis, Goasdoué,
//! Manolescu — *Social, Structured and Semantic Search*, EDBT 2016).
//!
//! This crate re-exports the public surface of every workspace crate so
//! applications can depend on a single `s3` crate:
//!
//! * [`text`] — tokenization, stemming, keyword interning;
//! * [`rdf`] — weighted RDF store, RDFS saturation, keyword extension;
//! * [`doc`] — structured documents, fragments, Dewey positions;
//! * [`graph`] — the social/content entity graph and proximity propagation;
//! * [`core`] — the S3 instance, `con(d,k)` connections, scores and the
//!   S3k top-k search algorithm;
//! * [`engine`] — the serving layer: batched concurrent queries over a
//!   shared instance, per-worker scratch reuse, an LRU result cache,
//!   [`engine::ShardedEngine`] scatter-gathering over component shards,
//!   and [`engine::FleetEngine`] driving shard *servers* over wire
//!   transports;
//! * [`wire`] — the cross-process protocol: versioned binary frames for
//!   the per-round exchange and the [`wire::ShardTransport`] trait with
//!   loopback and unix-socket implementations;
//! * [`topks`] — the TopkS baseline the paper compares against;
//! * [`datasets`] — synthetic Twitter/Vodkaster/Yelp generators and query
//!   workloads.
//!
//! See `examples/quickstart.rs` for an end-to-end tour,
//! `examples/serve_workload.rs` for the serving layer,
//! `examples/shard_scaleout.rs` for sharded scale-out,
//! `examples/live_ingest.rs` for live ingestion,
//! `examples/compaction.rs` for deletions, updates and compaction,
//! `examples/shard_fleet.rs` for the cross-process fleet and
//! `examples/warm_restart.rs` for durable restarts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub use s3_core as core;
pub use s3_datasets as datasets;
pub use s3_doc as doc;
pub use s3_engine as engine;
pub use s3_graph as graph;
pub use s3_rdf as rdf;
pub use s3_text as text;
pub use s3_topks as topks;
pub use s3_wire as wire;

/// Crate version of the facade.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
