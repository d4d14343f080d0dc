//! The unified serving API: one [`Engine`] trait over every engine type.
//!
//! The crate grew five ways to serve the same search — [`S3Engine`]
//! (frozen, unsharded), [`ShardedEngine`] (frozen scatter-gather),
//! [`LiveEngine`] / [`LiveShardedEngine`] (ingest while serving), and
//! [`FleetEngine`] (cross-process scatter-gather) — with slightly
//! different surfaces: `&self` vs `&mut self`, infallible vs
//! `Result<_, WireError>`, three separate stats accessors. [`Engine`]
//! is the common denominator every harness, example and benchmark can
//! be written against:
//!
//! * `query` / `serve` take `&mut self` (the fleet client drives
//!   transports serially) and return `Result` (only transports and
//!   journals can actually fail; the in-process engines never do);
//! * [`Engine::stats`] returns the consolidated [`EngineStats`] — the
//!   result-cache, warm-resume and load counters in one struct with one
//!   `Display` — instead of three separately-fetched values;
//! * engines that can ingest while serving also implement [`Ingest`].
//!
//! All five implementations answer byte-identically for the same data
//! (the crate-wide property bar), so code written against `dyn Engine`
//! is oblivious to which one it drives — `tests/api.rs` runs one shared
//! harness over all of them.

use crate::gate::{LoadStats, ServeOutcome};
use crate::persist::PersistError;
use crate::{
    CacheStats, FleetEngine, LiveEngine, LiveShardedEngine, ResumeStats, S3Engine, ShardedEngine,
};
use s3_core::{IngestBatch, IngestError, IngestSummary, Query, TopKResult};
use s3_wire::WireError;
use std::sync::Arc;
use std::time::Duration;

/// Errors a serving call can surface. In-process queries never fail;
/// the fleet client surfaces transport errors, durable live engines
/// surface journal errors on ingest, and every ingesting engine refuses
/// a batch that names an entity it lacks.
#[derive(Debug)]
pub enum EngineError {
    /// A fleet transport failed (I/O, protocol, replica divergence).
    Wire(WireError),
    /// The durability layer failed (WAL append, snapshot write).
    Persist(PersistError),
    /// An ingest batch was refused before anything was journaled,
    /// shipped or applied.
    Rejected(IngestError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Wire(e) => write!(f, "fleet transport: {e}"),
            EngineError::Persist(e) => write!(f, "durability: {e}"),
            EngineError::Rejected(e) => write!(f, "ingest batch rejected: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Wire(e) => Some(e),
            EngineError::Persist(e) => Some(e),
            EngineError::Rejected(e) => Some(e),
        }
    }
}

impl From<WireError> for EngineError {
    fn from(e: WireError) -> Self {
        EngineError::Wire(e)
    }
}

impl From<PersistError> for EngineError {
    fn from(e: PersistError) -> Self {
        match e {
            PersistError::Rejected(e) => EngineError::Rejected(e),
            e => EngineError::Persist(e),
        }
    }
}

/// Every serving counter in one place: what [`Engine::stats`] returns.
///
/// Engines without a given subsystem report that section's defaults
/// (e.g. the fleet client keeps no result cache, so `cache` stays
/// all-zero).
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Result-cache counters.
    pub cache: CacheStats,
    /// Warm-propagation (resume) counters.
    pub resume: ResumeStats,
    /// Admission-gate load counters.
    pub load: LoadStats,
}

impl std::fmt::Display for EngineStats {
    /// Three serving-log lines: cache, resume, load.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cache: {}\nresume: {}\nload: {}", self.cache, self.resume, self.load)
    }
}

/// The unified serving interface (see the module docs).
pub trait Engine {
    /// Answer one query.
    fn query(&mut self, query: &Query) -> Result<Arc<TopKResult>, EngineError>;

    /// Answer one query through the admission gate with an optional
    /// per-query deadline.
    fn serve(
        &mut self,
        query: &Query,
        deadline: Option<Duration>,
    ) -> Result<ServeOutcome, EngineError>;

    /// The consolidated serving counters.
    fn stats(&self) -> EngineStats;
}

/// Engines that can ingest new data while serving.
pub trait Ingest: Engine {
    /// Apply one batch; queries issued after this call see its data.
    fn ingest(&mut self, batch: &IngestBatch) -> Result<IngestSummary, EngineError>;
}

impl Engine for S3Engine {
    fn query(&mut self, query: &Query) -> Result<Arc<TopKResult>, EngineError> {
        Ok(S3Engine::query(self, query))
    }

    fn serve(
        &mut self,
        query: &Query,
        deadline: Option<Duration>,
    ) -> Result<ServeOutcome, EngineError> {
        Ok(S3Engine::serve(self, query, deadline))
    }

    fn stats(&self) -> EngineStats {
        EngineStats {
            cache: self.cache_stats(),
            resume: self.resume_stats(),
            load: self.load_stats(),
        }
    }
}

impl Engine for ShardedEngine {
    fn query(&mut self, query: &Query) -> Result<Arc<TopKResult>, EngineError> {
        Ok(ShardedEngine::query(self, query))
    }

    fn serve(
        &mut self,
        query: &Query,
        deadline: Option<Duration>,
    ) -> Result<ServeOutcome, EngineError> {
        Ok(ShardedEngine::serve(self, query, deadline))
    }

    fn stats(&self) -> EngineStats {
        EngineStats {
            cache: self.cache_stats(),
            resume: self.resume_stats(),
            load: self.load_stats(),
        }
    }
}

impl Engine for LiveEngine {
    fn query(&mut self, query: &Query) -> Result<Arc<TopKResult>, EngineError> {
        Ok(LiveEngine::query(self, query))
    }

    fn serve(
        &mut self,
        query: &Query,
        deadline: Option<Duration>,
    ) -> Result<ServeOutcome, EngineError> {
        Ok(LiveEngine::serve(self, query, deadline))
    }

    fn stats(&self) -> EngineStats {
        EngineStats {
            cache: self.cache_stats(),
            resume: self.resume_stats(),
            load: self.load_stats(),
        }
    }
}

impl Ingest for LiveEngine {
    fn ingest(&mut self, batch: &IngestBatch) -> Result<IngestSummary, EngineError> {
        Ok(LiveEngine::try_ingest(self, batch)?.summary)
    }
}

impl Engine for LiveShardedEngine {
    fn query(&mut self, query: &Query) -> Result<Arc<TopKResult>, EngineError> {
        Ok(LiveShardedEngine::query(self, query))
    }

    fn serve(
        &mut self,
        query: &Query,
        deadline: Option<Duration>,
    ) -> Result<ServeOutcome, EngineError> {
        Ok(LiveShardedEngine::serve(self, query, deadline))
    }

    fn stats(&self) -> EngineStats {
        EngineStats {
            cache: self.cache_stats(),
            resume: self.resume_stats(),
            load: self.load_stats(),
        }
    }
}

impl Ingest for LiveShardedEngine {
    fn ingest(&mut self, batch: &IngestBatch) -> Result<IngestSummary, EngineError> {
        Ok(LiveShardedEngine::try_ingest_with(self, batch, false)?.summary)
    }
}

impl Engine for FleetEngine {
    fn query(&mut self, query: &Query) -> Result<Arc<TopKResult>, EngineError> {
        Ok(Arc::new(FleetEngine::query(self, query)?))
    }

    fn serve(
        &mut self,
        query: &Query,
        deadline: Option<Duration>,
    ) -> Result<ServeOutcome, EngineError> {
        Ok(FleetEngine::serve(self, query, deadline)?)
    }

    fn stats(&self) -> EngineStats {
        // The fleet client keeps no result cache or warm pool of its
        // own; only the gate's load counters apply.
        EngineStats { load: self.load_stats(), ..EngineStats::default() }
    }
}

impl Ingest for FleetEngine {
    fn ingest(&mut self, batch: &IngestBatch) -> Result<IngestSummary, EngineError> {
        FleetEngine::ingest(self, batch)
    }
}
