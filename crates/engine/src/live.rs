//! Live serving: ingest while queries run, behind an atomically swapped
//! snapshot — no stop-the-world rebuild.
//!
//! [`LiveShardedEngine`] wraps the frozen-snapshot [`ShardedEngine`]
//! behind an `RwLock<Arc<…>>` snapshot pointer; [`LiveEngine`] is it at
//! one shard. A query clones the current `Arc` and runs entirely against
//! that snapshot; an ingest builds the next snapshot **off** the serving
//! path (via [`InstanceBuilder::apply`], which extends — not rebuilds —
//! the instance), extends the partition (new components go to the
//! least-loaded shards, nothing moves) and publishes it with one pointer
//! swap. In-flight queries keep their snapshot alive; new queries see the
//! new one. The successor shares its predecessor's result cache, warm
//! propagation pool, scratch pool and gate, so warm state persists
//! *across* swaps and is governed purely by epochs — and each generation
//! carries its **own** epoch line (advanced, never shared), so a reader
//! still pinning an old generation can only stamp old epochs into the
//! shared cache, never a key the new one serves.
//!
//! # Invalidation
//!
//! Every ingest purges the result cache. What happens to the warm pool
//! depends on the delta ([`IngestSummary::detached`]):
//!
//! * a **detached** delta (nothing points at a pre-existing node) leaves
//!   every previously computed propagation exact, so the warm states are
//!   *rebased* onto the appended graph
//!   ([`s3_graph::PropagationState::rebase`]) instead of dropped
//!   ([`InvalidationScope::Scoped`]);
//! * anything else — a social edge from an existing user, a tag or
//!   comment on existing content, a new keyword bridging into the
//!   ontology — may change proximities reachable through the modified
//!   nodes, so the warm pool is dropped ([`InvalidationScope::Global`]).
//!
//! The [`IngestReport`] makes this observable: which scope was chosen, how
//! many cached results and warm states were dropped
//! ([`crate::CacheStats::invalidated`], [`ResumeStats::invalidated`]) and
//! how many warm states survived by rebase.
//!
//! Correctness bar (property-tested in `tests/ingest.rs`): after any
//! sequence of batches, query results are byte-identical to a cold
//! [`InstanceBuilder::snapshot`] of the same final data, on both the
//! unsharded and the sharded `{1, 2, 4}` paths.

use crate::gate::{LoadStats, ServeOutcome};
use crate::persist::{
    self, Checkpoint, CheckpointReport, Compact, CompactReport, PersistError, Persistence,
    RecoveryReport, RecoverySource,
};
use crate::{CacheStats, EngineConfig, ResumeStats, ShardedEngine};
use s3_core::{
    load_snapshot, save_snapshot, ComponentPartition, IngestBatch, IngestSummary, InstanceBuilder,
    Query, S3Instance, TopKResult, WriteAheadLog,
};
use s3_snap::SnapError;
use std::ops::Deref;
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// The single-writer state behind every live engine: the retained
/// builder, plus the durability journal when the engine was opened from a
/// directory ([`LiveShardedEngine::open`]). Ingests hold this lock from
/// journal through apply, so the WAL order is the apply order.
struct Writer {
    builder: InstanceBuilder,
    persist: Option<Persistence>,
}

/// Recover `(builder, instance, report)` from a persistence directory:
/// load the snapshot (or fall back to the seed), then replay the WAL's
/// intact records, each checked before it is applied.
fn recover(
    dir: &Path,
    seed: InstanceBuilder,
) -> Result<(Writer, S3Instance, RecoveryReport), PersistError> {
    std::fs::create_dir_all(dir).map_err(SnapError::from)?;
    let snapshot_path = persist::snapshot_path(dir);
    let (source, mut builder, mut instance) = if snapshot_path.exists() {
        let (builder, instance) = load_snapshot(&snapshot_path)?;
        (RecoverySource::Snapshot, builder, instance)
    } else {
        let instance = seed.snapshot();
        (RecoverySource::Seed, seed, instance)
    };
    let (wal, recovery) = WriteAheadLog::open(&persist::wal_path(dir))?;
    for record in &recovery.records {
        let batch = persist::record_to_batch(record)?;
        builder.check(&instance, &batch)?;
        let (next, _) = builder.apply(&instance, &batch);
        instance = next;
    }
    let report = RecoveryReport {
        source,
        replayed: recovery.records.len(),
        dropped_tail: recovery.dropped_tail,
    };
    let writer = Writer { builder, persist: Some(Persistence { wal, snapshot_path }) };
    Ok((writer, instance, report))
}

/// What an ingest did to the warm propagation pool (the result cache is
/// always purged).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidationScope {
    /// The delta touched pre-existing nodes, so proximities anywhere may
    /// have changed: the warm pool was dropped.
    Global,
    /// The delta was detached: the warm pool was rebased onto the
    /// appended graph.
    Scoped,
}

/// What one [`LiveShardedEngine::ingest`] did.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// The instance-level delta summary.
    pub summary: IngestSummary,
    /// What happened to the warm pool.
    pub scope: InvalidationScope,
    /// Cached results dropped.
    pub results_invalidated: u64,
    /// Warm propagation states dropped.
    pub warm_invalidated: u64,
    /// Warm propagation states that survived by rebasing onto the
    /// appended graph (detached deltas only).
    pub warm_rebased: u64,
}

impl std::fmt::Display for IngestReport {
    /// One serving-log line with the delta shape and the invalidation
    /// fallout — the companion of [`CacheStats`]'s and [`ResumeStats`]'s
    /// `Display`, and what the examples print after each batch.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "+{} users, +{} docs, +{} tags ({}, {} components touched) — \
             scope {}, {} results invalidated, {} warm dropped, {} warm rebased",
            self.summary.new_users,
            self.summary.new_documents,
            self.summary.new_tags,
            if self.summary.detached { "detached" } else { "attached" },
            self.summary.touched_components.len(),
            match self.scope {
                InvalidationScope::Global => "global",
                InvalidationScope::Scoped => "scoped",
            },
            self.results_invalidated,
            self.warm_invalidated,
            self.warm_rebased,
        )
    }
}

/// A live, ingestible serving engine over a [`ShardedEngine`] (see the
/// module docs; [`LiveEngine`]'s example runs it at one shard).
pub struct LiveShardedEngine {
    current: RwLock<Arc<ShardedEngine>>,
    /// The retained builder (single writer; ingests serialize here),
    /// plus the durability journal for [`Self::open`]-built engines.
    writer: Mutex<Writer>,
}

impl LiveShardedEngine {
    /// Freeze the builder's data, partition it into `num_shards` balanced
    /// shards and start serving. The builder is retained: every
    /// [`Self::ingest`] extends it. No durability — see [`Self::open`].
    pub fn new(builder: InstanceBuilder, config: EngineConfig, num_shards: usize) -> Self {
        let engine = ShardedEngine::new(Arc::new(builder.snapshot()), config, num_shards);
        let writer = Writer { builder, persist: None };
        LiveShardedEngine { current: RwLock::new(Arc::new(engine)), writer: Mutex::new(writer) }
    }

    /// Open a *durable* live engine from a persistence directory: load
    /// `<dir>/snapshot.s3k` when present (falling back to `seed` on a
    /// fresh directory), replay the intact `<dir>/ingest.wal` tail,
    /// partition the recovered instance into `num_shards` balanced shards
    /// and serve it. Subsequent [`Self::ingest`]s journal to the WAL
    /// (fsync before apply); [`Self::checkpoint`] writes a fresh snapshot
    /// and truncates it. The recovered engine answers queries
    /// byte-identically to the pre-restart one (warm restart).
    pub fn open(
        dir: &Path,
        seed: InstanceBuilder,
        config: EngineConfig,
        num_shards: usize,
    ) -> Result<(Self, RecoveryReport), PersistError> {
        let (writer, instance, report) = recover(dir, seed)?;
        let engine = ShardedEngine::new(Arc::new(instance), config, num_shards);
        let live = LiveShardedEngine {
            current: RwLock::new(Arc::new(engine)),
            writer: Mutex::new(writer),
        };
        Ok((live, report))
    }

    /// The current snapshot's engine. The returned `Arc` pins that
    /// snapshot: callers holding it across an ingest keep reading the
    /// data they started with.
    pub fn engine(&self) -> Arc<ShardedEngine> {
        Arc::clone(&self.current.read().expect("snapshot pointer poisoned"))
    }

    /// The current snapshot.
    pub fn instance(&self) -> Arc<S3Instance> {
        Arc::clone(self.engine().instance())
    }

    /// Answer one query against the current snapshot.
    pub fn query(&self, query: &Query) -> Arc<TopKResult> {
        self.engine().query(query)
    }

    /// Answer a batch against the current snapshot.
    pub fn run_batch(&self, queries: &[Query]) -> Vec<Arc<TopKResult>> {
        self.engine().run_batch(queries)
    }

    /// Answer one query through the admission gate against the current
    /// snapshot ([`ShardedEngine::serve`]). The gate is shared across
    /// snapshot swaps, so in-flight depth and load counters persist.
    pub fn serve(&self, query: &Query, deadline: Option<Duration>) -> ServeOutcome {
        self.engine().serve(query, deadline)
    }

    /// Load and shedding counters (shared across snapshots).
    pub fn load_stats(&self) -> LoadStats {
        self.engine().load_stats()
    }

    /// Result-cache counters (shared across snapshots).
    pub fn cache_stats(&self) -> CacheStats {
        self.engine().cache_stats()
    }

    /// Warm-propagation counters (shared across snapshots).
    pub fn resume_stats(&self) -> ResumeStats {
        self.engine().resume_stats()
    }

    /// Apply a batch and publish the extended snapshot atomically (see
    /// the module docs for what it invalidates).
    pub fn ingest(&self, batch: &IngestBatch) -> IngestReport {
        self.try_ingest(batch).expect("ingest failed")
    }

    /// [`Self::ingest`], surfacing errors. A batch that names an entity
    /// the engine lacks (or has deleted) is refused first, with
    /// [`PersistError::Rejected`]: nothing is journaled or applied. On a
    /// durable engine a valid batch is journaled and fsynced *before* it
    /// is applied (the WAL commit rule); a journal error means the batch
    /// was **not** applied and serving state is unchanged.
    pub fn try_ingest(&self, batch: &IngestBatch) -> Result<IngestReport, PersistError> {
        let mut writer = self.writer.lock().expect("ingest writer poisoned");
        let prev = self.engine();
        writer.builder.check(prev.instance(), batch).map_err(PersistError::Rejected)?;
        if let Some(persist) = writer.persist.as_mut() {
            persist.journal(batch)?;
        }
        let (instance, summary) = writer.builder.apply(prev.instance(), batch);
        let instance = Arc::new(instance);
        let partition = prev.partition().extended(&instance);
        let (scope, results_invalidated, warm_invalidated, warm_rebased) =
            self.publish(&prev, instance, partition, summary.detached);
        Ok(IngestReport { summary, scope, results_invalidated, warm_invalidated, warm_rebased })
    }

    /// Publish the successor of `prev` over `instance` and `partition`:
    /// purge the shared cache, then rebase the warm pool onto the appended
    /// graph when `detached`, or drop it. Returns the scope and the
    /// `(results dropped, warm dropped, warm rebased)` counts.
    fn publish(
        &self,
        prev: &ShardedEngine,
        instance: Arc<S3Instance>,
        partition: ComponentPartition,
        detached: bool,
    ) -> (InvalidationScope, u64, u64, u64) {
        let next = prev.succeed(Arc::clone(&instance), partition);
        let results = next.result_cache().invalidate();
        let (scope, dropped, rebased) = if detached {
            let gamma = next.search_config().score.gamma;
            let (kept, dropped) = next.prop_pool().rebase_all(
                prev.instance().graph(),
                instance.graph(),
                gamma,
                next.config_epoch(),
            );
            (InvalidationScope::Scoped, dropped, kept)
        } else {
            (InvalidationScope::Global, next.prop_pool().invalidate_all(), 0)
        };
        *self.current.write().expect("snapshot pointer poisoned") = Arc::new(next);
        (scope, results, dropped, rebased)
    }

    /// Write a fresh snapshot of the current state atomically, then
    /// truncate the WAL ([`Checkpoint::checkpoint`]). Errors on an
    /// engine built without [`Self::open`].
    pub fn checkpoint(&self) -> Result<CheckpointReport, PersistError> {
        let mut writer = self.writer.lock().expect("ingest writer poisoned");
        // Under the writer lock the latest published snapshot is exactly
        // the builder's state: every ingest publishes before unlocking.
        let engine = self.engine();
        let Writer { builder, persist } = &mut *writer;
        let persist = persist
            .as_mut()
            .ok_or(PersistError::Snapshot(SnapError::Value("engine opened without durability")))?;
        let absorbed = persist.wal.len();
        save_snapshot(&persist.snapshot_path, builder, engine.instance())?;
        persist.wal.truncate()?;
        Ok(CheckpointReport { absorbed })
    }

    /// Records currently in the WAL (`None` without durability).
    pub fn wal_records(&self) -> Option<u64> {
        let writer = self.writer.lock().expect("ingest writer poisoned");
        writer.persist.as_ref().map(|p| p.wal.len())
    }

    /// Fraction of the current snapshot's graph nodes that are
    /// tombstoned — the compaction trigger signal.
    pub fn dead_fraction(&self) -> f64 {
        self.instance().dead_fraction()
    }

    /// Run one compaction epoch: rebuild the instance without tombstoned
    /// state off the serving path ([`InstanceBuilder::compact`]),
    /// re-partition the clean instance into fresh balanced shards
    /// (compaction renumbers components, so the old placement is
    /// meaningless) and publish it atomically. Queries keep being served
    /// from the old snapshot until the swap; in-flight readers pinning it
    /// stay consistent.
    ///
    /// Compaction densely renumbers every entity id, so the cache and the
    /// warm pool are always dropped, and callers must refresh any
    /// [`s3_core::UserId`]/[`s3_doc::TreeId`]/tag ids they hold. On a
    /// durable engine the compaction **checkpoints before it publishes**
    /// — the compacted snapshot is written and the WAL truncated in the
    /// same critical section, because the journal's records reference
    /// pre-compaction ids and must never replay on top of the compacted
    /// snapshot.
    pub fn compact(&self) -> Result<CompactReport, PersistError> {
        let mut writer = self.writer.lock().expect("ingest writer poisoned");
        let (compacted, compaction) = writer.builder.compact();
        let instance = Arc::new(compacted.snapshot());
        let mut checkpointed = None;
        if let Some(persist) = writer.persist.as_mut() {
            checkpointed = Some(persist.wal.len());
            save_snapshot(&persist.snapshot_path, &compacted, &instance)?;
            persist.wal.truncate()?;
        }
        writer.builder = compacted;
        let prev = self.engine();
        let partition = ComponentPartition::balanced(&instance, prev.num_shards());
        let (_, results_invalidated, warm_invalidated, _) =
            self.publish(&prev, instance, partition, false);
        Ok(CompactReport { compaction, results_invalidated, warm_invalidated, checkpointed })
    }
}

impl Compact for LiveShardedEngine {
    fn dead_fraction(&self) -> f64 {
        LiveShardedEngine::dead_fraction(self)
    }

    fn compact(&self) -> Result<CompactReport, PersistError> {
        LiveShardedEngine::compact(self)
    }
}

impl Checkpoint for LiveShardedEngine {
    fn wal_records(&self) -> Option<u64> {
        LiveShardedEngine::wal_records(self)
    }

    fn checkpoint(&self) -> Result<CheckpointReport, PersistError> {
        LiveShardedEngine::checkpoint(self)
    }
}

/// The unsharded live engine: [`LiveShardedEngine`] at one shard. It
/// derefs to that engine for everything but construction.
///
/// ```
/// use s3_core::{IngestBatch, IngestDoc, InstanceBuilder, Query};
/// use s3_engine::{EngineConfig, LiveEngine};
/// use s3_text::Language;
///
/// let mut b = InstanceBuilder::new(Language::English);
/// let u = b.add_user();
/// let kws = b.analyze("a degree");
/// let mut doc = s3_doc::DocBuilder::new("post");
/// doc.set_content(doc.root(), kws);
/// b.add_document(doc, Some(u));
/// let live = LiveEngine::new(b, EngineConfig::builder().cache_capacity(64).build());
///
/// let keywords = live.instance().query_keywords("degree");
/// assert_eq!(live.query(&Query::new(u, keywords.clone(), 3)).hits.len(), 1);
///
/// let mut batch = IngestBatch::new();
/// let poster = batch.add_user();
/// let mut post = IngestDoc::new("post");
/// post.set_text(post.root(), "another degree");
/// batch.add_document(post, Some(poster));
/// let report = live.ingest(&batch);
/// assert!(report.summary.detached);
/// assert_eq!(live.instance().num_documents(), 2);
/// ```
pub struct LiveEngine(LiveShardedEngine);

impl LiveEngine {
    /// [`LiveShardedEngine::new`] at one shard.
    pub fn new(builder: InstanceBuilder, config: EngineConfig) -> Self {
        LiveEngine(LiveShardedEngine::new(builder, config, 1))
    }

    /// [`LiveShardedEngine::open`] at one shard.
    pub fn open(
        dir: &Path,
        seed: InstanceBuilder,
        config: EngineConfig,
    ) -> Result<(Self, RecoveryReport), PersistError> {
        let (live, report) = LiveShardedEngine::open(dir, seed, config, 1)?;
        Ok((LiveEngine(live), report))
    }

    /// [`LiveShardedEngine::query`] (named here so it wins over
    /// [`crate::Engine::query`] in method calls).
    pub fn query(&self, query: &Query) -> Arc<TopKResult> {
        self.0.query(query)
    }

    /// [`LiveShardedEngine::serve`] (named here so it wins over
    /// [`crate::Engine::serve`] in method calls).
    pub fn serve(&self, query: &Query, deadline: Option<Duration>) -> ServeOutcome {
        self.0.serve(query, deadline)
    }

    /// [`LiveShardedEngine::ingest`] (named here so it wins over
    /// [`crate::Ingest::ingest`] in method calls).
    pub fn ingest(&self, batch: &IngestBatch) -> IngestReport {
        self.0.ingest(batch)
    }
}

impl Deref for LiveEngine {
    type Target = LiveShardedEngine;

    fn deref(&self) -> &LiveShardedEngine {
        &self.0
    }
}

impl Compact for LiveEngine {
    fn dead_fraction(&self) -> f64 {
        self.0.dead_fraction()
    }

    fn compact(&self) -> Result<CompactReport, PersistError> {
        self.0.compact()
    }
}

impl Checkpoint for LiveEngine {
    fn wal_records(&self) -> Option<u64> {
        self.0.wal_records()
    }

    fn checkpoint(&self) -> Result<CheckpointReport, PersistError> {
        self.0.checkpoint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_core::{FragRef, IngestDoc, TagRef, TagSubjectRef, UserId, UserRef};
    use s3_doc::DocBuilder;
    use s3_text::Language;

    fn seed_builder() -> (InstanceBuilder, UserId, UserId) {
        let mut b = InstanceBuilder::new(Language::English);
        let author = b.add_user();
        let seeker = b.add_user();
        b.add_social_edge(seeker, author, 1.0);
        for text in ["rust degrees", "java degrees"] {
            let kws = b.analyze(text);
            let mut doc = DocBuilder::new("post");
            doc.set_content(doc.root(), kws);
            b.add_document(doc, Some(author));
        }
        (b, author, seeker)
    }

    fn detached_doc_batch(text: &str) -> IngestBatch {
        let mut batch = IngestBatch::new();
        let poster = batch.add_user();
        let mut doc = IngestDoc::new("post");
        doc.set_text(doc.root(), text);
        batch.add_document(doc, Some(poster));
        batch
    }

    #[test]
    fn queries_see_the_new_snapshot_and_pinned_engines_keep_the_old() {
        let (b, _, seeker) = seed_builder();
        let live = LiveEngine::new(b, EngineConfig::builder().threads(1).build());
        let kws = live.instance().query_keywords("degrees");
        let q = Query::new(seeker, kws, 5);
        assert_eq!(live.query(&q).hits.len(), 2);

        let pinned = live.engine();
        let report = live.ingest(&detached_doc_batch("more rust degrees"));
        assert!(report.summary.detached);
        assert_eq!(report.scope, InvalidationScope::Scoped);
        // The pinned engine still serves the old snapshot's universe...
        assert_eq!(pinned.instance().num_documents(), 2);
        // ...while the live path sees three documents (the new doc is
        // reachable only from its new poster — old seekers still get 2).
        assert_eq!(live.instance().num_documents(), 3);
        assert_eq!(live.query(&q).hits.len(), 2);
    }

    /// The front warm pool is the only one: after a detached ingest it is
    /// rebased (nothing dropped) and the next same-seeker query resumes
    /// it, at one shard and at two.
    #[test]
    fn detached_ingest_rebases_the_warm_pool() {
        for shards in [1, 2] {
            let (b, _, seeker) = seed_builder();
            let config = EngineConfig::builder().threads(1).cache_capacity(0).build();
            let live = LiveShardedEngine::new(b, config, shards);
            let kws = live.instance().query_keywords("degrees");
            live.query(&Query::new(seeker, kws.clone(), 2));
            let warm_before = live.resume_stats();
            assert!(warm_before.warm_misses > 0);

            let report = live.ingest(&detached_doc_batch("fresh degrees"));
            assert_eq!(report.scope, InvalidationScope::Scoped);
            assert_eq!(
                report.warm_invalidated, 0,
                "detached delta drops nothing ({shards} shards)"
            );
            assert!(report.warm_rebased > 0, "the parked propagation survives ({shards} shards)");
            assert!(report.results_invalidated == 0, "cache was disabled");

            // The next same-seeker query finds the rebased state warm.
            live.query(&Query::new(seeker, kws, 1));
            let warm_after = live.resume_stats();
            assert_eq!(warm_after.warm_hits, warm_before.warm_hits + 1, "{shards} shards");
            assert_eq!(warm_after.invalidated, 0);
        }
    }

    #[test]
    fn pinned_generation_cannot_poison_the_new_epoch() {
        let (b, author, seeker) = seed_builder();
        let live = LiveEngine::new(b, EngineConfig::builder().threads(1).build());
        let kws = live.instance().query_keywords("degrees");
        let q = Query::new(seeker, kws, 5);
        let pinned = live.engine();
        let epoch = pinned.config_epoch();

        // A non-detached ingest that changes this query's answer.
        let mut batch = IngestBatch::new();
        let mut doc = IngestDoc::new("post");
        doc.set_text(doc.root(), "python degrees");
        batch.add_document(doc, Some(UserRef::Existing(author)));
        live.ingest(&batch);
        assert_eq!(pinned.config_epoch(), epoch, "a pinned generation keeps its epoch line");
        assert_eq!(live.engine().config_epoch(), epoch + 1);

        // A straggler query through the pinned engine inserts its
        // pre-ingest answer into the *shared* cache — under the old
        // epoch, where the live engine can never serve it.
        let stale = pinned.query(&q);
        assert_eq!(stale.hits.len(), 2, "the pinned snapshot still has two matching docs");
        let fresh = live.query(&q);
        assert_eq!(fresh.hits.len(), 3, "the live path must recompute, not serve the straggler");
    }

    #[test]
    fn attached_ingest_goes_global() {
        let (b, author, seeker) = seed_builder();
        let live = LiveEngine::new(b, EngineConfig::builder().threads(1).build());
        let kws = live.instance().query_keywords("degrees");
        live.query(&Query::new(seeker, kws.clone(), 2));
        assert_eq!(live.cache_stats().entries, 1);

        // A social edge out of an existing user: scores may change anywhere.
        let mut batch = IngestBatch::new();
        let u = batch.add_user();
        batch.add_social_edge(UserRef::Existing(author), u, 0.5);
        let report = live.ingest(&batch);
        assert!(!report.summary.detached);
        assert_eq!(report.scope, InvalidationScope::Global);
        assert_eq!(report.results_invalidated, 1);
        assert_eq!(live.cache_stats().invalidated, 1);
        assert_eq!(live.cache_stats().entries, 0);
    }

    #[test]
    fn tag_on_existing_content_recomputes_its_component() {
        let (b, _, seeker) = seed_builder();
        let live = LiveEngine::new(b, EngineConfig::builder().threads(1).build());
        let root = live.instance().forest().root(s3_doc::TreeId(0));
        let mut batch = IngestBatch::new();
        let fan = batch.add_user();
        batch.add_social_edge(UserRef::Existing(seeker), fan, 0.9);
        batch.add_tag(TagSubjectRef::Frag(FragRef::Existing(root)), fan, Some("tagword"));
        let report = live.ingest(&batch);
        assert!(!report.summary.detached, "the tag points at existing content");
        let kws = live.instance().query_keywords("tagword");
        assert_eq!(kws.len(), 1);
        let res = live.query(&Query::new(seeker, kws, 3));
        assert!(!res.hits.is_empty(), "the tagged document is findable by the tag keyword");
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("s3k-live-persist-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn durable_engine_replays_wal_tail_on_reopen() {
        let dir = tmpdir("wal-tail");
        let config = || EngineConfig::builder().threads(1).build();
        let (b, _, seeker) = seed_builder();
        let (live, report) = LiveEngine::open(&dir, b, config()).unwrap();
        assert_eq!(report.source, RecoverySource::Seed);
        assert_eq!(report.replayed, 0);
        live.ingest(&detached_doc_batch("persistent degrees"));
        live.ingest(&detached_doc_batch("more persistent degrees"));
        assert_eq!(live.wal_records(), Some(2));
        let kws = live.instance().query_keywords("degrees");
        let q = Query::new(seeker, kws, 8);
        let before = live.query(&q);
        drop(live);

        // Same seed + journal replay must land on byte-identical state.
        let (b2, _, _) = seed_builder();
        let (reopened, report) = LiveEngine::open(&dir, b2, config()).unwrap();
        assert_eq!(report.source, RecoverySource::Seed, "no checkpoint was taken");
        assert_eq!(report.replayed, 2);
        assert!(!report.dropped_tail);
        let after = reopened.query(&q);
        assert_eq!(before.hits, after.hits);
        assert_eq!(before.candidate_docs, after.candidate_docs);
        assert_eq!(before.stats.stop, after.stats.stop);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_tag_on_a_cascade_killed_tag_is_rejected_before_the_journal() {
        let dir = tmpdir("cascade");
        let config = || EngineConfig::builder().threads(1).build();
        let seeded = || {
            let (mut b, author, seeker) = seed_builder();
            let root = b.doc_root(s3_doc::TreeId(0));
            let t0 = b.add_tag(s3_core::TagSubject::Frag(root), seeker, None);
            let t1 = b.add_tag(s3_core::TagSubject::Tag(t0), author, None);
            (b, t0, t1, seeker)
        };
        let (b, t0, t1, seeker) = seeded();
        let (live, _) = LiveEngine::open(&dir, b, config()).unwrap();
        live.ingest(&detached_doc_batch("journaled degrees"));
        // Deleting t0 kills t1 (it endorses t0), so the batch's tag on t1
        // can never apply.
        let mut batch = IngestBatch::new();
        batch.delete_tag(t0);
        batch.add_tag(TagSubjectRef::Tag(TagRef::Existing(t1)), UserRef::Existing(seeker), None);
        match live.try_ingest(&batch) {
            Err(PersistError::Rejected(e)) => assert!(e.to_string().contains("is deleted"), "{e}"),
            other => panic!("expected a rejection, got {:?}", other.map(|r| r.summary)),
        }
        assert_eq!(live.wal_records(), Some(1), "nothing journaled");
        live.ingest(&detached_doc_batch("still writable"));
        drop(live);
        let (reopened, report) = LiveEngine::open(&dir, seeded().0, config()).unwrap();
        assert_eq!(report.replayed, 2);
        assert_eq!(reopened.instance().num_documents(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_the_wal_and_reopen_loads_the_snapshot() {
        let dir = tmpdir("checkpoint");
        let config = || EngineConfig::builder().threads(1).build();
        let (b, _, seeker) = seed_builder();
        let (live, _) = LiveEngine::open(&dir, b, config()).unwrap();
        live.ingest(&detached_doc_batch("checkpointed degrees"));
        let report = live.checkpoint().unwrap();
        assert_eq!(report.absorbed, 1);
        assert_eq!(live.wal_records(), Some(0));
        // A post-checkpoint ingest lands in the fresh journal.
        live.ingest(&detached_doc_batch("post checkpoint degrees"));
        assert_eq!(live.wal_records(), Some(1));
        let kws = live.instance().query_keywords("degrees");
        let q = Query::new(seeker, kws, 8);
        let before = live.query(&q);
        drop(live);

        // The seed must be ignored: the snapshot carries the state.
        let empty_seed = InstanceBuilder::new(Language::English);
        let (reopened, report) = LiveEngine::open(&dir, empty_seed, config()).unwrap();
        assert_eq!(report.source, RecoverySource::Snapshot);
        assert_eq!(report.replayed, 1);
        let after = reopened.query(&q);
        assert_eq!(before.hits, after.hits);
        assert_eq!(before.candidate_docs, after.candidate_docs);
        assert_eq!(before.stats.stop, after.stats.stop);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_open_recovers_and_matches_unsharded() {
        let dir = tmpdir("sharded");
        let config = || EngineConfig::builder().threads(1).build();
        let (b, _, seeker) = seed_builder();
        let (live, _) = LiveShardedEngine::open(&dir, b, config(), 2).unwrap();
        live.ingest(&detached_doc_batch("sharded persistent degrees"));
        live.checkpoint().unwrap();
        live.ingest(&detached_doc_batch("sharded wal degrees"));
        let kws = live.instance().query_keywords("degrees");
        let q = Query::new(seeker, kws, 8);
        let before = live.query(&q);
        drop(live);

        let empty_seed = InstanceBuilder::new(Language::English);
        let (reopened, report) = LiveShardedEngine::open(&dir, empty_seed, config(), 2).unwrap();
        assert_eq!(report.source, RecoverySource::Snapshot);
        assert_eq!(report.replayed, 1);
        let after = reopened.query(&q);
        assert_eq!(before.hits, after.hits);
        assert_eq!(before.candidate_docs, after.candidate_docs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn background_checkpointer_absorbs_the_journal() {
        use crate::persist::Checkpointer;
        let dir = tmpdir("background");
        let (b, _, _) = seed_builder();
        let (live, _) =
            LiveEngine::open(&dir, b, EngineConfig::builder().threads(1).build()).unwrap();
        let live = Arc::new(live);
        live.ingest(&detached_doc_batch("background degrees"));
        let checkpointer = Checkpointer::spawn(Arc::clone(&live), Duration::from_millis(5), 1);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while live.wal_records() != Some(0) {
            assert!(std::time::Instant::now() < deadline, "checkpointer never fired");
            std::thread::sleep(Duration::from_millis(5));
        }
        let taken = checkpointer.stop().unwrap();
        assert!(taken >= 1);
        assert!(persist::snapshot_path(&dir).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn background_compactor_reclaims_tombstones() {
        use crate::persist::{CompactionPolicy, Compactor};
        let (b, _, seeker) = seed_builder();
        let live = Arc::new(LiveEngine::new(b, EngineConfig::builder().threads(1).build()));
        let mut batch = IngestBatch::new();
        batch.delete_document(s3_doc::TreeId(0));
        live.ingest(&batch);
        assert!(live.dead_fraction() > 0.0, "the deletion left a tombstone");

        let compactor = Compactor::spawn(
            Arc::clone(&live),
            CompactionPolicy { interval: Duration::from_millis(5), min_dead_fraction: 0.0 },
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while live.dead_fraction() > 0.0 {
            assert!(std::time::Instant::now() < deadline, "compactor never fired");
            std::thread::sleep(Duration::from_millis(5));
        }
        let taken = compactor.stop().unwrap();
        assert!(taken >= 1);
        // The surviving document still answers on the compacted state.
        let kws = live.instance().query_keywords("degrees");
        let res = live.query(&Query::new(seeker, kws, 5));
        assert_eq!(res.hits.len(), 1);
    }

    #[test]
    fn sharded_results_match_unsharded_across_ingests() {
        let (b, _, seeker) = seed_builder();
        let (b2, _, _) = seed_builder();
        let sharded = LiveShardedEngine::new(b, EngineConfig::builder().threads(2).build(), 2);
        let flat = LiveEngine::new(b2, EngineConfig::builder().threads(1).build());
        for round in 0..3 {
            let batch = detached_doc_batch(&format!("degrees wave {round}"));
            sharded.ingest(&batch);
            flat.ingest(&batch);
            let kws = sharded.instance().query_keywords("degrees");
            let q = Query::new(seeker, kws, 5);
            let a = sharded.query(&q);
            let b = flat.query(&q);
            assert_eq!(a.hits, b.hits);
            assert_eq!(a.candidate_docs, b.candidate_docs);
        }
    }
}
