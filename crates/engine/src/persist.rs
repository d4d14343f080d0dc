//! Durable live serving: snapshot + ingest WAL + warm restarts.
//!
//! The live engines ([`crate::LiveEngine::open`],
//! [`crate::LiveShardedEngine::open`]) persist their state in one
//! directory:
//!
//! ```text
//! <dir>/snapshot.s3k   the last checkpoint (s3_core::save_snapshot)
//! <dir>/ingest.wal     batches applied since (s3_core::WriteAheadLog)
//! ```
//!
//! **Commit rule.** Every [`s3_core::IngestBatch`] is journaled — as the
//! ingest frame it would ship in ([`s3_wire::encode_ingest`]) — and
//! fsynced *before* it is applied, so an ingest whose effect was ever
//! observable can always be replayed after a crash.
//!
//! **Recovery** is load-snapshot-then-replay-tail: `open` loads the
//! snapshot — decodes its builder and cold-builds the instance — (or
//! seeds a fresh builder when no snapshot file exists; an unreadable one
//! is an error) and replays the WAL's intact records through
//! [`s3_core::InstanceBuilder::apply`].
//! Because the builder's event log is replay-stable, the recovered
//! engine answers queries byte-identically to the one that crashed.
//!
//! **Checkpointing** (`checkpoint` on the live engines, or a background
//! [`Checkpointer`]) writes a fresh snapshot atomically and then — only
//! then — truncates the WAL, upholding the invariant that
//! `snapshot + WAL tail ≡ current state` at every instant.

use s3_core::{CompactionReport, IngestBatch, IngestError, WriteAheadLog};
use s3_snap::SnapError;
use s3_wire::{decode_ingest, encode_ingest, WireError};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Snapshot file name inside a persistence directory.
pub const SNAPSHOT_FILE: &str = "snapshot.s3k";

/// WAL file name inside a persistence directory.
pub const WAL_FILE: &str = "ingest.wal";

/// Errors from the durability layer.
#[derive(Debug)]
pub enum PersistError {
    /// Snapshot or WAL file error (I/O, corruption, version mismatch).
    Snapshot(SnapError),
    /// A WAL record's bytes did not decode as an ingest frame. The CRC
    /// matched, so this is version skew or a writer bug — never applied.
    Record(WireError),
    /// A WAL record decoded but names an entity the recovering builder
    /// lacks: the log does not belong to this snapshot or seed. Nothing
    /// of the record was applied.
    Replay(IngestError),
    /// An ingest batch names an entity the engine lacks or has deleted.
    /// It was refused before anything was journaled or applied.
    Rejected(IngestError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Snapshot(e) => write!(f, "snapshot/WAL: {e}"),
            PersistError::Record(e) => write!(f, "WAL record decode: {e}"),
            PersistError::Replay(e) => write!(f, "WAL record replay: {e}"),
            PersistError::Rejected(e) => write!(f, "ingest batch rejected: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Snapshot(e) => Some(e),
            PersistError::Record(e) => Some(e),
            PersistError::Replay(e) | PersistError::Rejected(e) => Some(e),
        }
    }
}

impl From<SnapError> for PersistError {
    fn from(e: SnapError) -> Self {
        PersistError::Snapshot(e)
    }
}

impl From<WireError> for PersistError {
    fn from(e: WireError) -> Self {
        PersistError::Record(e)
    }
}

impl From<IngestError> for PersistError {
    fn from(e: IngestError) -> Self {
        PersistError::Replay(e)
    }
}

/// Where a recovered engine's initial state came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverySource {
    /// No snapshot on disk: the engine started from the seed builder.
    Seed,
    /// The on-disk snapshot was loaded.
    Snapshot,
}

/// What [`crate::LiveEngine::open`] / [`crate::LiveShardedEngine::open`]
/// found and did.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Snapshot or seed start.
    pub source: RecoverySource,
    /// WAL records replayed on top of the starting state.
    pub replayed: usize,
    /// True when a torn or corrupt WAL tail was discarded.
    pub dropped_tail: bool,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recovered from {} + {} WAL record{}{}",
            match self.source {
                RecoverySource::Seed => "seed",
                RecoverySource::Snapshot => "snapshot",
            },
            self.replayed,
            if self.replayed == 1 { "" } else { "s" },
            if self.dropped_tail { " (torn tail dropped)" } else { "" },
        )
    }
}

/// The journal + snapshot path a durable live engine holds (under its
/// writer lock, so WAL appends serialize with the applies they precede).
pub(crate) struct Persistence {
    pub(crate) wal: WriteAheadLog,
    pub(crate) snapshot_path: PathBuf,
}

impl Persistence {
    /// Journal one batch (encoded as an ingest frame) and fsync it — the
    /// commit rule's first half; the caller applies afterwards.
    pub(crate) fn journal(&mut self, batch: &IngestBatch) -> Result<(), SnapError> {
        let mut payload = Vec::new();
        encode_ingest(batch, &mut payload);
        self.wal.append(&payload)
    }
}

/// Decode one WAL record back into a batch.
pub(crate) fn record_to_batch(record: &[u8]) -> Result<IngestBatch, WireError> {
    let mut batch = IngestBatch::default();
    decode_ingest(record, &mut batch)?;
    Ok(batch)
}

/// The snapshot path inside a persistence directory.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAPSHOT_FILE)
}

/// The WAL path inside a persistence directory.
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join(WAL_FILE)
}

/// What one checkpoint did.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointReport {
    /// WAL records the fresh snapshot absorbed (the journal was this
    /// long before it was truncated).
    pub absorbed: u64,
}

/// A live engine that can take checkpoints — implemented by
/// [`crate::LiveEngine`] and [`crate::LiveShardedEngine`] when opened
/// with durability, and what a background [`Checkpointer`] drives.
pub trait Checkpoint: Send + Sync {
    /// Records currently in the WAL, or `None` when the engine was built
    /// without durability.
    fn wal_records(&self) -> Option<u64>;

    /// Write a fresh snapshot atomically, then truncate the WAL.
    fn checkpoint(&self) -> Result<CheckpointReport, PersistError>;
}

/// A background checkpointing thread: every `interval`, if the WAL has
/// at least `min_records` records, take a checkpoint. Stop (and surface
/// any error) with [`Self::stop`].
pub struct Checkpointer(Periodic);

impl Checkpointer {
    /// Spawn the thread over any [`Checkpoint`]-able engine.
    pub fn spawn<C: Checkpoint + 'static>(
        engine: Arc<C>,
        interval: Duration,
        min_records: u64,
    ) -> Self {
        Checkpointer(Periodic::spawn(interval, move || match engine.wal_records() {
            Some(n) if n >= min_records.max(1) => engine.checkpoint().map(|_| true),
            _ => Ok(false),
        }))
    }

    /// Checkpoints taken so far.
    pub fn taken(&self) -> u64 {
        self.0.taken()
    }

    /// Signal the thread, join it, and return the number of checkpoints
    /// taken — or the last checkpoint error, if any occurred.
    pub fn stop(self) -> Result<u64, PersistError> {
        self.0.stop()
    }
}

/// What one compaction epoch did: the instance-level rebuild summary
/// plus the serving-layer fallout (compaction renumbers every entity id,
/// so the invalidation is always global).
#[derive(Debug, Clone)]
pub struct CompactReport {
    /// The clean rebuild's drop counts ([`s3_core::InstanceBuilder::compact`]).
    pub compaction: CompactionReport,
    /// Cached results dropped.
    pub results_invalidated: u64,
    /// WAL records absorbed by the checkpoint the compaction forced
    /// (`None` on an engine without durability). A durable compaction
    /// *must* checkpoint before publishing: the journal's records
    /// reference pre-compaction ids and would replay wrongly on top of
    /// the compacted snapshot.
    pub checkpointed: Option<u64>,
}

impl std::fmt::Display for CompactReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} — {} results invalidated{}",
            self.compaction,
            self.results_invalidated,
            match self.checkpointed {
                Some(n) => format!(", checkpoint absorbed {n} WAL records"),
                None => String::new(),
            },
        )
    }
}

/// A live engine that can compact tombstoned state away — implemented by
/// [`crate::LiveEngine`] and [`crate::LiveShardedEngine`], and what a
/// background [`Compactor`] drives.
pub trait Compact: Send + Sync {
    /// Fraction of the current snapshot's graph nodes that are
    /// tombstoned (the compaction trigger signal; 0 when nothing has
    /// been deleted).
    fn dead_fraction(&self) -> f64;

    /// Rebuild the instance without tombstoned state off the serving
    /// path and swap the clean snapshot in.
    fn compact(&self) -> Result<CompactReport, PersistError>;
}

/// When a background [`Compactor`] fires.
#[derive(Debug, Clone, Copy)]
pub struct CompactionPolicy {
    /// How often the trigger signal is polled.
    pub interval: Duration,
    /// Compact once at least this fraction of graph nodes is tombstoned
    /// (a compaction epoch costs a full rebuild, so fire only when the
    /// reclaimed memory and pruned dead-node skips pay for it).
    pub min_dead_fraction: f64,
}

impl Default for CompactionPolicy {
    /// Poll every 60 s; compact at ≥ 20 % dead nodes.
    fn default() -> Self {
        CompactionPolicy { interval: Duration::from_secs(60), min_dead_fraction: 0.2 }
    }
}

/// A background compaction thread: every [`CompactionPolicy::interval`],
/// if the engine's dead-node fraction has reached
/// [`CompactionPolicy::min_dead_fraction`], run one compaction epoch.
/// Stop (and surface any error) with [`Self::stop`].
pub struct Compactor(Periodic);

impl Compactor {
    /// Spawn the thread over any [`Compact`]-able engine.
    pub fn spawn<C: Compact + 'static>(engine: Arc<C>, policy: CompactionPolicy) -> Self {
        Compactor(Periodic::spawn(policy.interval, move || {
            let dead = engine.dead_fraction();
            if dead > 0.0 && dead >= policy.min_dead_fraction {
                engine.compact().map(|_| true)
            } else {
                Ok(false)
            }
        }))
    }

    /// Compaction epochs completed so far.
    pub fn taken(&self) -> u64 {
        self.0.taken()
    }

    /// Signal the thread, join it, and return the number of compactions
    /// taken — or the last compaction error, if any occurred.
    pub fn stop(self) -> Result<u64, PersistError> {
        self.0.stop()
    }
}

struct PeriodicShared {
    stop: Mutex<bool>,
    wake: Condvar,
    /// Bumped with `Release` after each action, read with `Acquire`: a
    /// caller that sees the count also sees the action's effects.
    taken: AtomicU64,
    last_error: Mutex<Option<PersistError>>,
}

/// The one background loop behind [`Checkpointer`] and [`Compactor`]:
/// every `interval` (or until stopped) run `tick`, which tests its trigger
/// and acts — `Ok(true)` when it acted, `Ok(false)` when the trigger did
/// not fire. Actions are counted; the last error is kept for [`Self::stop`].
struct Periodic {
    shared: Arc<PeriodicShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Periodic {
    fn spawn(
        interval: Duration,
        mut tick: impl FnMut() -> Result<bool, PersistError> + Send + 'static,
    ) -> Self {
        let shared = Arc::new(PeriodicShared {
            stop: Mutex::new(false),
            wake: Condvar::new(),
            taken: AtomicU64::new(0),
            last_error: Mutex::new(None),
        });
        let worker = Arc::clone(&shared);
        let thread = std::thread::spawn(move || loop {
            {
                let stop = worker.stop.lock().expect("background loop flag poisoned");
                let (stop, _) = worker
                    .wake
                    .wait_timeout_while(stop, interval, |stopped| !*stopped)
                    .expect("background loop flag poisoned");
                if *stop {
                    return;
                }
            }
            match tick() {
                Ok(true) => {
                    worker.taken.fetch_add(1, Ordering::Release);
                }
                Ok(false) => {}
                Err(e) => {
                    *worker.last_error.lock().expect("background error slot poisoned") = Some(e);
                }
            }
        });
        Periodic { shared, thread: Some(thread) }
    }

    fn taken(&self) -> u64 {
        self.shared.taken.load(Ordering::Acquire)
    }

    /// Signal the thread and join it.
    fn join(&mut self) {
        *self.shared.stop.lock().expect("background loop flag poisoned") = true;
        self.shared.wake.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }

    fn stop(mut self) -> Result<u64, PersistError> {
        self.join();
        if let Some(e) =
            self.shared.last_error.lock().expect("background error slot poisoned").take()
        {
            return Err(e);
        }
        Ok(self.taken())
    }
}

impl Drop for Periodic {
    fn drop(&mut self) {
        self.join();
    }
}
