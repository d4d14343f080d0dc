//! The byte-identity harness: every serving shape answers
//! byte-identically — hits with exact bounds, candidate lists, stop
//! reasons — to a cold `S3kEngine` run over a cold rebuild of the same
//! data, after any schedule of queries, ingests, compactions,
//! checkpoints and reopens. The property files (`parity.rs`,
//! `sharding.rs`, `resume.rs`, `ingest.rs`, `fleet.rs`, `api.rs`,
//! `persist.rs`, `mutation.rs`, `identity.rs`) each name a schedule and
//! the rows it runs on.
//!
//! A case is one seeded world: a [`Corpus`] and a [`Schedule`] whose
//! steps carry the oracle's answers. The oracle is one reference
//! `InstanceBuilder` that applies every batch and compacts at every
//! compaction epoch, judged by its cold `snapshot()` and
//! `S3kEngine::run`. Before a compaction that is a cold replay of the
//! full event log, tombstones included; after one it is the reference's
//! own compaction, which core's `compact_equals_cold_build_of_survivors`
//! ties to a cold build of the surviving events. [`run`] replays a schedule on one [`Shape`]
//! through the `Engine`/`Ingest` traits and makes the shape's own checks
//! beside every answer. The two session properties hold a reused
//! `S3kSession` to cold runs instead ([`session_matches_cold_runs`]).

#![allow(dead_code)] // each test binary uses a subset

use crate::common::{assert_identical, Corpus, Rig, Shape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use s3_core::{
    write_snapshot, CompactionReport, IngestBatch, IngestSummary, InstanceBuilder, Query,
    S3Instance, S3kEngine, SearchConfig, TopKResult, UserId, UserRef,
};
use s3_datasets::workload::{live_workload, LiveQuerySpec, LiveStep, LiveWorkloadConfig};
use s3_engine::{persist::snapshot_path, EngineError, FleetEngine, RecoverySource};
use s3_text::KeywordId;
use std::sync::Arc;

/// One step of a schedule, with what the oracle says it must yield.
pub enum Step {
    /// Answer each query, then answer it again (see [`query`]).
    Query(Vec<(Query, TopKResult)>),
    /// Answer each query through the `Engine` trait alone, with `query`
    /// and then `serve`, which the gate admits every time on a row
    /// without a cache.
    Trait(Vec<(Query, TopKResult)>),
    Ingest(IngestBatch, IngestSummary),
    /// A batch naming a user the engine lacks: refused before anything
    /// is journaled, shipped or applied.
    Reject(IngestBatch),
    Compact(CompactionReport),
    /// Checkpoint a durable engine; its snapshot file must hold these
    /// bytes.
    Checkpoint(Vec<u8>),
    /// Close a durable engine and open it again from its directory; it
    /// must hold the oracle's share of tombstoned nodes.
    Reopen(f64),
}

/// A corpus, the steps to run over it, and the oracle that answered them.
pub struct Schedule {
    pub corpus: Corpus,
    pub steps: Vec<Step>,
    /// The oracle, grown at the first step that needs it: a builder that
    /// applies every batch and compacts at every epoch, and the instance
    /// `apply` chained to since the last compaction.
    oracle: Option<(InstanceBuilder, Arc<S3Instance>)>,
    /// The oracle's cold snapshot now.
    pub cold: Arc<S3Instance>,
    /// Every workload query so far, for [`Schedule::requery`].
    pub specs: Vec<LiveQuerySpec>,
}

pub type Stream = fn(&mut StdRng, usize, &[KeywordId], usize) -> Vec<Query>;

impl Schedule {
    pub fn new(corpus: Corpus) -> Schedule {
        let cold = Arc::clone(&corpus.base);
        Schedule { corpus, steps: Vec::new(), oracle: None, cold, specs: Vec::new() }
    }

    fn oracle(&mut self) -> &mut (InstanceBuilder, Arc<S3Instance>) {
        let grow = &self.corpus.grow;
        self.oracle.get_or_insert_with(|| {
            // `apply` extends the snapshot its builder took last.
            let reference = grow();
            let applied = Arc::new(reference.snapshot());
            (reference, applied)
        })
    }

    /// A query step: the oracle answers each query with a cold run over
    /// a cold snapshot.
    pub fn query(&mut self, queries: Vec<Query>) -> &mut Self {
        let engine = S3kEngine::new(&self.cold, SearchConfig::default());
        let answers = queries.into_iter().map(|q| {
            let want = engine.run(&q);
            (q, want)
        });
        self.steps.push(Step::Query(answers.collect()));
        self
    }

    /// `n` queries of `stream` over the corpus's keyword pool.
    pub fn stream(&mut self, stream: Stream, seed: u64, n: usize) -> &mut Self {
        let users = self.cold.num_users();
        self.query(stream(&mut StdRng::seed_from_u64(seed), users, &self.corpus.pool, n))
    }

    /// Workload queries, their text resolved against the current state.
    pub fn specs(&mut self, specs: &[LiveQuerySpec]) -> &mut Self {
        let cold = &self.cold;
        let queries = specs.iter().map(|s| Query::new(s.seeker, cold.query_keywords(&s.text), s.k));
        self.query(queries.collect())
    }

    /// Queries at k = 4, by seeker and text.
    pub fn texts(&mut self, texts: &[(UserId, &str)]) -> &mut Self {
        let cold = Arc::clone(&self.cold);
        self.query(texts.iter().map(|&(u, t)| Query::new(u, cold.query_keywords(t), 4)).collect())
    }

    /// Every workload query so far, against the current state.
    pub fn requery(&mut self) -> &mut Self {
        self.specs(&self.specs.clone())
    }

    /// The last query step goes through the `Engine` trait alone.
    pub fn through_trait(&mut self) -> &mut Self {
        match self.steps.pop() {
            Some(Step::Query(answers)) => self.steps.push(Step::Trait(answers)),
            _ => panic!("the last step is not a query step"),
        }
        self
    }

    /// One `live_workload` step: its batch, then its queries.
    pub fn step(&mut self, step: &LiveStep) -> &mut Self {
        self.specs.extend(step.queries.iter().cloned());
        self.ingest(step.batch.clone()).specs(&step.queries)
    }

    /// The steps of `live_workload` against the current state.
    pub fn workload(&mut self, config: &LiveWorkloadConfig) -> &mut Self {
        for step in &live_workload(&self.cold, config) {
            self.step(step);
        }
        self
    }

    pub fn ingest(&mut self, batch: IngestBatch) -> &mut Self {
        let (reference, applied) = self.oracle();
        let (next, summary) = reference.apply(applied, &batch);
        let cold = Arc::new(reference.snapshot());
        (*applied, self.cold) = (Arc::new(next), cold);
        self.steps.push(Step::Ingest(batch, summary));
        self
    }

    pub fn reject(&mut self) -> &mut Self {
        let (mut batch, ghost) = (IngestBatch::new(), UserId(self.cold.num_users() as u32 + 7));
        batch.add_social_edge(UserRef::Existing(ghost), UserRef::Existing(UserId(0)), 0.5);
        self.steps.push(Step::Reject(batch));
        self
    }

    pub fn compact(&mut self) -> &mut Self {
        let (reference, applied) = self.oracle();
        let (compacted, report) = reference.compact();
        assert!(report.dropped_documents >= 1, "the schedule left no tombstone to reclaim");
        *reference = compacted;
        *applied = Arc::new(reference.snapshot());
        self.cold = Arc::clone(applied);
        self.steps.push(Step::Compact(report));
        self
    }

    /// A checkpoint. A snapshot is a function of its builder alone, so
    /// the instance `apply` grew writes a cold build's bytes.
    pub fn checkpoint(&mut self) -> &mut Self {
        let cold = Arc::clone(&self.cold);
        let (reference, applied) = self.oracle();
        let bytes = write_snapshot(reference, &cold);
        assert!(write_snapshot(reference, applied) == bytes, "live ≠ cold");
        self.steps.push(Step::Checkpoint(bytes));
        self
    }

    pub fn reopen(&mut self) -> &mut Self {
        self.steps.push(Step::Reopen(self.cold.dead_fraction()));
        self
    }

    /// A compaction that shrinks the graph under the buffers an engine
    /// keeps between queries: query from the user whose node comes
    /// last, delete every document but the newest, compact, and query
    /// every user for every surviving keyword.
    pub fn shrink(&mut self) -> &mut Self {
        let cold = Arc::clone(&self.cold);
        let users = (0..cold.num_users() as u32).map(UserId);
        let last = users.max_by_key(|&u| cold.user_node(u)).expect("the corpus has users");
        let mut batch = IngestBatch::new();
        for t in 0..cold.num_documents() as u32 - 1 {
            batch.delete_document(s3_doc::TreeId(t));
        }
        self.texts(&["w0", "w1", "w2", "ex:c0"].map(|t| (last, t))).ingest(batch).compact();
        let shrunk = Arc::clone(&self.cold);
        let below = shrunk.graph().num_nodes() <= cold.user_node(last).index();
        assert!(below, "the graph shrank below the last seeker's node");
        let components = shrunk.graph().components().iter();
        let mut keywords: Vec<_> =
            components.flat_map(|c| shrunk.component_keywords(c).iter().copied()).collect();
        keywords.sort_unstable();
        keywords.dedup();
        assert!(!keywords.is_empty(), "the newest document still answers");
        let users = (0..shrunk.num_users() as u32).map(UserId);
        self.query(
            users.flat_map(|u| keywords.iter().map(move |&k| Query::new(u, vec![k], 4))).collect(),
        )
    }
}

/// A session reused across `n` queries of `stream` answers each as a
/// cold run does: no state leaks from one query into the next.
pub fn session_matches_cold_runs(
    corpus: &Corpus,
    stream: Stream,
    seed: u64,
    n: usize,
) -> Result<(), TestCaseError> {
    let (base, rng) = (&corpus.base, &mut StdRng::seed_from_u64(seed));
    let engine = S3kEngine::new(base, SearchConfig::default());
    let mut session = engine.session();
    for q in &stream(rng, base.num_users(), &corpus.pool, n) {
        assert_identical(&session.run(q), &engine.run(q))?;
    }
    Ok(())
}

/// Replay `schedule` on `shape`: every answer equals the oracle's, and
/// the shape's own counters, reports and files say what they must. An
/// in-process batch runs on two workers.
pub fn run(shape: Shape, schedule: &Schedule) -> Result<(), TestCaseError> {
    run_on(shape, schedule, 2)
}

/// [`run`] with in-process batches on `workers` threads.
pub fn run_on(shape: Shape, schedule: &Schedule, workers: usize) -> Result<(), TestCaseError> {
    let mut rig = Rig::open(shape, &schedule.corpus);
    let shards = match (rig.frozen(), rig.live()) {
        (Some(e), _) => e.num_shards(),
        (_, Some(e)) => e.engine().num_shards(),
        _ => rig.fleet().expect("a fleet").num_shards(),
    };
    prop_assert_eq!(shards, shape.2, "{:?}", shape);
    // WAL records since the last checkpoint, and whether one happened.
    let (mut journaled, mut checkpointed) = (0u64, false);
    if let Some(report) = &rig.recovered {
        prop_assert_eq!((report.source, report.replayed), (RecoverySource::Seed, 0));
    }
    for step in &schedule.steps {
        match step {
            Step::Query(answers) => query(&mut rig, answers, workers)?,
            Step::Trait(answers) => {
                let admitted = rig.engine().stats().load.admitted;
                for (q, want) in answers {
                    assert_identical(&rig.engine().query(q).expect("query"), want)?;
                    let served = rig.engine().serve(q, None).expect("serve");
                    assert_identical(served.answer().expect("ungated serving never sheds"), want)?;
                }
                let load = rig.engine().stats().load;
                prop_assert_eq!((load.admitted - admitted, load.shed), (answers.len() as u64, 0));
            }
            Step::Ingest(batch, want) => {
                let got = rig.ingest(batch).expect("ingest");
                prop_assert_eq!((got.detached, got.new_users), (want.detached, want.new_users));
                journaled += 1;
            }
            Step::Reject(batch) => match rig.ingest(batch) {
                Err(EngineError::Rejected(e)) => {
                    prop_assert!(e.to_string().contains("unknown user"))
                }
                other => {
                    prop_assert!(false, "{:?} took a batch naming a ghost: {:?}", shape, other)
                }
            },
            Step::Compact(want) => {
                if let Some(fleet) = rig.fleet() {
                    prop_assert_eq!(fleet.compact().expect("fleet compact"), *want);
                } else {
                    let live = rig.live().expect("a frozen engine does not compact");
                    prop_assert!(live.dead_fraction() > 0.0, "{:?} holds no tombstone", shape);
                    let report = live.compact().expect("compact");
                    prop_assert_eq!(report.compaction, *want, "{:?}", shape);
                    prop_assert_eq!(live.dead_fraction(), 0.0, "compaction reclaims everything");
                    let durable = rig.recovered.is_some();
                    prop_assert_eq!(report.checkpointed, durable.then_some(journaled));
                    checkpointed |= durable;
                }
                journaled = 0;
            }
            Step::Checkpoint(bytes) => {
                let live = rig.live().expect("a frozen engine does not checkpoint");
                prop_assert_eq!(live.checkpoint().expect("checkpoint").absorbed, journaled);
                let file = std::fs::read(snapshot_path(&rig.dir.0.join("durable"))).expect("read");
                prop_assert!(file == *bytes, "{:?}: the checkpoint wrote other bytes", shape);
                (journaled, checkpointed) = (0, true);
            }
            Step::Reopen(dead) => {
                rig = rig.reopen();
                let report = rig.recovered.as_ref().expect("a durable open reports");
                let source =
                    [RecoverySource::Seed, RecoverySource::Snapshot][checkpointed as usize];
                prop_assert_eq!(report.source, source, "{:?}", shape);
                prop_assert_eq!(report.replayed as u64, journaled, "{:?}: the WAL tail", shape);
                prop_assert!(!report.dropped_tail);
                prop_assert_eq!(rig.live().map(|l| l.dead_fraction()), Some(*dead));
            }
        }
    }
    rig.close();
    Ok(())
}

/// One query step on `rig`. In process, the step runs as one batch on
/// `workers` threads and then as a second batch: every lookup a hit
/// when the cache holds the step, hits and misses merged by position
/// when it churns, a recomputation when it is off. A fleet keeps no
/// cache and answers one query at a time. Then a prefix goes through
/// the `Engine` trait once more, alternating `serve` (through the
/// admission gate when nothing caches) and `query`; over a fleet it
/// shows every server resets between queries.
fn query(
    rig: &mut Rig,
    answers: &[(Query, TopKResult)],
    workers: usize,
) -> Result<(), TestCaseError> {
    let queries: Vec<Query> = answers.iter().map(|(q, _)| q.clone()).collect();
    let (before, wire) = (rig.engine().stats(), rig.fleet().map(|f| (wire_bytes(f), f.rounds())));
    let (n, cache) = (answers.len(), rig.shape.3);
    for pass in 0..2 {
        let hits = rig.engine().stats().cache.hits;
        let batch = match (rig.frozen(), rig.live()) {
            (Some(e), _) => e.run_batch_on(&queries, workers),
            (_, Some(e)) => e.engine().run_batch_on(&queries, workers),
            _ if pass == 0 => {
                queries.iter().map(|q| rig.engine().query(q).expect("query")).collect()
            }
            _ => break,
        };
        for (got, (_, want)) in batch.iter().zip(answers) {
            assert_identical(got, want)?;
        }
        let hits = rig.engine().stats().cache.hits - hits;
        prop_assert!(pass == 0 || cache < n || hits >= n as u64, "{:?}: {} hits", rig.shape, hits);
    }
    for (i, (q, want)) in answers.iter().take(3).enumerate() {
        let got = match i % 2 {
            0 => rig.engine().serve(q, None).expect("serve").answer().cloned(),
            _ => Some(rig.engine().query(q).expect("query")),
        };
        assert_identical(&got.expect("ungated serving never sheds"), want)?;
    }
    let after = rig.engine().stats();
    prop_assert_eq!(after.load.shed, 0);
    if cache == 0 {
        let served = n.min(3).div_ceil(2) as u64;
        prop_assert_eq!(after.load.admitted - before.load.admitted, served, "{:?}", rig.shape);
    } else {
        prop_assert!(after.cache.entries <= cache, "{:?} overfills", rig.shape);
    }
    let shards = rig.shape.2;
    if let (Some(fleet), Some((bytes, rounds))) = (rig.fleet(), wire) {
        prop_assert_eq!(fleet.transport_stats().len(), shards);
        // A round is a compact request/reply pair per shard plus
        // amortized query framing and stop checks: past 512 bytes the
        // encoding grew or the client chatters mid-round.
        let (bytes, rounds) = (wire_bytes(fleet) - bytes, fleet.rounds() - rounds);
        prop_assert!(bytes <= 512 * rounds.max(1), "{} B in {} rounds", bytes, rounds);
    }
    Ok(())
}

fn wire_bytes(fleet: &FleetEngine) -> u64 {
    fleet.transport_stats().iter().map(|s| s.bytes_sent + s.bytes_received).sum()
}

/// `batches` of `live_workload` with `queries` after each, `attach` of
/// their elements pointing at existing data.
pub fn plain(seed: u64, batches: usize, queries: usize, attach: f64) -> LiveWorkloadConfig {
    LiveWorkloadConfig {
        batches,
        queries_per_batch: queries,
        attach_probability: attach,
        seed,
        ..Default::default()
    }
}

/// Batches that also delete and update a document each, at k = 4.
pub fn mutating(seed: u64, batches: usize) -> LiveWorkloadConfig {
    LiveWorkloadConfig {
        deletes_per_batch: 1,
        updates_per_batch: 1,
        k: 4,
        ..plain(seed, batches, 5, attach(seed))
    }
}

/// A quarter, half or three quarters attached, by seed.
pub fn attach(seed: u64) -> f64 {
    0.25 + 0.5 * ((seed % 3) as f64 / 2.0)
}

/// Two `live_workload` batches over [`random_builder`]'s corpus with a
/// refused one between them.
///
/// [`random_builder`]: crate::common::random_builder
pub fn ingesting(seed: u64) -> Schedule {
    let mut s = Schedule::new(Corpus::random(seed));
    let steps = live_workload(&s.cold, &plain(seed ^ 0xF00D, 2, 5, attach(seed)));
    s.step(&steps[0]).reject().step(&steps[1]);
    s
}
