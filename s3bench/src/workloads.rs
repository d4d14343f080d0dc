//! The four workloads: building each one's engine (the *rig*), driving
//! its stream through `&mut dyn Engine` / `Ingest` in a closed loop on one
//! client thread, and re-answering a sample through a reference path.

use crate::plan::{Plan, Workload};
use crate::streams::{live_steps, query_pool, query_stream, LivePhase};
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s3_core::{load_snapshot, Query, S3Instance, S3kEngine, SearchConfig, TopKResult};
use s3_datasets::workload::LiveStep;
use s3_engine::persist::snapshot_path;
use s3_engine::{
    Engine, EngineConfig, EngineStats, FleetEngine, Ingest, LiveEngine, RecoverySource, S3Engine,
    ServeOutcome, ShardHost, ShardServer, ShardedEngine,
};
use s3_text::Language;
use s3_wire::{ShardTransport, TransportStats};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shards of `serve_zipf`'s engine and `fleet_unix`'s fleet.
pub const SHARDS: usize = 2;

/// Result-cache capacity on `serve_zipf`: a quarter of its query pool.
pub const ZIPF_CACHE: usize = 256;

/// The search configuration with same-seeker resume off.
pub fn cold_search() -> SearchConfig {
    SearchConfig { resume: false, ..SearchConfig::default() }
}

/// No result cache, no warm pool, no resume: every query pays the full
/// search. One batch thread everywhere — the sizing host has two cores and
/// the load generator is the only client.
pub fn cold_config() -> EngineConfig {
    EngineConfig::builder()
        .threads(1)
        .cache_capacity(0)
        .warm_seekers(0)
        .search(cold_search())
        .build()
}

fn zipf_config() -> EngineConfig {
    EngineConfig::builder().threads(1).cache_capacity(ZIPF_CACHE).warm_seekers(16).build()
}

fn live_config() -> EngineConfig {
    EngineConfig::builder().threads(1).build()
}

/// A workload's engine, ready to serve, with what tearing it down needs.
pub enum Rig {
    /// `search_cold`.
    Cold(S3Engine),
    /// `serve_zipf`.
    Zipf(ShardedEngine),
    /// `fleet_unix`: the client and its shard-server threads.
    Fleet(Box<FleetEngine>, Vec<ShardHost>),
    /// `live_mixed`: the engine and its persistence directory.
    Live(Box<LiveEngine>, PathBuf),
}

impl Rig {
    /// Generate the workload's corpus, cold-build it and construct the
    /// engine (for `fleet_unix`: every replica, its socket and its server
    /// thread) — everything `setup_s` covers. `dir` is a scratch directory
    /// of this rig's own.
    pub fn build(workload: Workload, dir: &Path, tracer: &mut Tracer) -> Rig {
        let corpus = workload.corpus();
        let mut builder = || {
            let open = tracer.begin("datasets.generate", 0);
            let builder = corpus.builder();
            tracer.end(open);
            builder
        };
        std::fs::create_dir_all(dir).expect("create the rig's scratch directory");
        match workload {
            Workload::SearchCold | Workload::ServeZipf => {
                let builder = builder();
                let open = tracer.begin("core.instance.freeze", 0);
                let instance = Arc::new(builder.snapshot());
                tracer.end(open);
                match workload {
                    Workload::SearchCold => Rig::Cold(S3Engine::new(instance, cold_config())),
                    _ => Rig::Zipf(ShardedEngine::new(instance, zipf_config(), SHARDS)),
                }
            }
            Workload::FleetUnix => {
                // Replicas are kept consistent by determinism: every server
                // and the client regenerate the corpus themselves.
                let mut hosts = Vec::new();
                let mut transports: Vec<Box<dyn ShardTransport>> = Vec::new();
                for shard in 0..SHARDS {
                    let server = ShardServer::new(builder(), cold_config(), SHARDS, shard);
                    // Relative to the working directory, so the path fits
                    // a socket address however deep the checkout lies.
                    let (conn, host) = server
                        .spawn_unix(&dir.join(format!("shard{shard}.sock")))
                        .expect("bind the shard's unix socket");
                    transports.push(Box::new(conn));
                    hosts.push(host);
                }
                Rig::Fleet(Box::new(FleetEngine::new(builder(), cold_config(), transports)), hosts)
            }
            Workload::LiveMixed => {
                let (engine, recovery) = LiveEngine::open(dir, builder(), live_config())
                    .expect("open a durable live engine on a fresh directory");
                assert_eq!(recovery.source, RecoverySource::Seed, "the directory was fresh");
                Rig::Live(Box::new(engine), dir.to_path_buf())
            }
        }
    }

    /// The engine's current instance (the base corpus until a batch lands).
    pub fn instance(&self) -> Arc<S3Instance> {
        match self {
            Rig::Cold(e) => Arc::clone(e.instance()),
            Rig::Zipf(e) => Arc::clone(e.instance()),
            Rig::Fleet(e, _) => Arc::clone(e.instance()),
            Rig::Live(e, _) => e.instance(),
        }
    }

    /// The engine behind the unified serving interface.
    pub fn engine(&mut self) -> &mut dyn Engine {
        match self {
            Rig::Cold(e) => e,
            Rig::Zipf(e) => e,
            Rig::Fleet(e, _) => e.as_mut(),
            Rig::Live(e, _) => e.as_mut(),
        }
    }

    /// Stop what the rig started — shard servers are shut down and their
    /// threads joined — and remove its scratch directory.
    pub fn teardown(self, dir: &Path) {
        if let Rig::Fleet(engine, hosts) = self {
            engine.shutdown().expect("shut the fleet down");
            for host in hosts {
                host.join().expect("shard server exits cleanly");
            }
        }
        // Best effort: a leftover scratch directory is not a wrong result.
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Summed traffic of a fleet's transports.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireLog {
    /// Scatter rounds driven.
    pub rounds: u64,
    /// Frames sent plus received.
    pub frames: u64,
    /// Bytes the client sent.
    pub bytes_sent: u64,
    /// Bytes the client received.
    pub bytes_received: u64,
}

impl WireLog {
    fn of(fleet: &FleetEngine) -> WireLog {
        let mut log = WireLog { rounds: fleet.rounds(), ..WireLog::default() };
        for TransportStats { frames_sent, bytes_sent, frames_received, bytes_received } in
            fleet.transport_stats()
        {
            log.frames += frames_sent + frames_received;
            log.bytes_sent += bytes_sent;
            log.bytes_received += bytes_received;
        }
        log
    }

    fn since(self, earlier: WireLog) -> WireLog {
        WireLog {
            rounds: self.rounds - earlier.rounds,
            frames: self.frames - earlier.frames,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            bytes_received: self.bytes_received - earlier.bytes_received,
        }
    }
}

/// What `live_mixed` measured beside its queries.
#[derive(Debug, Clone, Default)]
pub struct LiveLog {
    /// `ingest` latencies of batches that touched pre-existing data.
    pub attached_ms: Vec<f64>,
    /// `ingest` latencies of append-only batches.
    pub detached_ms: Vec<f64>,
    /// Components each batch touched.
    pub touched_components: Vec<f64>,
    /// `checkpoint` latencies inside the timed phase.
    pub checkpoint_ms: Vec<f64>,
    /// WAL records the restart replayed.
    pub replayed: usize,
    /// `LiveEngine::open` on snapshot + WAL tail.
    pub recovery_s: f64,
    /// The final `compact`.
    pub compact_ms: f64,
    /// Tombstoned share of the graph before that compaction.
    pub dead_fraction_before_compact: f64,
}

/// What one pass over a stream measured.
#[derive(Debug, Clone, Default)]
pub struct PassResult {
    /// Per-`serve` latency of every timed query.
    pub query_ms: Vec<f64>,
    /// Positions in `query_ms` of the queries the result cache answered
    /// (read off the engine's counter on traced passes only).
    pub hits: Vec<usize>,
    /// Timed operations that failed: errors, `Shed`, `Expired`, answers
    /// that are not exact.
    pub failed: u64,
    /// Wall time of the timed phase (on `live_mixed`: of its steps).
    pub wall_s: f64,
    /// Engine counters accumulated over the timed phase.
    pub stats: EngineStats,
    /// Fleet traffic over the timed phase.
    pub wire: Option<WireLog>,
    /// Write-path measurements.
    pub live: Option<LiveLog>,
    /// The timed queries, for probes that replay them…
    pub queries: Vec<Query>,
    /// …on this instance, when it is not the rig's current one
    /// (`live_mixed` ends on a compaction, which renumbers every id).
    pub probe_instance: Option<Arc<S3Instance>>,
    /// Answers re-derived through the reference path…
    pub checked: u64,
    /// …and how many of them differed.
    pub mismatches: u64,
}

impl PassResult {
    /// Timed operations: queries plus ingest batches.
    pub fn ops(&self) -> u64 {
        let batches = self.live.as_ref().map_or(0, |l| l.attached_ms.len() + l.detached_ms.len());
        (self.query_ms.len() + batches) as u64
    }
}

/// Counters accumulated between two readings.
fn stats_since(now: EngineStats, then: &EngineStats) -> EngineStats {
    let mut d = now;
    d.cache.hits -= then.cache.hits;
    d.cache.misses -= then.cache.misses;
    d.cache.evictions -= then.cache.evictions;
    d.cache.admitted -= then.cache.admitted;
    d.cache.rejected -= then.cache.rejected;
    d.cache.expired -= then.cache.expired;
    d.cache.invalidated -= then.cache.invalidated;
    d.resume.warm_hits -= then.resume.warm_hits;
    d.resume.warm_misses -= then.resume.warm_misses;
    d.resume.cold -= then.resume.cold;
    d.resume.resumed -= then.resume.resumed;
    d.resume.fallbacks -= then.resume.fallbacks;
    d.resume.invalidated -= then.resume.invalidated;
    d.load.admitted -= then.load.admitted;
    d.load.shed -= then.load.shed;
    d.load.degraded -= then.load.degraded;
    d.load.expired -= then.load.expired;
    d
}

/// Serve one query inside an `engine.serve` span. Returns its latency and
/// the answer when there was an exact one.
fn serve_one(
    engine: &mut dyn Engine,
    query: &Query,
    deadline: Option<Duration>,
    tracer: &mut Tracer,
    op: u64,
) -> (f64, Option<Arc<TopKResult>>) {
    let open = tracer.begin("engine.serve", op);
    let outcome = engine.serve(query, deadline);
    let ms = tracer.end(open).as_secs_f64() * 1e3;
    let answer = match outcome {
        Ok(ServeOutcome::Answered(result)) if result.stats.quality.exact => Some(result),
        _ => None,
    };
    (ms, answer)
}

/// A workload's reference path: answers a query some other way.
type Reference = Box<dyn Fn(&Query) -> Arc<TopKResult>>;

/// Do two answers agree on everything a caller can observe?
pub fn same_answer(a: &TopKResult, b: &TopKResult) -> bool {
    a.hits == b.hits
        && a.candidate_docs == b.candidate_docs
        && a.stats.stop == b.stats.stop
        && a.stats.quality == b.stats.quality
}

/// `n` distinct positions out of `0..len`, seeded, ascending.
pub fn sample_positions(len: usize, n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4EC_4ED0);
    let mut positions: Vec<usize> = (0..len).collect();
    let n = n.min(len);
    for i in 0..n {
        positions.swap(i, rng.gen_range(i..len));
    }
    positions.truncate(n);
    positions.sort_unstable();
    positions
}

/// Drive `plan`'s stream through `rig`. With `finale` — on a run's
/// untraced pass — a sample is then re-answered through the workload's
/// reference path, and `live_mixed` restarts and compacts its engine; so
/// the rig is taken and handed back.
pub fn run_pass(rig: Rig, plan: &Plan, finale: bool, tracer: &mut Tracer) -> (PassResult, Rig) {
    match rig {
        Rig::Live(engine, dir) => {
            let (result, engine) = run_live(*engine, &dir, plan, finale, tracer);
            (result, Rig::Live(Box::new(engine), dir))
        }
        mut rig => {
            let result = run_queries(&mut rig, plan, finale, tracer);
            (result, rig)
        }
    }
}

fn run_queries(rig: &mut Rig, plan: &Plan, finale: bool, tracer: &mut Tracer) -> PassResult {
    let traced = tracer.enabled();
    let (mut queries, deadline) = query_stream(plan, &rig.instance());
    let timed = queries.split_off(plan.warmup);
    for q in &queries {
        let _ = rig.engine().serve(q, deadline);
    }

    let keep = sample_positions(timed.len(), if finale { plan.sample } else { 0 }, plan.seed);
    let mut kept: Vec<Option<Arc<TopKResult>>> = Vec::with_capacity(keep.len());
    let mut result = PassResult::default();
    let wire_before = match rig {
        Rig::Fleet(fleet, _) => Some(WireLog::of(fleet)),
        _ => None,
    };
    let engine = rig.engine();
    let stats_before = engine.stats();
    let mut hits_seen = stats_before.cache.hits;
    let started = Instant::now();
    for (i, q) in timed.iter().enumerate() {
        let (ms, answer) = serve_one(engine, q, deadline, tracer, i as u64);
        result.query_ms.push(ms);
        result.failed += u64::from(answer.is_none());
        if traced {
            // Which answers were cache hits is read off the engine's own
            // counter, between spans.
            let hits = engine.stats().cache.hits;
            if hits > hits_seen {
                result.hits.push(i);
            }
            hits_seen = hits;
        }
        if keep.binary_search(&i).is_ok() {
            kept.push(answer);
        }
    }
    result.wall_s = started.elapsed().as_secs_f64();
    result.stats = stats_since(engine.stats(), &stats_before);
    if let (Rig::Fleet(fleet, _), Some(before)) = (&*rig, wire_before) {
        result.wire = Some(WireLog::of(fleet).since(before));
    }

    result.queries = timed;
    if !finale {
        return result;
    }

    // Re-answer the sample through the reference path.
    let instance = rig.instance();
    let reference: Reference = match rig {
        Rig::Cold(_) => {
            Box::new(move |q| Arc::new(S3kEngine::new(&instance, cold_search()).run(q)))
        }
        Rig::Zipf(_) => {
            let unsharded = S3Engine::new(instance, cold_config());
            Box::new(move |q| unsharded.query(q))
        }
        Rig::Fleet(..) => {
            let in_process = ShardedEngine::new(instance, cold_config(), SHARDS);
            Box::new(move |q| in_process.query(q))
        }
        Rig::Live(..) => unreachable!("live_mixed runs steps, not a query list"),
    };
    for (&i, got) in keep.iter().zip(&kept) {
        result.checked += 1;
        let want = reference(&result.queries[i]);
        // A sampled query that failed is already counted in `failed`.
        if got.as_ref().is_some_and(|got| !same_answer(got, &want)) {
            result.mismatches += 1;
        }
    }
    result
}

fn ingest_one(
    engine: &mut dyn Ingest,
    step: &LiveStep,
    tracer: &mut Tracer,
    op: u64,
    log: &mut LiveLog,
) -> bool {
    let open = tracer.begin("engine.live.ingest", op);
    let summary = engine.ingest(&step.batch);
    let ms = tracer.end(open).as_secs_f64() * 1e3;
    match summary {
        Ok(summary) => {
            log.touched_components.push(summary.touched_components.len() as f64);
            if summary.detached {
                log.detached_ms.push(ms);
            } else {
                log.attached_ms.push(ms);
            }
            true
        }
        Err(_) => false,
    }
}

fn run_live(
    mut engine: LiveEngine,
    dir: &Path,
    plan: &Plan,
    finale: bool,
    tracer: &mut Tracer,
) -> (PassResult, LiveEngine) {
    for q in query_pool(&engine.instance(), plan.warmup) {
        let _ = Engine::serve(&mut engine, &q, None);
    }

    let mut result = PassResult::default();
    let mut log = LiveLog::default();
    let mut specs = Vec::new();
    let stats_before = Engine::stats(&engine);
    let last_checkpoint = plan.ops - plan.checkpoint_every;
    let mut done = 0;
    for phase in [LivePhase::Detached, LivePhase::Mutating] {
        // Each phase is generated against the state it applies to; that
        // happens between steps, outside every span and the wall time.
        let steps = live_steps(plan, &engine.instance(), phase);
        for step in &steps {
            let op = done as u64;
            let open = tracer.begin("live.step", op);
            if !ingest_one(&mut engine, step, tracer, op, &mut log) {
                result.failed += 1;
            }
            let instance = engine.instance();
            for spec in &step.queries {
                let q = Query::new(spec.seeker, instance.query_keywords(&spec.text), spec.k);
                let (ms, answer) = serve_one(&mut engine, &q, None, tracer, op);
                result.query_ms.push(ms);
                result.failed += u64::from(answer.is_none());
                result.queries.push(q);
            }
            done += 1;
            if done % plan.checkpoint_every == 0 && done <= last_checkpoint {
                let open = tracer.begin("engine.live.checkpoint", op);
                let report = engine.checkpoint();
                log.checkpoint_ms.push(tracer.end(open).as_secs_f64() * 1e3);
                result.failed += u64::from(report.is_err());
            }
            result.wall_s += tracer.end(open).as_secs_f64();
        }
        specs.extend(steps.into_iter().flat_map(|s| s.queries));
    }
    result.stats = stats_since(Engine::stats(&engine), &stats_before);
    result.probe_instance = Some(engine.instance());
    if !finale {
        result.live = Some(log);
        return (result, engine);
    }

    // The sample: step queries, re-asked of the final state before the
    // engine is dropped, after it is reopened, and of a cold rebuild.
    let sample: Vec<_> = sample_positions(specs.len(), plan.sample, plan.seed)
        .into_iter()
        .map(|i| &specs[i])
        .collect();
    let ask = |instance: &S3Instance| -> Vec<Query> {
        sample.iter().map(|s| Query::new(s.seeker, instance.query_keywords(&s.text), s.k)).collect()
    };
    let answer_all = |engine: &mut LiveEngine| -> Vec<Option<Arc<TopKResult>>> {
        let instance = engine.instance();
        ask(&instance).iter().map(|q| Engine::query(engine, q).ok()).collect()
    };
    let before_drop = answer_all(&mut engine);
    drop(engine);

    let open = tracer.begin("engine.live.open", done as u64);
    let reopened =
        LiveEngine::open(dir, s3_core::InstanceBuilder::new(Language::English), live_config());
    log.recovery_s = tracer.end(open).as_secs_f64();
    let (mut engine, recovery) = reopened.expect("reopen the durable live engine");
    assert_eq!(recovery.source, RecoverySource::Snapshot, "a checkpoint preceded the restart");
    log.replayed = recovery.replayed;
    result.checked += 1;
    result.mismatches += u64::from(recovery.replayed != plan.checkpoint_every);
    let after_reopen = answer_all(&mut engine);

    // A checkpoint makes the directory's snapshot the current state; its
    // builder block, frozen cold, is the reference instance.
    result.failed += u64::from(engine.checkpoint().is_err());
    let (cold_builder, _) = load_snapshot(&snapshot_path(dir)).expect("load the checkpoint");
    let cold = cold_builder.snapshot();
    let reference = S3kEngine::new(&cold, SearchConfig::default());
    for ((q, before), after) in ask(&cold).iter().zip(&before_drop).zip(&after_reopen) {
        result.checked += 1;
        let want = reference.run(q);
        let agree =
            |got: &Option<Arc<TopKResult>>| got.as_ref().is_some_and(|got| same_answer(got, &want));
        result.mismatches += u64::from(!(agree(before) && agree(after)));
    }

    log.dead_fraction_before_compact = engine.dead_fraction();
    let open = tracer.begin("engine.live.compact", done as u64 + 1);
    let compacted = engine.compact();
    log.compact_ms = tracer.end(open).as_secs_f64() * 1e3;
    result.failed += u64::from(compacted.is_err());
    result.checked += 1;
    result.mismatches += u64::from(engine.dead_fraction() != 0.0);

    result.live = Some(log);
    (result, engine)
}
