//! One benchmark run: set-up, passes, probes, and the metrics by name.

use crate::corpus::CorpusRecord;
use crate::host::{peak_rss_mb, HostRecord};
use crate::json::Value;
use crate::load::{open_loop, LoadLog, DEFAULT_OPEN_RATE};
use crate::plan::{Plan, Workload};
use crate::probes::{probe_search, probe_setup, probe_writes, SearchProbe, SetupProbe, WriteProbe};
use crate::stats::{highest_supported, mean, median, percentile, ratio, sorted, P50, P95};
use crate::streams::query_stream;
use crate::trace::Tracer;
use crate::workloads::{run_pass, sample_positions, PassResult, Rig};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Per-layer metrics that are counts of deterministic work: for one seed
/// they must repeat bit for bit, so a later change may rest a claim on
/// them. (`tests/smoke.rs` holds the benchmark to this.)
pub const EXACT: &[&str] = &[
    "core.expand.ext_size_mean",
    "graph.propagation.steps_per_query",
    "core.search.candidates_per_query",
    "core.search.rejected_per_query",
    "core.search.components_per_query",
    "core.search.pruned_components_per_query",
    "core.search.useful_ratio",
    "engine.cache.hit_rate",
    "engine.cache.evictions",
    "engine.cache.rejected",
    "engine.warm.resume_rate",
    "engine.warm.fallback_rate",
    "engine.warm.warm_hit_rate",
    "engine.shard.scatter_width_mean",
    "wire.rounds_per_query",
    "wire.frames_per_query",
    "wire.bytes_sent_per_query",
    "wire.bytes_received_per_query",
    "engine.gate.shed_rate",
    "engine.gate.degraded_rate",
    "engine.gate.expired_rate",
    "core.wal.bytes_per_batch",
    "core.ingest.touched_components_mean",
    "engine.live.results_invalidated_per_batch",
    "engine.live.warm_invalidated_per_batch",
    "engine.live.post_ingest_hit_rate",
    "core.snapshot.bytes",
    "core.snapshot.bytes_per_doc",
    "engine.live.dead_fraction_before_compact",
    "load.open_rate_qps",
    "failed_share",
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The name `BENCHMARK.json` lists it under.
    pub name: &'static str,
    /// As measured, every digit.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples behind the value (1 for a single reading).
    pub samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric { name, value, unit, samples }
}

/// What `s3bench run` was asked to do.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// Stream seed.
    pub seed: u64,
    /// Sizes the operation counts (see [`Plan`]).
    pub seconds: u32,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Counts ÷ 20.
    pub smoke: bool,
    /// Run the open-loop arm at this rate (`serve_zipf` only).
    pub open_rate: Option<f64>,
    /// Scratch directory for sockets, WALs and snapshots.
    pub work_dir: PathBuf,
}

/// Everything one run produced.
pub struct Report {
    /// What was asked.
    pub options: RunOptions,
    /// The plan each pass ran.
    pub plan: Plan,
    /// The machine.
    pub host: HostRecord,
    /// The input.
    pub corpus: CorpusRecord,
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Operations attempted: timed operations plus reference checks.
    pub attempted: u64,
    /// Of those, how many failed or mismatched.
    pub failed: u64,
    /// Of those, how many were reference mismatches.
    pub mismatches: u64,
    /// The highest percentile the query sample supports, when it is not
    /// the one the fixed metric name carries.
    pub tail: Option<Metric>,
    /// The traced pass's spans (traced runs only).
    pub tracer: Option<Tracer>,
}

impl Report {
    /// Did every reference check agree?
    pub fn correct(&self) -> bool {
        self.mismatches == 0
    }

    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn contract_line(&self) -> Value {
        let metrics = self.metrics.iter().map(|m| {
            (m.name, Value::object([("value", Value::from(m.value)), ("unit", m.unit.into())]))
        });
        Value::object([
            ("correct", Value::from(self.correct())),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            ("metrics", Value::object(metrics)),
        ])
    }

    /// The full record `--report` appends and `s3bench compare` reads: a
    /// number together with its machine, its input and its sample count.
    pub fn to_json(&self) -> Value {
        let o = &self.options;
        let metrics = self.metrics.iter().chain(&self.tail).map(|m| {
            let fields = [
                ("value", Value::from(m.value)),
                ("unit", m.unit.into()),
                ("samples", m.samples.into()),
            ];
            (m.name, Value::object(fields))
        });
        let c = &self.corpus;
        Value::object([
            ("bench", Value::from("s3bench")),
            ("workload", o.workload.name().into()),
            ("seed", o.seed.into()),
            ("seconds", o.seconds.into()),
            ("trace", o.trace.into()),
            ("smoke", o.smoke.into()),
            ("host", self.host.to_json()),
            (
                "corpus",
                Value::object([
                    ("name", Value::from(c.name)),
                    ("users", c.users.into()),
                    ("documents", c.documents.into()),
                    ("tags", c.tags.into()),
                    ("endorsements", c.endorsements.into()),
                    ("components", c.components.into()),
                ]),
            ),
            (
                "counts",
                Value::object([
                    ("timed_ops", Value::from(self.plan.ops)),
                    ("warmup", self.plan.warmup.into()),
                    ("checked", self.plan.sample.into()),
                    ("checkpoint_every", self.plan.checkpoint_every.into()),
                ]),
            ),
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Value::object(metrics)),
        ])
    }
}

/// A scratch directory of this process's own under `work_dir`.
fn scratch(work_dir: &Path, label: &str) -> PathBuf {
    work_dir.join(format!("{label}-{}", std::process::id()))
}

/// Times an untraced run builds its rig; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Run one workload as `options` ask.
pub fn run(options: RunOptions) -> Report {
    let full = Plan::new(options.workload, options.seed, options.seconds, options.smoke);
    // A traced run spends the same time on two half passes.
    let plan = if options.trace { full.halved() } else { full };
    let dir = scratch(&options.work_dir, options.workload.name());
    let mut untraced = Tracer::new(false);
    let mut tracer = Tracer::new(options.trace);

    // Set up several times over: one reading of a 0.1 s build is noise.
    let reps = if options.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut rig = None;
    for _ in 0..reps {
        if let Some(previous) = rig.take() {
            Rig::teardown(previous, &dir);
        }
        let started = Instant::now();
        rig = Some(Rig::build(options.workload, &dir, &mut untraced));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let rig = rig.expect("at least one set-up");
    let base = rig.instance();
    let corpus = CorpusRecord::of(options.workload.corpus(), &base);

    let (pass, rig) = run_pass(rig, &plan, true, &mut untraced);
    rig.teardown(&dir);
    let mut attempted = pass.ops() + pass.checked;
    let mut failed = pass.failed + pass.mismatches;
    let mismatches = pass.mismatches;

    let query_ms = sorted(&pass.query_ms);
    let tail = highest_supported(query_ms.len()).filter(|&p| p != P95).map(|p| {
        let name = match p.label {
            "p50" => "query_tail_p50_ms",
            "p90" => "query_tail_p90_ms",
            "p99" => "query_tail_p99_ms",
            _ => "query_tail_p999_ms",
        };
        metric(name, percentile(&query_ms, p), "ms", query_ms.len())
    });

    let metrics = if options.trace {
        // The untraced pass checked its answers; the traced one, of the
        // same stream on a fresh rig, keeps none.
        let rig = Rig::build(options.workload, &dir, &mut tracer);
        let (traced, rig) = run_pass(rig, &plan, false, &mut tracer);
        rig.teardown(&dir);
        attempted += traced.ops();
        failed += traced.failed;

        let setup = probe_setup(options.workload.corpus(), &mut tracer);
        let instance = traced.probe_instance.clone().unwrap_or(base);
        let positions = sample_positions(traced.queries.len(), plan.sample / 2, plan.seed ^ 0x9B0B);
        let sample: Vec<_> = positions.iter().map(|&i| traced.queries[i].clone()).collect();
        let search = probe_search(&instance, &traced.queries, &sample, &mut tracer);
        let sampled_ms: Vec<f64> = positions.iter().map(|&i| traced.query_ms[i]).collect();

        let writes = match options.workload {
            Workload::LiveMixed => probe_writes(&plan, &dir, &mut tracer),
            _ => WriteProbe::default(),
        };
        let load = match options.workload {
            Workload::ServeZipf => {
                let rate = options.open_rate.unwrap_or(DEFAULT_OPEN_RATE);
                open_loop_arm(&options, &plan, rate, plan.ops.min(arrivals(&options, rate)), &dir)
            }
            _ => LoadLog::default(),
        };
        failed += load.failed;
        attempted += load.latency_ms.len() as u64;

        let layers =
            Layers { pass: &pass, traced: &traced, setup, search, sampled_ms, writes, load };
        layers.metrics(attempted, failed)
    } else {
        let served_s = pass.query_ms.iter().sum::<f64>() / 1e3;
        vec![
            metric("setup_s", median(&setup_s), "s", setup_s.len()),
            metric("qps", ratio(query_ms.len() as f64, served_s), "1/s", query_ms.len()),
            metric("query_p50_ms", percentile(&query_ms, P50), "ms", query_ms.len()),
            metric("query_p95_ms", percentile(&query_ms, P95), "ms", query_ms.len()),
            metric("ops_per_s", ratio(pass.ops() as f64, pass.wall_s), "1/s", pass.ops() as usize),
            metric("peak_rss_mb", peak_rss_mb(), "MB", 1),
        ]
    };

    let _ = std::fs::remove_dir(&options.work_dir);
    Report {
        host: HostRecord::probe(),
        tracer: options.trace.then_some(tracer),
        options,
        plan,
        corpus,
        metrics,
        attempted,
        failed,
        mismatches,
        tail,
    }
}

/// Arrivals the open-loop arm of a traced run replays: a third of
/// `--seconds` at `rate`.
fn arrivals(options: &RunOptions, rate: f64) -> usize {
    let shrink = if options.smoke { 20.0 } else { 1.0 };
    ((rate * f64::from(options.seconds) / 3.0 / shrink).ceil() as usize).max(1)
}

/// Build a fresh `serve_zipf` rig, warm it up and replay the head of the
/// plan's stream open-loop.
fn open_loop_arm(
    options: &RunOptions,
    plan: &Plan,
    rate: f64,
    requests: usize,
    dir: &Path,
) -> LoadLog {
    let mut tracer = Tracer::new(false);
    let mut rig = Rig::build(options.workload, dir, &mut tracer);
    let (mut queries, deadline) = query_stream(plan, &rig.instance());
    let mut timed = queries.split_off(plan.warmup);
    timed.truncate(requests);
    for q in &queries {
        let _ = rig.engine().serve(q, deadline);
    }
    let log = open_loop(rig.engine(), &timed, deadline, rate, plan.seed, &mut tracer);
    rig.teardown(dir);
    log
}

/// Run only the open-loop arm (`s3bench run --open-rate R` without
/// `--trace 1`): the whole plan's stream at `rate`.
pub fn run_open_loop(options: &RunOptions, rate: f64) -> LoadLog {
    let plan = Plan::new(options.workload, options.seed, options.seconds, options.smoke);
    let dir = scratch(&options.work_dir, "open-loop");
    let log = open_loop_arm(options, &plan, rate, plan.ops, &dir);
    let _ = std::fs::remove_dir(&options.work_dir);
    log
}

/// The `load.*` metrics of an open-loop log.
pub fn load_metrics(load: &LoadLog) -> Vec<Metric> {
    let n = load.latency_ms.len();
    let (latency, late) = (sorted(&load.latency_ms), sorted(&load.late_ms));
    vec![
        metric("load.open_rate_qps", load.rate, "1/s", n),
        metric("load.open_p50_ms", percentile(&latency, P50), "ms", n),
        metric("load.open_p95_ms", percentile(&latency, P95), "ms", n),
        metric("load.late_p95_ms", percentile(&late, P95), "ms", n),
        metric("load.backlog_max", load.backlog_max as f64, "count", n),
    ]
}

/// Everything a traced run measured, turned into the per-layer metrics.
struct Layers<'a> {
    /// The untraced half pass.
    pass: &'a PassResult,
    /// The traced half pass.
    traced: &'a PassResult,
    setup: SetupProbe,
    search: SearchProbe,
    /// The traced pass's latencies of the queries the search probe sampled.
    sampled_ms: Vec<f64>,
    writes: WriteProbe,
    load: LoadLog,
}

impl Layers<'_> {
    fn metrics(&self, attempted: u64, failed: u64) -> Vec<Metric> {
        let (t, s, w) = (self.traced, &self.search, &self.writes);
        let queries = t.query_ms.len();
        let per_query = |count: u64| ratio(count as f64, queries as f64);
        let wire = t.wire.unwrap_or_default();
        let wire_overhead_ms =
            if t.wire.is_some() { mean(&self.sampled_ms) - s.sharded_ms } else { 0.0 };
        let searched = t.stats.resume.cold + t.stats.resume.resumed + t.stats.resume.fallbacks;
        let hit_ms: Vec<f64> = t.hits.iter().map(|&i| t.query_ms[i]).collect();

        // The write path, measured with tracing off — and the only pass
        // that restarts and compacts its engine.
        let live = self.pass.live.clone().unwrap_or_default();
        let finales = usize::from(live.replayed > 0);
        let ingest_ms: Vec<f64> =
            live.attached_ms.iter().chain(&live.detached_ms).copied().collect();
        let batches = ingest_ms.len();
        // …and the traced pass's, which the twin-builder probe replayed.
        let traced_live = t.live.clone().unwrap_or_default();
        let traced_batches = traced_live.attached_ms.len() + traced_live.detached_ms.len();
        let per_batch = |count: u64| ratio(count as f64, traced_batches as f64);
        let traced_ingest_ms = mean(
            &[traced_live.attached_ms.as_slice(), traced_live.detached_ms.as_slice()].concat(),
        );
        let apply_ms = ratio(
            w.apply_attached_ms * traced_live.attached_ms.len() as f64
                + w.apply_detached_ms * traced_live.detached_ms.len() as f64,
            traced_batches as f64,
        );
        let publish_ms =
            if traced_batches > 0 { traced_ingest_ms - w.wal_append_ms - apply_ms } else { 0.0 };
        let replay_ms_per_record = if live.replayed > 0 {
            (live.recovery_s * 1e3 - w.snapshot_read_ms) / live.replayed as f64
        } else {
            0.0
        };

        let n = s.samples;
        let mut out = vec![
            metric("datasets.generate_s", self.setup.generate_s, "s", 1),
            metric("rdf.saturate_s", self.setup.saturate_s, "s", 1),
            metric("core.connections.build_s", self.setup.connections_build_s, "s", 1),
            metric("core.instance.freeze_s", self.setup.freeze_s, "s", 1),
            metric("core.expand.us_per_query", s.expand_us_per_query, "us", n),
            metric("core.expand.ext_size_mean", s.ext_size_mean, "count", n),
            metric("graph.propagation.steps_per_query", s.steps_per_query, "count", n),
            metric("graph.propagation.us_per_step", s.us_per_step, "us", n),
            metric("graph.propagation.share", s.propagation_share, "ratio", n),
            metric("core.search.self_ms_per_query", s.search_self_ms_per_query, "ms", n),
            metric("core.search.candidates_per_query", s.candidates_per_query, "count", n),
            metric("core.search.rejected_per_query", s.rejected_per_query, "count", n),
            metric("core.search.components_per_query", s.components_per_query, "count", n),
            metric(
                "core.search.pruned_components_per_query",
                s.pruned_components_per_query,
                "count",
                n,
            ),
            metric("core.search.useful_ratio", s.useful_ratio, "ratio", n),
            metric("engine.front.overhead_us", s.front_overhead_us, "us", n),
            metric("engine.cache.hit_rate", t.stats.cache.hit_rate(), "ratio", queries),
            metric("engine.cache.evictions", t.stats.cache.evictions as f64, "count", queries),
            metric("engine.cache.rejected", t.stats.cache.rejected as f64, "count", queries),
            metric("engine.cache.hit_us", mean(&hit_ms) * 1e3, "us", hit_ms.len()),
            metric(
                "engine.warm.resume_rate",
                ratio(t.stats.resume.resumed as f64, searched as f64),
                "ratio",
                searched as usize,
            ),
            metric(
                "engine.warm.fallback_rate",
                ratio(t.stats.resume.fallbacks as f64, searched as f64),
                "ratio",
                searched as usize,
            ),
            metric("engine.warm.warm_hit_rate", t.stats.resume.warm_hit_rate(), "ratio", queries),
            metric("engine.shard.scatter_width_mean", s.scatter_width_mean, "count", queries),
            metric("core.partitioned.overhead_ms", s.partitioned_overhead_ms, "ms", n),
            metric("wire.rounds_per_query", per_query(wire.rounds), "count", queries),
            metric("wire.frames_per_query", per_query(wire.frames), "count", queries),
            metric("wire.bytes_sent_per_query", per_query(wire.bytes_sent), "B", queries),
            metric("wire.bytes_received_per_query", per_query(wire.bytes_received), "B", queries),
            metric("wire.overhead_ms_per_query", wire_overhead_ms, "ms", n),
            metric(
                "wire.us_per_round",
                ratio(wire_overhead_ms * 1e3, per_query(wire.rounds)),
                "us",
                n,
            ),
            metric("engine.gate.shed_rate", per_query(t.stats.load.shed), "ratio", queries),
            metric("engine.gate.degraded_rate", per_query(t.stats.load.degraded), "ratio", queries),
            metric("engine.gate.expired_rate", per_query(t.stats.load.expired), "ratio", queries),
            metric("core.wal.append_ms", w.wal_append_ms, "ms", traced_batches),
            metric("core.wal.bytes_per_batch", w.wal_bytes_per_batch, "B", traced_batches),
            metric(
                "core.ingest.apply_attached_ms",
                w.apply_attached_ms,
                "ms",
                traced_live.attached_ms.len(),
            ),
            metric(
                "core.ingest.apply_detached_ms",
                w.apply_detached_ms,
                "ms",
                traced_live.detached_ms.len(),
            ),
            metric(
                "core.ingest.touched_components_mean",
                mean(&traced_live.touched_components),
                "count",
                traced_batches,
            ),
            metric("engine.live.publish_ms", publish_ms, "ms", traced_batches),
            metric(
                "engine.live.results_invalidated_per_batch",
                per_batch(t.stats.cache.invalidated),
                "count",
                traced_batches,
            ),
            metric(
                "engine.live.warm_invalidated_per_batch",
                per_batch(t.stats.resume.invalidated),
                "count",
                traced_batches,
            ),
            metric(
                "engine.live.post_ingest_hit_rate",
                if traced_batches > 0 { t.stats.cache.hit_rate() } else { 0.0 },
                "ratio",
                if traced_batches > 0 { queries } else { 0 },
            ),
            metric(
                "engine.live.checkpoint_ms",
                mean(&traced_live.checkpoint_ms),
                "ms",
                traced_live.checkpoint_ms.len(),
            ),
            metric("core.snapshot.write_ms", w.snapshot_write_ms, "ms", 1),
            metric("core.snapshot.read_ms", w.snapshot_read_ms, "ms", 1),
            metric("core.snapshot.bytes", w.snapshot_bytes, "B", 1),
            metric("core.snapshot.bytes_per_doc", w.snapshot_bytes_per_doc, "B", 1),
            metric("engine.live.replay_ms_per_record", replay_ms_per_record, "ms", live.replayed),
            metric("engine.live.compact_ms", live.compact_ms, "ms", finales),
            metric(
                "engine.live.dead_fraction_before_compact",
                live.dead_fraction_before_compact,
                "ratio",
                finales,
            ),
        ];
        out.extend(load_metrics(&self.load));
        out.extend([
            metric(
                "trace.overhead_share",
                ratio(t.wall_s - self.pass.wall_s, self.pass.wall_s),
                "ratio",
                queries,
            ),
            // End-to-end on `live_mixed` only, so they cannot sit among the
            // gated metrics every workload must report.
            metric(
                "ingest_attached_p50_ms",
                median(&live.attached_ms),
                "ms",
                live.attached_ms.len(),
            ),
            metric(
                "ingest_detached_p50_ms",
                median(&live.detached_ms),
                "ms",
                live.detached_ms.len(),
            ),
            metric(
                "ingest_batches_per_s",
                ratio(batches as f64, ingest_ms.iter().sum::<f64>() / 1e3),
                "1/s",
                batches,
            ),
            metric("recovery_s", live.recovery_s, "s", finales),
            metric(
                "failed_share",
                ratio(failed as f64, attempted as f64),
                "ratio",
                attempted as usize,
            ),
        ]);
        out
    }
}
