//! Per-layer attribution from outside: each probe times direct calls into
//! one layer's public functions on inputs the workload just ran, and the
//! differences between probes attribute an end-to-end time to layers.
//! Probes run after the timed passes of a traced run, each call in a span.

use crate::corpus::Corpus;
use crate::plan::Plan;
use crate::stats::{mean, ratio};
use crate::streams::{live_steps, LivePhase};
use crate::trace::Tracer;
use crate::workloads::{cold_config, cold_search, SHARDS};
use s3_core::connections::TagInput;
use s3_core::{
    read_snapshot, write_snapshot, ComponentPartition, ConnectionIndex, Propagation, Query,
    S3Instance, S3kEngine, WriteAheadLog,
};
use s3_engine::{S3Engine, ShardRouter, ShardedEngine};
use s3_wire::WireIngest;
use std::path::Path;
use std::sync::Arc;

/// Where set-up time goes.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupProbe {
    /// `twitter::generate_builder`.
    pub generate_s: f64,
    /// RDFS saturation of the builder's triple store.
    pub saturate_s: f64,
    /// `ConnectionIndex::build` over the frozen forest, tags and comments.
    pub connections_build_s: f64,
    /// `InstanceBuilder::snapshot` (saturation and `con` build included).
    pub freeze_s: f64,
}

/// Time the set-up layers of `corpus` by calling each directly.
pub fn probe_setup(corpus: Corpus, tracer: &mut Tracer) -> SetupProbe {
    let open = tracer.begin("datasets.generate", 0);
    let mut builder = corpus.builder();
    let generate_s = tracer.end(open).as_secs_f64();

    let mut rdf = builder.rdf_mut().clone();
    let open = tracer.begin("rdf.saturate", 0);
    rdf.saturate();
    let saturate_s = tracer.end(open).as_secs_f64();

    let open = tracer.begin("core.instance.freeze", 0);
    let instance = builder.snapshot();
    let freeze_s = tracer.end(open).as_secs_f64();

    let graph = instance.graph();
    let tags: Vec<TagInput> = instance
        .tags()
        .iter()
        .map(|t| TagInput {
            subject: t.subject,
            author_node: instance.user_node(t.author),
            keyword: t.keyword,
        })
        .collect();
    let open = tracer.begin("core.connections.build", 0);
    let index = ConnectionIndex::build(instance.forest(), &tags, instance.comment_pairs(), |d| {
        graph.node_of_frag(d).expect("every fragment has a graph node")
    });
    let connections_build_s = tracer.end(open).as_secs_f64();
    assert_eq!(index.len(), instance.connections().len(), "the direct build is the same index");

    SetupProbe { generate_s, saturate_s, connections_build_s, freeze_s }
}

/// Where a query's time goes, over a sample of the workload's queries.
#[derive(Debug, Clone, Default)]
pub struct SearchProbe {
    /// Sampled queries.
    pub samples: usize,
    /// `S3Instance::expand_keyword` over a query's keywords.
    pub expand_us_per_query: f64,
    /// Mean extension size per keyword.
    pub ext_size_mean: f64,
    /// `SearchStats.iterations`.
    pub steps_per_query: f64,
    /// Replayed propagation time per step.
    pub us_per_step: f64,
    /// Replayed propagation time as a share of the direct search.
    pub propagation_share: f64,
    /// Direct search minus the propagation replay: discovery, bounds, stop.
    pub search_self_ms_per_query: f64,
    /// `SearchStats.candidates`.
    pub candidates_per_query: f64,
    /// `SearchStats.rejected`.
    pub rejected_per_query: f64,
    /// `SearchStats.components`.
    pub components_per_query: f64,
    /// `SearchStats.pruned_components`.
    pub pruned_components_per_query: f64,
    /// Hits returned per candidate examined.
    pub useful_ratio: f64,
    /// Cache-off `S3Engine::serve` minus the direct search.
    pub front_overhead_us: f64,
    /// Cold two-shard `ShardedEngine::serve` minus cold `S3Engine::serve`.
    pub partitioned_overhead_ms: f64,
    /// Mean cold two-shard `serve` latency (the in-process side of the
    /// wire overhead).
    pub sharded_ms: f64,
    /// Shards a query is routed to, over every timed query.
    pub scatter_width_mean: f64,
}

/// Attribute query time on `instance`: `sample` is replayed through each
/// layer directly, `all` only routed.
pub fn probe_search(
    instance: &Arc<S3Instance>,
    all: &[Query],
    sample: &[Query],
    tracer: &mut Tracer,
) -> SearchProbe {
    let config = cold_search();
    let gamma = config.score.gamma;
    let direct = S3kEngine::new(instance, config.clone());
    let mut session = direct.session();
    let unsharded = S3Engine::new(Arc::clone(instance), cold_config());
    let sharded = ShardedEngine::new(Arc::clone(instance), cold_config(), SHARDS);
    let graph = instance.graph();
    let mut replay: Option<Propagation<'_>> = None;
    let mut newly = Vec::new();

    let (mut expand_us, mut direct_ms, mut replay_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut serve_ms, mut sharded_ms) = (Vec::new(), Vec::new());
    let (mut ext_sizes, mut keywords) = (0usize, 0usize);
    let (mut steps, mut candidates, mut rejected) = (0u64, 0usize, 0usize);
    let (mut components, mut pruned, mut hits) = (0usize, 0usize, 0usize);
    for (i, q) in sample.iter().enumerate() {
        let op = i as u64;
        let open = tracer.begin("core.expand", op);
        for &k in &q.keywords {
            ext_sizes += instance.expand_keyword(k).len();
        }
        expand_us.push(tracer.end(open).as_secs_f64() * 1e6);
        keywords += q.keywords.len();

        let open = tracer.begin("core.search.run", op);
        let result = session.run(q);
        direct_ms.push(tracer.end(open).as_secs_f64() * 1e3);
        let stats = result.stats;
        steps += u64::from(stats.iterations);
        candidates += stats.candidates;
        rejected += stats.rejected;
        components += stats.components;
        pruned += stats.pruned_components;
        hits += result.hits.len();

        // The same seeker, the same number of steps, nothing but the
        // propagation — buffers reused across queries as the search does.
        let seeker = instance.user_node(q.seeker);
        let open = tracer.begin("graph.propagation.replay", op);
        let prop = match &mut replay {
            Some(prop) => {
                prop.reset(seeker);
                prop
            }
            slot => slot.insert(Propagation::new(graph, gamma, seeker)),
        };
        for _ in 0..stats.iterations {
            prop.step_into(1, false, &mut newly);
        }
        replay_ms.push(tracer.end(open).as_secs_f64() * 1e3);

        let open = tracer.begin("engine.serve", op);
        let served = unsharded.serve(q, None);
        serve_ms.push(tracer.end(open).as_secs_f64() * 1e3);
        std::hint::black_box(served);

        let open = tracer.begin("engine.shard.serve", op);
        let served = sharded.serve(q, None);
        sharded_ms.push(tracer.end(open).as_secs_f64() * 1e3);
        std::hint::black_box(served);
    }

    let router =
        ShardRouter::new(instance, Arc::new(ComponentPartition::balanced(instance, SHARDS)));
    let mut routed = Vec::new();
    let mut width = 0usize;
    for q in all {
        router.route_into(instance, q, &config, &mut routed);
        width += routed.len();
    }

    let n = sample.len() as f64;
    let (direct_total, replay_total) =
        (direct_ms.iter().sum::<f64>(), replay_ms.iter().sum::<f64>());
    SearchProbe {
        samples: sample.len(),
        expand_us_per_query: mean(&expand_us),
        ext_size_mean: ratio(ext_sizes as f64, keywords as f64),
        steps_per_query: ratio(steps as f64, n),
        us_per_step: ratio(replay_total * 1e3, steps as f64),
        propagation_share: ratio(replay_total, direct_total),
        search_self_ms_per_query: ratio(direct_total - replay_total, n),
        candidates_per_query: ratio(candidates as f64, n),
        rejected_per_query: ratio(rejected as f64, n),
        components_per_query: ratio(components as f64, n),
        pruned_components_per_query: ratio(pruned as f64, n),
        useful_ratio: ratio(hits as f64, candidates as f64),
        front_overhead_us: (mean(&serve_ms) - mean(&direct_ms)) * 1e3,
        partitioned_overhead_ms: mean(&sharded_ms) - mean(&serve_ms),
        sharded_ms: mean(&sharded_ms),
        scatter_width_mean: ratio(width as f64, all.len() as f64),
    }
}

/// Where an ingest's time goes, and what durability costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteProbe {
    /// `WriteAheadLog::append` of a batch's WAL record, fsync included.
    pub wal_append_ms: f64,
    /// Encoded WAL record size.
    pub wal_bytes_per_batch: f64,
    /// `InstanceBuilder::apply`, batches touching pre-existing data.
    pub apply_attached_ms: f64,
    /// `InstanceBuilder::apply`, append-only batches.
    pub apply_detached_ms: f64,
    /// `write_snapshot` of the final state.
    pub snapshot_write_ms: f64,
    /// `read_snapshot` of those bytes.
    pub snapshot_read_ms: f64,
    /// Snapshot size.
    pub snapshot_bytes: f64,
    /// Snapshot size per live document.
    pub snapshot_bytes_per_doc: f64,
}

/// Replay the batches of `plan`'s stream on a twin builder of the
/// workload's corpus, journaling the same records to a side WAL under
/// `dir` (removed afterwards).
pub fn probe_writes(plan: &Plan, dir: &Path, tracer: &mut Tracer) -> WriteProbe {
    let mut twin = plan.workload.corpus().builder();
    let mut current = twin.snapshot();
    std::fs::create_dir_all(dir).expect("create the probe's scratch directory");
    let (mut wal, _) = WriteAheadLog::open(&dir.join("side.wal")).expect("open the side WAL");

    let (mut append_ms, mut record_bytes) = (Vec::new(), 0usize);
    let (mut attached_ms, mut detached_ms) = (Vec::new(), Vec::new());
    let mut payload = Vec::new();
    let mut op = 0;
    for phase in [LivePhase::Detached, LivePhase::Mutating] {
        for step in live_steps(plan, &current, phase) {
            payload.clear();
            WireIngest::from_batch(&step.batch).encode(&mut payload);
            record_bytes += payload.len();
            let open = tracer.begin("core.wal.append", op);
            wal.append(&payload).expect("append to the side WAL");
            append_ms.push(tracer.end(open).as_secs_f64() * 1e3);

            let open = tracer.begin("core.ingest.apply", op);
            let (next, summary) = twin.apply(&current, &step.batch);
            let ms = tracer.end(open).as_secs_f64() * 1e3;
            if summary.detached { &mut detached_ms } else { &mut attached_ms }.push(ms);
            current = next;
            op += 1;
        }
    }

    let open = tracer.begin("core.snapshot.write", op);
    let bytes = write_snapshot(&twin, &current);
    let snapshot_write_ms = tracer.end(open).as_secs_f64() * 1e3;
    let open = tracer.begin("core.snapshot.read", op);
    let decoded = read_snapshot(&bytes);
    let snapshot_read_ms = tracer.end(open).as_secs_f64() * 1e3;
    decoded.expect("the snapshot just written decodes");
    drop(wal);
    let _ = std::fs::remove_dir_all(dir);

    WriteProbe {
        wal_append_ms: mean(&append_ms),
        wal_bytes_per_batch: ratio(record_bytes as f64, op as f64),
        apply_attached_ms: mean(&attached_ms),
        apply_detached_ms: mean(&detached_ms),
        snapshot_write_ms,
        snapshot_read_ms,
        snapshot_bytes: bytes.len() as f64,
        snapshot_bytes_per_doc: ratio(bytes.len() as f64, current.stats().documents as f64),
    }
}
