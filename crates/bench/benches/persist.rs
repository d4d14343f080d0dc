//! Durability-path bench: snapshot save/load, fsync-bound WAL append
//! throughput, and warm-restart latency (snapshot decode + cold build vs
//! replaying the whole journal).
//!
//! Run with `cargo bench --bench persist` (the bench carries its own
//! `main`). Writes `BENCH_persist.json`. Gates deterministically: the
//! reopened engine must answer byte-identically to the engine that wrote
//! the journal, the WAL tail must replay exactly the uncheckpointed
//! batches, a post-checkpoint reopen must replay nothing, and a
//! checkpoint taken right after that reopen must write the same bytes as
//! the file it reopened from.

use s3_bench::{JsonReport, Table};
use s3_core::Query;
use s3_datasets::workload::{live_workload, LiveWorkloadConfig};
use s3_datasets::{twitter, Scale};
use s3_engine::{EngineConfig, LiveEngine, RecoverySource};
use std::time::Instant;

/// `BENCH_SMOKE=1` (or `--smoke`) shrinks the run to one fast iteration —
/// CI's smoke tier executes the bench this way so runtime panics are
/// caught without paying for a measurement-grade sweep.
fn smoke_mode() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some_and(|v| v != "0")
        || std::env::args().any(|a| a == "--smoke")
}

fn engine_config() -> EngineConfig {
    EngineConfig::builder().threads(1).cache_capacity(0).warm_seekers(0).build()
}

fn main() {
    let smoke = smoke_mode();
    let mut config = twitter::TwitterConfig::scaled(Scale::Tiny);
    if smoke {
        config.users = 50;
        config.tweets = 300;
        println!("[smoke mode: tiny corpus, short journal]\n");
    }
    // The builder is regenerated per open (it is retained by the engine
    // and `generate_builder` is deterministic); the seed is only used
    // when no snapshot exists, so the reopens below ignore it anyway.
    let seed_builder = || twitter::generate_builder(&config).0;
    let meta = twitter::generate_builder(&config).1;
    let batches = if smoke { 4 } else { 16 };
    println!(
        "durability paths: {} documents from {} tweets, {batches} journaled batches\n",
        meta.documents, meta.tweets
    );

    let dir = std::env::temp_dir().join(format!("s3-persist-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut report = JsonReport::new("persist");
    report.str("scale", if smoke { "smoke" } else { "tiny" }).int("batches", batches as u64);
    let mut table = Table::new(&["path", "time", "detail"]);
    let ms = |d: std::time::Duration| format!("{:.1} ms", d.as_secs_f64() * 1e3);

    // ---- Cold open: seed the store, journal a live workload. ----
    let t = Instant::now();
    let (engine, recovery) =
        LiveEngine::open(&dir, seed_builder(), engine_config()).expect("seed open");
    let seed_open = t.elapsed();
    assert_eq!(recovery.source, RecoverySource::Seed);
    table.row(vec!["seed open".into(), ms(seed_open), "no snapshot on disk".into()]);
    report.num("open.seed_ms", seed_open.as_secs_f64() * 1e3);

    let steps = live_workload(
        &engine.instance(),
        &LiveWorkloadConfig { batches, queries_per_batch: 4, seed: 42, ..Default::default() },
    );
    let t = Instant::now();
    for step in &steps {
        engine.ingest(&step.batch);
    }
    let journal = t.elapsed();
    table.row(vec![
        "journaled ingest".into(),
        ms(journal),
        format!("{batches} batches, fsync per commit"),
    ]);
    report
        .num("wal.journal_ms", journal.as_secs_f64() * 1e3)
        .num("wal.batches_per_s", batches as f64 / journal.as_secs_f64());

    // The answers the restarted engine must reproduce byte-for-byte.
    let instance = engine.instance();
    let queries: Vec<Query> = steps
        .iter()
        .flat_map(|s| s.queries.iter())
        .map(|spec| Query::new(spec.seeker, instance.query_keywords(&spec.text), spec.k))
        .collect();
    let expected: Vec<_> = queries.iter().map(|q| engine.query(q)).collect();
    drop(engine);

    // ---- Warm restart, journal-heavy: snapshot absent, full replay. ----
    let t = Instant::now();
    let (engine, recovery) =
        LiveEngine::open(&dir, seed_builder(), engine_config()).expect("replay open");
    let replay_open = t.elapsed();
    assert_eq!(recovery.replayed, batches, "every journaled batch replays");
    table.row(vec![
        "reopen (WAL only)".into(),
        ms(replay_open),
        format!("{} records replayed", recovery.replayed),
    ]);
    report.num("open.replay_ms", replay_open.as_secs_f64() * 1e3);
    for (q, want) in queries.iter().zip(&expected) {
        let got = engine.query(q);
        assert_eq!(got.hits, want.hits, "restart must be byte-identical");
        assert_eq!(got.stats.stop, want.stats.stop);
    }

    // ---- Checkpoint: absorb the journal into the snapshot. ----
    let t = Instant::now();
    let absorbed = engine.checkpoint().expect("checkpoint").absorbed;
    let checkpoint = t.elapsed();
    assert_eq!(absorbed, batches as u64);
    let snapshot_bytes = std::fs::metadata(dir.join("snapshot.s3k")).expect("snapshot").len();
    table.row(vec![
        "checkpoint".into(),
        ms(checkpoint),
        format!("{absorbed} records absorbed, {snapshot_bytes} B snapshot"),
    ]);
    report
        .num("checkpoint.ms", checkpoint.as_secs_f64() * 1e3)
        .int("checkpoint.snapshot_bytes", snapshot_bytes);
    drop(engine);

    // ---- Warm restart, snapshot-only: load, replay nothing. ----
    let t = Instant::now();
    let (engine, recovery) =
        LiveEngine::open(&dir, seed_builder(), engine_config()).expect("snapshot open");
    let snap_open = t.elapsed();
    assert_eq!(recovery.source, RecoverySource::Snapshot);
    assert_eq!(recovery.replayed, 0, "the checkpoint truncated the journal");
    table.row(vec!["reopen (snapshot)".into(), ms(snap_open), "0 records replayed".into()]);
    report.num("open.snapshot_ms", snap_open.as_secs_f64() * 1e3);
    for (q, want) in queries.iter().zip(&expected) {
        assert_eq!(engine.query(q).hits, want.hits, "snapshot restart must be byte-identical");
    }

    // ---- Clock-free gate: the snapshot is a function of the builder. ----
    // The reopened instance was cold-built from the file; checkpointing it
    // straight away must write the very bytes it was opened from.
    let snapshot_path = dir.join("snapshot.s3k");
    let reopened_from = std::fs::read(&snapshot_path).expect("snapshot");
    assert_eq!(engine.checkpoint().expect("re-checkpoint").absorbed, 0);
    let rewritten = std::fs::read(&snapshot_path).expect("snapshot");
    assert!(rewritten == reopened_from, "a checkpoint after reopen must rewrite the same bytes");
    table.row(vec![
        "re-checkpoint".into(),
        "-".into(),
        format!("{} B, identical to the file reopened from", rewritten.len()),
    ]);
    report.str("checkpoint.after_reopen", "identical");
    drop(engine);

    print!("{}", table.render());
    report.write_and_announce();
    println!(
        "\nrestart: the WAL-only reopen replays every batch through the ingest\n\
         path; the post-checkpoint reopen decodes the snapshot's builder and\n\
         cold-builds it. Both are gated byte-identical to the engine that\n\
         wrote the journal, and a checkpoint right after the snapshot reopen\n\
         must rewrite the file byte for byte."
    );
    let _ = std::fs::remove_dir_all(&dir);
}
