//! Live-ingestion bench: batch apply latency against corpus size, and the
//! cost of tombstones and compaction.
//!
//! Run with `cargo bench --bench ingest` (`BENCH_SMOKE=1` or `--smoke`
//! for CI's one-iteration smoke tier).
//!
//! Two measurements:
//!
//! * **apply latency** — time to ingest a batch into a live engine as the
//!   corpus grows, detached batches vs attached ones (the attached path
//!   reruns the `con` fixpoint inside the touched components; a cold
//!   `InstanceBuilder::snapshot` of the same data is timed alongside as
//!   the stop-the-world baseline the incremental path replaces);
//! * **mutation arm** — tombstoned apply (deletes + updates riding along
//!   with appends) vs append-only at equal batch size, plus the cost of
//!   the off-path compaction epoch and what it reclaims.

use s3_bench::{JsonReport, Table};
use s3_datasets::workload::{live_workload, LiveWorkloadConfig};
use s3_datasets::{twitter, Scale};
use s3_engine::{EngineConfig, LiveEngine};
use std::time::Instant;

fn smoke_mode() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some_and(|v| v != "0")
        || std::env::args().any(|a| a == "--smoke")
}

fn builder(tweets: usize) -> s3_core::InstanceBuilder {
    let mut c = twitter::TwitterConfig::scaled(Scale::Tiny);
    c.users = (tweets / 6).max(20);
    c.tweets = tweets;
    twitter::generate_builder(&c).0
}

fn main() {
    let smoke = smoke_mode();
    if smoke {
        println!("[smoke mode: smallest corpus, one batch per class]\n");
    }
    let mut report = JsonReport::new("ingest");
    report.str("scale", if smoke { "smoke" } else { "tiny" });

    // ---- Apply latency vs corpus size, detached vs attached. ----
    let sizes: &[usize] = if smoke { &[200] } else { &[200, 800, 2000] };
    let batches_per_class = if smoke { 1 } else { 4 };
    let mut table =
        Table::new(&["tweets", "class", "apply ms", "cold rebuild ms", "speedup", "touched comps"]);
    for &tweets in sizes {
        for (class, attach_probability) in [("detached", 0.0), ("attached", 1.0)] {
            let mut b = builder(tweets);
            let live = LiveEngine::new(
                {
                    // The live engine retains its own builder; keep a twin
                    // for the cold-baseline timing below.
                    builder(tweets)
                },
                EngineConfig::builder().threads(1).build(),
            );
            let steps = live_workload(
                &live.instance(),
                &LiveWorkloadConfig {
                    batches: batches_per_class,
                    docs_per_batch: 4,
                    attach_probability,
                    seed: 7,
                    ..LiveWorkloadConfig::default()
                },
            );
            let mut apply_total = 0.0;
            let mut cold_total = 0.0;
            let mut touched = 0usize;
            let mut prev = b.snapshot();
            for step in &steps {
                let t = Instant::now();
                let report = live.ingest(&step.batch);
                apply_total += t.elapsed().as_secs_f64();
                touched += report.summary.touched_components.len();

                let (next, _) = b.apply(&prev, &step.batch);
                prev = next;
                let t = Instant::now();
                let cold = b.snapshot();
                cold_total += t.elapsed().as_secs_f64();
                assert_eq!(cold.num_documents(), live.instance().num_documents());
            }
            let n = steps.len() as f64;
            report
                .num(&format!("apply.{class}.{tweets}.apply_ms"), 1e3 * apply_total / n)
                .num(&format!("apply.{class}.{tweets}.cold_ms"), 1e3 * cold_total / n);
            table.row(vec![
                tweets.to_string(),
                class.to_string(),
                format!("{:.2}", 1e3 * apply_total / n),
                format!("{:.2}", 1e3 * cold_total / n),
                format!("{:.1}x", cold_total / apply_total.max(1e-12)),
                (touched / steps.len()).to_string(),
            ]);
        }
    }
    print!("{}", table.render());

    // ---- Mutation arm: tombstoned apply vs append-only at equal batch
    // size (both arms append 4 documents per batch; the mutating arm
    // additionally tombstones 2 trees per batch), plus the off-path
    // compaction cost and what it reclaims. ----
    let tweets = if smoke { 200 } else { 800 };
    let batches = if smoke { 4 } else { 8 };
    let mut mutation =
        Table::new(&["arm", "apply ms/batch", "dead fraction", "compact ms", "docs dropped"]);
    for (arm, deletes, updates, docs) in
        [("append-only", 0usize, 0usize, 4usize), ("mutating", 1, 1, 3)]
    {
        let live = LiveEngine::new(builder(tweets), EngineConfig::builder().threads(1).build());
        let steps = live_workload(
            &live.instance(),
            &LiveWorkloadConfig {
                batches,
                docs_per_batch: docs,
                deletes_per_batch: deletes,
                updates_per_batch: updates,
                // Deletions always touch pre-existing components, so both
                // arms run fully attached to keep the comparison fair.
                attach_probability: 1.0,
                seed: 11,
                ..LiveWorkloadConfig::default()
            },
        );
        let mut apply_total = 0.0;
        for step in &steps {
            let t = Instant::now();
            live.ingest(&step.batch);
            apply_total += t.elapsed().as_secs_f64();
        }
        let apply_ms = 1e3 * apply_total / steps.len() as f64;
        let dead = live.dead_fraction();
        let (compact_ms, dropped) = if deletes > 0 {
            let t = Instant::now();
            let r = live.compact().expect("compact");
            (1e3 * t.elapsed().as_secs_f64(), r.compaction.dropped_documents)
        } else {
            (0.0, 0)
        };
        report
            .num(&format!("mutation.{arm}.apply_ms"), apply_ms)
            .num(&format!("mutation.{arm}.dead_fraction"), dead);
        if deletes > 0 {
            report
                .num("mutation.compact_ms", compact_ms)
                .int("mutation.compact_dropped_docs", dropped as u64);
            assert_eq!(live.dead_fraction(), 0.0, "compaction reclaims every tombstone");
        }
        mutation.row(vec![
            arm.to_string(),
            format!("{apply_ms:.2}"),
            format!("{dead:.3}"),
            if deletes > 0 { format!("{compact_ms:.2}") } else { "-".to_string() },
            dropped.to_string(),
        ]);
    }
    println!();
    print!("{}", mutation.render());

    report.write_and_announce();
}
