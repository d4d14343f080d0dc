//! Two in-process smoke runs of one seed agree, on every workload, on
//! every metric marked *exact*; the contract line carries exactly the
//! metrics `BENCHMARK.json` lists, in order.
//!
//! Run with `--release`: a debug build searches an order of magnitude
//! slower.

use s3bench::json::Value;
use s3bench::plan::Workload;
use s3bench::run::{run, Report, RunOptions, EXACT};
use std::path::PathBuf;

fn smoke(workload: Workload, trace: bool, label: &str) -> Report {
    run(RunOptions {
        workload,
        seed: 7,
        seconds: 1,
        trace,
        smoke: true,
        open_rate: None,
        // Relative, like the command line's default: unix socket paths
        // must stay short.
        work_dir: PathBuf::from(format!(".s3bench_work/test-{label}")),
    })
}

fn listed(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let doc = Value::parse(&text).expect("BENCHMARK.json parses");
    let entries = doc.get(section).and_then(Value::as_array).expect("section is an array");
    entries
        .iter()
        .map(|e| {
            let field = |k| e.get(k).and_then(Value::as_str).expect("string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn reported(report: &Report) -> Vec<(String, String)> {
    report.metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
}

#[test]
fn exact_metrics_repeat_for_a_seed() {
    for workload in Workload::ALL {
        let label = format!("exact-{}", workload.name());
        let (a, b) = (smoke(workload, true, &label), smoke(workload, true, &label));
        assert!(a.correct() && b.correct(), "{}: reference mismatch", workload.name());
        assert_eq!(a.failed, 0, "{}: no operation fails", workload.name());
        assert_eq!(reported(&a), listed("per_layer"), "{}", workload.name());
        assert!(!a.tracer.as_ref().expect("traced").spans().is_empty());
        for name in EXACT {
            let value = |r: &Report| {
                let m = r.metrics.iter().find(|m| m.name == *name);
                m.unwrap_or_else(|| panic!("{name} is not reported")).value
            };
            assert_eq!(
                value(&a).to_bits(),
                value(&b).to_bits(),
                "{}: {name} differs between two runs of one seed",
                workload.name()
            );
        }
    }
}

#[test]
fn untraced_run_reports_the_gated_metrics() {
    let report = smoke(Workload::ServeZipf, false, "gated");
    assert!(report.correct());
    assert_eq!(reported(&report), listed("end_to_end"));
    assert!(report.metrics.iter().all(|m| m.value > 0.0), "gated metrics are never zero");
    let line = report.contract_line();
    let keys: Vec<&str> = line.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let full = report.to_json();
    for key in ["host", "corpus", "counts", "seed", "workload"] {
        assert!(full.get(key).is_some(), "the report records its {key}");
    }
}
