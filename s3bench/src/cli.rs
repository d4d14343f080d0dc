//! Command line: `s3bench run …` and `s3bench compare …`.

use crate::compare::{bounds_of, compare, runs_of};
use crate::plan::Workload;
use crate::run::{load_metrics, run, run_open_loop, Metric, Report, RunOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

const USAGE: &str = "\
usage:
  s3bench run --workload <search_cold|serve_zipf|fleet_unix|live_mixed> --seed <u64>
              [--seconds <1..60>] [--trace <0|1>] [--smoke] [--open-rate <1/s>]
              [--report <file>] [--trace-out <file>] [--work-dir <dir>]
  s3bench compare <a.jsonl> <b.jsonl> [--bounds <BENCHMARK.json>]

run      prints every metric by name and, as its last line, one JSON object
         {correct, attempted, failed, metrics}. --trace 0 (default) gives the
         end-to-end metrics; --trace 1 is the separate traced run that gives
         the per-layer metrics and writes its spans to --trace-out.
         --report appends the full record (host, corpus, counts, samples).
         --open-rate without --trace 1 runs only serve_zipf's open-loop arm.
compare  reads --report files and exits non-zero when a metric is worse.";

/// Default `--seconds`, the `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u32 = 15;

/// Scratch directory under the working directory (listed in `.gitignore`).
const DEFAULT_WORK_DIR: &str = ".s3bench_work";

/// Run the command line; returns the exit code.
pub fn main(args: Vec<String>) -> i32 {
    let result = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("compare") => compare_command(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("{message}");
        2
    })
}

/// `--flag value` pairs and bare words, in order.
struct Args<'a> {
    rest: std::slice::Iter<'a, String>,
}

impl<'a> Args<'a> {
    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.rest.next().map(String::as_str).ok_or_else(|| format!("{flag} needs a value"))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let value = self.value(flag)?;
        value.parse().map_err(|_| format!("{flag}: cannot read {value:?}"))
    }
}

fn run_command(args: &[String]) -> Result<i32, String> {
    let mut args = Args { rest: args.iter() };
    let (mut workload, mut seed) = (None, None);
    let (mut seconds, mut trace, mut smoke) = (DEFAULT_SECONDS, false, false);
    let (mut open_rate, mut report_path, mut trace_out) = (None, None, None);
    let mut work_dir = PathBuf::from(DEFAULT_WORK_DIR);
    while let Some(flag) = args.rest.next() {
        match flag.as_str() {
            "--workload" => {
                let name = args.value(flag)?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = Some(args.parsed::<u64>(flag)?),
            "--seconds" => {
                seconds = args.parsed(flag)?;
                if !(1..=60).contains(&seconds) {
                    return Err("--seconds is a whole number from 1 to 60".to_string());
                }
            }
            "--trace" => {
                trace = match args.value(flag)? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace is 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            "--open-rate" => {
                let rate: f64 = args.parsed(flag)?;
                if !(rate > 0.0 && rate.is_finite()) {
                    return Err("--open-rate is a positive number of requests per second".into());
                }
                open_rate = Some(rate);
            }
            "--report" => report_path = Some(PathBuf::from(args.value(flag)?)),
            "--trace-out" => trace_out = Some(PathBuf::from(args.value(flag)?)),
            "--work-dir" => work_dir = PathBuf::from(args.value(flag)?),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    if open_rate.is_some() && workload != Workload::ServeZipf {
        return Err("--open-rate replays serve_zipf's stream; use --workload serve_zipf".into());
    }
    let options = RunOptions { workload, seed, seconds, trace, smoke, open_rate, work_dir };

    if let (Some(rate), false) = (open_rate, trace) {
        let log = run_open_loop(&options, rate);
        println!("{} open loop at {rate} requests/s, seed {seed}", workload.name());
        print_metrics(&load_metrics(&log));
        println!(
            "recorded, never gated: identical runs of this arm spread 2x at p99 on a 2-core host"
        );
        return Ok(i32::from(log.failed > 0));
    }

    let report = run(options);
    print_report(&report);
    if let Some(tracer) = &report.tracer {
        let path = trace_out.unwrap_or_else(|| {
            report.options.work_dir.join(format!("trace-{}-{seed}.json", workload.name()))
        });
        write_file(&path, &tracer.to_json().to_string(), false)?;
        println!("spans: {} written to {}", tracer.spans().len(), path.display());
    }
    if let Some(path) = report_path {
        write_file(&path, &report.to_json().to_string(), true)?;
    }
    println!("{}", report.contract_line());
    Ok(i32::from(!report.correct()))
}

fn write_file(path: &Path, line: &str, append: bool) -> Result<(), String> {
    let failed = |e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(failed)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .append(append)
        .truncate(!append)
        .open(path)
        .map_err(failed)?;
    writeln!(file, "{line}").map_err(failed)
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<44} {:>16.6} {:<6} n={}", m.name, m.value, m.unit, m.samples);
    }
}

fn print_report(report: &Report) {
    let (o, h, c) = (&report.options, &report.host, &report.corpus);
    println!(
        "s3bench {} seed {} seconds {}{}{}",
        o.workload.name(),
        o.seed,
        o.seconds,
        if o.trace { " traced" } else { "" },
        if o.smoke { " smoke" } else { "" },
    );
    println!("host: {} cores, {}, {}, commit {}", h.nproc, h.cpu, h.rustc, h.git);
    println!(
        "corpus {}: {} users, {} documents, {} tags ({} endorsements), {} components",
        c.name, c.users, c.documents, c.tags, c.endorsements, c.components
    );
    println!(
        "counts: {} timed operations per pass after {} warm-up, {} checked against the reference",
        report.plan.ops, report.plan.warmup, report.plan.sample
    );
    print_metrics(&report.metrics);
    if let Some(tail) = &report.tail {
        println!("highest percentile this sample supports:");
        print_metrics(std::slice::from_ref(tail));
    }
    if let Some(tracer) = &report.tracer {
        println!("span totals (self = minus child spans):");
        for (name, t) in tracer.totals() {
            println!(
                "  {:<44} {:>7} spans {:>12.3} ms total {:>12.3} ms self",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    println!(
        "attempted {} failed {} reference mismatches {}",
        report.attempted, report.failed, report.mismatches
    );
}

fn compare_command(args: &[String]) -> Result<i32, String> {
    let mut args = Args { rest: args.iter() };
    let mut files = Vec::new();
    let mut bounds_path = PathBuf::from("BENCHMARK.json");
    while let Some(arg) = args.rest.next() {
        match arg.as_str() {
            "--bounds" => bounds_path = PathBuf::from(args.value(arg)?),
            flag if flag.starts_with("--") => return Err(format!("unknown argument {flag:?}")),
            file => files.push(file),
        }
    }
    let [a, b] = files[..] else {
        return Err(format!("compare takes two report files\n{USAGE}"));
    };
    let read =
        |path: &Path| std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()));
    let bounds = bounds_of(&read(&bounds_path)?)?;
    let (runs_a, runs_b) = (runs_of(&read(Path::new(a))?)?, runs_of(&read(Path::new(b))?)?);
    let (table, any_worse) = compare(&runs_a, &runs_b, &bounds);
    print!("{table}");
    Ok(i32::from(any_worse))
}
