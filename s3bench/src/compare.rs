//! `s3bench compare <a> <b>`: per workload × end-to-end metric, both
//! values, the ratio with its base, the bound `BENCHMARK.json` fixes, and a
//! verdict — the repository's `bench_diff`.
//!
//! Each input file holds one `--report` record per line; several runs of
//! one workload are reduced to their median, and their quartile spread
//! decides whether a difference can be resolved at all.

use crate::json::Value;
use crate::plan::Workload;
use crate::stats::{median, quartile_spread};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One gated metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Is a lower value better?
    pub lower_is_better: bool,
    /// Share of the base's median by which it may worsen.
    pub bound: f64,
}

/// The `end_to_end` table of a `BENCHMARK.json` document.
pub fn bounds_of(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = Value::parse(benchmark_json)?;
    let entries = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end array")?;
    entries
        .iter()
        .map(|e| {
            let field = |k: &str| e.get(k).ok_or_else(|| format!("end_to_end entry lacks {k}"));
            Ok(Bound {
                name: field("name")?.as_str().ok_or("name is not a string")?.to_string(),
                lower_is_better: match field("better")?.as_str() {
                    Some("lower") => true,
                    Some("higher") => false,
                    _ => return Err("better is neither lower nor higher".to_string()),
                },
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// workload → metric → one value per untraced run in the file.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Collect the untraced runs of a `--report` file.
pub fn runs_of(report_lines: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for line in report_lines.lines().filter(|l| !l.trim().is_empty()) {
        let record = Value::parse(line)?;
        if record.get("trace") == Some(&Value::Bool(true)) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("a report record lacks its workload")?;
        let metrics = record
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("a report record lacks its metrics")?;
        let per_metric = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let value = m.get("value").and_then(Value::as_f64).ok_or("a metric lacks its value")?;
            per_metric.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(runs)
}

/// How `b` stands against `a` on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Worsened by more than the bound.
    Worse,
    /// The runs' own spread exceeds the bound: no claim either way.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against base `a`. `spread` is the widest quartile spread of
/// either side's runs, when there were enough runs to have one.
pub fn judge(a: f64, b: f64, bound: &Bound, spread: Option<f64>) -> Verdict {
    if a == 0.0 || spread.is_some_and(|s| s > bound.bound) {
        return Verdict::Unresolved;
    }
    let worsening = if bound.lower_is_better { (b - a) / a } else { (a - b) / a };
    if worsening > bound.bound {
        Verdict::Worse
    } else if worsening < -bound.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The comparison table, and whether any row is `worse`.
pub fn compare(a: &Runs, b: &Runs, bounds: &[Bound]) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<12} {:<14} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "spread", "bound"
    );
    for workload in Workload::ALL.map(Workload::name) {
        let (Some(runs_a), Some(runs_b)) = (a.get(workload), b.get(workload)) else {
            continue;
        };
        for bound in bounds {
            let (Some(va), Some(vb)) = (runs_a.get(&bound.name), runs_b.get(&bound.name)) else {
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let spread = match (quartile_spread(va), quartile_spread(vb)) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let verdict = judge(ma, mb, bound, spread);
            any_worse |= verdict == Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<12} {:<14} {:>14.4} {:>14.4} {:>9.4} {:>7} {:>7.2}  {}",
                workload,
                bound.name,
                ma,
                mb,
                if ma == 0.0 { f64::NAN } else { mb / ma },
                spread.map_or("-".to_string(), |s| format!("{s:.3}")),
                bound.bound,
                verdict.label(),
            );
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower_is_better: bool) -> Bound {
        Bound { name: "m".into(), lower_is_better, bound: 0.10 }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        assert_eq!(judge(100.0, 105.0, &bound(true), None), Verdict::Same);
        assert_eq!(judge(100.0, 111.0, &bound(true), None), Verdict::Worse);
        assert_eq!(judge(100.0, 89.0, &bound(true), None), Verdict::Better);
        assert_eq!(judge(100.0, 89.0, &bound(false), None), Verdict::Worse);
        assert_eq!(judge(100.0, 111.0, &bound(false), None), Verdict::Better);
        assert_eq!(judge(100.0, 150.0, &bound(true), Some(0.2)), Verdict::Unresolved);
        assert_eq!(judge(100.0, 150.0, &bound(true), Some(0.05)), Verdict::Worse);
    }

    #[test]
    fn reads_reports_and_bounds() {
        let bounds = bounds_of(
            r#"{"end_to_end": [{"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert_eq!(bounds, vec![Bound { name: "qps".into(), lower_is_better: false, bound: 0.1 }]);
        let record = |qps: f64, trace: bool| {
            format!(
                r#"{{"workload": "search_cold", "trace": {trace}, "metrics": {{"qps": {{"value": {qps}, "unit": "1/s", "samples": 3}}}}}}"#
            )
        };
        let a = runs_of(&format!("{}\n{}\n", record(40.0, false), record(1.0, true))).unwrap();
        assert_eq!(a["search_cold"]["qps"], vec![40.0], "traced records are skipped");
        let b = runs_of(&record(30.0, false)).unwrap();
        let (table, worse) = compare(&a, &b, &bounds);
        assert!(worse, "{table}");
        assert!(table.contains("worse"));
        let (_, worse) = compare(&a, &a, &bounds);
        assert!(!worse);
    }
}
