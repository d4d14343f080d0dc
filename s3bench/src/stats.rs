//! Order statistics over latency samples.

/// A percentile as an exact fraction, so ranks are computed in integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentile {
    /// Its name in metric names, e.g. `p95`.
    pub label: &'static str,
    num: usize,
    den: usize,
}

/// The median.
pub const P50: Percentile = Percentile { label: "p50", num: 1, den: 2 };
/// The 95th percentile.
pub const P95: Percentile = Percentile { label: "p95", num: 19, den: 20 };

/// The percentile ladder reports are drawn from, ascending.
const LADDER: [Percentile; 5] = [
    P50,
    Percentile { label: "p90", num: 9, den: 10 },
    P95,
    Percentile { label: "p99", num: 99, den: 100 },
    Percentile { label: "p999", num: 999, den: 1000 },
];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

impl Percentile {
    /// Nearest rank among `n` ascending samples, 1-based (`n ≥ 1`).
    fn rank(self, n: usize) -> usize {
        (n * self.num).div_ceil(self.den).clamp(1, n)
    }
}

/// The highest percentile of the ladder with at least ten of `n` samples
/// beyond it — `None` below twenty samples, where not even the median
/// qualifies.
pub fn highest_supported(n: usize) -> Option<Percentile> {
    LADDER.into_iter().rev().find(|p| n >= 1 && n - p.rank(n) >= MIN_BEYOND)
}

/// Nearest-rank percentile of an ascending slice (`0.0` when empty, so a
/// metric that does not apply to a workload reads zero rather than NaN).
pub fn percentile(sorted: &[f64], p: Percentile) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[p.rank(sorted.len()) - 1]
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    v
}

/// Median of `values` in any order: the mean of the two middle values
/// when the count is even (`0.0` when empty).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean (`0.0` when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, reading zero when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the benchmark's bounds are sized against, computed
/// as Python's `statistics.quantiles(values, n=4)` does (exclusive
/// method). `None` below four values or at a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n < 4 {
        return None;
    }
    let quantile = |q: f64| {
        let pos = q * (n as f64 + 1.0);
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    let med = median(&v);
    (med != 0.0).then(|| (quantile(0.75) - quantile(0.25)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        let label = |n| highest_supported(n).map(|p| p.label);
        assert_eq!(label(0), None);
        assert_eq!(label(19), None);
        assert_eq!(label(20), Some("p50"));
        assert_eq!(label(99), Some("p50"));
        assert_eq!(label(100), Some("p90"));
        assert_eq!(label(199), Some("p90"));
        assert_eq!(label(200), Some("p95"));
        assert_eq!(label(999), Some("p95"));
        assert_eq!(label(1000), Some("p99"));
        assert_eq!(label(9_999), Some("p99"));
        assert_eq!(label(10_000), Some("p999"));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, P50), 50.0);
        assert_eq!(percentile(&v, P95), 95.0);
        assert_eq!(percentile(&v, LADDER[4]), 100.0);
        assert_eq!(percentile(&[], P50), 0.0);
        assert_eq!(percentile(&[7.0], LADDER[3]), 7.0);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&v).expect("ten values");
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0, 2.0, 3.0]), None);
    }
}
