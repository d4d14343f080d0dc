//! Qualitative comparison of S3k vs TopkS answers (paper §5.4 / Figure 8).
//!
//! Four measures, averaged over a workload:
//!
//! * **graph reachability** — fraction of S3k candidates that TopkS cannot
//!   reach (S3k follows links between documents; TopkS sees only items
//!   directly tagged with a query keyword);
//! * **semantic reachability** — candidates examined *without* query
//!   expansion over candidates examined *with* it (1.0 = semantics added
//!   nothing);
//! * **intersection size** — fraction of S3k results that TopkS also
//!   returned (item-level comparison);
//! * **L1** — Spearman's foot-rule distance between the two ranked lists,
//!   using the paper's exact formula, normalized by its maximum `k(k+1)`
//!   so 0 = identical rankings and 1 = disjoint.

use s3_core::{Query, S3Instance, S3kEngine, SearchConfig, TopKResult};
use s3_datasets::Workload;
use s3_topks::{ItemId, TopkSResult, UitAdaptation};
use std::collections::{HashMap, HashSet};

/// The Figure 8 row for one instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct QualitativeMeasures {
    /// Fraction of S3k candidates unreachable by TopkS.
    pub graph_reachability: f64,
    /// Candidates without expansion / candidates with expansion.
    pub semantic_reachability: f64,
    /// Normalized Spearman foot-rule distance (0 = identical).
    pub l1: f64,
    /// Fraction of S3k results also returned by TopkS.
    pub intersection: f64,
}

/// Streaming accumulator for [`QualitativeMeasures`]: each measure only
/// averages over the queries that carry signal for it (e.g. queries with
/// zero candidates say nothing about semantic reachability).
#[derive(Debug, Clone, Copy, Default)]
pub struct QualAccumulator {
    sums: [f64; 4],
    counts: [usize; 4],
}

impl QualAccumulator {
    /// Merge another accumulator.
    pub fn merge(&mut self, other: &QualAccumulator) {
        for i in 0..4 {
            self.sums[i] += other.sums[i];
            self.counts[i] += other.counts[i];
        }
    }

    fn push(&mut self, i: usize, v: f64) {
        self.sums[i] += v;
        self.counts[i] += 1;
    }

    /// Final averages; measures with no signal default to their neutral
    /// value (0 for distances/fractions, 1 for the semantic ratio).
    pub fn finish(&self) -> QualitativeMeasures {
        let avg = |i: usize, default: f64| {
            if self.counts[i] == 0 {
                default
            } else {
                self.sums[i] / self.counts[i] as f64
            }
        };
        QualitativeMeasures {
            graph_reachability: avg(0, 0.0),
            semantic_reachability: avg(1, 1.0),
            l1: avg(2, 0.0),
            intersection: avg(3, 0.0),
        }
    }
}

/// Paper formula for the foot-rule distance between two ranked lists
/// (ranks are 1-based; items outside the intersection contribute their own
/// rank), normalized by the maximum `k(k+1)`.
pub fn spearman_foot_rule(tau1: &[ItemId], tau2: &[ItemId]) -> f64 {
    let k = tau1.len().max(tau2.len());
    if k == 0 {
        return 0.0;
    }
    let rank = |tau: &[ItemId]| -> HashMap<ItemId, usize> {
        tau.iter().enumerate().map(|(i, &x)| (x, i + 1)).collect()
    };
    let r1 = rank(tau1);
    let r2 = rank(tau2);
    let inter: HashSet<ItemId> = r1.keys().filter(|i| r2.contains_key(i)).copied().collect();
    let mut l1 = 2.0 * (k - inter.len()) as f64 * (k + 1) as f64;
    for i in &inter {
        l1 += (r1[i] as f64 - r2[i] as f64).abs();
    }
    for (ranks, other) in [(&r1, &r2), (&r2, &r1)] {
        for (i, &r) in ranks.iter() {
            if !other.contains_key(i) {
                l1 -= r as f64;
            }
        }
    }
    let max = (k * (k + 1)) as f64;
    (l1 / max).clamp(0.0, 1.0)
}

/// Can TopkS reach this *document* for this query? TopkS sees only direct
/// `(user, item, tag)` associations: a candidate is reachable iff its own
/// content (subtree) contains an exact query keyword. Candidates that S3k
/// surfaces through comment/tag links, document structure or keyword
/// extension are exactly the ones TopkS misses (§5.4).
fn topks_reachable_doc(instance: &S3Instance, d: s3_doc::DocNodeId, query: &Query) -> bool {
    let forest = instance.forest();
    let kws: HashSet<_> = query.keywords.iter().copied().collect();
    forest.fragments(d).any(|f| forest.content(f).iter().any(|k| kws.contains(k)))
}

/// Compare the two systems over one workload, accumulating the Figure 8
/// measures. `s3k_results` must come from the default (expansion-enabled)
/// configuration.
pub fn compare_runs(
    instance: &S3Instance,
    adaptation: &UitAdaptation,
    workload: &Workload,
    s3k_results: &[TopKResult],
    topks_results: &[TopkSResult],
    base_config: &SearchConfig,
) -> QualAccumulator {
    assert_eq!(workload.queries.len(), s3k_results.len());
    assert_eq!(workload.queries.len(), topks_results.len());

    // Semantic reachability needs a no-expansion S3k run (candidates only).
    let no_ext_cfg = SearchConfig { semantic_expansion: false, ..base_config.clone() };
    let no_ext_engine = S3kEngine::new(instance, no_ext_cfg);

    let mut acc = QualAccumulator::default();

    for ((spec, s3k), topks) in workload.queries.iter().zip(s3k_results).zip(topks_results) {
        let query = &spec.query;

        // Graph reachability: over the candidates S3k examined — the
        // fraction TopkS's direct-tagging view cannot reach.
        if !s3k.candidate_docs.is_empty() {
            let unreachable = s3k
                .candidate_docs
                .iter()
                .filter(|&&d| !topks_reachable_doc(instance, d, query))
                .count();
            acc.push(0, unreachable as f64 / s3k.candidate_docs.len() as f64);
        }

        // Semantic reachability: candidate counts without / with expansion
        // (queries with no candidates at all carry no signal).
        let with = s3k.stats.candidates;
        if with > 0 {
            let without = no_ext_engine.run(query).stats.candidates;
            acc.push(1, without as f64 / with as f64);
        }

        let s3k_items: Vec<ItemId> =
            s3k.hits.iter().filter_map(|h| adaptation.item_of_doc(instance, h.doc)).collect();

        // Ranked item lists (dedup keeps first occurrence).
        let mut seen = HashSet::new();
        let tau1: Vec<ItemId> = s3k_items.iter().copied().filter(|i| seen.insert(*i)).collect();
        let tau2: Vec<ItemId> = topks.hits.iter().map(|h| h.item).collect();
        if !tau1.is_empty() || !tau2.is_empty() {
            acc.push(2, spearman_foot_rule(&tau1, &tau2));
        }

        if !tau1.is_empty() {
            let t2: HashSet<ItemId> = tau2.iter().copied().collect();
            let inter = tau1.iter().filter(|i| t2.contains(i)).count();
            acc.push(3, inter as f64 / tau1.len() as f64);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn foot_rule_identical_lists() {
        let a = vec![ItemId(1), ItemId(2), ItemId(3)];
        assert_eq!(spearman_foot_rule(&a, &a), 0.0);
    }

    #[test]
    fn foot_rule_disjoint_lists() {
        let a = vec![ItemId(1), ItemId(2)];
        let b = vec![ItemId(3), ItemId(4)];
        assert!((spearman_foot_rule(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn foot_rule_partial_overlap_is_between() {
        let a = vec![ItemId(1), ItemId(2), ItemId(3)];
        let b = vec![ItemId(1), ItemId(9), ItemId(8)];
        let d = spearman_foot_rule(&a, &b);
        assert!(d > 0.0 && d < 1.0, "{d}");
    }

    #[test]
    fn foot_rule_swap_costs_little() {
        let a = vec![ItemId(1), ItemId(2)];
        let b = vec![ItemId(2), ItemId(1)];
        let d = spearman_foot_rule(&a, &b);
        // 2·0·3 + (|1−2| + |2−1|) − 0 = 2, normalized by 6.
        assert!((d - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn foot_rule_empty() {
        assert_eq!(spearman_foot_rule(&[], &[]), 0.0);
    }
}
