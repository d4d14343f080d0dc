//! The one ranking of candidates by `(upper bound, document)`.
//!
//! The same comparator drives each pool's greedy selection
//! ([`super::stop`]), the merge of the pools' selections and the fleet
//! client's merge of the shards' replies, so a search over partitioned
//! candidate pools reproduces the single-pool selection order bit for bit.
//! Cross-pool ties cannot arise on documents (a document lives in exactly
//! one component, hence one pool), making the merged order total and
//! deterministic.

use s3_doc::DocNodeId;
use std::cmp::Ordering;

/// The selection/merge order on `(upper bound, document)`: higher upper
/// bound first, lower document id breaking ties (the engine's de-facto
/// finite-precision tie-breaking). `NaN` bounds compare equal, falling
/// through to the id.
#[inline]
pub(crate) fn rank(a_upper: f64, a_doc: DocNodeId, b_upper: f64, b_doc: DocNodeId) -> Ordering {
    b_upper.partial_cmp(&a_upper).unwrap_or(Ordering::Equal).then(a_doc.cmp(&b_doc))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_ranks_by_upper_then_doc() {
        let mut hits = [(3u32, 0.9), (1, 0.5), (0, 0.9), (2, 0.7)];
        hits.sort_unstable_by(|a, b| rank(a.1, DocNodeId(a.0), b.1, DocNodeId(b.0)));
        let docs: Vec<u32> = hits.iter().map(|h| h.0).collect();
        assert_eq!(docs, vec![0, 3, 2, 1], "0.9 tie broken by doc id, then 0.7, then 0.5");
        assert_eq!(
            rank(f64::NAN, DocNodeId(1), 0.5, DocNodeId(2)),
            Ordering::Less,
            "a NaN bound compares equal and falls through to the id"
        );
    }
}
