//! Stage 1 — keyword expansion (Definition 2.1).
//!
//! Deduplicates the query keywords, expands each through `Ext` (unless
//! semantic expansion is disabled), computes the `SmaxExt(k)` threshold
//! coefficients, and decides answerability: under conjunctive semantics a
//! single keyword whose whole extension is absent from the corpus makes
//! every score 0 (the empty answer is exact).

use super::scratch::QueryScratch;
use super::{Query, S3kEngine};
use crate::score::ScoreModel;
use std::sync::Arc;

/// Fill `q.{keywords, exts, smax_ext}` for `query`. Returns `false`
/// when the query is provably unanswerable (empty or some/every keyword
/// extension missing, per the model's conjunctive/disjunctive semantics).
pub(crate) fn expand_query<S: ScoreModel>(
    engine: &S3kEngine<'_, S>,
    query: &Query,
    q: &mut QueryScratch,
) -> bool {
    // Deduplicate φ without cloning the caller's keyword list.
    q.keywords.extend_from_slice(&query.keywords);
    q.keywords.sort_unstable();
    q.keywords.dedup();

    for &k in &q.keywords {
        let ext = if engine.config.semantic_expansion {
            engine.instance.expand_keyword(k)
        } else {
            Arc::new(vec![k])
        };
        // SmaxExt(k) = Σ_{k' ∈ Ext(k)} Smax(k').
        let smax_ext: f64 = ext.iter().map(|k| engine.smax.get(k).copied().unwrap_or(0.0)).sum();
        q.exts.push(ext);
        q.smax_ext.push(smax_ext);
    }

    let unanswerable = if engine.model.requires_all_keywords() {
        q.smax_ext.iter().any(|&s| s <= 0.0)
    } else {
        q.smax_ext.iter().all(|&s| s <= 0.0)
    };
    !(q.keywords.is_empty() || unanswerable)
}
