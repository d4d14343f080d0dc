//! Stage 3 — score intervals (Algorithm `ComputeCandidatesBounds`).
//!
//! Each candidate's `[lower, upper]` interval is recomputed from the
//! current bounded proximities: `lower` uses `prox≤n` of the paths seen so
//! far, `upper` replaces each source proximity with `min(1, prox≤n + B>n)`
//! where `B>n` is the long-path attenuation bound. The threshold bounds the
//! score of every undiscovered document; it collapses to 0 once the
//! frontier stops growing (see the module docs of [`super`]).
//!
//! The two halves are separate functions because a round refreshes
//! candidate intervals once per pool but the undiscovered threshold — a
//! function of the query and the shared propagation only — once.

use super::scratch::{Pool, QueryScratch};
use super::S3kEngine;
use crate::score::ScoreModel;
use s3_graph::Propagation;

/// Refresh every candidate's `[lower, upper]` interval in `pool` from the
/// current propagation state.
pub(crate) fn update_candidate_bounds<S: ScoreModel>(
    engine: &S3kEngine<'_, S>,
    pool: &mut Pool,
    prop: &mut Propagation<'_>,
) {
    let bound = prop.bound_beyond();
    let lo_parts = &mut pool.lo_parts;
    let hi_parts = &mut pool.hi_parts;
    for c in pool.candidates.as_mut_slice() {
        lo_parts.clear();
        hi_parts.clear();
        for srcs in &c.kw_sources {
            let mut lo = 0.0f64;
            let mut hi = 0.0f64;
            for &(src, coef) in srcs {
                let p = prop.prox_leq(src);
                lo += coef * p;
                hi += coef * (p + bound).min(1.0);
            }
            lo_parts.push(lo);
            hi_parts.push(hi);
        }
        c.lower = engine.model.combine_keywords(lo_parts);
        c.upper = engine.model.combine_keywords(hi_parts);
    }
}

/// Upper bound on the score of every undiscovered document:
/// `⊕gen(SmaxExt(k) · B>n)` while the frontier is still growing, 0 once it
/// closed.
pub(crate) fn undiscovered_threshold<S: ScoreModel>(
    model: &S,
    q: &mut QueryScratch,
    prop: &Propagation<'_>,
) -> f64 {
    if prop.frontier_closed() {
        return 0.0;
    }
    let bound = prop.bound_beyond();
    q.threshold_parts.clear();
    q.threshold_parts.extend(q.smax_ext.iter().map(|&s| s * bound.min(1.0)));
    model.combine_keywords(&q.threshold_parts)
}
