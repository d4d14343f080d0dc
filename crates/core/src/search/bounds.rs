//! Stage 3 — score intervals (Algorithm `ComputeCandidatesBounds`).
//!
//! Each candidate's `[lower, upper]` interval is recomputed from the
//! current bounded proximities: `lower` uses `prox≤n` of the paths seen so
//! far, `upper` replaces each source proximity with `min(1, prox≤n + B>n)`
//! where `B>n` is the long-path attenuation bound. The threshold bounds the
//! score of every undiscovered document; it collapses to 0 once the
//! frontier stops growing (see the module docs of [`super`]).
//!
//! The two halves are separate functions because the sharded scatter
//! refreshes candidate intervals once per shard but the undiscovered
//! threshold — a function of the query and the shared propagation only —
//! exactly once per iteration.

use super::scratch::SearchScratch;
use super::S3kEngine;
use crate::score::ScoreModel;
use s3_graph::Propagation;

/// Refresh every candidate's `[lower, upper]` interval from the current
/// propagation state.
pub(crate) fn update_candidate_bounds<S: ScoreModel>(
    engine: &S3kEngine<'_, S>,
    scratch: &mut SearchScratch,
    prop: &mut Propagation<'_>,
) {
    let bound = prop.bound_beyond();
    let lo_parts = &mut scratch.lo_parts;
    let hi_parts = &mut scratch.hi_parts;
    for c in scratch.candidates.as_mut_slice() {
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
/// closed. `parts` is a reusable buffer.
pub(crate) fn undiscovered_threshold<S: ScoreModel>(
    model: &S,
    smax_ext: &[f64],
    parts: &mut Vec<f64>,
    prop: &Propagation<'_>,
    frontier_closed: bool,
) -> f64 {
    if frontier_closed {
        return 0.0;
    }
    let bound = prop.bound_beyond();
    parts.clear();
    parts.extend(smax_ext.iter().map(|&s| s * bound.min(1.0)));
    model.combine_keywords(parts)
}
