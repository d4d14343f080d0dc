//! Stage 2 — discovery and candidate maintenance (Algorithm
//! `GetDocuments`, component form).
//!
//! Every node that received border mass for the first time may reveal new
//! candidate documents: fragments and tags open their content component;
//! users open the components of the tags they authored. A component is
//! processed at most once per query — keyword pruning (§5.2) first, then
//! the per-document `con(d, k)` check admits candidates into the pool.

use super::scratch::Pool;
use super::S3kEngine;
use crate::score::ScoreModel;
use s3_graph::{CompId, EdgeKind, NodeId, NodeKind, SocialGraph};
use s3_text::KeywordId;
use std::sync::Arc;

/// Invoke `sink` for every content component a freshly-reached node
/// opens: its own component for fragments and tags; for users, the
/// components of the tags they authored (which may source connections in
/// otherwise-unreached components). The one copy of the discovery-trigger
/// rules; the round dispatches each trigger to the pool that owns it.
pub(crate) fn triggered_components(graph: &SocialGraph, v: NodeId, sink: &mut impl FnMut(CompId)) {
    match graph.kind(v) {
        NodeKind::Frag(_) | NodeKind::Tag(_) => sink(graph.components().component_of(v)),
        NodeKind::User(_) => {
            for (t, kind, _) in graph.out_edges(v) {
                if kind == EdgeKind::HasAuthorInv {
                    sink(graph.components().component_of(t));
                }
            }
        }
    }
}

/// Process one content component into `pool`: keyword pruning (§5.2),
/// then the per-document `con` check
/// against the query's keyword extensions `exts`. Each admitted document
/// is logged in `pool.admitted` with `seq`, the trigger that opened
/// `comp`; the work is counted in `pool.stats`.
pub(crate) fn discover_component<S: ScoreModel>(
    engine: &S3kEngine<'_, S>,
    exts: &[Arc<Vec<KeywordId>>],
    comp: CompId,
    pool: &mut Pool,
    seq: u32,
) {
    if !pool.processed.insert(comp.index()) {
        return;
    }
    pool.touched.push(comp.index());
    pool.stats.components += 1;

    let inst = engine.instance;
    if engine.config.component_pruning {
        let comp_kws = inst.component_keywords(comp);
        let hit = |ext: &[KeywordId]| ext.iter().any(|k| comp_kws.contains(k));
        let matches = if engine.model.requires_all_keywords() {
            exts.iter().all(|e| hit(e))
        } else {
            exts.iter().any(|e| hit(e))
        };
        if !matches {
            pool.stats.pruned_components += 1;
            return;
        }
    }

    let graph = inst.graph();
    let index = inst.connections();
    let conjunctive = engine.model.requires_all_keywords();
    let n_keywords = exts.len();
    for &node in graph.components().members(comp) {
        let Some(d) = graph.frag_of_node(node) else { continue };
        if pool.candidate_of.contains_key(&d) {
            continue;
        }
        // con(d, k) = ∪_{k' ∈ Ext(k)} conDirect(d, k'), deduplicated on
        // (type, fragment, source) — con is a set.
        let slot = pool.candidates.stage(n_keywords);
        let mut matched = 0usize;
        let mut missing = false;
        for (ki, ext) in exts.iter().enumerate() {
            pool.seen.clear();
            pool.agg.clear();
            for &k in ext.iter() {
                for c in index.connections(d, k) {
                    if pool.seen.insert((c.ctype, c.frag, c.src)) {
                        *pool.agg.entry(c.src).or_insert(0.0) +=
                            engine.model.structural_weight(c.ctype, c.depth);
                    }
                }
            }
            if pool.agg.is_empty() {
                missing = true;
                if conjunctive {
                    break;
                }
            } else {
                matched += 1;
            }
            let list = &mut slot.kw_sources[ki];
            list.extend(pool.agg.drain());
            list.sort_unstable_by_key(|(n, _)| *n);
        }
        let qualifies = if conjunctive { !missing } else { matched > 0 };
        if !qualifies {
            pool.stats.rejected += 1;
            continue;
        }
        slot.doc = d;
        let idx = pool.candidates.commit();
        pool.candidate_of.insert(d, idx);
        pool.admitted.push((seq, d));
        pool.stats.candidates += 1;
    }
}
