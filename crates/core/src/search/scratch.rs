//! Reusable per-session search state.
//!
//! A cold S3k query allocates a dozen maps and vectors; on a serving path
//! answering thousands of queries over one instance, that churn dominates.
//! [`SearchScratch`] owns every query-local buffer the staged search needs
//! and is *cleared, not reallocated* between queries: a session's second
//! and later queries perform no steady-state allocation in the search
//! driver itself (candidate source lists, aggregation maps, selection
//! buffers are all reused at their high-water capacity).
//!
//! It has two halves. [`QueryScratch`] is the query-global state — the
//! expansion, the frontier, the threshold buffer, the trigger count, the
//! last round's report and the propagation's buffers. [`Pool`] is one
//! candidate pool: the
//! candidates of the components it owns, its round's admissions, its work
//! counters and the per-pool stage buffers. An unsharded
//! search runs one pool; a partitioned one borrows the pool of every
//! active shard's scratch and the query half of a carrier scratch.

use super::stop::MergeScratch;
use super::{Round, SearchStats};
use crate::connections::ConnType;
use s3_doc::DocNodeId;
use s3_graph::{NodeId, PropagationState};
use s3_text::KeywordId;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A candidate document's per-keyword deduplicated `(source, structural
/// coefficient)` pairs plus its certified score interval.
#[derive(Debug)]
#[cfg_attr(test, derive(Clone))]
pub(crate) struct Candidate {
    pub doc: DocNodeId,
    /// Per query keyword: deduplicated `(source, structural coefficient)`
    /// pairs aggregated over `Ext(k)` (DESIGN.md §3.3).
    pub kw_sources: Vec<Vec<(NodeId, f64)>>,
    pub lower: f64,
    pub upper: f64,
}

/// [`Candidate`] slots reused across queries: `clear` rewinds the logical
/// length but keeps every slot's inner buffers at capacity.
#[derive(Debug, Default)]
pub(crate) struct CandidateSlots {
    slots: Vec<Candidate>,
    len: usize,
}

impl CandidateSlots {
    /// Forget all candidates, keeping slot capacity.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// The committed candidates.
    pub fn as_slice(&self) -> &[Candidate] {
        &self.slots[..self.len]
    }

    /// The committed candidates, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [Candidate] {
        &mut self.slots[..self.len]
    }

    /// Borrow the next free slot with `kw_sources` reset to `n_keywords`
    /// empty lists (inner capacity preserved). The slot only becomes a
    /// candidate once [`CandidateSlots::commit`] is called; staging the
    /// same slot again discards the previous staging.
    pub fn stage(&mut self, n_keywords: usize) -> &mut Candidate {
        if self.len == self.slots.len() {
            self.slots.push(Candidate {
                doc: DocNodeId(0),
                kw_sources: Vec::new(),
                lower: 0.0,
                upper: f64::MAX,
            });
        }
        let slot = &mut self.slots[self.len];
        for list in slot.kw_sources.iter_mut() {
            list.clear();
        }
        if slot.kw_sources.len() > n_keywords {
            slot.kw_sources.truncate(n_keywords);
        } else {
            let missing = n_keywords - slot.kw_sources.len();
            slot.kw_sources.extend((0..missing).map(|_| Vec::new()));
        }
        slot.lower = 0.0;
        slot.upper = f64::MAX;
        slot
    }

    /// Turn the staged slot into a committed candidate; returns its index.
    pub fn commit(&mut self) -> usize {
        self.len += 1;
        self.len - 1
    }
}

/// The query-global half of the search state.
#[derive(Debug, Default)]
pub(crate) struct QueryScratch {
    /// Deduplicated query keywords.
    pub keywords: Vec<KeywordId>,
    /// `Ext(k)` per deduplicated keyword.
    pub exts: Vec<Arc<Vec<KeywordId>>>,
    /// `SmaxExt(k)` per deduplicated keyword.
    pub smax_ext: Vec<f64>,
    /// Nodes newly reached by the last explore step (also the discovery
    /// seed list at step 0).
    pub newly: Vec<NodeId>,
    /// Per-keyword threshold parts (bounds stage).
    pub threshold_parts: Vec<f64>,
    /// Component triggers dispatched so far — owned by a pool or not.
    pub triggers: u32,
    /// The query's `k`.
    pub k: usize,
    /// What the last round reported besides the pools.
    pub round: Round,
    /// The driver's merge buffers.
    pub merge: MergeScratch,
    /// The propagation's buffers while no query holds them attached:
    /// an allocation cache, since every query starts at step 0.
    pub prop: PropagationState,
}

impl QueryScratch {
    /// Rewind everything for a new query asking for `k` hits. Keeps
    /// capacity.
    pub fn begin(&mut self, k: usize) {
        self.keywords.clear();
        self.exts.clear();
        self.smax_ext.clear();
        self.k = k;
        self.newly.clear();
        self.triggers = 0;
        self.round = Round::default();
    }
}

/// One candidate pool and its stage buffers.
#[derive(Debug, Default)]
pub(crate) struct Pool {
    /// Candidate documents.
    pub candidates: CandidateSlots,
    /// Candidate index by document.
    pub candidate_of: HashMap<DocNodeId, usize>,
    /// Per-component processed flag, word-packed (cleared through
    /// `touched`).
    pub processed: s3_graph::BitSet,
    /// Components whose `processed` flag was set this query.
    pub touched: Vec<usize>,
    /// Per-keyword lower score parts (bounds stage).
    pub lo_parts: Vec<f64>,
    /// Per-keyword upper score parts (bounds stage).
    pub hi_parts: Vec<f64>,
    /// Connection dedup set (discovery stage).
    pub seen: HashSet<(ConnType, DocNodeId, NodeId)>,
    /// Per-source coefficient aggregation (discovery stage).
    pub agg: HashMap<NodeId, f64>,
    /// Candidate indices ordered by upper bound (selection stage).
    pub order: Vec<usize>,
    /// The pool's greedy selection, in rank order; cut back to its share
    /// of the merged selection (a prefix) when the rival is swept.
    pub selection: Vec<usize>,
    /// Documents admitted by the last round, each tagged with the global
    /// trigger sequence number of the component that admitted it.
    pub admitted: Vec<(u32, DocNodeId)>,
    /// The pool's work counters for the current query (candidates,
    /// rejected, components, pruned components).
    pub stats: SearchStats,
}

impl Pool {
    /// Rewind everything for a new query against an instance with
    /// `num_components` content components. Keeps capacity; the only
    /// possible allocation is growing `processed` the first time a larger
    /// instance is seen. The stage buffers are cleared where they are
    /// used.
    pub fn begin(&mut self, num_components: usize) {
        if self.processed.len() < num_components {
            self.processed.resize(num_components);
        }
        self.candidates.clear();
        self.candidate_of.clear();
        for &comp in &self.touched {
            self.processed.clear(comp);
        }
        self.touched.clear();
        self.selection.clear();
        self.admitted.clear();
        self.stats = SearchStats::default();
    }
}

/// Every query-local buffer of the staged S3k search, reusable across
/// queries: one query half and one candidate pool. Obtain one through
/// `S3kEngine::session` (or construct directly for a custom driver) and
/// pass it to `S3kEngine::run_with`.
#[derive(Debug, Default)]
pub struct SearchScratch {
    pub(crate) query: QueryScratch,
    pub(crate) pool: Pool,
}

impl SearchScratch {
    /// Fresh, empty scratch. Buffers grow to their high-water mark on
    /// first use and are retained afterwards.
    pub fn new() -> Self {
        SearchScratch::default()
    }
}
