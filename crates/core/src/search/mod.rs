//! The S3k query-answering algorithm (paper §4), as composable stages.
//!
//! The instance is explored from the seeker outwards, one social-path hop
//! per iteration (Algorithm 3 / `ExploreStep`, implemented by
//! `s3_graph::Propagation` in the paper's optimized `borderProx` form).
//! Candidate documents accumulate a score interval `[lower, upper]`:
//!
//! * `lower` uses the bounded proximity `prox≤n` of the paths seen so far —
//!   a candidate "can only get closer to the seeker";
//! * `upper` replaces each source proximity with
//!   `min(1, prox≤n + B>n)`, where `B>n` is the long-path attenuation bound.
//!
//! A `threshold` bounds the score of every **undiscovered** document: a
//! document is discovered as soon as any node of its content component — or
//! any author of a tag inside it — carries border mass, so an undiscovered
//! document's sources all have `prox≤n = 0`, giving
//! `score ≤ ⊕gen(SmaxExt(k)·B>n)` (DESIGN.md §3.4). Once the frontier stops
//! growing, no undiscovered document can ever have positive score and the
//! threshold collapses to 0.
//!
//! The search stops (Algorithm 2 / `StopCondition`) when the greedy,
//! vertical-neighbor-respecting top-k selection is provably final: every
//! unselected candidate either cannot beat the selection's worst lower
//! bound, or is dominated by a selected vertical neighbor (Definition 3.2
//! forbids a fragment and its ancestor from co-existing in an answer), and
//! the threshold cannot beat the selection either. Any-time termination
//! (time budget / iteration cap) returns the current best-effort selection,
//! as in §4.1 "Any-time termination".
//!
//! # One driver, four stages, two executors
//!
//! One query is one loop, [`S3kEngine::search`], over four stages in their
//! own modules: `expand` (keyword dedup, `Ext` expansion, answerability —
//! once, before the loop), `discover` (each triggered component goes to
//! the pool that owns it), `bounds` (score intervals and the undiscovered
//! threshold) and `stop` (per-pool greedy selection, the merges, and the
//! one stop rule). The loop is generic over a [`RoundExecutor`], which
//! runs the rounds; the driver merges the pools' selections and
//! admissions, decides, and builds the answer. Every query starts its
//! exploration at the seeker, at step 0.
//!
//! * The **local** executor steps one [`s3_graph::Propagation`] and
//!   rounds N candidate pools in this process. The unsharded run
//!   ([`S3kEngine::run_with`]) is one pool that owns every component, the
//!   partitioned run ([`S3kEngine::run_partitioned_with`]) one pool per
//!   active shard, and a [`FleetShard`] is its one-pool form, driven one
//!   wire message at a time.
//! * The **remote** executor (`s3-engine`'s fleet client) does frame I/O:
//!   each operation is one message to every routed shard server.
//!
//! The scratch, the propagation's buffers included, is reused across
//! queries: repeat queries on a warm [`S3kSession`] allocate nothing in
//! the steady state, and [`s3_graph::Propagation::reset`] rewinds the
//! buffers in O(touched). [`S3kEngine::run`] remains the one-shot
//! convenience path.

mod bounds;
mod discover;
mod exec;
mod expand;
mod fleet;
mod partitioned;
mod scratch;
mod stop;

pub use exec::{Round, RoundExecutor};
pub use fleet::FleetShard;
pub use scratch::SearchScratch;
pub use stop::MergeScratch;

use crate::clock::SearchClock;
use crate::ids::UserId;
use crate::instance::S3Instance;
use crate::score::{S3kScore, ScoreModel};
use exec::Local;
use s3_doc::DocNodeId;
use s3_text::KeywordId;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use stop::StopState;

/// A keyword query `(u, φ)` with a result size `k` (Definition 3.1).
#[derive(Debug, Clone)]
pub struct Query {
    /// The seeker.
    pub seeker: UserId,
    /// The query keywords `φ` (duplicates are ignored).
    pub keywords: Vec<KeywordId>,
    /// Number of results requested.
    pub k: usize,
}

impl Query {
    /// Construct a query.
    pub fn new(seeker: UserId, keywords: Vec<KeywordId>, k: usize) -> Self {
        Query { seeker, keywords, k }
    }
}

/// Search tuning knobs.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// The concrete score (γ for proximity damping, η for structure).
    pub score: S3kScore,
    /// Hard cap on explore iterations (any-time safeguard).
    pub max_iterations: u32,
    /// Optional wall-clock budget (any-time termination, §4.1).
    pub time_budget: Option<Duration>,
    /// Enable the §5.2 component-keyword pruning.
    pub component_pruning: bool,
    /// Expand query keywords through `Ext` (Definition 2.1). Disabling
    /// reduces S3k to keyword-only matching — used by the Figure 8
    /// "semantic reachability" measurement.
    pub semantic_expansion: bool,
    /// Slack used to break ties between converging bounds (the paper's
    /// finite-precision de-facto tie-breaking).
    pub epsilon: f64,
    /// No effect: every search starts its propagation at step 0. Kept
    /// while `s3bench` still sets it; removed by ROADMAP spine (d).
    pub resume: bool,
    /// Time source for [`SearchConfig::time_budget`] checks: the
    /// monotonic wall clock in production, a manually-advanced counter in
    /// tests (deterministic deadline behaviour — see [`SearchClock`]).
    pub clock: SearchClock,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            score: S3kScore::default(),
            max_iterations: 256,
            time_budget: None,
            component_pruning: true,
            semantic_expansion: true,
            epsilon: 1e-9,
            resume: true,
            clock: SearchClock::monotonic(),
        }
    }
}

/// Why the search stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StopReason {
    /// The stop condition held: the returned answer is provably a top-k
    /// answer (Theorem 4.1).
    #[default]
    Converged,
    /// No document can match every query keyword (empty answer is exact).
    NoMatch,
    /// Iteration cap hit: best-effort answer (any-time mode).
    MaxIterations,
    /// Time budget exhausted: best-effort answer (any-time mode).
    TimeBudget,
}

/// A certified quality statement attached to every answer (the serving
/// contract behind deadline-bounded anytime mode).
///
/// The search maintains certified `[lower, upper]` score intervals for
/// every candidate and an upper bound on every *undiscovered* document,
/// so even an answer cut short by a time budget or iteration cap can say
/// how far from the exact top-k it provably is:
///
/// * `floor` — the smallest certified lower bound among the returned
///   hits (0 when the answer is empty);
/// * `rival` — the largest certified upper bound of anything that could
///   still displace a returned hit: an unselected, non-dominated
///   candidate, or an undiscovered document (the threshold);
/// * `regret` — `max(0, rival − bar)` where `bar` is `floor` when the
///   answer is full (k hits) and 0 otherwise: no document outside the
///   answer can out-score a returned hit by more than `regret`
///   (soundness is property-tested against converged ground truth in
///   `crates/engine/tests/anytime.rs`);
/// * `exact` — the stop condition held ([`StopReason::Converged`]) or
///   the query was unanswerable ([`StopReason::NoMatch`]): the answer
///   is provably the exact top-k and `regret` is 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityBound {
    /// Smallest certified lower bound among the returned hits.
    pub floor: f64,
    /// Largest certified upper bound of any potential displacer.
    pub rival: f64,
    /// Certified regret: how much better than the answer anything
    /// outside it could possibly be.
    pub regret: f64,
    /// The answer is provably exact (converged or no-match).
    pub exact: bool,
}

impl QualityBound {
    /// The bound of a provably exact answer.
    pub fn exact(floor: f64) -> Self {
        QualityBound { floor, rival: 0.0, regret: 0.0, exact: true }
    }

    /// The bound of a best-effort (anytime) answer: `full` says whether
    /// the answer holds k hits — a short answer's bar is 0, since even a
    /// zero-scored document could extend it.
    pub fn anytime(floor: f64, rival: f64, full: bool) -> Self {
        let bar = if full { floor } else { 0.0 };
        QualityBound { floor, rival, regret: (rival - bar).max(0.0), exact: false }
    }
}

impl Default for QualityBound {
    fn default() -> Self {
        QualityBound::exact(0.0)
    }
}

impl std::fmt::Display for QualityBound {
    /// One log-friendly line: `exact (floor 0.1234)` or
    /// `regret <= 0.0567 (floor 0.1234, rival 0.1801)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.exact {
            write!(f, "exact (floor {:.4})", self.floor)
        } else {
            write!(
                f,
                "regret <= {:.4} (floor {:.4}, rival {:.4})",
                self.regret, self.floor, self.rival
            )
        }
    }
}

/// One result document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// The returned fragment (identified by the URI of its root, §2.3).
    pub doc: DocNodeId,
    /// Certified lower bound on its score.
    pub lower: f64,
    /// Certified upper bound on its score.
    pub upper: f64,
}

/// Search outcome.
#[derive(Debug, Clone)]
pub struct TopKResult {
    /// The top-k documents, best first.
    pub hits: Vec<Hit>,
    /// Every candidate document examined (used by the §5.4 qualitative
    /// measures — "candidates reached by our algorithm").
    pub candidate_docs: Vec<DocNodeId>,
    /// Diagnostics.
    pub stats: SearchStats,
}

/// Search diagnostics (used by the benchmark harness).
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchStats {
    /// Explore iterations executed.
    pub iterations: u32,
    /// Candidate documents ever considered.
    pub candidates: usize,
    /// Documents rejected by the per-document keyword check.
    pub rejected: usize,
    /// Content components processed.
    pub components: usize,
    /// Components skipped by the keyword pruning test.
    pub pruned_components: usize,
    /// Why the search ended.
    pub stop: StopReason,
    /// Certified quality of the answer, computed at stop time.
    pub quality: QualityBound,
}

/// Reusable S3k engine: holds the per-(instance, score) precomputations
/// (the `Smax` table). Build once, run many queries.
///
/// The engine is generic over the score model (the paper's §3.3 "generic
/// score"): [`S3kEngine::new`] uses the concrete S3k score from the
/// configuration (and shares the instance-cached `Smax` table),
/// [`S3kEngine::with_model`] accepts any [`ScoreModel`].
///
/// For repeat queries, open an [`S3kSession`]: it reuses one
/// [`SearchScratch`], the propagation's buffers included, across queries,
/// eliminating per-query allocation.
pub struct S3kEngine<'i, S: ScoreModel = S3kScore> {
    pub(crate) instance: &'i S3Instance,
    pub(crate) config: SearchConfig,
    pub(crate) model: S,
    pub(crate) smax: Arc<HashMap<KeywordId, f64>>,
}

impl<'i> S3kEngine<'i> {
    /// Build an engine around the configured concrete S3k score. The
    /// `Smax` table is served from the instance's cache, so constructing
    /// engines per query (as `S3Instance::search` does) stays cheap.
    pub fn new(instance: &'i S3Instance, config: SearchConfig) -> Self {
        let model = config.score;
        let smax = instance.smax_for(&model);
        S3kEngine { instance, config, model, smax }
    }
}

impl<'i, S: ScoreModel> S3kEngine<'i, S> {
    /// Build an engine around an arbitrary feasible score model; the
    /// `config.score` field is ignored in favor of `model`.
    pub fn with_model(instance: &'i S3Instance, config: SearchConfig, model: S) -> Self {
        let smax =
            Arc::new(instance.connections().smax_table_with(|t, d| model.structural_weight(t, d)));
        S3kEngine { instance, config, model, smax }
    }

    /// The score model driving this engine.
    pub fn model(&self) -> &S {
        &self.model
    }

    /// The configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// The instance this engine queries.
    pub fn instance(&self) -> &'i S3Instance {
        self.instance
    }

    /// Open a session for repeat queries: scratch and propagation buffers
    /// persist (cleared, not reallocated) across [`S3kSession::run`] calls.
    pub fn session(&self) -> S3kSession<'_, 'i, S> {
        S3kSession { engine: self, scratch: SearchScratch::new() }
    }

    /// Answer one query with throwaway buffers.
    pub fn run(&self, query: &Query) -> TopKResult {
        self.run_with(query, &mut SearchScratch::new())
    }

    /// Answer one query using caller-owned buffers: `scratch` is cleared
    /// and refilled, and its propagation buffers are resized only when the
    /// graph changed. This is the allocation-free steady-state path the
    /// serving layer drives; results are identical to [`S3kEngine::run`].
    ///
    /// # Panics
    ///
    /// If the query can match and its seeker is not a user of the
    /// instance.
    pub fn run_with(&self, query: &Query, scratch: &mut SearchScratch) -> TopKResult {
        let SearchScratch { query: q, pool } = scratch;
        let exec = &mut Local { engine: self, q, pools: &mut [pool], partition: None, prop: None };
        self.search(query, exec).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The one search driver: `exec` runs the rounds; after each one this
    /// loop merges the pools' selections and admissions and applies the
    /// one stop rule (Algorithm `StopCondition`) to the merged selection.
    pub fn search<X: RoundExecutor>(
        &self,
        query: &Query,
        exec: &mut X,
    ) -> Result<TopKResult, X::Error> {
        let started = self.config.clock.now();
        if !exec.begin(query)? {
            let stats = SearchStats { stop: StopReason::NoMatch, ..SearchStats::default() };
            return Ok(TopKResult { hits: Vec::new(), candidate_docs: Vec::new(), stats });
        }
        let k = query.k;
        // Lent for the query; an error path drops it, and the next query
        // starts from empty buffers.
        let mut merge = std::mem::take(exec.merge_scratch());
        merge.log.clear();
        loop {
            // ---- Stage 4: the merges + the stop rule (Algorithm StopCondition). ----
            merge.admissions(exec);
            let min_lower = merge.selections(exec, k);
            let (merged, round) = (&merge.merged, exec.round());
            let state = StopState {
                k,
                selected: merged.len(),
                min_lower,
                threshold: round.threshold,
                frontier_closed: round.frontier_closed,
                iteration: round.iteration,
                started,
            };
            let full = merged.len() == k;
            let decision =
                state.decide(&self.config, || exec.rival(&merge.shares, min_lower, full))?;
            #[cfg(test)]
            exec.audit(merged, &state, decision);
            if let Some((reason, quality)) = decision {
                let mut stats = SearchStats {
                    iterations: round.iteration,
                    stop: reason,
                    quality,
                    ..SearchStats::default()
                };
                for pool in 0..exec.pools() {
                    let work = exec.work(pool);
                    stats.candidates += work.candidates;
                    stats.rejected += work.rejected;
                    stats.components += work.components;
                    stats.pruned_components += work.pruned_components;
                }
                let hits = merged.iter().map(|&(_, hit)| hit).collect();
                let candidate_docs = merge.log.clone();
                *exec.merge_scratch() = merge;
                exec.end()?;
                return Ok(TopKResult { hits, candidate_docs, stats });
            }
            exec.advance()?;
        }
    }
}

/// A warm query session over one engine: buffers persist across queries.
///
/// ```
/// use s3_core::{InstanceBuilder, Query, S3kEngine, SearchConfig};
/// use s3_doc::DocBuilder;
/// use s3_text::Language;
///
/// let mut b = InstanceBuilder::new(Language::English);
/// let u = b.add_user();
/// let kws = b.analyze("a degree");
/// let mut doc = DocBuilder::new("post");
/// doc.set_content(doc.root(), kws);
/// b.add_document(doc, Some(u));
/// let instance = b.build();
///
/// let engine = S3kEngine::new(&instance, SearchConfig::default());
/// let mut session = engine.session();
/// for keyword in instance.query_keywords("degree") {
///     let result = session.run(&Query::new(u, vec![keyword], 3));
///     assert_eq!(result.hits.len(), 1);
/// }
/// ```
pub struct S3kSession<'e, 'i, S: ScoreModel = S3kScore> {
    engine: &'e S3kEngine<'i, S>,
    scratch: SearchScratch,
}

impl<'e, 'i, S: ScoreModel> S3kSession<'e, 'i, S> {
    /// Answer one query, reusing the session's buffers. Results are
    /// identical to a cold [`S3kEngine::run`]: the scratch carries no
    /// state between queries (property-tested in `crates/engine`).
    pub fn run(&mut self, query: &Query) -> TopKResult {
        self.engine.run_with(query, &mut self.scratch)
    }

    /// The engine this session queries.
    pub fn engine(&self) -> &'e S3kEngine<'i, S> {
        self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TagSubject;
    use crate::instance::InstanceBuilder;
    use s3_doc::DocBuilder;
    use s3_text::Language;

    /// Figure-1-style instance: u1 (seeker) is a friend of u0; u0 posted d0;
    /// u2 replied to d0 with d1 containing "M.S."; an ontology says
    /// M.S. ≺sc degree ≺sc graduate-related keywords.
    fn motivating() -> (S3Instance, UserId, KeywordId, DocNodeId) {
        let mut b = InstanceBuilder::new(Language::English);
        let u0 = b.add_user();
        let u1 = b.add_user();
        let u2 = b.add_user();
        b.add_social_edge(u1, u0, 1.0);
        b.add_social_edge(u0, u1, 1.0);

        // Ontology: ex:MS ≺sc ex:degree.
        let ms_kw = b.intern_entity_keyword("ex:MS");
        let degree_kw = b.intern_entity_keyword("ex:degree");
        let (ms_uri, deg_uri) = {
            let d = b.rdf_mut().dictionary_mut();
            (d.intern("ex:MS"), d.intern("ex:degree"))
        };
        b.rdf_mut().insert(
            ms_uri,
            s3_rdf::vocabulary::RDFS_SUBCLASS_OF,
            s3_rdf::Term::Uri(deg_uri),
            1.0,
        );

        // d0 by u0: "a university education matters".
        let kws0 = b.analyze("a university education matters");
        let mut d0 = DocBuilder::new("post");
        d0.set_content(d0.root(), kws0);
        let t0 = b.add_document(d0, Some(u0));
        let d0_root = b.doc_root(t0);

        // d1 by u2, replying to d0, mentions the ex:MS entity.
        let mut d1 = DocBuilder::new("reply");
        let text = d1.child(d1.root(), "text");
        d1.set_content(text, vec![ms_kw]);
        let t1 = b.add_document(d1, Some(u2));
        b.add_comment_edge(t1, d0_root);
        let d1_text = b.doc_node(t1, text);

        (b.build(), u1, degree_kw, d1_text)
    }

    #[test]
    fn semantic_search_finds_the_reply_snippet() {
        // The paper's R3 scenario: u1 searches "degree"; d1 only says
        // "M.S.", but the ontology bridges them.
        let (inst, u1, degree, d1_text) = motivating();
        let res = inst.search(&Query::new(u1, vec![degree], 3), &SearchConfig::default());
        assert_eq!(res.stats.stop, StopReason::Converged);
        assert!(!res.hits.is_empty(), "semantics must surface the M.S. snippet");
        assert!(
            res.hits
                .iter()
                .any(|h| h.doc == d1_text || inst.forest().is_vertical_neighbor(h.doc, d1_text)),
            "expected the d1 snippet among {:?}",
            res.hits
        );
        // Without vertical neighbors in the answer (Definition 3.2).
        for (i, a) in res.hits.iter().enumerate() {
            for b in &res.hits[i + 1..] {
                assert!(!inst.forest().is_vertical_neighbor(a.doc, b.doc));
            }
        }
    }

    #[test]
    fn no_match_returns_empty_exactly() {
        let (inst, u1, _, _) = motivating();
        let ghost = KeywordId(9999);
        let res = inst.search(&Query::new(u1, vec![ghost], 3), &SearchConfig::default());
        assert_eq!(res.stats.stop, StopReason::NoMatch);
        assert!(res.hits.is_empty());
    }

    #[test]
    fn bounds_bracket_each_other() {
        let (inst, u1, degree, _) = motivating();
        let res = inst.search(&Query::new(u1, vec![degree], 2), &SearchConfig::default());
        for h in &res.hits {
            assert!(h.lower <= h.upper + 1e-12);
            assert!(h.lower > 0.0, "converged hits have certified positive score");
        }
    }

    #[test]
    fn k_limits_result_size() {
        let (inst, u1, degree, _) = motivating();
        let res = inst.search(&Query::new(u1, vec![degree], 1), &SearchConfig::default());
        assert_eq!(res.hits.len(), 1);
    }

    #[test]
    fn anytime_time_budget_returns_best_effort() {
        let (inst, u1, degree, _) = motivating();
        // A manual clock (frozen at 0) and a zero budget: the very first
        // stop evaluation sees the deadline blown — one exact outcome,
        // no race against the scheduler.
        let (clock, _ticks) = SearchClock::manual();
        let cfg =
            SearchConfig { time_budget: Some(Duration::ZERO), clock, ..SearchConfig::default() };
        let res = inst.search(&Query::new(u1, vec![degree], 3), &cfg);
        assert_eq!(res.stats.stop, StopReason::TimeBudget);
        assert_eq!(res.stats.iterations, 0, "stopped before the first explore step");
        let q = res.stats.quality;
        assert!(!q.exact, "a budget-stopped answer is best-effort");
        assert!(q.regret.is_finite() && q.regret >= 0.0, "certified regret is finite: {q}");
    }

    #[test]
    fn time_budget_is_measured_from_query_start() {
        // The budget is relative to the moment the query entered the
        // search loop, not to the clock's origin: a clock pre-advanced
        // far past the budget must not expire a fresh query.
        let (inst, u1, degree, _) = motivating();
        let (clock, ticks) = SearchClock::manual();
        ticks.store(2_000_000, std::sync::atomic::Ordering::Relaxed);
        let cfg = SearchConfig {
            time_budget: Some(Duration::from_millis(1)),
            clock,
            ..SearchConfig::default()
        };
        let res = inst.search(&Query::new(u1, vec![degree], 3), &cfg);
        assert_eq!(res.stats.stop, StopReason::Converged, "the clock never moved mid-query");
        assert!(res.stats.quality.exact);
        assert!(res.stats.quality.floor > 0.0);
    }

    #[test]
    fn converged_quality_is_exact_and_anchored_at_the_worst_hit() {
        let (inst, u1, degree, _) = motivating();
        let res = inst.search(&Query::new(u1, vec![degree], 3), &SearchConfig::default());
        assert_eq!(res.stats.stop, StopReason::Converged);
        let q = res.stats.quality;
        assert!(q.exact);
        assert_eq!(q.regret, 0.0);
        let min_lower = res.hits.iter().map(|h| h.lower).fold(f64::INFINITY, f64::min);
        assert_eq!(q.floor, min_lower);
        assert_eq!(format!("{q}"), format!("exact (floor {:.4})", min_lower));
    }

    #[test]
    fn iteration_capped_quality_reports_finite_regret() {
        let (inst, u1, degree, _) = motivating();
        let cfg = SearchConfig { max_iterations: 0, ..SearchConfig::default() };
        let res = inst.search(&Query::new(u1, vec![degree], 3), &cfg);
        assert_eq!(res.stats.stop, StopReason::MaxIterations);
        let q = res.stats.quality;
        assert!(!q.exact);
        assert!(q.regret >= 0.0 && q.regret.is_finite());
        // The display form carries the regret for serving logs.
        assert!(format!("{q}").starts_with("regret <= "));
    }

    #[test]
    fn component_pruning_does_not_change_results() {
        let (inst, u1, degree, _) = motivating();
        let on = inst.search(&Query::new(u1, vec![degree], 3), &SearchConfig::default());
        let cfg_off = SearchConfig { component_pruning: false, ..SearchConfig::default() };
        let off = inst.search(&Query::new(u1, vec![degree], 3), &cfg_off);
        let docs_on: Vec<_> = on.hits.iter().map(|h| h.doc).collect();
        let docs_off: Vec<_> = off.hits.iter().map(|h| h.doc).collect();
        assert_eq!(docs_on, docs_off);
    }

    #[test]
    fn multi_keyword_requires_all() {
        let mut b = InstanceBuilder::new(Language::English);
        let u = b.add_user();
        let kws = b.analyze("university degree");
        let mut doc = DocBuilder::new("post");
        doc.set_content(doc.root(), kws.clone());
        b.add_document(doc, Some(u));
        let mut doc2 = DocBuilder::new("post");
        let only_first = vec![kws[0]];
        doc2.set_content(doc2.root(), only_first);
        b.add_document(doc2, Some(u));
        let inst = b.build();
        let res = inst.search(&Query::new(u, kws, 5), &SearchConfig::default());
        assert_eq!(res.hits.len(), 1, "only the document with both keywords qualifies");
    }

    #[test]
    fn endorsement_tags_contribute_to_score() {
        let mut b = InstanceBuilder::new(Language::English);
        let author = b.add_user();
        let endorser = b.add_user();
        let seeker = b.add_user();
        // The seeker is socially close to the endorser only.
        b.add_social_edge(seeker, endorser, 1.0);
        let kws = b.analyze("great university");
        let mut doc = DocBuilder::new("post");
        doc.set_content(doc.root(), kws);
        let t = b.add_document(doc, Some(author));
        let root = b.doc_root(t);
        b.add_tag(TagSubject::Frag(root), endorser, None);
        let inst = b.build();
        let univers = inst.vocabulary().get("univers").unwrap();
        let res = inst.search(&Query::new(seeker, vec![univers], 1), &SearchConfig::default());
        assert_eq!(res.hits.len(), 1);
        assert!(res.hits[0].lower > 0.0, "the endorsement links the seeker to the doc");
    }

    #[test]
    fn shared_prop_slot_across_instances_is_rebuilt() {
        // A caller juggling two engines may pass the same scratch to both;
        // the propagation buffers must be rebuilt when the graph differs
        // (same γ), not reused with wrong-sized buffers.
        let (inst_a, u1, degree, _) = motivating();
        let mut b = InstanceBuilder::new(Language::English);
        let v0 = b.add_user();
        let kws = b.analyze("a degree matters");
        let mut doc = DocBuilder::new("post");
        doc.set_content(doc.root(), kws);
        b.add_document(doc, Some(v0));
        let inst_b = b.build();
        let degree_b = inst_b.vocabulary().get("degre").unwrap();

        let engine_a = S3kEngine::new(&inst_a, SearchConfig::default());
        let engine_b = S3kEngine::new(&inst_b, SearchConfig::default());
        let mut scratch = SearchScratch::new();
        let qa = Query::new(u1, vec![degree], 3);
        let qb = Query::new(v0, vec![degree_b], 3);
        let warm_a = engine_a.run_with(&qa, &mut scratch);
        let warm_b = engine_b.run_with(&qb, &mut scratch);
        let warm_a2 = engine_a.run_with(&qa, &mut scratch);
        assert_eq!(warm_a.hits, engine_a.run(&qa).hits);
        assert_eq!(warm_b.hits, engine_b.run(&qb).hits);
        assert_eq!(warm_a2.hits, warm_a.hits);
    }

    #[test]
    fn same_seeker_queries_resume_and_stay_exact() {
        let (inst, u1, degree, _) = motivating();
        let engine = S3kEngine::new(&inst, SearchConfig::default());
        let mut session = engine.session();
        let queries = [
            Query::new(u1, vec![degree], 3),
            Query::new(u1, vec![degree], 1),
            Query::new(u1, vec![degree], 2),
        ];
        for q in &queries {
            let warm = session.run(q);
            let cold = engine.run(q);
            assert_eq!(warm.hits, cold.hits);
            assert_eq!(warm.candidate_docs, cold.candidate_docs);
            assert_eq!(warm.stats.stop, cold.stats.stop);
            assert_eq!(warm.stats.iterations, cold.stats.iterations);
        }
    }

    #[test]
    fn seeker_switch_resets_instead_of_resuming() {
        let (inst, u1, degree, _) = motivating();
        let engine = S3kEngine::new(&inst, SearchConfig::default());
        let mut session = engine.session();
        session.run(&Query::new(u1, vec![degree], 3));
        let other = UserId(0);
        let warm = session.run(&Query::new(other, vec![degree], 3));
        assert_eq!(warm.hits, engine.run(&Query::new(other, vec![degree], 3)).hits);
    }

    /// The inert `resume` field changes nothing.
    #[test]
    fn resume_disabled_always_runs_cold() {
        let (inst, u1, degree, _) = motivating();
        let cfg = SearchConfig { resume: false, ..SearchConfig::default() };
        let engine = S3kEngine::new(&inst, cfg);
        let default = S3kEngine::new(&inst, SearchConfig::default());
        let mut session = engine.session();
        for k in [3usize, 2, 1] {
            let warm = session.run(&Query::new(u1, vec![degree], k));
            assert_eq!(warm.hits, default.run(&Query::new(u1, vec![degree], k)).hits);
        }
    }

    #[test]
    fn session_reuse_matches_cold_runs() {
        let (inst, u1, degree, _) = motivating();
        let engine = S3kEngine::new(&inst, SearchConfig::default());
        let mut session = engine.session();
        // Interleave queries with different keyword counts and k to stress
        // scratch rewinding; every warm answer must equal the cold one.
        let ghost = KeywordId(9999);
        let queries = [
            Query::new(u1, vec![degree], 3),
            Query::new(u1, vec![ghost], 2),
            Query::new(u1, vec![degree, degree], 1),
            Query::new(u1, vec![degree], 2),
        ];
        for q in &queries {
            let warm = session.run(q);
            let cold = engine.run(q);
            assert_eq!(warm.stats.stop, cold.stats.stop);
            assert_eq!(warm.candidate_docs, cold.candidate_docs);
            assert_eq!(
                warm.hits.iter().map(|h| h.doc).collect::<Vec<_>>(),
                cold.hits.iter().map(|h| h.doc).collect::<Vec<_>>()
            );
            for (w, c) in warm.hits.iter().zip(cold.hits.iter()) {
                assert_eq!(w.lower, c.lower);
                assert_eq!(w.upper, c.upper);
            }
        }
    }
}
