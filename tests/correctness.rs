//! Correctness certification of the S3k engine against the brute-force
//! oracle (Theorems 4.1–4.3 of the paper), plus the structural invariants
//! of query answers, on randomized instances.

mod common;

use common::{random_instance, RandomSize};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s3::core::oracle::oracle_topk;
use s3::core::{Query, SearchConfig, StopReason, UserId};

/// Compare the engine's answer with the oracle's, tolerating ties: at each
/// rank, either the same document or the same score (within tolerance).
fn assert_matches_oracle(seed: u64, gamma: f64, k: usize) -> Result<(), TestCaseError> {
    let (inst, pool) = random_instance(seed, RandomSize::default());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let seeker = UserId(rng.gen_range(0..inst.num_users()) as u32);
    let kw = pool[rng.gen_range(0..pool.len())];
    let query = Query::new(seeker, vec![kw], k);

    let cfg =
        SearchConfig { score: s3::core::S3kScore::new(gamma, 0.5), ..SearchConfig::default() };
    let res = inst.search(&query, &cfg);
    prop_assert!(
        matches!(res.stats.stop, StopReason::Converged | StopReason::NoMatch),
        "seed {seed}: engine did not converge: {:?}",
        res.stats
    );
    let oracle = oracle_topk(&inst, &query, &cfg.score, 1e-13);
    compare_answer_sets(seed, &inst, &res, &oracle)
}

/// The stop condition (paper Algorithm 2) certifies the answer *set*; the
/// internal order is only pinned once intervals separate. Compare as sets,
/// allowing substitution of equal-score documents (ties, which "any valid
/// answer" may resolve differently — §3.1 "a query answer may not be
/// unique").
fn compare_answer_sets(
    seed: u64,
    inst: &s3::core::S3Instance,
    res: &s3::core::TopKResult,
    oracle: &[s3::core::oracle::OracleHit],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        res.hits.len(),
        oracle.len(),
        "seed {}: result sizes differ: engine {:?} oracle {:?}",
        seed,
        &res.hits,
        oracle
    );
    let oracle_score: std::collections::HashMap<_, _> =
        oracle.iter().map(|o| (o.doc, o.score)).collect();
    let engine_docs: std::collections::HashSet<_> = res.hits.iter().map(|h| h.doc).collect();
    // Shared docs: the oracle score must lie in the certified interval.
    for h in &res.hits {
        if let Some(&s) = oracle_score.get(&h.doc) {
            prop_assert!(
                h.lower - 1e-9 <= s && s <= h.upper + 1e-9,
                "seed {seed}: oracle score {s} outside [{}, {}] for {:?}",
                h.lower,
                h.upper,
                h.doc
            );
        }
    }
    // Mismatched docs must be explainable as ties/near-ties: every
    // engine-only doc's interval must overlap some oracle-only doc's score
    // and vice versa (within the certified uncertainty).
    let engine_only: Vec<_> =
        res.hits.iter().filter(|h| !oracle_score.contains_key(&h.doc)).collect();
    let oracle_only: Vec<_> = oracle.iter().filter(|o| !engine_docs.contains(&o.doc)).collect();
    prop_assert_eq!(engine_only.len(), oracle_only.len(), "seed {}", seed);
    for h in &engine_only {
        prop_assert!(
            oracle_only.iter().any(|o| h.lower - 1e-9 <= o.score && o.score <= h.upper + 1e-9),
            "seed {seed}: engine-only doc {:?} [{}, {}] not a tie with any oracle-only doc {:?}",
            h.doc,
            h.lower,
            h.upper,
            oracle_only
        );
        // And they must not be excluded as vertical neighbors of a shared hit.
        for other in &res.hits {
            if other.doc != h.doc {
                prop_assert!(!inst.forest().is_vertical_neighbor(other.doc, h.doc));
            }
        }
    }
    Ok(())
}

// Wrapper because prop_assert! needs a Result-returning context.
fn check(seed: u64, gamma: f64, k: usize) -> Result<(), TestCaseError> {
    assert_matches_oracle(seed, gamma, k)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Theorem 4.1/4.2: the engine's converged answer is a top-k answer.
    #[test]
    fn s3k_matches_brute_force_oracle(seed in 0u64..5000, gamma in 1.2f64..3.0, k in 1usize..6) {
        check(seed, gamma, k)?;
    }

    /// Definition 3.2: no two results are vertical neighbors, and results
    /// are sorted by (certified) score.
    #[test]
    fn answers_respect_vertical_neighbor_constraint(seed in 0u64..3000) {
        let (inst, pool) = random_instance(seed, RandomSize::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let seeker = UserId(rng.gen_range(0..inst.num_users()) as u32);
        let kw = pool[rng.gen_range(0..pool.len())];
        let res = inst.search(&Query::new(seeker, vec![kw], 4), &SearchConfig::default());
        for (i, a) in res.hits.iter().enumerate() {
            prop_assert!(a.lower <= a.upper + 1e-12);
            for b in &res.hits[i + 1..] {
                prop_assert!(
                    !inst.forest().is_vertical_neighbor(a.doc, b.doc),
                    "seed {seed}: {:?} and {:?} are vertical neighbors",
                    a.doc, b.doc
                );
            }
        }
    }

    /// Component pruning is a pure optimization: identical answers.
    #[test]
    fn pruning_does_not_change_answers(seed in 0u64..1500) {
        let (inst, pool) = random_instance(seed, RandomSize::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let seeker = UserId(rng.gen_range(0..inst.num_users()) as u32);
        let kw = pool[rng.gen_range(0..pool.len())];
        let q = Query::new(seeker, vec![kw], 3);
        let on = inst.search(&q, &SearchConfig::default());
        let off = inst.search(
            &q,
            &SearchConfig { component_pruning: false, ..SearchConfig::default() },
        );
        let docs = |r: &s3::core::TopKResult| r.hits.iter().map(|h| h.doc).collect::<Vec<_>>();
        prop_assert_eq!(docs(&on), docs(&off));
    }

    /// Theorem 4.3: any-time termination always returns a well-formed
    /// (possibly sub-optimal) answer.
    #[test]
    fn anytime_answers_are_well_formed(seed in 0u64..800, max_iters in 0u32..4) {
        let (inst, pool) = random_instance(seed, RandomSize::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let seeker = UserId(rng.gen_range(0..inst.num_users()) as u32);
        let kw = pool[rng.gen_range(0..pool.len())];
        let q = Query::new(seeker, vec![kw], 3);
        let res = inst.search(
            &q,
            &SearchConfig { max_iterations: max_iters, ..SearchConfig::default() },
        );
        prop_assert!(res.hits.len() <= 3);
        for (i, a) in res.hits.iter().enumerate() {
            for b in &res.hits[i + 1..] {
                prop_assert!(!inst.forest().is_vertical_neighbor(a.doc, b.doc));
            }
        }
    }

    /// Two-keyword conjunctive queries also agree with the oracle.
    #[test]
    fn multi_keyword_matches_oracle(seed in 0u64..1200) {
        let (inst, pool) = random_instance(seed, RandomSize { users: 5, docs: 10, vocab: 4 });
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let seeker = UserId(rng.gen_range(0..inst.num_users()) as u32);
        let k1 = pool[rng.gen_range(0..pool.len())];
        let k2 = pool[rng.gen_range(0..pool.len())];
        let q = Query::new(seeker, vec![k1, k2], 3);
        let cfg = SearchConfig::default();
        let res = inst.search(&q, &cfg);
        let oracle = oracle_topk(&inst, &q, &cfg.score, 1e-13);
        compare_answer_sets(seed, &inst, &res, &oracle)?;
    }
}
