//! Query and batch streams: a pure function of `(workload, seed, count)`
//! over fixed inputs. The program under test receives only these
//! generated inputs, never the seed.

use crate::plan::{Plan, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s3_core::{Query, S3Instance, UserId};
use s3_datasets::workload::{self, LiveStep, LiveWorkloadConfig, WorkloadConfig};
use s3_datasets::Zipf;
use s3_text::{FrequencyClass, KeywordId};
use std::collections::HashSet;
use std::time::Duration;

/// Result size of every generated query.
const K: usize = 10;

/// Distinct queries `serve_zipf` draws from: with a quarter of the draws
/// re-seated on another seeker the working set exceeds this, and both
/// exceed the 256-entry result cache.
pub const ZIPF_POOL: usize = 1024;

/// Skew of `serve_zipf`'s draws over the pool and over seekers. At 1.3
/// the 256-entry cache answers ≈70 % of the stream, so the median latency
/// is a cache hit on every seed; at 1.1 it answers ≈54 % and the median
/// flips between a hit (µs) and a miss (ms) from seed to seed.
const ZIPF_EXPONENT: f64 = 1.3;

/// Per-query deadline on `serve_zipf`: the deadline arithmetic runs on
/// every miss but must never cut a search short, not even when the host
/// stalls the process — at 250 ms, about six cold medians, one query in
/// some 60 000 still overran on the shared sizing host and came back
/// inexact.
pub const ZIPF_DEADLINE: Duration = Duration::from_secs(1);

/// Seed of the fixed query pools (the corpora's companion: never
/// `--seed`).
const POOL_SEED: u64 = 0x5EED_9001;

/// `n` distinct queries over `instance`: common/rare × one/two keywords in
/// equal shares, k = 10, uniform seekers. Fixed: independent of `--seed`.
pub fn query_pool(instance: &S3Instance, n: usize) -> Vec<Query> {
    let classes = [
        (FrequencyClass::Common, 1),
        (FrequencyClass::Common, 2),
        (FrequencyClass::Rare, 1),
        (FrequencyClass::Rare, 2),
    ];
    let mut seen: HashSet<(UserId, Vec<KeywordId>)> = HashSet::new();
    let mut per_class: Vec<Vec<Query>> = vec![Vec::new(); classes.len()];
    let share = n.div_ceil(classes.len());
    for (c, &(frequency, keywords_per_query)) in classes.iter().enumerate() {
        // Duplicates are rare; a few extra rounds top the class up.
        for round in 0u64.. {
            let generated = workload::generate(
                instance,
                WorkloadConfig {
                    frequency,
                    keywords_per_query,
                    k: K,
                    queries: share,
                    seed: POOL_SEED + 16 * round + c as u64,
                },
            );
            for spec in generated.queries {
                let q = spec.query;
                if per_class[c].len() < share && seen.insert((q.seeker, q.keywords.clone())) {
                    per_class[c].push(q);
                }
            }
            if per_class[c].len() == share {
                break;
            }
            assert!(round < 64, "corpus too small for {share} distinct queries per class");
        }
    }
    // Interleave the classes so any prefix holds them in equal shares.
    let mut pool = Vec::with_capacity(share * classes.len());
    for i in 0..share {
        pool.extend(per_class.iter().map(|class| class[i].clone()));
    }
    pool.truncate(n);
    pool
}

/// Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// `search_cold`'s list: the fixed pool of `n` queries, shuffled by seed.
fn cold_list(instance: &S3Instance, seed: u64, n: usize) -> Vec<Query> {
    let mut list = query_pool(instance, n);
    shuffle(&mut list, &mut StdRng::seed_from_u64(seed));
    list
}

/// `serve_zipf`'s draws: Zipf over the fixed pool (its order interleaves
/// the four query classes, so the hot ranks cost the same on every seed),
/// a quarter of them re-seated on a Zipf-drawn seeker.
fn zipf_list(instance: &S3Instance, seed: u64, n: usize) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = query_pool(instance, ZIPF_POOL);
    let by_rank = Zipf::new(pool.len(), ZIPF_EXPONENT);
    let by_user = Zipf::new(instance.num_users(), ZIPF_EXPONENT);
    (0..n)
        .map(|_| {
            let mut q = pool[by_rank.sample(&mut rng)].clone();
            if rng.gen_bool(0.25) {
                q.seeker = UserId(by_user.sample(&mut rng) as u32);
            }
            q
        })
        .collect()
}

/// The queries a query workload serves, warm-up first, and the deadline
/// each is served with.
pub fn query_stream(plan: &Plan, instance: &S3Instance) -> (Vec<Query>, Option<Duration>) {
    let n = plan.warmup + plan.ops;
    match plan.workload {
        Workload::SearchCold => (cold_list(instance, plan.seed, n), None),
        Workload::FleetUnix => {
            // The head of `search_cold`'s list for the same seed and
            // seconds: the two workloads time the same queries.
            let mut queries = cold_list(instance, plan.seed, plan.cold_list_len());
            queries.truncate(n);
            (queries, None)
        }
        Workload::ServeZipf => (zipf_list(instance, plan.seed, n), Some(ZIPF_DEADLINE)),
        Workload::LiveMixed => unreachable!("live_mixed runs steps, see live_steps"),
    }
}

/// The two kinds of step `live_mixed` runs, in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LivePhase {
    /// The first checkpoint interval: append-only batches that reference
    /// nothing older than themselves, so every one is *detached* (WAL
    /// fsync + append-only apply, warm state rebased).
    Detached,
    /// Every later interval: batches that also attach to, delete and
    /// update existing data (the `con(d,k)` recompute, global
    /// invalidation).
    Mutating,
}

/// Seed of `live_mixed`'s batches. A batch that reaches the corpus's
/// giant component costs ≈0.8 s and one that does not ≈10 ms, so over the
/// couple of dozen steps a run affords, seed-drawn batches would move
/// every timing by ±30 % between seeds. The batches are therefore part of
/// the fixed input, like the corpus they grow; `--seed` draws the queries.
const BATCH_SEED: u64 = 0x5EED_BA7C;

/// One phase's steps, generated against `instance` — the state its first
/// batch applies to: the base corpus for [`LivePhase::Detached`], the
/// state after that phase for [`LivePhase::Mutating`]. Batches are fixed;
/// each step's eight queries keep the generator's texts and take their
/// seekers from `plan.seed`.
pub fn live_steps(plan: &Plan, instance: &S3Instance, phase: LivePhase) -> Vec<LiveStep> {
    let shape = LiveWorkloadConfig {
        users_per_batch: 2,
        docs_per_batch: 3,
        tags_per_batch: 2,
        comments_per_batch: 1,
        queries_per_batch: 8,
        k: K,
        ..LiveWorkloadConfig::default()
    };
    let config = match phase {
        LivePhase::Detached => LiveWorkloadConfig {
            batches: plan.checkpoint_every,
            attach_probability: 0.0,
            seed: BATCH_SEED,
            ..shape
        },
        LivePhase::Mutating => LiveWorkloadConfig {
            batches: plan.ops - plan.checkpoint_every,
            deletes_per_batch: 1,
            updates_per_batch: 1,
            attach_probability: 0.5,
            seed: BATCH_SEED + 1,
            ..shape
        },
    };
    let mut steps = workload::live_workload(instance, &config);
    let mut rng = StdRng::seed_from_u64(plan.seed ^ (phase as u64 + 1));
    let mut users = instance.num_users();
    for step in &mut steps {
        users += step.batch.num_users();
        for spec in &mut step.queries {
            spec.seeker = UserId(rng.gen_range(0..users) as u32);
        }
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_datasets::twitter::{self, TwitterConfig};
    use s3_datasets::Scale;

    fn small_instance() -> S3Instance {
        let config = TwitterConfig {
            users: 200,
            tweets: 600,
            retweet_ratio: 0.3,
            ..TwitterConfig::scaled(Scale::Tiny)
        };
        twitter::generate(&config).instance
    }

    fn fingerprint(queries: &[Query]) -> Vec<String> {
        queries.iter().map(|q| format!("{:?} {:?} {}", q.seeker, q.keywords, q.k)).collect()
    }

    fn batches(steps: &[LiveStep]) -> Vec<String> {
        steps
            .iter()
            .map(|s| {
                format!(
                    "{} {} {} {:?} {:?}",
                    s.batch.num_users(),
                    s.batch.num_documents(),
                    s.batch.num_tags(),
                    s.batch.social_edges(),
                    s.batch.deleted_documents(),
                )
            })
            .collect()
    }

    fn step_queries(steps: &[LiveStep]) -> Vec<String> {
        steps
            .iter()
            .flat_map(|s| &s.queries)
            .map(|q| format!("{:?} {} {}", q.seeker, q.text, q.k))
            .collect()
    }

    #[test]
    fn query_streams_are_a_pure_function_of_workload_and_seed() {
        let instance = small_instance();
        for workload in [Workload::SearchCold, Workload::ServeZipf, Workload::FleetUnix] {
            let plan = Plan::new(workload, 11, 35, true);
            let (a, deadline) = query_stream(&plan, &instance);
            let (b, _) = query_stream(&plan, &instance);
            assert_eq!(fingerprint(&a), fingerprint(&b), "{} repeats", workload.name());
            let (other, _) = query_stream(&Plan { seed: 12, ..plan }, &instance);
            assert_ne!(
                fingerprint(&a),
                fingerprint(&other),
                "{} follows the seed",
                workload.name()
            );
            assert_eq!(a.len(), plan.warmup + plan.ops);
            assert_eq!(deadline.is_some(), workload == Workload::ServeZipf);
        }
    }

    #[test]
    fn live_steps_fix_the_batches_and_seed_the_queries() {
        let instance = small_instance();
        let plan = Plan::new(Workload::LiveMixed, 11, 35, true);
        for phase in [LivePhase::Detached, LivePhase::Mutating] {
            let a = live_steps(&plan, &instance, phase);
            let b = live_steps(&plan, &instance, phase);
            let other = live_steps(&Plan { seed: 12, ..plan }, &instance, phase);
            assert_eq!(batches(&a), batches(&b));
            assert_eq!(step_queries(&a), step_queries(&b));
            assert_eq!(batches(&a), batches(&other), "batches are fixed input");
            assert_ne!(step_queries(&a), step_queries(&other), "queries follow the seed");
        }
        let detached = live_steps(&plan, &instance, LivePhase::Detached);
        let mutating = live_steps(&plan, &instance, LivePhase::Mutating);
        assert_eq!(detached.len(), plan.checkpoint_every);
        assert_eq!(detached.len() + mutating.len(), plan.ops);
        assert!(detached.iter().all(|s| !s.batch.has_retractions()));
        assert!(mutating.iter().all(|s| s.batch.has_retractions()));
    }

    #[test]
    fn pool_is_distinct_and_seed_independent() {
        let instance = small_instance();
        let pool = query_pool(&instance, 120);
        assert_eq!(pool.len(), 120);
        let distinct: HashSet<_> = pool.iter().map(|q| (q.seeker, q.keywords.clone())).collect();
        assert_eq!(distinct.len(), pool.len());
        assert!(pool.iter().all(|q| q.k == K && !q.keywords.is_empty()));
        assert!(pool.iter().any(|q| q.keywords.len() == 2));
    }

    #[test]
    fn fleet_times_the_head_of_the_cold_list() {
        let instance = small_instance();
        let cold = Plan::new(Workload::SearchCold, 5, 35, true);
        let fleet = Plan::new(Workload::FleetUnix, 5, 35, true);
        let cold = fingerprint(&query_stream(&cold, &instance).0);
        let fleet = fingerprint(&query_stream(&fleet, &instance).0);
        assert_eq!(cold[..fleet.len()], fleet[..]);
    }
}
