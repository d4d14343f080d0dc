//! The paper-shape corpus at `Scale::Small` (481 documents, retweet ratio
//! 0.85) cold-builds. Its `con(d,k)` index holds 718,716 tuples; the
//! evaluation that re-fired the endorsement rule once per source needed
//! 43.9 s for it, which is why this corpus could not be built in a test.
//! The count is exact, so this needs no timer: a regression to the
//! quadratic evaluation shows as a test that does not finish.
//!
//! The same corpus and `social-1k` also pin the bits of the `Smax` table
//! (`ConnectionIndex::smax_table_with`) under two score models: `Smax`
//! sums a `(d, k)`'s weights across sources, so a change to the order
//! `con(d, k)` yields its tuples in, or to how the sums are taken, shows
//! here as a different hash.

use s3::core::{S3Instance, S3kScore, ScoreModel, TypeWeightedScore};
use s3::datasets::twitter::{self, TwitterConfig};
use s3::datasets::Scale;

#[test]
fn paper_shape_small_cold_builds_its_718_716_tuples() {
    let builder = twitter::generate_builder(&TwitterConfig::scaled(Scale::Small)).0;
    let instance = builder.snapshot();
    assert_eq!(instance.num_documents(), 481);
    assert_eq!(instance.connections().len(), 718_716);
}

/// FNV-1a-64 over a model's `Smax` table sorted by keyword id, each entry
/// hashed as the id (u32 LE) then the value's bits (u64 LE); and the
/// table's size.
fn smax_hash(instance: &S3Instance, model: &impl ScoreModel) -> (usize, u64) {
    let table = instance.connections().smax_table_with(|t, d| model.structural_weight(t, d));
    let mut entries: Vec<_> = table.into_iter().collect();
    entries.sort_unstable_by_key(|&(kw, _)| kw);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (kw, smax) in &entries {
        for byte in kw.0.to_le_bytes().into_iter().chain(smax.to_bits().to_le_bytes()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (entries.len(), hash)
}

fn check_smax(instance: &S3Instance, keywords: usize, s3k: u64, type_weighted: u64) {
    assert_eq!(smax_hash(instance, &S3kScore::default()), (keywords, s3k), "S3kScore");
    assert_eq!(
        smax_hash(instance, &TypeWeightedScore::default()),
        (keywords, type_weighted),
        "TypeWeightedScore"
    );
}

#[test]
fn paper_shape_small_smax_bits_are_pinned() {
    let instance = twitter::generate_builder(&TwitterConfig::scaled(Scale::Small)).0.snapshot();
    check_smax(&instance, 1_477, 0x2940_d371_931c_f039, 0xebec_3eb3_0936_3219);
}

#[test]
fn social_1k_smax_bits_are_pinned() {
    // social-1k: 480 users, 990 tweets, 85 % retweets, with the
    // size-dependent fields rescaled as the benchmark's corpus rule does.
    let (users, tweets) = (480, 990);
    let config = TwitterConfig {
        users,
        tweets,
        retweet_ratio: 0.85,
        vocab_size: tweets + 500,
        hashtags: tweets / 10 + 30,
        communities: users / 40,
        ..TwitterConfig::scaled(Scale::Small)
    };
    let instance = twitter::generate_builder(&config).0.snapshot();
    check_smax(&instance, 563, 0xcbf1_a573_8061_592e, 0xdd71_e11b_e402_5c9a);
}
