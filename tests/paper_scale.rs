//! The paper-shape corpus at `Scale::Small` (481 documents, retweet ratio
//! 0.85) cold-builds. Its `con(d,k)` index holds 718,716 tuples; the
//! evaluation that re-fired the endorsement rule once per source needed
//! 43.9 s for it, which is why this corpus could not be built in a test.
//! The count is exact, so this needs no timer: a regression to the
//! quadratic evaluation shows as a test that does not finish.

use s3::datasets::{twitter, Scale};

#[test]
fn paper_shape_small_cold_builds_its_718_716_tuples() {
    let builder = twitter::generate_builder(&twitter::TwitterConfig::scaled(Scale::Small)).0;
    let instance = builder.snapshot();
    assert_eq!(instance.num_documents(), 481);
    assert_eq!(instance.connections().len(), 718_716);
}
