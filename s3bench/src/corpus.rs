//! The two fixed corpora every workload runs on.
//!
//! Cold build of the paper-shape Twitter corpus (85 % retweets) is
//! super-linear and sits in `ConnectionIndex::build`: 0.13 s at 66
//! documents, 5.7 s at 238, 41.7 s at 481 (measured on the 2-core host
//! the benchmark was sized on). So one corpus cannot be both large enough
//! for search work to dominate and endorsement-dense enough for the
//! `con(d,k)` recompute to dominate; the benchmark keeps one of each
//! shape. Corpora never depend on `--seed`: the seed drives only the
//! query/batch streams.

use s3_core::{InstanceBuilder, S3Instance};
use s3_datasets::twitter::{self, TwitterConfig};
use s3_datasets::Scale;

/// Which fixed corpus a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    /// 4000 users, 8000 tweets, 30 % retweets: ≈5.6 k documents, builds in
    /// ≈0.1 s. Search-heavy.
    Docs8k,
    /// 480 users, 990 tweets, 85 % retweets (the paper's shape): ≈160
    /// endorsement-dense documents, builds in ≈0.6 s, all of it
    /// `con(d,k)`. Write-heavy.
    Social1k,
}

impl Corpus {
    /// The name printed in every output's corpus record.
    pub fn name(self) -> &'static str {
        match self {
            Corpus::Docs8k => "docs-8k",
            Corpus::Social1k => "social-1k",
        }
    }

    /// The generator configuration: `TwitterConfig::scaled(Small)` with the
    /// size-dependent fields rescaled to this corpus's users and tweets.
    pub fn config(self) -> TwitterConfig {
        let (users, tweets, retweet_ratio) = match self {
            Corpus::Docs8k => (4000, 8000, 0.3),
            Corpus::Social1k => (480, 990, 0.85),
        };
        TwitterConfig {
            users,
            tweets,
            retweet_ratio,
            vocab_size: tweets + 500,
            hashtags: tweets / 10 + 30,
            communities: users / 40,
            ..TwitterConfig::scaled(Scale::Small)
        }
    }

    /// Generate the populated, unfrozen builder.
    pub fn builder(self) -> InstanceBuilder {
        twitter::generate_builder(&self.config()).0
    }
}

/// The shape of a built corpus, recorded in every output so a number is
/// never read without its input.
#[derive(Debug, Clone)]
pub struct CorpusRecord {
    /// Corpus name.
    pub name: &'static str,
    /// Users.
    pub users: usize,
    /// Documents (trees).
    pub documents: usize,
    /// Tags, endorsements included.
    pub tags: usize,
    /// Keyword-less tags (retweets).
    pub endorsements: usize,
    /// Content components of the network graph.
    pub components: usize,
}

impl CorpusRecord {
    /// Describe `instance`, freshly built from `corpus`.
    pub fn of(corpus: Corpus, instance: &S3Instance) -> Self {
        CorpusRecord {
            name: corpus.name(),
            users: instance.num_users(),
            documents: instance.num_documents(),
            tags: instance.num_tags(),
            endorsements: instance.tags().iter().filter(|t| t.keyword.is_none()).count(),
            components: instance.graph().components().len(),
        }
    }
}
