//! Text-processing substrate for the S3 reproduction.
//!
//! The paper (§2, "Keywords") defines the keyword set `K` as "all the URIs,
//! plus the stemmed version of all literals": every text node of a document is
//! broken into words, stop words are removed and the remaining words are
//! stemmed. This crate provides exactly that pipeline:
//!
//! * [`tokenize()`]: a lightweight Unicode-aware word splitter that also
//!   understands the social-media artifacts the paper's datasets contain
//!   (`@mentions`, `#hashtags`, URLs);
//! * [`stopwords`]: English and French stop-word lists (instance I2 is a
//!   French movie-review corpus);
//! * [`stem`]: the Porter stemming algorithm for English, implemented from
//!   the published description, plus a light French suffix stripper;
//! * [`vocab`]: a keyword interner ([`Vocabulary`]) producing the dense
//!   [`KeywordId`]s used throughout the other crates, together with corpus
//!   frequency statistics (needed to split query workloads into the paper's
//!   "rare" / "common" keyword classes, §5.1).
//!
//! # Example
//!
//! ```
//! use s3_text::{Analyzer, Language};
//!
//! let mut analyzer = Analyzer::new(Language::English);
//! let kws = analyzer.analyze("When I got my M.S. @UAlberta in 2012, graduation was sweet");
//! let words: Vec<&str> = kws.iter().map(|k| analyzer.vocabulary().text(*k)).collect();
//! // "graduation" stems to "graduat", stop words are gone, the mention is kept.
//! assert!(words.contains(&"graduat"));
//! assert!(words.contains(&"@ualberta"));
//! assert!(!words.contains(&"when"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod stem;
pub mod stopwords;
pub mod tokenize;
pub mod vocab;

pub use stem::{stem_english, stem_french, Stemmer};
pub use stopwords::StopWords;
pub use tokenize::{tokenize, Token, TokenKind};
pub use vocab::{FrequencyClass, KeywordId, Vocabulary};

/// Natural language of a corpus; selects the stop-word list and the stemmer.
///
/// The paper's I1 (Twitter) and I3 (Yelp) instances are English, I2
/// (Vodkaster) is French.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Language {
    /// English: Porter stemmer + English stop words.
    English,
    /// French: light suffix stripper + French stop words.
    French,
}

impl Language {
    /// Serialize for the durable snapshot format: one discriminant byte.
    pub fn snap_write(self, out: &mut Vec<u8>) {
        out.push(match self {
            Language::English => 0,
            Language::French => 1,
        });
    }

    /// Decode a language written by [`Self::snap_write`].
    pub fn snap_read(r: &mut s3_snap::SnapReader<'_>) -> Result<Self, s3_snap::SnapError> {
        match r.u8()? {
            0 => Ok(Language::English),
            1 => Ok(Language::French),
            _ => Err(s3_snap::SnapError::Value("language discriminant")),
        }
    }
}

/// End-to-end text analysis pipeline: tokenize, drop stop words, stem, intern.
///
/// This is the component every document/tag ingestion path goes through; it
/// owns the [`Vocabulary`] so corpus-wide keyword statistics accumulate as
/// documents are analyzed.
#[derive(Debug)]
pub struct Analyzer {
    language: Language,
    stopwords: StopWords,
    vocabulary: Vocabulary,
}

impl Analyzer {
    /// Create an analyzer for the given language with an empty vocabulary.
    pub fn new(language: Language) -> Self {
        Analyzer {
            language,
            stopwords: StopWords::for_language(language),
            vocabulary: Vocabulary::new(),
        }
    }

    /// Reassemble an analyzer from a language and a previously-accumulated
    /// vocabulary (the snapshot load path: stop words are derived from the
    /// language, so only these two parts are persisted).
    pub fn from_parts(language: Language, vocabulary: Vocabulary) -> Self {
        Analyzer { language, stopwords: StopWords::for_language(language), vocabulary }
    }

    /// The language this analyzer was built for.
    pub fn language(&self) -> Language {
        self.language
    }

    /// Analyze a text: returns the interned keywords of its content, in
    /// order, with stop words removed and the rest stemmed (paper §2,
    /// "Keywords"). Every returned keyword's corpus frequency is incremented.
    pub fn analyze(&mut self, text: &str) -> Vec<KeywordId> {
        let mut out = Vec::new();
        for token in tokenize(text) {
            if let Some(normalized) = self.normalize(&token) {
                out.push(self.vocabulary.intern_counted(&normalized));
            }
        }
        out
    }

    /// Analyze a text without touching corpus frequencies (used for queries:
    /// a query keyword should not inflate the corpus statistics).
    pub fn analyze_query(&mut self, text: &str) -> Vec<KeywordId> {
        let mut out = Vec::new();
        for token in tokenize(text) {
            if let Some(normalized) = self.normalize(&token) {
                out.push(self.vocabulary.intern(&normalized));
            }
        }
        out
    }

    /// Normalize a single token: `None` when it is a stop word.
    fn normalize(&self, token: &Token) -> Option<String> {
        match token.kind {
            TokenKind::Word => {
                let lower = token.text.to_lowercase();
                if self.stopwords.contains(&lower) {
                    return None;
                }
                let stemmed = match self.language {
                    Language::English => stem_english(&lower),
                    Language::French => stem_french(&lower),
                };
                Some(stemmed)
            }
            // Mentions, hashtags, URLs and numbers are kept verbatim
            // (lowercased): they behave like URIs in the paper's model.
            TokenKind::Mention | TokenKind::Hashtag | TokenKind::Url | TokenKind::Number => {
                Some(token.text.to_lowercase())
            }
        }
    }

    /// Access the accumulated vocabulary.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocabulary
    }

    /// Mutable access to the vocabulary (e.g. to intern URIs as keywords).
    pub fn vocabulary_mut(&mut self) -> &mut Vocabulary {
        &mut self.vocabulary
    }

    /// Consume the analyzer, returning its vocabulary.
    pub fn into_vocabulary(self) -> Vocabulary {
        self.vocabulary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_removes_stopwords_and_stems() {
        let mut a = Analyzer::new(Language::English);
        let kws = a.analyze("the universities are graduating");
        let words: Vec<&str> = kws.iter().map(|k| a.vocabulary().text(*k)).collect();
        assert_eq!(words, vec!["univers", "graduat"]);
    }

    #[test]
    fn pipeline_keeps_social_tokens() {
        let mut a = Analyzer::new(Language::English);
        let kws = a.analyze("#EDBT2016 by @inria");
        let words: Vec<&str> = kws.iter().map(|k| a.vocabulary().text(*k)).collect();
        assert_eq!(words, vec!["#edbt2016", "@inria"]);
    }

    #[test]
    fn query_analysis_does_not_count_frequencies() {
        let mut a = Analyzer::new(Language::English);
        let k = a.analyze_query("university")[0];
        assert_eq!(a.vocabulary().frequency(k), 0);
        let k2 = a.analyze("university")[0];
        assert_eq!(k, k2);
        assert_eq!(a.vocabulary().frequency(k), 1);
    }

    #[test]
    fn french_pipeline() {
        let mut a = Analyzer::new(Language::French);
        let kws = a.analyze("les films magnifiques");
        let words: Vec<&str> = kws.iter().map(|k| a.vocabulary().text(*k)).collect();
        assert!(!words.contains(&"les"));
        assert!(words.contains(&"film"));
    }
}
