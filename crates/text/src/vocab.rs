//! Keyword interning and corpus statistics.
//!
//! Everything downstream of text analysis manipulates dense [`KeywordId`]s
//! rather than strings: document content (`S3:contains` objects), tag
//! keywords (`S3:hasKeyword`), the RDF keyword bridge and query keywords all
//! share one [`Vocabulary`].
//!
//! The vocabulary also tracks per-keyword corpus frequencies: the paper's
//! query workloads (§5.1) draw "rare" keywords from the 25% least frequent
//! and "common" keywords from the 25% most frequent of the document set.

use s3_snap::{codec, Codec, SnapError, SnapReader};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Dense identifier of an interned keyword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct KeywordId(pub u32);

impl KeywordId {
    /// The id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

codec!(struct KeywordId { 0 });

impl fmt::Display for KeywordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kw{}", self.0)
    }
}

/// Frequency class of a keyword relative to the corpus, as used by the
/// paper's workload generator (§5.1): `Rare` = bottom quartile, `Common` =
/// top quartile of document frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrequencyClass {
    /// Among the 25% least frequent keywords (paper notation `−`).
    Rare,
    /// Among the 25% most frequent keywords (paper notation `+`).
    Common,
    /// Middle half.
    Middle,
}

/// String interner with occurrence counts.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct Vocabulary {
    by_text: HashMap<String, KeywordId>,
    texts: Vec<String>,
    /// Total number of occurrences recorded per keyword.
    occurrences: Vec<u64>,
}

impl Vocabulary {
    /// Empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a keyword without recording an occurrence.
    pub fn intern(&mut self, text: &str) -> KeywordId {
        if let Some(&id) = self.by_text.get(text) {
            return id;
        }
        let id = KeywordId(self.texts.len() as u32);
        self.by_text.insert(text.to_string(), id);
        self.texts.push(text.to_string());
        self.occurrences.push(0);
        id
    }

    /// Intern a keyword and record one corpus occurrence.
    pub fn intern_counted(&mut self, text: &str) -> KeywordId {
        let id = self.intern(text);
        self.occurrences[id.index()] += 1;
        id
    }

    /// Record `n` additional occurrences of an already-interned keyword.
    pub fn add_occurrences(&mut self, id: KeywordId, n: u64) {
        self.occurrences[id.index()] += n;
    }

    /// Look up a keyword by text.
    pub fn get(&self, text: &str) -> Option<KeywordId> {
        self.by_text.get(text).copied()
    }

    /// The text of a keyword.
    pub fn text(&self, id: KeywordId) -> &str {
        &self.texts[id.index()]
    }

    /// Number of occurrences recorded for `id`.
    pub fn frequency(&self, id: KeywordId) -> u64 {
        self.occurrences[id.index()]
    }

    /// Number of distinct keywords.
    pub fn len(&self) -> usize {
        self.texts.len()
    }

    /// True when no keyword has been interned.
    pub fn is_empty(&self) -> bool {
        self.texts.is_empty()
    }

    /// Total occurrences over all keywords.
    pub fn total_occurrences(&self) -> u64 {
        self.occurrences.iter().sum()
    }

    /// Iterate over `(id, text, frequency)`.
    pub fn iter(&self) -> impl Iterator<Item = (KeywordId, &str, u64)> + '_ {
        self.texts
            .iter()
            .enumerate()
            .map(|(i, t)| (KeywordId(i as u32), t.as_str(), self.occurrences[i]))
    }

    /// Classify every keyword with at least one occurrence into frequency
    /// quartiles (paper §5.1). Returns a function-like table: index by
    /// `KeywordId::index()`. Zero-occurrence keywords (query-only interns)
    /// are classified `Rare`.
    pub fn frequency_classes(&self) -> Vec<FrequencyClass> {
        let mut counted: Vec<(u64, usize)> = self
            .occurrences
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (c, i))
            .collect();
        counted.sort_unstable();
        let n = counted.len();
        let mut classes = vec![FrequencyClass::Rare; self.len()];
        if n == 0 {
            return classes;
        }
        let q1 = n / 4; // first quartile boundary (bottom 25%)
        let q3 = n - n / 4; // last quartile boundary (top 25%)
        for (rank, &(_, idx)) in counted.iter().enumerate() {
            classes[idx] = if rank < q1.max(1) {
                FrequencyClass::Rare
            } else if rank >= q3.min(n.saturating_sub(1)) {
                FrequencyClass::Common
            } else {
                FrequencyClass::Middle
            };
        }
        classes
    }

    /// Keywords of a given class, cheapest-first (useful for deterministic
    /// workload sampling).
    pub fn keywords_in_class(&self, class: FrequencyClass) -> Vec<KeywordId> {
        let classes = self.frequency_classes();
        let mut out: Vec<KeywordId> = (0..self.len() as u32)
            .map(KeywordId)
            .filter(|k| self.occurrences[k.index()] > 0 && classes[k.index()] == class)
            .collect();
        out.sort_unstable_by_key(|k| (self.occurrences[k.index()], k.0));
        out
    }
}

/// The snapshot format (`s3-core`'s snapshot module): interned texts in
/// id order plus occurrence counts. The text→id index is rebuilt on
/// decode, so the encoding is independent of hash-map iteration order.
impl Codec for Vocabulary {
    const MIN_BYTES: usize = 1;

    fn encode(&self, out: &mut Vec<u8>) {
        self.texts.len().encode(out);
        for (text, occ) in self.texts.iter().zip(&self.occurrences) {
            text.encode(out);
            occ.encode(out);
        }
    }

    /// Rejects a repeated text; never panics on malformed input.
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.seq(2)?;
        let mut v = Vocabulary {
            by_text: HashMap::with_capacity(n),
            texts: Vec::with_capacity(n),
            occurrences: Vec::with_capacity(n),
        };
        for i in 0..n {
            let text = r.str()?;
            let occ = r.u64v()?;
            if v.by_text.insert(text.to_owned(), KeywordId(i as u32)).is_some() {
                return Err(SnapError::Value("duplicate vocabulary text"));
            }
            v.texts.push(text.to_owned());
            v.occurrences.push(occ);
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut v = Vocabulary::new();
        let a = v.intern("degree");
        let b = v.intern("university");
        let a2 = v.intern("degree");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(v.text(a), "degree");
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn frequencies_accumulate() {
        let mut v = Vocabulary::new();
        let a = v.intern_counted("x");
        v.intern_counted("x");
        v.intern_counted("y");
        assert_eq!(v.frequency(a), 2);
        assert_eq!(v.total_occurrences(), 3);
    }

    #[test]
    fn quartile_classification() {
        let mut v = Vocabulary::new();
        // 8 keywords with frequencies 1..=8: bottom quartile = {1,2},
        // top quartile = {7,8}.
        for i in 1..=8u64 {
            let id = v.intern(&format!("k{i}"));
            v.add_occurrences(id, i);
        }
        let classes = v.frequency_classes();
        let class_of = |t: &str| classes[v.get(t).unwrap().index()];
        assert_eq!(class_of("k1"), FrequencyClass::Rare);
        assert_eq!(class_of("k2"), FrequencyClass::Rare);
        assert_eq!(class_of("k4"), FrequencyClass::Middle);
        assert_eq!(class_of("k7"), FrequencyClass::Common);
        assert_eq!(class_of("k8"), FrequencyClass::Common);
    }

    #[test]
    fn class_lists_are_sorted_and_disjoint() {
        let mut v = Vocabulary::new();
        for i in 1..=20u64 {
            let id = v.intern(&format!("k{i}"));
            v.add_occurrences(id, i * i);
        }
        let rare = v.keywords_in_class(FrequencyClass::Rare);
        let common = v.keywords_in_class(FrequencyClass::Common);
        assert!(!rare.is_empty() && !common.is_empty());
        assert!(rare.iter().all(|k| !common.contains(k)));
        for w in rare.windows(2) {
            assert!(v.frequency(w[0]) <= v.frequency(w[1]));
        }
    }

    #[test]
    fn single_keyword_corpus() {
        let mut v = Vocabulary::new();
        v.intern_counted("only");
        let classes = v.frequency_classes();
        // One keyword: it lands in the rare bucket by the max(1) guard.
        assert_eq!(classes.len(), 1);
    }
}
