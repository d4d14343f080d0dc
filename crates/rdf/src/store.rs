//! The weighted triple store.
//!
//! A straightforward in-memory store with the three access paths the rest of
//! the system needs: by subject+property, by property+object, and by
//! property. Duplicate `(s,p,o)` insertions keep the **maximum** weight
//! (weights encode certainty/strength; re-asserting a fact can only
//! strengthen it, and in particular a weight-1 assertion dominates).

use crate::dict::{Dictionary, UriId};
use crate::triple::{Term, Triple, WeightedTriple};
use s3_snap::{Codec, SnapError, SnapReader};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// In-memory weighted triple store with a private [`Dictionary`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TripleStore {
    dict: Dictionary,
    triples: Vec<WeightedTriple>,
    by_triple: HashMap<Triple, u32>,
    by_sp: HashMap<(UriId, UriId), Vec<u32>>,
    by_po: HashMap<(UriId, Term), Vec<u32>>,
    by_p: HashMap<UriId, Vec<u32>>,
    saturated: bool,
}

impl TripleStore {
    /// Empty store (dictionary holds the built-in vocabulary).
    pub fn new() -> Self {
        TripleStore {
            dict: Dictionary::new(),
            triples: Vec::new(),
            by_triple: HashMap::new(),
            by_sp: HashMap::new(),
            by_po: HashMap::new(),
            by_p: HashMap::new(),
            saturated: false,
        }
    }

    /// The dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// Mutable dictionary access (interning).
    pub fn dictionary_mut(&mut self) -> &mut Dictionary {
        &mut self.dict
    }

    /// Insert `(s, p, o, w)`. Returns true when the triple is new (not a
    /// weight update). Inserting invalidates the saturation flag.
    pub fn insert(&mut self, s: UriId, p: UriId, o: Term, weight: f64) -> bool {
        let triple = Triple::new(s, p, o);
        if let Some(&i) = self.by_triple.get(&triple) {
            let stored = &mut self.triples[i as usize];
            if weight > stored.weight {
                stored.weight = weight;
                self.saturated = false;
            }
            return false;
        }
        let idx = self.triples.len() as u32;
        self.triples.push(WeightedTriple::new(triple, weight));
        self.by_triple.insert(triple, idx);
        self.by_sp.entry((s, p)).or_default().push(idx);
        self.by_po.entry((p, o)).or_default().push(idx);
        self.by_p.entry(p).or_default().push(idx);
        self.saturated = false;
        true
    }

    /// Convenience: intern the three strings and insert with weight 1.
    pub fn insert_str(&mut self, s: &str, p: &str, o: &str) -> bool {
        let s = self.dict.intern(s);
        let p = self.dict.intern(p);
        let o = Term::Uri(self.dict.intern(o));
        self.insert(s, p, o, 1.0)
    }

    /// Does the store contain `(s, p, o)` (at any weight)?
    pub fn contains(&self, s: UriId, p: UriId, o: Term) -> bool {
        self.by_triple.contains_key(&Triple::new(s, p, o))
    }

    /// The weight of `(s, p, o)`, if present.
    pub fn weight(&self, s: UriId, p: UriId, o: Term) -> Option<f64> {
        self.by_triple.get(&Triple::new(s, p, o)).map(|&i| self.triples[i as usize].weight)
    }

    /// All `(o, w)` for a given subject and property.
    pub fn objects(&self, s: UriId, p: UriId) -> impl Iterator<Item = (Term, f64)> + '_ {
        self.by_sp.get(&(s, p)).into_iter().flatten().map(move |&i| {
            let t = &self.triples[i as usize];
            (t.triple.o, t.weight)
        })
    }

    /// All `(s, w)` for a given property and object.
    pub fn subjects(&self, p: UriId, o: Term) -> impl Iterator<Item = (UriId, f64)> + '_ {
        self.by_po.get(&(p, o)).into_iter().flatten().map(move |&i| {
            let t = &self.triples[i as usize];
            (t.triple.s, t.weight)
        })
    }

    /// All triples with property `p`.
    pub fn with_property(&self, p: UriId) -> impl Iterator<Item = &WeightedTriple> + '_ {
        self.by_p.get(&p).into_iter().flatten().map(move |&i| &self.triples[i as usize])
    }

    /// All triples.
    pub fn iter(&self) -> impl Iterator<Item = &WeightedTriple> + '_ {
        self.triples.iter()
    }

    /// Number of stored triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True when no triple is stored.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Has [`Self::saturate`] run since the last mutation?
    pub fn is_saturated(&self) -> bool {
        self.saturated
    }

    /// Saturate the store under the RDFS entailment rules (§2.1); see
    /// [`crate::saturate`]. Returns the number of derived triples.
    pub fn saturate(&mut self) -> usize {
        let added = crate::saturate::saturate(self);
        self.saturated = true;
        added
    }

    /// `Ext(k)` over this (ideally saturated) store; see [`crate::extension`].
    pub fn extension(&self, k: UriId) -> Vec<UriId> {
        crate::extension::extension(self, k)
    }
}

/// The snapshot format: dictionary, triples in insertion order, and the
/// saturation flag. The four access-path indexes are rebuilt on decode by
/// replaying the insertion order, so the encoding is independent of
/// hash-map iteration order.
impl Codec for TripleStore {
    const MIN_BYTES: usize = 3;

    fn encode(&self, out: &mut Vec<u8>) {
        self.dict.encode(out);
        self.triples.encode(out);
        self.saturated.encode(out);
    }

    /// Ids are validated against the dictionary and weights against
    /// `[0,1]`; never panics on malformed input.
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let dict = Dictionary::decode(r)?;
        let uris = dict.len() as u32;
        let n = r.seq(WeightedTriple::MIN_BYTES)?;
        let mut store = TripleStore {
            dict,
            triples: Vec::with_capacity(n),
            by_triple: HashMap::with_capacity(n),
            by_sp: HashMap::new(),
            by_po: HashMap::new(),
            by_p: HashMap::new(),
            saturated: false,
        };
        for idx in 0..n {
            let t = WeightedTriple::decode(r)?;
            let Triple { s, p, o } = t.triple;
            if s.0 >= uris || p.0 >= uris || o.id().0 >= uris {
                return Err(SnapError::Value("triple id outside the dictionary"));
            }
            if !(0.0..=1.0).contains(&t.weight) {
                return Err(SnapError::Value("triple weight outside [0,1]"));
            }
            if store.by_triple.insert(t.triple, idx as u32).is_some() {
                return Err(SnapError::Value("duplicate triple"));
            }
            store.triples.push(t);
            store.by_sp.entry((s, p)).or_default().push(idx as u32);
            store.by_po.entry((p, o)).or_default().push(idx as u32);
            store.by_p.entry(p).or_default().push(idx as u32);
        }
        store.saturated = r.bool()?;
        Ok(store)
    }
}

impl Default for TripleStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocabulary as voc;

    fn ids(store: &mut TripleStore, names: &[&str]) -> Vec<UriId> {
        names.iter().map(|n| store.dictionary_mut().intern(n)).collect()
    }

    #[test]
    fn insert_and_lookup() {
        let mut st = TripleStore::new();
        let v = ids(&mut st, &["u1", "u0"]);
        assert!(st.insert(v[0], voc::S3_SOCIAL, Term::Uri(v[1]), 0.5));
        assert!(!st.insert(v[0], voc::S3_SOCIAL, Term::Uri(v[1]), 0.3)); // lower: kept at 0.5
        assert_eq!(st.weight(v[0], voc::S3_SOCIAL, Term::Uri(v[1])), Some(0.5));
        assert!(st.contains(v[0], voc::S3_SOCIAL, Term::Uri(v[1])));
        assert!(!st.contains(v[1], voc::S3_SOCIAL, Term::Uri(v[0])));
        assert_eq!(st.len(), 1);
    }

    #[test]
    fn duplicate_keeps_max_weight() {
        let mut st = TripleStore::new();
        let v = ids(&mut st, &["a", "b"]);
        st.insert(v[0], voc::S3_SOCIAL, Term::Uri(v[1]), 0.2);
        st.insert(v[0], voc::S3_SOCIAL, Term::Uri(v[1]), 0.9);
        assert_eq!(st.weight(v[0], voc::S3_SOCIAL, Term::Uri(v[1])), Some(0.9));
        assert_eq!(st.len(), 1);
    }

    #[test]
    fn index_consistency() {
        let mut st = TripleStore::new();
        let v = ids(&mut st, &["a", "b", "c"]);
        st.insert(v[0], voc::S3_SOCIAL, Term::Uri(v[1]), 1.0);
        st.insert(v[0], voc::S3_SOCIAL, Term::Uri(v[2]), 1.0);
        st.insert(v[1], voc::S3_SOCIAL, Term::Uri(v[2]), 1.0);
        assert_eq!(st.objects(v[0], voc::S3_SOCIAL).count(), 2);
        assert_eq!(st.subjects(voc::S3_SOCIAL, Term::Uri(v[2])).count(), 2);
        assert_eq!(st.with_property(voc::S3_SOCIAL).count(), 3);
        assert_eq!(st.with_property(voc::S3_PART_OF).count(), 0);
    }

    #[test]
    fn literals_and_uris_are_distinct_objects() {
        let mut st = TripleStore::new();
        let v = ids(&mut st, &["a", "x"]);
        st.insert(v[0], voc::S3_CONTAINS, Term::Literal(v[1]), 1.0);
        assert!(st.contains(v[0], voc::S3_CONTAINS, Term::Literal(v[1])));
        assert!(!st.contains(v[0], voc::S3_CONTAINS, Term::Uri(v[1])));
    }

    #[test]
    fn mutation_clears_saturated_flag() {
        let mut st = TripleStore::new();
        st.saturate();
        assert!(st.is_saturated());
        let v = ids(&mut st, &["a", "b"]);
        st.insert(v[0], voc::RDF_TYPE, Term::Uri(v[1]), 1.0);
        assert!(!st.is_saturated());
    }
}
