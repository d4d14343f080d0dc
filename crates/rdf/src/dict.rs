//! URI dictionary: interning of URIs (and literal spellings) to dense ids.
//!
//! The paper assumes a set `U` of URIs and a disjoint set `L` of literals
//! (§2, "URIs and literals"). We intern both kinds of strings into one
//! dictionary and keep the distinction in [`crate::Term`]; dictionary ids
//! are dense `u32`s so downstream structures can use plain vectors.

use s3_snap::{codec, Codec, SnapError, SnapReader};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Dense identifier of an interned URI (or literal spelling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct UriId(pub u32);

codec!(struct UriId { 0 });

impl UriId {
    /// The id as a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for UriId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "uri{}", self.0)
    }
}

/// Bidirectional URI ↔ id mapping. The built-in RDF/RDFS/S3 vocabulary
/// (see [`crate::vocabulary`]) occupies the first ids of every dictionary,
/// so the vocabulary constants are valid in any store.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dictionary {
    by_text: HashMap<String, UriId>,
    texts: Vec<String>,
}

impl Dictionary {
    /// A dictionary pre-populated with the built-in vocabulary.
    pub fn new() -> Self {
        let mut dict = Dictionary { by_text: HashMap::new(), texts: Vec::new() };
        for uri in crate::vocabulary::BUILTIN_URIS {
            dict.intern(uri);
        }
        dict
    }

    /// Intern a URI, returning its stable id.
    pub fn intern(&mut self, text: &str) -> UriId {
        if let Some(&id) = self.by_text.get(text) {
            return id;
        }
        let id = UriId(self.texts.len() as u32);
        self.by_text.insert(text.to_string(), id);
        self.texts.push(text.to_string());
        id
    }

    /// Look up an already-interned URI.
    pub fn get(&self, text: &str) -> Option<UriId> {
        self.by_text.get(text).copied()
    }

    /// The text of an id.
    pub fn text(&self, id: UriId) -> &str {
        &self.texts[id.index()]
    }

    /// Number of interned URIs (including the built-in vocabulary).
    pub fn len(&self) -> usize {
        self.texts.len()
    }

    /// Always false: the built-in vocabulary is present.
    pub fn is_empty(&self) -> bool {
        self.texts.is_empty()
    }

    /// Iterate over all `(id, text)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (UriId, &str)> + '_ {
        self.texts.iter().enumerate().map(|(i, t)| (UriId(i as u32), t.as_str()))
    }
}

/// The snapshot format: interned texts in id order (the text→id index is
/// rebuilt on decode).
impl Codec for Dictionary {
    const MIN_BYTES: usize = 1;

    fn encode(&self, out: &mut Vec<u8>) {
        self.texts.encode(out);
    }

    /// The built-in vocabulary prefix is verified so the vocabulary
    /// constants stay valid. Never panics on malformed input.
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.seq(1)?;
        if n < crate::vocabulary::BUILTIN_URIS.len() {
            return Err(SnapError::Value("dictionary misses the built-in vocabulary"));
        }
        let mut d = Dictionary { by_text: HashMap::with_capacity(n), texts: Vec::with_capacity(n) };
        for i in 0..n {
            let text = r.str()?;
            if let Some(&builtin) = crate::vocabulary::BUILTIN_URIS.get(i) {
                if text != builtin {
                    return Err(SnapError::Value("built-in vocabulary prefix mismatch"));
                }
            }
            if d.by_text.insert(text.to_owned(), UriId(i as u32)).is_some() {
                return Err(SnapError::Value("duplicate dictionary text"));
            }
            d.texts.push(text.to_owned());
        }
        Ok(d)
    }
}

impl Default for Dictionary {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocabulary as voc;

    #[test]
    fn builtin_vocabulary_has_fixed_ids() {
        let d = Dictionary::new();
        assert_eq!(d.get("rdf:type"), Some(voc::RDF_TYPE));
        assert_eq!(d.get("S3:social"), Some(voc::S3_SOCIAL));
        assert_eq!(d.text(voc::S3_PART_OF), "S3:partOf");
    }

    #[test]
    fn interning_is_stable_and_dense() {
        let mut d = Dictionary::new();
        let base = d.len() as u32;
        let a = d.intern("ex:a");
        let b = d.intern("ex:b");
        assert_eq!(a, UriId(base));
        assert_eq!(b, UriId(base + 1));
        assert_eq!(d.intern("ex:a"), a);
        assert_eq!(d.text(a), "ex:a");
    }

    #[test]
    fn two_dictionaries_agree_on_builtins() {
        let d1 = Dictionary::new();
        let d2 = Dictionary::new();
        for (id, text) in d1.iter().take(voc::BUILTIN_URIS.len()) {
            assert_eq!(d2.get(text), Some(id));
        }
    }
}
