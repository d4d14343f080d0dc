//! Triples and terms.
//!
//! Well-formed triples (paper §2.1) have a URI subject, a URI property and
//! an object from `K` = URIs ∪ stemmed literals; we model the object as a
//! [`Term`]. Weighted triples `(s, p, o, w)` carry `w ∈ [0,1]`; a weight of
//! 1 marks triples that "certainly hold" and are the only ones participating
//! in RDF entailment (§2.1, "Weighted RDF graph").

use crate::dict::UriId;
use serde::{Deserialize, Serialize};

/// Object position of a triple: a URI or a literal spelling.
///
/// Literal spellings are interned in the same [`crate::Dictionary`] as URIs
/// but are kept distinct at the type level, matching the paper's disjoint
/// `U` and `L`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Term {
    /// A resource.
    Uri(UriId),
    /// A (stemmed) literal.
    Literal(UriId),
}

s3_snap::codec!(enum Term { 0 => Uri(UriId), 1 => Literal(UriId) });

impl Term {
    /// The underlying dictionary id, whatever the kind.
    #[inline]
    pub fn id(self) -> UriId {
        match self {
            Term::Uri(u) | Term::Literal(u) => u,
        }
    }

    /// The URI, if this term is one.
    #[inline]
    pub fn as_uri(self) -> Option<UriId> {
        match self {
            Term::Uri(u) => Some(u),
            Term::Literal(_) => None,
        }
    }
}

/// An unweighted RDF triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Triple {
    /// Subject.
    pub s: UriId,
    /// Property.
    pub p: UriId,
    /// Object.
    pub o: Term,
}

s3_snap::codec!(struct Triple { s, p, o });

impl Triple {
    /// Construct a triple.
    pub fn new(s: UriId, p: UriId, o: Term) -> Self {
        Triple { s, p, o }
    }
}

/// A weighted RDF triple `(s, p, o, w)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WeightedTriple {
    /// The triple.
    pub triple: Triple,
    /// The weight, in `[0, 1]`; 1 means "certainly holds".
    pub weight: f64,
}

s3_snap::codec!(struct WeightedTriple { triple, weight });

impl WeightedTriple {
    /// Construct; panics (debug) if the weight is outside `[0,1]`.
    pub fn new(triple: Triple, weight: f64) -> Self {
        debug_assert!((0.0..=1.0).contains(&weight), "triple weight {weight} outside [0,1]");
        WeightedTriple { triple, weight }
    }

    /// Does this triple participate in entailment (weight exactly 1)?
    #[inline]
    pub fn is_certain(&self) -> bool {
        self.weight == 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_accessors() {
        let u = Term::Uri(UriId(3));
        let l = Term::Literal(UriId(3));
        assert_eq!(u.id(), l.id());
        assert_eq!(u.as_uri(), Some(UriId(3)));
        assert_eq!(l.as_uri(), None);
        assert_ne!(u, l);
    }

    #[test]
    fn certain_triples() {
        let t = Triple::new(UriId(0), UriId(1), Term::Uri(UriId(2)));
        assert!(WeightedTriple::new(t, 1.0).is_certain());
        assert!(!WeightedTriple::new(t, 0.5).is_certain());
    }
}
