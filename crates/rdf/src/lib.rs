//! Weighted RDF substrate (paper §2.1).
//!
//! The S3 model encodes *everything* — social links, document structure,
//! tags, semantics — as one weighted RDF graph: triples `(s, p, o, w)` where
//! `(s, p, o)` is a regular RDF triple and `w ∈ [0,1]` its weight (triples
//! with unspecified weight have weight 1).
//!
//! This crate provides:
//!
//! * [`Dictionary`]: URI/literal interning to dense ids ([`UriId`]);
//! * [`TripleStore`]: the weighted triple store, with the lookup indexes the
//!   saturation engine and the query-time code need;
//! * [`saturate`]: RDF entailment — the paper's `⊢iRDF` immediate-entailment
//!   rules for the four RDFS constraints of Figure 2 (subclass, subproperty,
//!   domain, range), applied to weight-1 triples only and iterated to the
//!   unique fixpoint (§2.1 "Saturation");
//! * [`extension`]: `Ext(k)` of Definition 2.1 — a keyword together with
//!   everything the schema declares to be an instance (`type`), a
//!   specialization (`≺sc`) or a sub-property (`≺sp`) of it;
//! * [`vocabulary`]: the built-in RDF/RDFS/S3 namespace.
//!
//! # Example
//!
//! ```
//! use s3_rdf::{TripleStore, Term, vocabulary as voc};
//!
//! let mut store = TripleStore::new();
//! let ms = store.dictionary_mut().intern("ex:MSDegree");
//! let degree = store.dictionary_mut().intern("ex:Degree");
//! store.insert(ms, voc::RDFS_SUBCLASS_OF, Term::Uri(degree), 1.0);
//!
//! let alice_deg = store.dictionary_mut().intern("ex:aliceDegree");
//! store.insert(alice_deg, voc::RDF_TYPE, Term::Uri(ms), 1.0);
//!
//! store.saturate();
//! // RDF entailment: alice's degree is also typed by the superclass.
//! assert!(store.contains(alice_deg, voc::RDF_TYPE, Term::Uri(degree)));
//! // And Ext("Degree") contains the M.S. specialization (Definition 2.1).
//! assert!(store.extension(degree).contains(&ms));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod dict;
pub mod extension;
pub mod pattern;
pub mod saturate;
pub mod store;
pub mod triple;
pub mod vocabulary;

pub use dict::{Dictionary, UriId};
pub use extension::ExtensionIndex;
pub use pattern::{Pattern, Rule, TermOrVar, TriplePattern, UriOrVar, Var};
pub use store::TripleStore;
pub use triple::{Term, Triple, WeightedTriple};
