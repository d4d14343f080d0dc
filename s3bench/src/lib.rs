//! `s3bench`: the repository's benchmark, the one `BENCHMARK.json` names.
//!
//! Four count-bounded workloads over two fixed corpora, end-to-end
//! metrics from an untraced run, per-layer metrics from a separate traced
//! run that wraps every call into a layer's public functions in a span.
//! The benchmark changes nothing outside its own directory: every layer
//! is measured from outside. See `README.md` for the tables.

#![warn(missing_docs)]
pub mod cli;
pub mod compare;
pub mod corpus;
pub mod host;
pub mod json;
pub mod load;
pub mod plan;
pub mod probes;
pub mod run;
pub mod stats;
pub mod streams;
pub mod trace;
pub mod workloads;
