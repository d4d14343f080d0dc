//! Benchmark-harness library: workload runners, quartile statistics,
//! qualitative-comparison metrics (Figure 8) and table rendering.
//!
//! The `repro` binary (see `src/bin/repro.rs`) drives these to regenerate
//! every figure and table of the paper's evaluation section; the benches
//! under `benches/` print the same tables and write the same reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod metrics;
pub mod report;
pub mod runner;
pub mod table;

pub use metrics::{compare_runs, QualitativeMeasures};
pub use report::JsonReport;
pub use runner::{run_s3k_workload, run_topks_workload, RuntimeSummary, WorkloadTimes};
pub use table::Table;
