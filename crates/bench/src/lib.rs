//! # psh-bench — the experiment harness
//!
//! Shared infrastructure for the table-generator binaries (`src/bin/`)
//! that regenerate every table and figure of the paper, and for
//! `benchsuite`, the serving-benchmark matrix. The workspace README lists
//! the experiment index; each binary prints its own table, and every
//! binary accepts `--json PATH` to also emit a machine-readable
//! [`json::Report`] (rows + n/m/params metadata + wall-clock + thread
//! count) for longitudinal tracking.

pub mod alloc;
pub mod json;
pub mod serving;
pub mod stats;
pub mod table;
pub mod workloads;

pub use json::Report;
pub use stats::Summary;
pub use table::Table;
