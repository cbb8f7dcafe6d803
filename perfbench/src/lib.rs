//! `psh-perfbench` — the benchmark of the psh workspace.
//!
//! One binary (`perfbench`) runs one seeded workload against the public
//! APIs of the workspace crates, checks every answer, and prints one JSON
//! result line. With `--trace 0` it reports the end-to-end metrics; with
//! `--trace 1` it repeats the measurement with in-memory spans recorded
//! around every call into a layer and reports per-layer self time and
//! counts instead. `BENCHMARK.json` at the repository root names every
//! metric, its unit, and the workload it is measured on.

pub mod alloc;
pub mod check;
pub mod cpu;
pub mod load;
pub mod report;
pub mod stats;
pub mod trace;
pub mod traced_oracle;
pub mod workloads;
