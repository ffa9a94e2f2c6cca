//! # snacknoc-bench
//!
//! The experiment harness of the SnackNoC reproduction: one binary per
//! table/figure of the paper and the `snack-*` drivers (see `src/bin/`),
//! and the shared drivers in this library.
//!
//! Every binary prints the rows/series the corresponding paper artifact
//! reports, next to the paper's published values where applicable, and is
//! indexed in `DESIGN.md` §4. `EXPERIMENTS.md` records a captured run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod chaos;
pub mod csv;
pub mod experiments;
pub mod harness;
pub mod perf;
pub mod service;
pub mod sweep;
pub mod table;
pub mod tracing;

pub use experiments::{
    kernel_to_cpu, run_snack_kernel, FIG9_SEED, SNACK_FREQ_GHZ, SnackKernelRun,
};
