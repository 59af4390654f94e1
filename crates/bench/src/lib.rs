//! # oipa-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! paper's evaluation (§VI). One binary per artifact:
//!
//! | artifact | binary |
//! |---|---|
//! | Table III (dataset statistics + sample time) | `table3_stats` |
//! | Figure 3 (utility vs ε) | `fig3_epsilon` |
//! | Figure 4 (utility & time vs k) | `fig4_vary_k` |
//! | Figure 5 (utility & time vs ℓ) | `fig5_vary_l` |
//! | Figure 6 (utility vs β/α) | `fig6_beta_alpha` |
//!
//! Every binary accepts `--scale tiny|small|medium|full`, `--theta N`,
//! `--seed N` and `--csv` (machine-readable output). Method timings
//! exclude MRR sampling, matching the paper's methodology ("we exclude the
//! sampling time … since the time is the same for all compared
//! approaches"); sampling time itself is Table III's last row.
//!
//! Beyond the paper's artifacts, [`solver_suite`] (the `bench_solver`
//! bin) emits `BENCH_solver.json`: τ evaluations (the paper's §V-C cost
//! metric), nodes expanded and bounds computed for the incremental vs
//! reference engines, with and without tangent-anchor refinement. Those
//! counts are deterministic, and `bench_solver --check` requires them to
//! equal the checked-in file's exactly. Wire-level serving performance
//! is measured by `wirebench` (see `BENCHMARK.json`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod args;
pub mod runner;
pub mod solver_suite;
pub mod table;

pub use args::HarnessArgs;
pub use runner::{run_all_methods, ExperimentSetup, MethodOutcome};
pub use solver_suite::{run_solver_suite, SolverSuiteConfig, SolverSuiteReport};
pub use table::TablePrinter;
