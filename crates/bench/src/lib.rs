//! # ickp-bench — the evaluation harness
//!
//! Shared measurement machinery for regenerating every table and figure of
//! the paper's evaluation:
//!
//! * [`table1`] — the program-analysis-engine experiment (paper Table 1);
//! * [`synthrun`] — the synthetic benchmark runner behind Figures 7–11
//!   and Table 2;
//! * [`timing`] — medians, speedups, and formatting;
//! * [`history`] — recorded checkpoint histories, the set-up the `repro`
//!   gates and the durable-store benches share;
//! * [`harness`] — a dependency-free bench runner (Criterion stand-in).
//!
//! The `repro` binary (`cargo run -p ickp-bench --release --bin repro --
//! all`) prints the paper-shaped tables; the benches under `benches/`
//! track representative cells of each experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod history;
pub mod synthrun;
pub mod table1;
pub mod timing;

pub use harness::{BenchGroup, BenchResult};
pub use history::{record_history, History};
pub use synthrun::{Measurement, SynthRunner, Variant};
pub use table1::{run_table1, PhaseRun, Strategy, Table1};
