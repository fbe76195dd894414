//! # ickp-backend — execution engines for the paper's JVM axis
//!
//! The paper evaluates every checkpointing configuration under three Java
//! execution engines: the JDK 1.2 JIT, HotSpot, and the Harissa
//! ahead-of-time Java→C compiler (Figures 11a/b, Table 2). A Rust
//! reproduction has no JVMs, so this crate rebuilds the *property the
//! engines differ by* — how much dispatch and checking overhead survives
//! into steady-state execution — as three real, measured dispatch
//! strategies. See [`Engine`] for the mapping.
//!
//! [`GenericBackend`] runs unspecialized incremental checkpointing under
//! an engine; [`SpecializedBackend`] runs a compiled plan under an
//! engine; [`ParallelBackend`] runs the parallel sharded engine from
//! `ickp-core` as a fourth implementation point (varying the execution
//! *schedule* rather than the dispatch mechanism). All emit standard
//! `CheckpointRecord`s, so every combination feeds the same store/restore
//! path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod generic;
mod parallel;
mod specialized;
mod threaded;

pub use engine::Engine;
pub use generic::GenericBackend;
pub use parallel::ParallelBackend;
pub use specialized::SpecializedBackend;
pub use threaded::{Ctx, ThreadedPlan};
