//! # ickp — incremental checkpointing via program specialization
//!
//! Facade crate re-exporting the whole workspace. This is a from-scratch
//! Rust reproduction of *Lawall & Muller, "Efficient Incremental
//! Checkpointing of Java Programs" (DSN 2000)*: language-level incremental
//! checkpointing of object graphs, made fast by compiling generic
//! checkpointing code into specialized, straight-line *plans* based on
//! declared structure and modification patterns.
//!
//! Crate map:
//!
//! * [`heap`] — managed object heap (classes, typed fields, write barrier).
//! * [`core`] — generic full/incremental checkpointing, stream format,
//!   checkpoint store, restore.
//! * [`spec`] — the specializer: declarations → binding-time split →
//!   flat plans → executors; residual-code printer.
//! * [`minic`] — mini-C front end used as the realistic workload's input.
//! * [`analysis`] — the program-analysis engine (side-effect, binding-time,
//!   evaluation-time analyses) whose heap-backed results are checkpointed.
//! * [`audit`] — static soundness verifier for specialization declarations
//!   and compiled plans (`repro audit`).
//! * [`synth`] — the paper's synthetic benchmark generator.
//! * [`backend`] — execution backends emulating JVM dispatch regimes.
//! * [`durable`] — crash-safe segmented on-disk checkpoint store with a
//!   deterministic fault-injection VFS and crash-point enumeration harness.
//! * [`lifecycle`] — policy-driven checkpoint lifecycle: named restore
//!   points, binomial retention, content-hash dedup.
//! * [`replicate`] — hot-standby replication: group-commit batches
//!   shipped to a follower over a fault-injectable transport, proven by
//!   a two-node failover crash matrix.
//!
//! ## Quickstart
//!
//! ```
//! use ickp::heap::{ClassRegistry, FieldType, Heap, Value};
//! use ickp::core::{CheckpointConfig, Checkpointer, MethodTable};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut reg = ClassRegistry::new();
//! let node = reg.define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])?;
//! let mut heap = Heap::new(reg);
//! let head = heap.alloc(node)?;
//! heap.set_field(head, 0, Value::Int(42))?;
//!
//! let methods = MethodTable::derive(heap.registry());
//! let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
//! let record = ckp.checkpoint(&mut heap, &methods, &[head])?;
//! assert!(record.len_bytes() > 0);
//! # Ok(()) }
//! ```

pub use ickp_analysis as analysis;
pub use ickp_audit as audit;
pub use ickp_backend as backend;
pub use ickp_core as core;
pub use ickp_durable as durable;
pub use ickp_heap as heap;
pub use ickp_lifecycle as lifecycle;
pub use ickp_minic as minic;
pub use ickp_replicate as replicate;
pub use ickp_spec as spec;
pub use ickp_synth as synth;

/// Compiles and runs the README's Rust snippets as doctests, so its
/// examples cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
