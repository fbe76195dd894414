//! # ickp-lifecycle — policy-driven checkpoint lifecycle management
//!
//! The paper's incremental chains only pay off if something manages
//! them: decides which checkpoints to keep, which to fold together, and
//! which states an operator can roll back to. This crate is that layer,
//! a [`CheckpointManager`] over the crash-safe
//! [`DurableStore`](ickp_durable::DurableStore) composing three
//! features:
//!
//! * **Named restore points** — [`CheckpointManager::tag`] labels the
//!   current checkpoint; [`CheckpointManager::reset_to`] rolls the
//!   store back to it in one atomic manifest swap, with the same
//!   crash-matrix guarantee as an ordinary append.
//! * **Binomial retention** — [`RetentionPolicy`] keeps `O(log t)`
//!   restore points (tip, then checkpoints at distance `2^i`) under a
//!   configurable budget; [`CheckpointManager::maintain`] folds
//!   everything between them, last-writer-wins, without losing state.
//! * **Content-hash dedup** — object records that recur byte-identically
//!   across checkpoints are stored once (see [`ickp_durable::dedup`]);
//!   savings surface per checkpoint in
//!   [`TraversalStats::bytes_deduped`](ickp_core::TraversalStats).
//!
//! ## Example
//!
//! ```
//! use ickp_core::{CheckpointConfig, Checkpointer, MethodTable};
//! use ickp_durable::MemFs;
//! use ickp_heap::{ClassRegistry, FieldType, Heap, Value};
//! use ickp_lifecycle::{CheckpointManager, LifecycleConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut reg = ClassRegistry::new();
//! let c = reg.define("C", None, &[("v", FieldType::Int)])?;
//! let mut heap = Heap::new(reg);
//! let o = heap.alloc(c)?;
//! let table = MethodTable::derive(heap.registry());
//! let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
//!
//! let mut fs = MemFs::new();
//! let mut mgr =
//!     CheckpointManager::create(&mut fs, LifecycleConfig::recommended(), heap.registry())?;
//! mgr.append(&ckp.checkpoint(&mut heap, &table, &[o])?)?;
//! mgr.tag("before-change")?;
//! heap.set_field(o, 0, Value::Int(42))?;
//! mgr.append(&ckp.checkpoint(&mut heap, &table, &[o])?)?;
//!
//! // Roll everything — store, tags, sequence numbers — back.
//! let restored = mgr.reset_to("before-change")?;
//! ckp.rollback(mgr.next_seq());
//! assert_eq!(restored.len(), 1);
//! # Ok(()) }
//! ```
//!
//! The operator-facing guide lives in `docs/LIFECYCLE.md`; the on-disk
//! format (manifest v2) in `docs/FORMAT.md`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod manager;
mod retention;

pub use manager::{CheckpointManager, LifecycleConfig, LifecycleStats, RetentionReport};
pub use retention::{RetentionPlan, RetentionPolicy};
