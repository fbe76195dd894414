//! # ickp-durable — crash-safe stable storage for checkpoints
//!
//! The paper's recovery story assumes checkpoints reach *stable
//! storage*; this crate makes that assumption hold on a real filesystem,
//! and proves it. It has three layers:
//!
//! * **[`DurableStore`]** — a segmented, append-only on-disk checkpoint
//!   store: CRC-framed records in numbered segment files, a
//!   CRC-protected manifest naming the committed frontier, atomic
//!   manifest swaps (write-temp + fsync + rename + directory fsync), and
//!   recovery that truncates torn tails while hard-erroring on real
//!   corruption. See [`store`] for the format and protocol.
//! * **[`Vfs`]** — the filesystem seam. [`StdFs`] is a real directory;
//!   [`MemFs`] is a deterministic in-memory filesystem with an explicit
//!   durable/volatile split, and [`FailFs`] wraps it with
//!   index-addressed fault injection ([`FaultPlan`]): crash or fail any
//!   single mutating I/O operation.
//! * **[`crash_matrix`]** — the harness that replays a workload with a
//!   simulated crash at *every* I/O operation of a [`Topology`] (a lone
//!   store, or `ickp-replicate`'s replica pair) and checks that recovery
//!   yields the acknowledged prefix, byte-identical and restorable.
//!
//! The store implements [`RecordSink`](ickp_core::RecordSink), so any
//! checkpoint producer can stream records straight to disk.
//!
//! ## Example
//!
//! ```
//! use ickp_core::{CheckpointConfig, Checkpointer, MethodTable};
//! use ickp_durable::{DurableConfig, DurableStore, MemFs};
//! use ickp_heap::{ClassRegistry, FieldType, Heap, Value};
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
//! let mut store = DurableStore::create(&mut fs, DurableConfig::default())?;
//! store.append(&ckp.checkpoint(&mut heap, &table, &[o])?)?;
//! heap.set_field(o, 0, Value::Int(7))?;
//! store.append(&ckp.checkpoint(&mut heap, &table, &[o])?)?;
//! drop(store);
//!
//! // A later process recovers both checkpoints from the same directory.
//! let (reopened, recovered) =
//!     DurableStore::open(&mut fs, DurableConfig::default(), heap.registry())?;
//! assert_eq!(recovered.len(), 2);
//! assert_eq!(reopened.last_seq(), Some(1));
//! # Ok(()) }
//! ```

#![deny(unsafe_code)]
#![deny(missing_docs)]

mod crc;
pub mod dedup;
mod error;
mod fail;
mod harness;
pub mod store;
pub mod trace;
mod vfs;

pub use crc::crc32;
pub use dedup::{content_hash, DedupStats};
pub use error::DurableError;
pub use fail::{FailFs, FaultPlan, OpCounter};
pub use harness::{
    crash_matrix, redirty_record, Acks, DriveResult, Expect, MatrixError, MatrixOptions,
    MatrixReport, NodeDisk, Run, Scenario, StoreTopology, Topology, Verdict,
};
pub use store::{
    segment_name, DurableConfig, DurableStore, IoStats, SealedBatch, FORMAT_VERSION, MANIFEST,
};
pub use trace::{
    crash_classes, CrashClass, OpTrace, TraceEvent, TraceLog, TraceNode, TraceOp, TraceVfs,
};
pub use vfs::{FsError, MemFs, StdFs, Vfs};
