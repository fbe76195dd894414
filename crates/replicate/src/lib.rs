//! # ickp-replicate — hot-standby replication of the durable store
//!
//! Checkpointing tolerates a crash of the *process*; surviving the loss
//! of a whole *node* needs the checkpoint log on a second machine. This
//! crate pairs two [`DurableStore`](ickp_durable::DurableStore)s into a
//! [`ReplicaPair`]: the primary group-commits batches of records
//! locally, ships every committed batch (and every tag or retention
//! rewrite) over a [`Transport`], and counts a record
//! *client-acknowledged* only once the follower has durably applied it.
//! Records travel as the sealed frames the primary's store wrote, which
//! the follower checks, validates and appends verbatim, so the standby's
//! log is byte-identical to the primary's, and [`promote`] turns its
//! directory into a standalone store with ordinary single-node recovery.
//!
//! The protocol is deliberately simple — monotone operation numbers,
//! idempotent application, bounded retransmission — and its failure
//! story is proven rather than argued: [`PairTopology`] drives the pair
//! through [`ickp_durable::crash_matrix`], numbering every mutating I/O
//! operation on both nodes *and* every wire send in one interleaved
//! fault space (sharing
//! [`OpCounter`](ickp_durable::OpCounter) between two
//! [`FailFs`](ickp_durable::FailFs) instances and the
//! [`ChannelTransport`]), then proves that killing either node at any
//! operation, or losing, duplicating, reordering or partitioning any
//! frame, never loses an acknowledged record and always leaves a
//! promotable survivor.
//!
//! ## Example
//!
//! ```
//! use ickp_core::{CheckpointConfig, Checkpointer, MethodTable};
//! use ickp_heap::{ClassRegistry, FieldType, Heap, Value};
//! use ickp_durable::MemFs;
//! use ickp_replicate::{
//!     promote, ChannelTransport, ReplicaPair, ReplicateConfig, TransportPlan,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut reg = ClassRegistry::new();
//! let c = reg.define("C", None, &[("v", FieldType::Int)])?;
//! let mut heap = Heap::new(reg);
//! let o = heap.alloc(c)?;
//! let table = MethodTable::derive(heap.registry());
//! let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
//!
//! let config = ReplicateConfig { batch_records: 2, ..ReplicateConfig::default() };
//! let mut pair = ReplicaPair::create(
//!     MemFs::new(),
//!     MemFs::new(),
//!     ChannelTransport::new(TransportPlan::none()),
//!     config,
//!     heap.registry(),
//! )?;
//! for v in 0..4 {
//!     heap.set_field(o, 0, Value::Int(v))?;
//!     pair.append(ckp.checkpoint(&mut heap, &table, &[o])?)?;
//! }
//! assert_eq!(pair.acked_records(), 4); // two group commits, both replicated
//!
//! // The primary is gone: promote the standby's directory.
//! let registry = heap.registry().clone();
//! let (_, follower_fs, _) = pair.into_parts();
//! let (promoted, recovered) = promote(follower_fs, config.durable, &registry)?;
//! assert_eq!(recovered.len(), 4);
//! assert_eq!(promoted.last_seq(), Some(3));
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod harness;
mod pair;
mod transport;
pub mod wire;

pub use harness::{MatrixPair, PairFaults, PairTopology};
pub use pair::{promote, ReplicaPair, ReplicateConfig, ReplicateError, ReplicationStats};
pub use transport::{
    ChannelTransport, Node, Transport, TransportError, TransportFault, TransportPlan,
};
pub use wire::{WireError, WireMessage, WIRE_MAGIC, WIRE_VERSION};
