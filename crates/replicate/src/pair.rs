//! The primary/follower pair: group-commit replication with
//! acknowledged-prefix semantics.
//!
//! ## Protocol
//!
//! The primary is the single writer. Appended records stage in memory
//! until [`ReplicaPair::commit`] (or the configured batch size) turns
//! them into **one group commit**: the primary's durable store
//! acknowledges the whole batch with a single manifest swap, then the
//! batch's sealed frames, as the primary wrote them, ship to the
//! follower as one [`WireMessage::Batch`] and the primary waits for the
//! follower's acknowledgement before counting the records
//! client-acknowledged. The follower checks, resolves and validates each
//! frame and appends its bytes verbatim
//! ([`DurableStore::append_frames`]): the dedup encode, sealing and CRC
//! happen once per pair, on the primary. Control operations (tags,
//! retention rewrites) replicate the same way, each as one wire
//! operation.
//!
//! Every wire operation carries a monotone `op_seq`. The follower
//! applies op `n+1` only after op `n`, durably, then acknowledges its
//! applied high-water mark; anything at or below that mark is discarded
//! and re-acknowledged. The primary retransmits an unacknowledged
//! operation a bounded number of times and then reports
//! [`ReplicateError::NotReplicated`]. Together these mask frame loss,
//! duplication and reordering; a partition exhausts the retransmit
//! budget and surfaces as an error with both stores intact.
//!
//! ## The acknowledgement invariant
//!
//! A record counts acknowledged-to-client only once it is durable **on
//! both nodes**. The primary always commits locally first, so at every
//! instant `follower ⊆ primary` (as a record prefix) and the
//! client-acknowledged prefix is exactly the follower's durable state
//! with at most one in-flight batch of slack. Killing either node at
//! any operation and promoting the survivor therefore never loses an
//! acknowledged record — the property the crash matrix proves by
//! exhaustion over a [`PairTopology`](crate::PairTopology).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use std::ops::Range;

use ickp_core::{object_slices, CheckpointRecord, CheckpointStore, CoreError, RecordSink};
use ickp_durable::{DedupStats, DurableConfig, DurableError, DurableStore, Vfs};
use ickp_heap::ClassRegistry;

use crate::transport::{Transport, TransportError};
use crate::wire::{WireError, WireMessage};

/// Tuning for a replicated pair.
#[derive(Debug, Clone, Copy)]
pub struct ReplicateConfig {
    /// Configuration of both nodes' durable stores.
    pub durable: DurableConfig,
    /// Appends auto-commit when this many records are staged. `1`
    /// degenerates to per-record commits (the pre-group-commit
    /// behaviour); [`ReplicaPair::commit`] flushes early.
    pub batch_records: usize,
    /// How many times an unacknowledged wire operation is retransmitted
    /// before the primary gives up.
    pub max_retries: u32,
    /// Ship and store records with content-hash chunk deduplication.
    pub dedup: bool,
}

impl Default for ReplicateConfig {
    fn default() -> ReplicateConfig {
        ReplicateConfig {
            durable: DurableConfig::default(),
            batch_records: 4,
            max_retries: 3,
            dedup: false,
        }
    }
}

/// Replication failures.
#[derive(Debug)]
pub enum ReplicateError {
    /// The primary's durable store failed.
    Primary(DurableError),
    /// The follower's durable store failed while applying.
    Follower(DurableError),
    /// The transport reported a dead node.
    Transport(TransportError),
    /// The follower never acknowledged `op_seq` within the retransmit
    /// budget — the link is partitioned or the follower is unreachable.
    /// The operation *is* durable on the primary.
    NotReplicated {
        /// The unacknowledged wire operation.
        op_seq: u64,
        /// Sends attempted (1 original + retransmits).
        attempts: u32,
    },
    /// A frame failed integrity checks or could not be decoded.
    Wire(String),
    /// A shipped record failed stream validation on the follower.
    Core(CoreError),
}

impl std::fmt::Display for ReplicateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicateError::Primary(e) => write!(f, "primary store: {e}"),
            ReplicateError::Follower(e) => write!(f, "follower store: {e}"),
            ReplicateError::Transport(e) => write!(f, "transport: {e}"),
            ReplicateError::NotReplicated { op_seq, attempts } => {
                write!(f, "wire op {op_seq} unacknowledged after {attempts} attempts")
            }
            ReplicateError::Wire(what) => write!(f, "wire frame: {what}"),
            ReplicateError::Core(e) => write!(f, "payload decode: {e}"),
        }
    }
}

impl std::error::Error for ReplicateError {}

/// Replication traffic accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Group-commit batches shipped and acknowledged.
    pub batches_shipped: u64,
    /// Checkpoint records replicated inside those batches.
    pub records_replicated: u64,
    /// Control operations (tags, tag removals, rewrites) replicated.
    pub control_ops_shipped: u64,
    /// Retransmissions of unacknowledged frames.
    pub retransmits: u64,
    /// Bytes handed to the transport (both directions).
    pub wire_bytes: u64,
    /// Stale or duplicate frames the follower discarded (and
    /// re-acknowledged).
    pub duplicates_dropped: u64,
}

/// The hot standby: a durable store plus the replication high-water
/// mark.
#[derive(Debug)]
struct FollowerNode<F: Vfs> {
    store: DurableStore<F>,
    /// Highest wire `op_seq` durably applied. Ops arrive starting at 1,
    /// so 0 means "nothing yet".
    applied_ops: u64,
}

impl<F: Vfs> FollowerNode<F> {
    /// Applies one data frame if it is exactly the next operation;
    /// discards (counting it) if stale. Returns the new high-water mark
    /// to acknowledge. A gap (op from the future) is also discarded:
    /// re-acking the current mark makes the primary retransmit.
    fn apply(
        &mut self,
        msg: WireMessage<&[u8]>,
        registry: &ClassRegistry,
        stats: &mut ReplicationStats,
    ) -> Result<u64, ReplicateError> {
        let op_seq = msg.op_seq();
        if op_seq != self.applied_ops + 1 {
            stats.duplicates_dropped += 1;
            return Ok(self.applied_ops);
        }
        match msg {
            WireMessage::Batch { frames, .. } => {
                self.store.append_frames(&frames, registry).map_err(follower_error)?;
            }
            WireMessage::Tag { label, seq, .. } => {
                self.store.tag(&label, seq).map_err(ReplicateError::Follower)?;
            }
            WireMessage::RemoveTag { label, .. } => {
                self.store.remove_tag(&label).map_err(ReplicateError::Follower)?;
            }
            WireMessage::Rewrite { frames, tags, .. } => {
                self.store.rewrite_frames(&frames, &tags, registry).map_err(follower_error)?;
            }
            WireMessage::Ack { .. } => {
                return Err(ReplicateError::Wire("ack frame arrived at follower".into()))
            }
        }
        self.applied_ops = op_seq;
        Ok(self.applied_ops)
    }
}

/// A follower store's refusal, with a shipped stream that fails
/// validation reported as [`ReplicateError::Core`].
fn follower_error(e: DurableError) -> ReplicateError {
    match e {
        DurableError::Core(e) => ReplicateError::Core(e),
        e => ReplicateError::Follower(e),
    }
}

/// One dedup chunk layout per record, as the durable store takes them.
type ChunkLayouts = Vec<Vec<Range<usize>>>;

/// Chunk layouts for the primary's own records: object-record
/// boundaries when dedup is on, empty (store literally) when off.
fn layouts_for(
    records: &[CheckpointRecord],
    registry: &ClassRegistry,
    dedup: bool,
) -> Result<ChunkLayouts, ReplicateError> {
    if !dedup {
        return Ok(vec![Vec::new(); records.len()]);
    }
    records
        .iter()
        .map(|r| object_slices(r.bytes(), registry).map_err(ReplicateError::Core))
        .collect()
}

/// A primary and its hot standby, joined by a [`Transport`].
///
/// Generic over both nodes' filesystems and the transport so tests can
/// plug fault-injectable implementations of all three (see
/// [`harness`](crate::harness)); production pairs use real directories
/// and a real link.
#[derive(Debug)]
pub struct ReplicaPair<P: Vfs, F: Vfs, T: Transport> {
    primary: DurableStore<P>,
    follower: FollowerNode<F>,
    transport: T,
    registry: ClassRegistry,
    config: ReplicateConfig,
    staged: Vec<CheckpointRecord>,
    /// Next wire `op_seq` to assign (starts at 1).
    next_op: u64,
    /// Highest wire op the follower has acknowledged.
    acked_ops: u64,
    /// Records acknowledged to the client: durable on both nodes.
    acked_records: u64,
    stats: ReplicationStats,
}

impl<P: Vfs, F: Vfs, T: Transport> ReplicaPair<P, F, T> {
    /// Creates fresh stores on both nodes and joins them.
    ///
    /// # Errors
    ///
    /// [`ReplicateError::Primary`] / [`ReplicateError::Follower`] if
    /// either store cannot be initialized (e.g.
    /// [`DurableError::AlreadyExists`]).
    pub fn create(
        primary_fs: P,
        follower_fs: F,
        transport: T,
        config: ReplicateConfig,
        registry: &ClassRegistry,
    ) -> Result<ReplicaPair<P, F, T>, ReplicateError> {
        let primary =
            DurableStore::create(primary_fs, config.durable).map_err(ReplicateError::Primary)?;
        let follower =
            DurableStore::create(follower_fs, config.durable).map_err(ReplicateError::Follower)?;
        Ok(ReplicaPair {
            primary,
            follower: FollowerNode { store: follower, applied_ops: 0 },
            transport,
            registry: registry.clone(),
            config,
            staged: Vec::new(),
            next_op: 1,
            acked_ops: 0,
            acked_records: 0,
            stats: ReplicationStats::default(),
        })
    }

    /// Stages a record; commits automatically once
    /// [`ReplicateConfig::batch_records`] are staged.
    ///
    /// # Errors
    ///
    /// As [`ReplicaPair::commit`], if this append triggers one.
    pub fn append(&mut self, record: CheckpointRecord) -> Result<(), ReplicateError> {
        self.staged.push(record);
        if self.staged.len() >= self.config.batch_records.max(1) {
            self.commit()?;
        }
        Ok(())
    }

    /// Group-commits everything staged: one durable batch on the
    /// primary, one wire batch to the follower, acknowledged as a unit.
    /// No-op when nothing is staged.
    ///
    /// # Errors
    ///
    /// * [`ReplicateError::Primary`] — local commit failed; nothing was
    ///   acknowledged and nothing shipped.
    /// * [`ReplicateError::NotReplicated`] / transport errors — the
    ///   batch is durable on the primary but unconfirmed on the
    ///   follower, and stays un-acknowledged to the client.
    pub fn commit(&mut self) -> Result<(), ReplicateError> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let records = std::mem::take(&mut self.staged);
        let layouts = layouts_for(&records, &self.registry, self.config.dedup)?;
        let batch = self
            .primary
            .append_batch_deduped(&records, &layouts)
            .map_err(ReplicateError::Primary)?;
        let msg = WireMessage::Batch {
            op_seq: self.next_op,
            frames: batch.frames.iter().map(Vec::as_slice).collect(),
        };
        self.ship(msg)?;
        self.stats.batches_shipped += 1;
        self.stats.records_replicated += records.len() as u64;
        self.acked_records += records.len() as u64;
        Ok(())
    }

    /// Pins `label` to checkpoint `seq` on both nodes. Flushes staged
    /// records first so the tag's target is replicated before the tag.
    ///
    /// # Errors
    ///
    /// As [`ReplicaPair::commit`]; [`DurableError::UnknownSeq`] if no
    /// acknowledged record has sequence `seq`.
    pub fn tag(&mut self, label: &str, seq: u64) -> Result<(), ReplicateError> {
        self.commit()?;
        self.primary.tag(label, seq).map_err(ReplicateError::Primary)?;
        let msg = WireMessage::Tag { op_seq: self.next_op, label: label.to_string(), seq };
        self.ship(msg)?;
        self.stats.control_ops_shipped += 1;
        Ok(())
    }

    /// Removes the tag `label` on both nodes.
    ///
    /// # Errors
    ///
    /// As [`ReplicaPair::tag`]; [`DurableError::UnknownTag`] if absent.
    pub fn remove_tag(&mut self, label: &str) -> Result<(), ReplicateError> {
        self.commit()?;
        self.primary.remove_tag(label).map_err(ReplicateError::Primary)?;
        let msg = WireMessage::RemoveTag { op_seq: self.next_op, label: label.to_string() };
        self.ship(msg)?;
        self.stats.control_ops_shipped += 1;
        Ok(())
    }

    /// Atomically replaces both stores' contents — the replicated form
    /// of [`DurableStore::rewrite`], for retention merges and resets.
    /// Flushes staged records first (they may be merge inputs).
    ///
    /// # Errors
    ///
    /// As [`ReplicaPair::commit`] plus [`DurableStore::rewrite`]'s
    /// errors on either node.
    pub fn rewrite(
        &mut self,
        records: &[CheckpointRecord],
        tags: &[(String, u64)],
    ) -> Result<DedupStats, ReplicateError> {
        self.commit()?;
        let layouts = layouts_for(records, &self.registry, self.config.dedup)?;
        let batch =
            self.primary.rewrite(records, &layouts, tags).map_err(ReplicateError::Primary)?;
        let msg = WireMessage::Rewrite {
            op_seq: self.next_op,
            frames: batch.frames.iter().map(Vec::as_slice).collect(),
            tags: tags.to_vec(),
        };
        self.ship(msg)?;
        self.stats.control_ops_shipped += 1;
        Ok(batch.stats)
    }

    /// Ships one wire operation and blocks until the follower
    /// acknowledges it, retransmitting up to the configured budget. The
    /// message borrows its frames from the committed batch, so each send
    /// encodes the message straight from their bytes.
    fn ship(&mut self, msg: WireMessage<&[u8]>) -> Result<(), ReplicateError> {
        let op_seq = msg.op_seq();
        debug_assert_eq!(op_seq, self.next_op, "wire ops are assigned in order");
        self.next_op += 1;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let frame = msg.encode();
            self.stats.wire_bytes += frame.len() as u64;
            self.transport.send_to_follower(frame).map_err(ReplicateError::Transport)?;
            self.pump()?;
            if self.acked_ops >= op_seq {
                return Ok(());
            }
            if attempts > self.config.max_retries {
                return Err(ReplicateError::NotReplicated { op_seq, attempts });
            }
            self.stats.retransmits += 1;
        }
    }

    /// Drains the link both ways: the follower applies (or discards)
    /// pending data frames and acknowledges; the primary absorbs
    /// acknowledgements.
    fn pump(&mut self) -> Result<(), ReplicateError> {
        while let Some(bytes) = self.transport.recv_at_follower() {
            let msg = WireMessage::decode(&bytes).map_err(wire_error)?;
            let mark = self.follower.apply(msg, &self.registry, &mut self.stats)?;
            let ack = WireMessage::<&[u8]>::Ack { op_seq: mark }.encode();
            self.stats.wire_bytes += ack.len() as u64;
            self.transport.send_to_primary(ack).map_err(ReplicateError::Transport)?;
        }
        while let Some(bytes) = self.transport.recv_at_primary() {
            match WireMessage::decode(&bytes).map_err(wire_error)? {
                WireMessage::Ack { op_seq } => self.acked_ops = self.acked_ops.max(op_seq),
                other => {
                    return Err(ReplicateError::Wire(format!(
                        "unexpected frame at primary: op {}",
                        other.op_seq()
                    )))
                }
            }
        }
        Ok(())
    }

    /// Records acknowledged to the client — durable on **both** nodes.
    pub fn acked_records(&self) -> u64 {
        self.acked_records
    }

    /// The follower's replication high-water mark: the sequence number
    /// of the last checkpoint durably applied on the standby.
    pub fn replicated_watermark(&self) -> Option<u64> {
        self.follower.store.last_seq()
    }

    /// Traffic accounting so far.
    pub fn stats(&self) -> ReplicationStats {
        self.stats
    }

    /// The primary's store, for inspection.
    pub fn primary_store(&self) -> &DurableStore<P> {
        &self.primary
    }

    /// The follower's store, for inspection.
    pub fn follower_store(&self) -> &DurableStore<F> {
        &self.follower.store
    }

    /// Tears the pair down, returning both filesystems and the
    /// transport. Staged (uncommitted) records are dropped — exactly
    /// what a crash would do to them.
    pub fn into_parts(self) -> (P, F, T) {
        (self.primary.into_fs(), self.follower.store.into_fs(), self.transport)
    }
}

impl<P: Vfs, F: Vfs, T: Transport> RecordSink for ReplicaPair<P, F, T> {
    fn append_record(&mut self, record: CheckpointRecord) -> Result<(), CoreError> {
        self.append(record).map_err(storage)
    }

    fn append_records(&mut self, records: Vec<CheckpointRecord>) -> Result<(), CoreError> {
        self.staged.extend(records);
        self.commit().map_err(storage)
    }
}

fn wire_error(e: WireError) -> ReplicateError {
    ReplicateError::Wire(e.to_string())
}

fn storage(e: ReplicateError) -> CoreError {
    CoreError::Storage { what: e.to_string() }
}

/// Promotes a node's on-disk state to a standalone store: opens the
/// directory, recovering the durable record prefix exactly as a
/// restarted single-node store would. The recovered
/// [`CheckpointStore`] is what a restore after failover feeds on.
///
/// # Errors
///
/// As [`DurableStore::open`] — corruption beyond a torn tail is a hard
/// error, never silently dropped.
pub fn promote<F: Vfs>(
    fs: F,
    config: DurableConfig,
    registry: &ClassRegistry,
) -> Result<(DurableStore<F>, CheckpointStore), DurableError> {
    DurableStore::open(fs, config, registry)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::transport::{ChannelTransport, TransportFault, TransportPlan};
    use ickp_core::{CheckpointConfig, Checkpointer, MethodTable};
    use ickp_durable::{content_hash, crc32, MemFs};
    use ickp_heap::{FieldType, Heap, Value};

    fn three_records() -> (ClassRegistry, Vec<CheckpointRecord>) {
        let mut reg = ClassRegistry::new();
        let c = reg.define("C", None, &[("v", FieldType::Int)]).unwrap();
        let mut heap = Heap::new(reg);
        let o = heap.alloc(c).unwrap();
        let table = MethodTable::derive(heap.registry());
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
        let mut records = Vec::new();
        for v in 0..3 {
            heap.set_field(o, 0, Value::Int(v)).unwrap();
            records.push(ckp.checkpoint(&mut heap, &table, &[o]).unwrap());
        }
        (heap.registry().clone(), records)
    }

    #[test]
    fn batch_replicates_and_acks_as_a_unit() {
        let (registry, records) = three_records();
        let config = ReplicateConfig { batch_records: 3, ..ReplicateConfig::default() };
        let mut pair = ReplicaPair::create(
            MemFs::new(),
            MemFs::new(),
            ChannelTransport::new(TransportPlan::none()),
            config,
            &registry,
        )
        .unwrap();
        for r in &records[..2] {
            pair.append(r.clone()).unwrap();
            assert_eq!(pair.acked_records(), 0, "below batch size: nothing acked");
        }
        pair.append(records[2].clone()).unwrap(); // third append fills the batch
        assert_eq!(pair.acked_records(), 3);
        assert_eq!(pair.replicated_watermark(), Some(2));
        assert_eq!(pair.stats().batches_shipped, 1);
        assert_eq!(pair.primary_store().record_count(), 3);
        assert_eq!(pair.follower_store().record_count(), 3);
    }

    #[test]
    fn promoted_follower_is_byte_identical() {
        let (registry, records) = three_records();
        let mut pair = ReplicaPair::create(
            MemFs::new(),
            MemFs::new(),
            ChannelTransport::new(TransportPlan::none()),
            ReplicateConfig { batch_records: 2, ..ReplicateConfig::default() },
            &registry,
        )
        .unwrap();
        for r in &records {
            pair.append(r.clone()).unwrap();
        }
        pair.commit().unwrap();
        pair.tag("head", 2).unwrap();
        let (_, follower_fs, _) = pair.into_parts();
        let (store, recovered) = promote(follower_fs, DurableConfig::default(), &registry).unwrap();
        assert_eq!(recovered.len(), records.len());
        for (want, got) in records.iter().zip(recovered.records()) {
            assert_eq!(want.seq(), got.seq());
            assert_eq!(want.bytes(), got.bytes(), "replication must be byte-exact");
        }
        assert_eq!(store.tags(), &[("head".to_string(), 2)]);
    }

    #[test]
    fn lost_frame_is_masked_by_retransmission() {
        let (registry, records) = three_records();
        // Fault index 4 lands on wire traffic (store creation claims no
        // transport ops here: private counters), so drop whatever the
        // 5th send is and let retransmission recover.
        let mut pair = ReplicaPair::create(
            MemFs::new(),
            MemFs::new(),
            ChannelTransport::new(TransportPlan::fault_at(0, TransportFault::Loss)),
            ReplicateConfig { batch_records: 1, ..ReplicateConfig::default() },
            &registry,
        )
        .unwrap();
        for r in &records {
            pair.append(r.clone()).unwrap();
        }
        assert_eq!(pair.acked_records(), 3);
        assert_eq!(pair.stats().retransmits, 1);
        assert_eq!(pair.follower_store().record_count(), 3);
    }

    #[test]
    fn partition_reports_not_replicated_but_primary_is_durable() {
        let (registry, records) = three_records();
        let mut pair = ReplicaPair::create(
            MemFs::new(),
            MemFs::new(),
            ChannelTransport::new(TransportPlan::fault_at(2, TransportFault::Partition)),
            ReplicateConfig { batch_records: 1, max_retries: 2, ..ReplicateConfig::default() },
            &registry,
        )
        .unwrap();
        pair.append(records[0].clone()).unwrap(); // ops 0 (data) + 1 (ack)
        let err = pair.append(records[1].clone()).unwrap_err(); // op 2 partitions
        assert!(matches!(err, ReplicateError::NotReplicated { op_seq: 2, attempts: 3 }), "{err}");
        assert_eq!(pair.acked_records(), 1, "second record never acked");
        assert_eq!(pair.primary_store().record_count(), 2, "but primary committed it");
        assert_eq!(pair.follower_store().record_count(), 1);
    }

    /// A sealed ICKD frame around `parts`, with a valid CRC.
    fn seal(parts: &[u8]) -> Vec<u8> {
        let len = (parts.len() as u32).to_be_bytes();
        let mut covered = len.to_vec();
        covered.extend_from_slice(parts);
        let mut frame = len.to_vec();
        frame.extend_from_slice(&crc32(&covered).to_be_bytes());
        frame.extend_from_slice(parts);
        frame
    }

    /// A literal part: `tag | len | bytes` (glue `0x00`, chunk `0x02`).
    fn literal(tag: u8, bytes: &[u8]) -> Vec<u8> {
        let mut part = vec![tag];
        part.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
        part.extend_from_slice(bytes);
        part
    }

    /// A back-reference part: `0x01 | hash | len`.
    fn reference(hash: u64, len: u32) -> Vec<u8> {
        let mut part = vec![0x01];
        part.extend_from_slice(&hash.to_be_bytes());
        part.extend_from_slice(&len.to_be_bytes());
        part
    }

    /// Hands the follower one Batch op carrying `frames` and returns
    /// what applying it gave.
    fn deliver<P: Vfs, F: Vfs>(
        pair: &mut ReplicaPair<P, F, ChannelTransport>,
        op_seq: u64,
        frames: Vec<Vec<u8>>,
    ) -> Result<(), ReplicateError> {
        let message = WireMessage::Batch { op_seq, frames }.encode();
        assert!(WireMessage::decode(&message).is_ok(), "the wire message itself is intact");
        pair.transport.send_to_follower(message).unwrap();
        pair.pump()
    }

    #[test]
    fn follower_refuses_a_crc_valid_batch_with_an_invalid_bool_byte() {
        let mut reg = ClassRegistry::new();
        let c = reg.define("Flag", None, &[("b", FieldType::Bool)]).unwrap();
        let mut heap = Heap::new(reg);
        let o = heap.alloc(c).unwrap();
        heap.set_field(o, 0, Value::Bool(true)).unwrap();
        let table = MethodTable::derive(heap.registry());
        let record = Checkpointer::new(CheckpointConfig::incremental())
            .checkpoint(&mut heap, &table, &[o])
            .unwrap();
        let mut payload = record.bytes().to_vec();
        let bool_at = payload.len() - 6; // the field sits right before the 5-byte footer
        assert_eq!(payload[bool_at], 1);
        payload[bool_at] = 7;

        let mut pair = ReplicaPair::create(
            MemFs::new(),
            MemFs::new(),
            ChannelTransport::new(TransportPlan::none()),
            ReplicateConfig::default(),
            heap.registry(),
        )
        .unwrap();
        // The frame itself is intact (CRC and parts): only the stream
        // inside is invalid.
        let err = deliver(&mut pair, 1, vec![seal(&literal(0x00, &payload))]).unwrap_err();
        assert!(
            matches!(
                &err,
                ReplicateError::Core(CoreError::Decode { what, .. })
                    if what == "invalid boolean byte 7"
            ),
            "{err}"
        );
        assert_eq!(pair.follower_store().record_count(), 0, "nothing appended");
    }

    /// Two different 96-byte strings with the same FNV-1a 64 hash
    /// (0x41a2ee524ef53197), found by chaining 4-byte blocks that agree
    /// in the hash state's low 32 bits and solving for the high half.
    const COLLIDING: [&str; 2] = [
        "a0d4b622c4c0add82071bb026ae92d1cee248f840811eeebaf085be6a5e50cde4c4e1c3a9bf2bf12\
         a82289a0050babe3655de24ec9844743385e792438a84085559b926646e2a53b67a9076bdef3fdb8\
         e8fd0038e0cfd1682ff3731338ce9db2",
        "a0d4b6222fd9c1b82071bb026ae92d1cd2ba11940811eeeb4795e4c64035058e4c4e1c3a48d62452\
         a82289a0e0d792b3655de24ec9844743385e792494415b55f0577bb6bf4e1c1bcf44ac4bb5b51498\
         e8fd003898d838082ff373139c39a4e2",
    ];

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
    }

    /// Sealed frames whose parts cannot be resolved are refused with a
    /// typed error before any byte is written: the follower keeps its
    /// records, its chunk index (a chunk the frame added before the bad
    /// part is rolled back) and its files, and the good op retransmitted
    /// after them applies and leaves both nodes byte-identical.
    #[test]
    fn follower_refuses_sealed_frames_with_hostile_parts() {
        let (registry, records) = three_records();
        let config =
            ReplicateConfig { batch_records: 1, dedup: true, ..ReplicateConfig::default() };
        let mut pair = ReplicaPair::create(
            MemFs::new(),
            MemFs::new(),
            ChannelTransport::new(TransportPlan::none()),
            config,
            &registry,
        )
        .unwrap();
        pair.append(records[0].clone()).unwrap();
        let follower = pair.follower_store();
        let chunks = (follower.chunk_count(), follower.chunk_digest());
        assert!(chunks.0 > 0);

        let [a, b] = COLLIDING.map(unhex);
        assert_ne!(a, b);
        assert_eq!(content_hash(&a), content_hash(&b));
        let fresh = b"a chunk no frame has indexed yet".as_slice();
        let mut truncated = literal(0x00, b"too short for its length");
        truncated.truncate(12);
        let hostile: Vec<(&str, Vec<u8>, &str)> = vec![
            (
                "unknown reference",
                seal(&[literal(0x02, fresh), reference(42, 16)].concat()),
                "reference to unknown chunk 0x000000000000002a",
            ),
            (
                "reference length",
                seal(&[literal(0x02, fresh), reference(content_hash(fresh), 31)].concat()),
                "reference length 31 does not match indexed chunk (32)",
            ),
            (
                "colliding chunk",
                seal(&[literal(0x02, &a), literal(0x02, &b)].concat()),
                "indexed chunk collides with an earlier chunk",
            ),
            (
                "empty chunk",
                seal(&[literal(0x02, fresh), literal(0x02, b"")].concat()),
                "indexed chunk is empty",
            ),
            (
                "truncated part",
                seal(&[literal(0x02, fresh), truncated].concat()),
                "frame part overruns the payload",
            ),
            (
                "frame checksum",
                {
                    let mut frame = seal(&literal(0x02, fresh));
                    frame[4] ^= 1;
                    frame
                },
                "frame checksum mismatch",
            ),
            (
                "trailing bytes",
                [seal(&literal(0x00, records[1].bytes())), vec![0]].concat(),
                "bytes after the end of the frame",
            ),
        ];
        for (case, frame, want) in hostile {
            let err = deliver(&mut pair, 2, vec![frame]).unwrap_err();
            assert!(
                matches!(
                    &err,
                    ReplicateError::Follower(DurableError::Corrupt { file, what, .. })
                        if file == "shipped frame 0" && what == want
                ),
                "{case}: {err}"
            );
            let follower = pair.follower_store();
            assert_eq!(follower.record_count(), 1, "{case}: nothing appended");
            assert_eq!(
                (follower.chunk_count(), follower.chunk_digest()),
                chunks,
                "{case}: pending chunks rolled back"
            );
        }

        // The primary's retransmission of op 2 applies.
        pair.append(records[1].clone()).unwrap();
        assert_eq!(pair.acked_records(), 2);
        let (primary_fs, follower_fs, _) = pair.into_parts();
        assert_eq!(follower_fs.list().unwrap(), primary_fs.list().unwrap());
        for name in primary_fs.list().unwrap() {
            assert_eq!(follower_fs.read(&name).unwrap(), primary_fs.read(&name).unwrap(), "{name}");
        }
        // The MANIFEST's chunk summary is checked against the rebuilt
        // index: a digest the failed applies had left changed fails here.
        let (_, recovered) = promote(follower_fs, DurableConfig::default(), &registry).unwrap();
        assert_eq!(recovered.len(), 2);
    }

    #[test]
    fn duplicate_frame_is_applied_once() {
        let (registry, records) = three_records();
        let mut pair = ReplicaPair::create(
            MemFs::new(),
            MemFs::new(),
            ChannelTransport::new(TransportPlan::fault_at(0, TransportFault::Duplicate)),
            ReplicateConfig { batch_records: 1, ..ReplicateConfig::default() },
            &registry,
        )
        .unwrap();
        for r in &records {
            pair.append(r.clone()).unwrap();
        }
        assert_eq!(pair.follower_store().record_count(), 3, "no double apply");
        assert_eq!(pair.stats().duplicates_dropped, 1);
    }
}
