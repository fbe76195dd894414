//! The two-node failover crash matrix, plus one pinned test per fault
//! class (loss, reorder, duplicate, partition, primary kill mid-batch)
//! and an engine-to-wire end-to-end check.
//!
//! The matrix is the single-store crash matrix over a
//! [`PairTopology`]: one shared [`OpCounter`] numbers the primary's
//! I/O, the follower's I/O and every wire send, and `crash_matrix`
//! sweeps a fault at every index. The pinned tests freeze one
//! representative scenario per fault class so a regression names the
//! class directly instead of an opaque index.

use std::collections::BTreeMap;

use ickp_backend::ParallelBackend;
use ickp_core::{
    verify_restore, CheckpointConfig, CheckpointRecord, Checkpointer, MethodTable, RecordSink,
    RestoredHeap,
};
use ickp_durable::{
    crash_classes, crash_matrix, Acks, DriveResult, DurableConfig, FailFs, FaultPlan,
    MatrixOptions, MatrixReport, MemFs, OpCounter, TraceEvent,
};
use ickp_heap::{ClassRegistry, FieldType, Heap, ObjectId, Value};
use ickp_replicate::{
    promote, ChannelTransport, MatrixPair, PairTopology, ReplicaPair, ReplicateConfig,
    ReplicateError, TransportFault, TransportPlan,
};

type Snapshot = (Heap, Vec<ObjectId>);

/// A linked-list workload with a per-checkpoint heap snapshot, sized so
/// batches span segment rolls.
fn workload(n: usize) -> (ClassRegistry, Vec<Snapshot>, Vec<ickp_core::CheckpointRecord>) {
    let mut reg = ClassRegistry::new();
    let node = reg
        .define(
            "Node",
            None,
            &[("v", FieldType::Int), ("next", FieldType::Ref(None)), ("pad", FieldType::Long)],
        )
        .unwrap();
    let mut heap = Heap::new(reg);
    let nodes: Vec<_> = (0..4).map(|_| heap.alloc(node).unwrap()).collect();
    for w in nodes.windows(2) {
        heap.set_field(w[0], 1, Value::Ref(Some(w[1]))).unwrap();
    }
    let table = MethodTable::derive(heap.registry());
    let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
    let registry = heap.registry().clone();
    let mut states = Vec::new();
    let mut records = Vec::new();
    for i in 0..n {
        heap.set_field(nodes[i % 4], 0, Value::Int(i as i32)).unwrap();
        heap.set_field(nodes[i % 4], 2, Value::Long(i as i64 * 7)).unwrap();
        records.push(ckp.checkpoint(&mut heap, &table, &[nodes[0]]).unwrap());
        states.push((heap.clone(), vec![nodes[0]]));
    }
    (registry, states, records)
}

fn config() -> ReplicateConfig {
    ReplicateConfig {
        durable: DurableConfig { segment_target_bytes: 128 },
        batch_records: 3,
        max_retries: 3,
        dedup: true,
    }
}

/// Appends every record, then commits the partial final batch.
fn append_all(
    records: &[CheckpointRecord],
) -> impl FnMut(&mut MatrixPair<'_>, &mut Acks) -> DriveResult + '_ {
    move |pair, acks| {
        for record in records {
            pair.append(record.clone())?;
            acks.ack(pair.acked_records());
        }
        pair.commit()?;
        acks.ack(pair.acked_records());
        Ok(())
    }
}

/// The failover matrix of the 7-record workload (7 % 3 != 0: a partial
/// final batch).
fn failover_matrix(options: MatrixOptions) -> MatrixReport {
    let (registry, states, records) = workload(7);
    let verify = |n: usize, restored: &RestoredHeap| {
        let (heap, roots) = &states[n - 1];
        verify_restore(heap, roots, restored).expect("verify runs")
    };
    crash_matrix(
        &PairTopology { config: config() },
        &registry,
        &records,
        options,
        append_all(&records),
        verify,
    )
    .unwrap()
}

/// The acceptance gate: every interleaved fs/transport fault index
/// passes, for a batched, deduplicating pair crossing segment rolls.
#[test]
fn every_failover_point_recovers_the_acknowledged_prefix() {
    let report = failover_matrix(MatrixOptions::default());
    assert_eq!(report.records, 7);
    assert_eq!(report.verdicts.len() as u64, report.total_ops);
    // 3 batches + acks at minimum; retransmit-free baseline.
    assert!(report.transport_ops >= 6, "got {} wire ops", report.transport_ops);
    assert_eq!(report.masked_faults, report.transport_ops * 3);
    assert_eq!(report.clean_failures, report.transport_ops);
    // Acked counts are monotone in the kill index and start at zero.
    let acked = report.acked();
    assert_eq!(acked.first(), Some(&0));
    assert!(acked.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(*acked.last().unwrap(), report.records as u64 - 1);
    assert!(report.promoted_extra > 0, "the ack-in-flight window must be exercised");
}

/// The pair's pruned ≡ full proof: replaying every kill point gives each
/// one exactly the verdict (acked count, dead node, records on each
/// rebooted disk) the pruned sweep lets it inherit, and no crash class
/// mixes operations owned by different nodes.
#[test]
fn pruned_pair_matrix_matches_the_full_matrix() {
    let full = failover_matrix(MatrixOptions { full: true });
    let pruned = failover_matrix(MatrixOptions::default());
    assert_eq!(pruned.verdicts, full.verdicts, "pruned verdicts must equal the full matrix");
    assert_eq!(pruned.trace, full.trace);
    assert_eq!(full.replays as u64, full.total_ops);
    assert!(
        pruned.replays < full.replays,
        "pruning must collapse something: {} replays over {} ops",
        pruned.replays,
        full.total_ops
    );
    assert_eq!(pruned.promoted_extra, full.promoted_extra);
    assert_eq!(
        (pruned.masked_faults, pruned.clean_failures),
        (full.masked_faults, full.clean_failures)
    );

    let owner: BTreeMap<u64, _> = full
        .trace
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Op { index, node, .. } => Some((*index, *node)),
            TraceEvent::ClientAck { .. } => None,
        })
        .collect();
    let classes = crash_classes(&full.trace);
    assert_eq!(classes.len(), full.classes);
    for class in &classes {
        let node = owner[&class.representative];
        assert!(
            class.indices.iter().all(|k| owner[k] == node),
            "class at op {} mixes ops owned by different nodes",
            class.representative
        );
    }
}

/// Builds a pair over caller-owned filesystems so the test can inspect
/// the disks afterwards.
fn pair_over<'a>(
    pfs: &'a mut FailFs,
    ffs: &'a mut FailFs,
    link: &'a mut ChannelTransport,
    cfg: ReplicateConfig,
    registry: &ClassRegistry,
) -> ReplicaPair<&'a mut FailFs, &'a mut FailFs, &'a mut ChannelTransport> {
    ReplicaPair::create(pfs, ffs, link, cfg, registry).expect("create must not fault here")
}

/// Pinned: a lost data frame is masked by retransmission, end to end.
#[test]
fn pinned_loss_is_masked_by_retransmission() {
    let (registry, states, records) = workload(3);
    let cfg = ReplicateConfig { batch_records: 3, ..config() };
    // Locate the first wire send with a fault-free baseline.
    let first_send = {
        let counter = OpCounter::new();
        let mut pfs = FailFs::with_counter(MemFs::new(), FaultPlan::none(), counter.clone());
        let mut ffs = FailFs::with_counter(MemFs::new(), FaultPlan::none(), counter.clone());
        let mut link = ChannelTransport::with_counter(TransportPlan::none(), counter.clone());
        let mut pair = pair_over(&mut pfs, &mut ffs, &mut link, cfg, &registry);
        for r in &records {
            pair.append(r.clone()).unwrap();
        }
        drop(pair);
        link.op_log()[0]
    };

    let counter = OpCounter::new();
    let mut pfs = FailFs::with_counter(MemFs::new(), FaultPlan::none(), counter.clone());
    let mut ffs = FailFs::with_counter(MemFs::new(), FaultPlan::none(), counter.clone());
    let mut link = ChannelTransport::with_counter(
        TransportPlan::fault_at(first_send, TransportFault::Loss),
        counter.clone(),
    );
    let mut pair = pair_over(&mut pfs, &mut ffs, &mut link, cfg, &registry);
    for r in &records {
        pair.append(r.clone()).unwrap();
    }
    assert_eq!(pair.acked_records(), 3, "loss must be invisible to the client");
    assert!(pair.stats().retransmits >= 1, "the loss must actually have been masked");
    assert_eq!(pair.replicated_watermark(), Some(2));
    drop(pair);

    let mut disk = ffs.into_recovered();
    let (_, recovered) = promote(&mut disk, cfg.durable, &registry).unwrap();
    assert_eq!(recovered.len(), 3);
    let restored =
        ickp_core::restore(&recovered, &registry, ickp_core::RestorePolicy::Lenient).unwrap();
    let (heap, roots) = &states[2];
    assert_eq!(verify_restore(heap, roots, &restored).unwrap(), None);
}

/// Pinned: a duplicated data frame is applied exactly once.
#[test]
fn pinned_duplicate_applies_once() {
    let (registry, _, records) = workload(3);
    let cfg = ReplicateConfig { batch_records: 1, ..config() };
    let mut link = ChannelTransport::new(TransportPlan::fault_at(0, TransportFault::Duplicate));
    let mut pair =
        ReplicaPair::create(MemFs::new(), MemFs::new(), &mut link, cfg, &registry).unwrap();
    for r in &records {
        pair.append(r.clone()).unwrap();
    }
    assert_eq!(pair.acked_records(), 3);
    assert_eq!(pair.stats().duplicates_dropped, 1, "second copy discarded, not applied");
    assert_eq!(pair.follower_store().record_count(), 3);
    assert_eq!(pair.primary_store().record_count(), 3);
}

/// Pinned: a reordered frame cannot be applied out of order — the
/// follower's op-sequence discipline holds it to sequential application
/// (with the synchronous pump, reordering degenerates to a front-push
/// on an empty queue, and a future op would be dropped and re-acked).
#[test]
fn pinned_reorder_preserves_application_order() {
    let (registry, _, records) = workload(4);
    let cfg = ReplicateConfig { batch_records: 1, ..config() };
    // Reorder every wire send the run makes.
    let mut plan = TransportPlan::none();
    for t in 0..64 {
        plan = plan.with(t, TransportFault::Reorder);
    }
    let mut link = ChannelTransport::new(plan);
    let mut pair =
        ReplicaPair::create(MemFs::new(), MemFs::new(), &mut link, cfg, &registry).unwrap();
    for r in &records {
        pair.append(r.clone()).unwrap();
    }
    assert_eq!(pair.acked_records(), 4);
    let follower_seqs: Vec<u64> = pair.follower_store().seqs().to_vec();
    assert_eq!(follower_seqs, vec![0, 1, 2, 3], "application stayed sequential");
}

/// Pinned: a partition surfaces as `NotReplicated` after the retransmit
/// budget, kills nobody, and the follower (the promotable quorum side)
/// still holds every client-acknowledged record.
#[test]
fn pinned_partition_fails_cleanly_and_follower_promotes() {
    let (registry, states, records) = workload(6);
    let cfg = ReplicateConfig { batch_records: 3, max_retries: 2, ..config() };
    let counter = OpCounter::new();
    let mut pfs = FailFs::with_counter(MemFs::new(), FaultPlan::none(), counter.clone());
    let mut ffs = FailFs::with_counter(MemFs::new(), FaultPlan::none(), counter.clone());
    // Find the second data send (the second batch's frame) and partition there.
    let second_send = {
        let mut link = ChannelTransport::with_counter(TransportPlan::none(), counter.clone());
        let mut pair = pair_over(&mut pfs, &mut ffs, &mut link, cfg, &registry);
        for r in &records {
            pair.append(r.clone()).unwrap();
        }
        drop(pair);
        link.op_log()[2] // sends: batch1, ack1, batch2, ...
    };

    let counter = OpCounter::new();
    let mut pfs = FailFs::with_counter(MemFs::new(), FaultPlan::none(), counter.clone());
    let mut ffs = FailFs::with_counter(MemFs::new(), FaultPlan::none(), counter.clone());
    let mut link = ChannelTransport::with_counter(
        TransportPlan::fault_at(second_send, TransportFault::Partition),
        counter.clone(),
    );
    let mut pair = pair_over(&mut pfs, &mut ffs, &mut link, cfg, &registry);
    let mut acked_before_failure = 0;
    let mut failure = None;
    for r in &records {
        match pair.append(r.clone()) {
            Ok(()) => acked_before_failure = pair.acked_records(),
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    let err = failure.expect("the partition must surface");
    assert!(
        matches!(err, ReplicateError::NotReplicated { attempts: 3, .. }),
        "unexpected error: {err}"
    );
    assert_eq!(acked_before_failure, 3, "first batch was acknowledged before the partition");
    drop(pair);
    assert!(!pfs.crashed() && !ffs.crashed(), "a partition kills nobody");

    // Promote the follower: it must hold at least the acknowledged
    // prefix, byte-for-byte, and restore cleanly.
    let mut disk = ffs.into_recovered();
    let (store, recovered) = promote(&mut disk, cfg.durable, &registry).unwrap();
    assert!(recovered.len() as u64 >= acked_before_failure);
    for (want, got) in records.iter().zip(recovered.records()) {
        assert_eq!(want.bytes(), got.bytes(), "seq {}", got.seq());
    }
    assert_eq!(store.last_seq(), Some(recovered.len() as u64 - 1));
    let restored =
        ickp_core::restore(&recovered, &registry, ickp_core::RestorePolicy::Lenient).unwrap();
    let (heap, roots) = &states[recovered.len() - 1];
    assert_eq!(verify_restore(heap, roots, &restored).unwrap(), None);
}

/// Pinned: killing the primary mid-batch (between the first and second
/// frame write of a group commit) leaves the un-acknowledged batch
/// entirely absent after recovery — never a torn prefix of it — and the
/// follower promotes at the acknowledged prefix.
#[test]
fn pinned_primary_kill_mid_batch_loses_the_whole_batch() {
    let (registry, states, records) = workload(6);
    let cfg = ReplicateConfig { batch_records: 3, ..config() };
    // Baseline: ops consumed by creating both stores and committing the
    // first batch (appends + syncs + manifest swap + wire round trip).
    let (after_create, after_first_batch) = {
        let counter = OpCounter::new();
        let mut pfs = FailFs::with_counter(MemFs::new(), FaultPlan::none(), counter.clone());
        let mut ffs = FailFs::with_counter(MemFs::new(), FaultPlan::none(), counter.clone());
        let mut link = ChannelTransport::with_counter(TransportPlan::none(), counter.clone());
        let mut pair = pair_over(&mut pfs, &mut ffs, &mut link, cfg, &registry);
        let after_create = counter.count();
        for r in &records[..3] {
            pair.append(r.clone()).unwrap();
        }
        (after_create, counter.count())
    };
    // The second batch's second frame write: one op past the first
    // append of the batch starting at `after_first_batch`.
    let kill_at = after_first_batch + 1;
    assert!(kill_at > after_create);

    let counter = OpCounter::new();
    let mut pfs = FailFs::with_counter(MemFs::new(), FaultPlan::crash_at(kill_at), counter.clone());
    let mut ffs = FailFs::with_counter(MemFs::new(), FaultPlan::none(), counter.clone());
    let mut link = ChannelTransport::with_counter(TransportPlan::none(), counter.clone());
    let mut pair = pair_over(&mut pfs, &mut ffs, &mut link, cfg, &registry);
    let mut failure = None;
    for r in &records {
        if let Err(e) = pair.append(r.clone()) {
            failure = Some(e);
            break;
        }
    }
    let err = failure.expect("the kill must surface");
    assert!(matches!(err, ReplicateError::Primary(_)), "unexpected error: {err}");
    let acked = pair.acked_records();
    assert_eq!(acked, 3, "only the first batch was acknowledged");
    drop(pair);
    assert!(pfs.crashed(), "the kill hit the primary's filesystem");
    assert!(!ffs.crashed());

    // The primary's disk recovers to exactly the acknowledged prefix:
    // the torn batch vanishes as a unit.
    let mut pdisk = pfs.into_recovered();
    let (_, precovered) = promote(&mut pdisk, cfg.durable, &registry).unwrap();
    assert_eq!(precovered.len(), 3, "no frame of the torn batch may survive");
    for (want, got) in records.iter().zip(precovered.records()) {
        assert_eq!(want.bytes(), got.bytes());
    }

    // Promote the follower and finish the workload there.
    let mut fdisk = ffs.into_recovered();
    let (mut promoted, frecovered) = promote(&mut fdisk, cfg.durable, &registry).unwrap();
    assert_eq!(frecovered.len(), 3);
    promoted.append_batch(&records[3..]).unwrap();
    drop(promoted);
    let (_, full) = promote(&mut fdisk, cfg.durable, &registry).unwrap();
    assert_eq!(full.len(), 6);
    let restored = ickp_core::restore(&full, &registry, ickp_core::RestorePolicy::Lenient).unwrap();
    let (heap, roots) = &states[5];
    assert_eq!(verify_restore(heap, roots, &restored).unwrap(), None);
}

/// End to end: the parallel checkpoint engine streams through the
/// replicated sink, and the follower ends byte-identical to the
/// primary with the live heap restorable from either.
#[test]
fn parallel_engine_streams_through_the_replicated_sink() {
    let mut reg = ClassRegistry::new();
    let node =
        reg.define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))]).unwrap();
    let mut heap = Heap::new(reg);
    let mut roots = Vec::new();
    for i in 0..8 {
        let tail = heap.alloc(node).unwrap();
        let head = heap.alloc(node).unwrap();
        heap.set_field(head, 0, Value::Int(i)).unwrap();
        heap.set_field(head, 1, Value::Ref(Some(tail))).unwrap();
        roots.push(head);
    }
    let registry = heap.registry().clone();
    let mut backend = ParallelBackend::new(3, &registry);

    let cfg = ReplicateConfig { batch_records: 2, dedup: true, ..ReplicateConfig::default() };
    let mut pair = ReplicaPair::create(
        MemFs::new(),
        MemFs::new(),
        ChannelTransport::new(TransportPlan::none()),
        cfg,
        &registry,
    )
    .unwrap();
    for round in 0..6 {
        heap.set_field(roots[round % 8], 0, Value::Int(1000 + round as i32)).unwrap();
        backend.checkpoint_into(&mut heap, &roots, &mut pair).unwrap();
    }
    pair.commit().unwrap();
    assert_eq!(pair.acked_records(), 6);
    assert_eq!(pair.stats().batches_shipped, 3);

    let (mut pfs, mut ffs, _) = pair.into_parts();
    let (_, primary) = promote(&mut pfs, cfg.durable, &registry).unwrap();
    let (_, follower) = promote(&mut ffs, cfg.durable, &registry).unwrap();
    assert_eq!(primary.len(), 6);
    assert_eq!(follower.len(), 6);
    for (p, f) in primary.records().iter().zip(follower.records()) {
        assert_eq!(p.seq(), f.seq());
        assert_eq!(p.bytes(), f.bytes(), "replicated log must be byte-identical");
    }
    let restored =
        ickp_core::restore(&follower, &registry, ickp_core::RestorePolicy::Lenient).unwrap();
    assert_eq!(verify_restore(&heap, &roots, &restored).unwrap(), None);
}

/// The batched sink also honors `RecordSink::append_records`: one call,
/// one group commit, one wire batch.
#[test]
fn append_records_is_one_wire_batch() {
    let (registry, _, records) = workload(5);
    let cfg = ReplicateConfig { batch_records: 2, ..ReplicateConfig::default() };
    let mut pair = ReplicaPair::create(
        MemFs::new(),
        MemFs::new(),
        ChannelTransport::new(TransportPlan::none()),
        cfg,
        &registry,
    )
    .unwrap();
    let sink: &mut dyn RecordSink = &mut pair;
    sink.append_records(records.clone()).unwrap();
    assert_eq!(pair.acked_records(), 5);
    assert_eq!(pair.stats().batches_shipped, 1, "bulk append is a single group commit");
    assert_eq!(pair.follower_store().record_count(), 5);
}
