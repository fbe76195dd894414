//! The crash matrix over the *parallel* path: `ParallelBackend`
//! streaming `checkpoint_into` a `DurableStore`, crashed at every
//! mutating I/O operation. Recovery must equal the acknowledged prefix
//! byte-for-byte and restore to the acknowledged program state — exactly
//! the invariant the sequential path already proves, now for the sharded
//! engine whose records are produced by concurrent workers.

use ickp_backend::ParallelBackend;
use ickp_core::{verify_restore, CheckpointRecord};
use ickp_durable::{
    crash_matrix, Acks, DriveResult, DurableConfig, DurableStore, FailFs, MatrixError,
    MatrixOptions, StoreTopology,
};
use ickp_heap::{ClassRegistry, FieldType, Heap, ObjectId, Value};

const ROUNDS: usize = 4;
const WORKERS: usize = 2;

/// Six two-node chains; deterministic by construction.
fn world() -> (Heap, Vec<ObjectId>) {
    let mut reg = ClassRegistry::new();
    let node =
        reg.define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))]).unwrap();
    let mut heap = Heap::new(reg);
    let mut roots = Vec::new();
    for i in 0..6 {
        let tail = heap.alloc(node).unwrap();
        let head = heap.alloc(node).unwrap();
        heap.set_field(head, 0, Value::Int(i)).unwrap();
        heap.set_field(head, 1, Value::Ref(Some(tail))).unwrap();
        roots.push(head);
    }
    (heap, roots)
}

/// Round `r` touches root `r` — each incremental checkpoint records a
/// different, predictable object.
fn mutate(heap: &mut Heap, roots: &[ObjectId], round: usize) {
    heap.set_field(roots[round % roots.len()], 0, Value::Int(100 + round as i32)).unwrap();
}

type HeapSnapshot = (Heap, Vec<ObjectId>);

/// The fault-free reference run: per-round records and heap snapshots.
fn expected_workload() -> (ClassRegistry, Vec<HeapSnapshot>, Vec<CheckpointRecord>) {
    let (mut heap, roots) = world();
    let registry = heap.registry().clone();
    let mut backend = ParallelBackend::new(WORKERS, heap.registry());
    let mut states = Vec::new();
    let mut records = Vec::new();
    for round in 0..ROUNDS {
        mutate(&mut heap, &roots, round);
        records.push(backend.checkpoint(&mut heap, &roots).unwrap());
        states.push((heap.clone(), roots.clone()));
    }
    (registry, states, records)
}

/// Streams `ROUNDS` parallel checkpoints into a store, mutating with
/// `schedule(round)`, acknowledging each after its commit.
fn drive(
    config: DurableConfig,
    schedule: fn(usize) -> usize,
) -> impl FnMut(&mut FailFs, &mut Acks) -> DriveResult {
    move |fs, acks| {
        let (mut heap, roots) = world();
        let mut backend = ParallelBackend::new(WORKERS, heap.registry());
        let mut store = DurableStore::create(fs, config)?;
        for round in 0..ROUNDS {
            mutate(&mut heap, &roots, schedule(round));
            backend.checkpoint_into(&mut heap, &roots, &mut store)?;
            acks.ack(round as u64 + 1);
        }
        Ok(())
    }
}

#[test]
fn every_crash_point_of_the_parallel_path_recovers_the_acked_prefix() {
    let (registry, states, records) = expected_workload();
    let store = StoreTopology { config: DurableConfig { segment_target_bytes: 64 } };
    let report = crash_matrix(
        &store,
        &registry,
        &records,
        MatrixOptions::default(),
        drive(store.config, |round| round),
        |acked, restored| {
            let (heap, roots) = &states[acked - 1];
            verify_restore(heap, roots, restored).expect("verify runs")
        },
    )
    .unwrap();

    assert_eq!(report.records, ROUNDS);
    assert!(report.total_ops > 0);
    let acked = report.acked();
    assert_eq!(acked.len(), report.total_ops as usize);
    assert_eq!(*acked.first().unwrap(), 0);
    assert_eq!(*acked.last().unwrap(), ROUNDS as u64 - 1);
    assert!(acked.windows(2).all(|w| w[0] <= w[1]));
}

/// A drive whose workload diverges from the expected records is caught
/// in the baseline, before any crash is injected.
#[test]
fn a_divergent_driver_is_rejected_at_baseline() {
    let (registry, _, records) = expected_workload();
    let store = StoreTopology::default();
    // Wrong mutation schedule: same record count, other bytes.
    let err = crash_matrix(
        &store,
        &registry,
        &records,
        MatrixOptions::default(),
        drive(store.config, |round| round + 1),
        |_, _| None,
    )
    .unwrap_err();
    assert!(
        matches!(err, MatrixError::Baseline(ref what) if what.contains("diverges")),
        "unexpected error: {err}"
    );
}
