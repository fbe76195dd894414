//! The sharded engine's walk against the sequential driver.
//!
//! `checkpoint_parallel` walks each shard with `ShardPlan::walk_shard`,
//! which reads child references straight from the object's fields instead
//! of dispatching the class's `fold`. These tests pin what that walk must
//! keep from the generic driver: the same bytes and counters on a layout
//! whose scalar slots sit between reference slots, the same visit order
//! shard by shard, the same errors where the driver's lookups fail, and
//! a checkpointer left exactly as it was when a checkpoint fails.

use ickp_core::{
    plan_shards, CheckpointConfig, CheckpointRecord, Checkpointer, CoreError, MethodTable,
    TraversalStats,
};
use ickp_heap::{reachable_from, ClassId, ClassRegistry, FieldType, Heap, ObjectId, Value};

/// A heap of `Mixed` objects whose `Int`/`Long`/`Double`/`Bool` slots sit
/// between four `Ref` slots, some of them null, with children shared
/// within a root, across roots and by every third root, plus two
/// duplicate roots. `stale` was derived before the class `Late` existed,
/// so it does not cover `Late` objects; `table` covers every class.
struct World {
    heap: Heap,
    table: MethodTable,
    stale: MethodTable,
    roots: Vec<ObjectId>,
    late: ClassId,
}

/// Slot of the always-null reference in a root `Mixed` object.
const NULL_SLOT: usize = 2;

fn mixed_world(structures: usize) -> World {
    let mut reg = ClassRegistry::new();
    let leaf = reg.define("Leaf", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))]);
    let leaf = leaf.unwrap();
    let mixed = reg
        .define(
            "Mixed",
            None,
            &[
                ("a", FieldType::Ref(None)),
                ("i", FieldType::Int),
                ("b", FieldType::Ref(None)),
                ("l", FieldType::Long),
                ("d", FieldType::Double),
                ("c", FieldType::Ref(None)),
                ("z", FieldType::Bool),
                ("e", FieldType::Ref(None)),
            ],
        )
        .unwrap();
    let stale = MethodTable::derive(&reg);
    let late = reg.define("Late", None, &[("v", FieldType::Int)]).unwrap();
    let table = MethodTable::derive(&reg);

    let mut heap = Heap::new(reg);
    let shared = heap.alloc_with(leaf, &[Value::Int(-1), Value::Ref(None)]).unwrap();
    let mut roots = Vec::new();
    let mut prev_inner = None;
    for i in 0..structures {
        let n = i as i32;
        let tail = heap.alloc_with(leaf, &[Value::Int(n * 10), Value::Ref(None)]).unwrap();
        let head = heap.alloc_with(leaf, &[Value::Int(n), Value::Ref(Some(tail))]).unwrap();
        // The inner object shares `tail` with `head` (sharing within a
        // root) and points at the previous structure's inner object
        // (sharing across roots, so across shards).
        let inner = heap
            .alloc_with(
                mixed,
                &[
                    Value::Ref(prev_inner),
                    Value::Int(-n),
                    Value::Ref(Some(tail)),
                    Value::Long(-(i as i64) << 40),
                    Value::Double(n as f64 / 3.0),
                    Value::Ref(None),
                    Value::Bool(i % 2 == 1),
                    Value::Ref(Some(shared)),
                ],
            )
            .unwrap();
        let root = heap
            .alloc_with(
                mixed,
                &[
                    Value::Ref(Some(head)),
                    Value::Int(n),
                    Value::Ref(None),
                    Value::Long(i as i64 * 1_000_000_007),
                    Value::Double(n as f64 * 0.5),
                    Value::Ref((i % 3 == 0).then_some(shared)),
                    Value::Bool(i % 2 == 0),
                    Value::Ref(Some(inner)),
                ],
            )
            .unwrap();
        prev_inner = Some(inner);
        roots.push(root);
    }
    roots.push(roots[0]);
    roots.push(roots[structures / 2]);
    World { heap, table, stale, roots, late }
}

/// A record's counters without `bytes_reused`: that is the capacity of
/// the recycled buffer, which depends on how each driver grew its stream
/// in earlier rounds, not on the walk.
fn walk_stats(record: &CheckpointRecord) -> TraversalStats {
    TraversalStats { bytes_reused: 0, ..record.stats() }
}

/// Every live object's modified flag, in slot order.
fn flags(heap: &Heap) -> Vec<(ObjectId, bool)> {
    heap.iter_live().map(|id| (id, heap.is_modified(id).unwrap())).collect()
}

/// Dirties two scalar slots: no structure change, so a cached plan stays.
fn dirty_scalars(heap: &mut Heap, roots: &[ObjectId], round: i32) {
    heap.set_field(roots[1], 3, Value::Long(7 + round as i64)).unwrap();
    heap.set_field(roots[4], 6, Value::Bool(round % 2 == 0)).unwrap();
}

#[test]
fn mixed_layouts_match_the_sequential_driver_shard_by_shard() {
    let configs = [CheckpointConfig::full(), CheckpointConfig::incremental().without_journal()];
    for config in configs {
        for workers in 1..=8 {
            let World { mut heap, table, roots, .. } = mixed_world(12);
            let mut seq_heap = heap.clone();
            let mut seq = Checkpointer::new(config);
            let mut par = Checkpointer::new(config);
            for round in 0..3 {
                let ctx = format!("{:?} workers={workers} round={round}", config.kind);
                let reference = seq.checkpoint(&mut seq_heap, &table, &roots).unwrap();
                let (record, trace) =
                    par.checkpoint_parallel_traced(&mut heap, &table, &roots, workers).unwrap();
                assert_eq!(record.bytes(), reference.bytes(), "{ctx}");
                assert_eq!(walk_stats(&record), walk_stats(&reference), "{ctx}");
                assert!(!trace.fast_path, "{ctx}");
                assert_eq!(par.parallel_phases().unwrap().plan_cached, round == 1, "{ctx}");

                let plan = plan_shards(&heap, &roots, workers).unwrap();
                assert_eq!(trace.shards.len(), plan.num_shards(), "{ctx}");
                let mut merged = Vec::new();
                for (shard, access) in trace.shards.iter().enumerate() {
                    let preorder = plan.shard_preorder(&heap, shard).unwrap();
                    assert_eq!(access.visited, preorder, "{ctx} shard {shard}");
                    merged.extend_from_slice(&access.visited);
                }
                assert_eq!(merged, reachable_from(&heap, &roots).unwrap(), "{ctx}");
                let per_shard: Vec<TraversalStats> = trace.shards.iter().map(|a| a.stats).collect();
                assert_eq!(par.shard_stats(), &per_shard[..], "{ctx}");

                // After round 0 only scalars change, so round 1 runs
                // on the cached plan; after round 1 a reference is
                // nulled and a null slot takes a shared child, so
                // round 2 plans afresh.
                for h in [&mut heap, &mut seq_heap] {
                    dirty_scalars(h, &roots, round);
                    if round == 1 {
                        h.set_field(roots[6], 0, Value::Ref(None)).unwrap();
                        let shared = h.field(roots[0], 5).unwrap();
                        h.set_field(roots[9], NULL_SLOT, shared).unwrap();
                    }
                }
            }
        }
    }
}

#[test]
fn sharded_and_sequential_drivers_fail_the_same_way() {
    let config = CheckpointConfig::incremental().without_journal();
    for workers in [1, 2, 4] {
        // Case 1: an unmodified object of a class the table does not cover.
        let mut w = mixed_world(8);
        let late = w.heap.alloc(w.late).unwrap();
        w.heap.set_field(w.roots[7], NULL_SLOT, Value::Ref(Some(late))).unwrap();
        let mut seq_heap = w.heap.clone();
        let mut seq = Checkpointer::new(config);
        let mut par = Checkpointer::new(config);
        seq.checkpoint(&mut seq_heap, &w.table, &w.roots).unwrap();
        par.checkpoint_parallel(&mut w.heap, &w.table, &w.roots, workers).unwrap();
        for h in [&mut w.heap, &mut seq_heap] {
            dirty_scalars(h, &w.roots, 0);
        }
        assert!(!w.heap.is_modified(late).unwrap());
        let before = flags(&w.heap);
        let expected = seq.checkpoint(&mut seq_heap, &w.stale, &w.roots).unwrap_err();
        assert_eq!(expected, CoreError::UnknownClassIndex(w.late.index() as u32));
        let got = par.checkpoint_parallel(&mut w.heap, &w.stale, &w.roots, workers).unwrap_err();
        assert_eq!(got, expected, "unknown class, workers={workers}");
        assert_eq!(flags(&w.heap), before, "unknown class, workers={workers}");

        // Case 2: a freed child.
        let mut w = mixed_world(8);
        let mut seq_heap = w.heap.clone();
        let mut seq = Checkpointer::new(config);
        let mut par = Checkpointer::new(config);
        seq.checkpoint(&mut seq_heap, &w.table, &w.roots).unwrap();
        par.checkpoint_parallel(&mut w.heap, &w.table, &w.roots, workers).unwrap();
        let Value::Ref(Some(head)) = w.heap.field(w.roots[5], 0).unwrap() else {
            panic!("every root has a head")
        };
        let Value::Ref(Some(tail)) = w.heap.field(head, 1).unwrap() else {
            panic!("every head has a tail")
        };
        for h in [&mut w.heap, &mut seq_heap] {
            dirty_scalars(h, &w.roots, 0);
            h.free(tail).unwrap();
        }
        let before = flags(&w.heap);
        let expected = seq.checkpoint(&mut seq_heap, &w.table, &w.roots).unwrap_err();
        assert_eq!(expected, CoreError::Heap(ickp_heap::HeapError::DanglingObject(tail)));
        let got = par.checkpoint_parallel(&mut w.heap, &w.table, &w.roots, workers).unwrap_err();
        assert_eq!(got, expected, "freed child, workers={workers}");
        assert_eq!(flags(&w.heap), before, "freed child, workers={workers}");
    }
}

#[test]
fn a_failed_sharded_checkpoint_leaves_the_checkpointer_as_it_was() {
    let config = CheckpointConfig::incremental().without_journal();
    let workers = 4;
    let mut w = mixed_world(8);
    // The uncovered object hangs under the last structure, so the shards
    // before it finish before the failing one does.
    let late = w.heap.alloc(w.late).unwrap();
    w.heap.set_field(w.roots[7], NULL_SLOT, Value::Ref(Some(late))).unwrap();
    let mut seq_heap = w.heap.clone();
    let mut seq = Checkpointer::new(config);
    let mut par = Checkpointer::new(config);
    let reference = seq.checkpoint(&mut seq_heap, &w.table, &w.roots).unwrap();
    let first = par.checkpoint_parallel(&mut w.heap, &w.table, &w.roots, workers).unwrap();
    assert_eq!(first.bytes(), reference.bytes());
    let shard_stats = par.shard_stats().to_vec();
    let phases = *par.parallel_phases().unwrap();
    assert!(shard_stats.len() > 1 && !phases.plan_cached);

    for h in [&mut w.heap, &mut seq_heap] {
        dirty_scalars(h, &w.roots, 0);
    }
    let before = flags(&w.heap);
    let err = par.checkpoint_parallel(&mut w.heap, &w.stale, &w.roots, workers).unwrap_err();
    assert_eq!(err, CoreError::UnknownClassIndex(w.late.index() as u32));
    assert_eq!(par.shard_stats(), &shard_stats[..], "a failure keeps the last shard stats");
    assert_eq!(par.parallel_phases(), Some(&phases), "a failure keeps the last phases");
    assert_eq!(par.next_seq(), 1);
    assert_eq!(flags(&w.heap), before);

    // Repaired (a table that covers every class): the plan is still the
    // cached one, and the checkpoint is the one the sequential driver
    // takes without ever having seen the failure.
    let reference = seq.checkpoint(&mut seq_heap, &w.table, &w.roots).unwrap();
    let record = par.checkpoint_parallel(&mut w.heap, &w.table, &w.roots, workers).unwrap();
    assert_eq!(record.bytes(), reference.bytes());
    assert_eq!(walk_stats(&record), walk_stats(&reference));
    let phases = *par.parallel_phases().unwrap();
    assert!(phases.plan_cached && !phases.fast_path);
    let plan = plan_shards(&w.heap, &w.roots, workers).unwrap();
    let shards = par.shard_stats();
    assert_eq!(shards.len(), plan.num_shards());
    let total = shards.iter().fold(TraversalStats::default(), |sum, s| sum + *s);
    assert_eq!(total.objects_visited, record.stats().objects_visited);
    assert_eq!(total.objects_recorded, record.stats().objects_recorded);
    assert_eq!(total.refs_followed, record.stats().refs_followed);
    assert_eq!(total.virtual_calls, record.stats().virtual_calls);
}
