//! The write barrier checked end to end by restoring what was emitted:
//! every backend checkpoint is appended to a `CheckpointStore`, the store
//! is restored, and the rebuilt heap is compared with the live one
//! (`verify_restore`). Sound barrier discipline restores exactly across
//! full, incremental, and journal fast-path rounds on both backends; a
//! write smuggled past the barrier shows up as the exact object diff on
//! the checkpoint whose stream it corrupted, and an object that was never
//! recorded makes the restore fail with `CoreError::MissingObject`.

use ickp_backend::{Engine, GenericBackend, ParallelBackend};
use ickp_core::{
    restore, verify_restore, CheckpointRecord, CheckpointStore, CoreError, RestorePolicy,
};
use ickp_heap::{ClassRegistry, FieldType, Heap, ObjectId, StableId, Value};

fn world() -> (Heap, Vec<ObjectId>) {
    let mut reg = ClassRegistry::new();
    let node =
        reg.define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))]).unwrap();
    let mut heap = Heap::new(reg);
    let mut roots = Vec::new();
    for i in 0..10 {
        let tail = heap.alloc(node).unwrap();
        let head = heap.alloc(node).unwrap();
        heap.set_field(head, 0, Value::Int(i)).unwrap();
        heap.set_field(head, 1, Value::Ref(Some(tail))).unwrap();
        roots.push(head);
    }
    (heap, roots)
}

/// Appends `record` to `store`, restores the whole store and compares it
/// with the live heap: `Ok(None)` when the restore is exact.
///
/// `Lenient`, because a backend's first record is an all-dirty
/// *incremental* (every object of a fresh heap is still flagged), which
/// `RequireFullBase` would refuse with `BaseNotFull` before comparing
/// anything.
fn record_and_check(
    store: &mut CheckpointStore,
    record: CheckpointRecord,
    live: &Heap,
    roots: &[ObjectId],
) -> Result<Option<String>, CoreError> {
    store.push(record)?;
    verify_restore(live, roots, &restore(store, live.registry(), RestorePolicy::Lenient)?)
}

#[test]
fn sound_barriers_restore_exactly_across_rounds_and_paths() {
    for engine in Engine::ALL {
        let (mut heap, roots) = world();
        let mut backend = GenericBackend::new(engine, heap.registry());
        let mut store = CheckpointStore::new();

        // Full round: slow path builds the traversal cache.
        let record = backend.checkpoint(&mut heap, &roots).unwrap();
        assert_eq!(record.stats().journal_hits, 0, "{engine}: first round is the slow path");
        assert_eq!(record_and_check(&mut store, record, &heap, &roots).unwrap(), None);

        // Steady-state rounds ride the journal fast path — the path a
        // broken barrier would corrupt, and the one under scrutiny.
        for round in 0..4 {
            heap.set_field(roots[round], 0, Value::Int(-(round as i32) - 1)).unwrap();
            let record = backend.checkpoint(&mut heap, &roots).unwrap();
            assert_eq!(record.stats().journal_hits, 1, "{engine} round {round}");
            let diff = record_and_check(&mut store, record, &heap, &roots).unwrap();
            assert_eq!(diff, None, "{engine} round {round}");
        }

        // A structural change falls back to the slow path; still exact.
        heap.set_field(roots[7], 1, Value::Ref(None)).unwrap();
        let record = backend.checkpoint(&mut heap, &roots).unwrap();
        assert_eq!(record.stats().journal_hits, 0, "{engine}: ref store invalidates the cache");
        assert_eq!(record_and_check(&mut store, record, &heap, &roots).unwrap(), None);
        assert_eq!(store.len(), 6);
    }
}

#[test]
fn the_parallel_backend_restores_exactly_too() {
    let (mut heap, roots) = world();
    let mut backend = ParallelBackend::new(4, heap.registry());
    let mut store = CheckpointStore::new();
    let record = backend.checkpoint(&mut heap, &roots).unwrap();
    assert_eq!(record_and_check(&mut store, record, &heap, &roots).unwrap(), None);
    heap.set_field(roots[2], 0, Value::Int(77)).unwrap();
    let record = backend.checkpoint(&mut heap, &roots).unwrap();
    assert!(backend.phases().unwrap().fast_path);
    assert_eq!(record_and_check(&mut store, record, &heap, &roots).unwrap(), None);
}

/// **The headline**: a store smuggled past the write barrier leaves no
/// journal trace, the fast path ships a stream without it, and restoring
/// that stream shows the exact lost write — on both backends.
#[test]
fn an_unbarriered_write_is_caught_on_the_next_checkpoint() {
    let (mut heap, roots) = world();
    let mut backend = GenericBackend::new(Engine::Harissa, heap.registry());
    let mut store = CheckpointStore::new();
    let record = backend.checkpoint(&mut heap, &roots).unwrap();
    assert_eq!(record_and_check(&mut store, record, &heap, &roots).unwrap(), None);

    // Scalar store: the traversal-order cache stays valid, so the next
    // checkpoint takes the fast path — and the journal never saw this.
    heap.set_field_unbarriered(roots[4], 0, Value::Int(12345)).unwrap();
    let record = backend.checkpoint(&mut heap, &roots).unwrap();
    let stats = record.stats();
    assert_eq!(stats.objects_recorded, 0, "the stream is silently incomplete");
    assert_eq!(stats.objects_visited, 0, "served from the journal fast path");
    let diff = record_and_check(&mut store, record, &heap, &roots).unwrap();
    assert_eq!(diff, Some(lost_write(&heap, roots[4], 12345, 4)));

    let (mut heap, roots) = world();
    let mut parallel = ParallelBackend::new(2, heap.registry());
    let mut store = CheckpointStore::new();
    let record = parallel.checkpoint(&mut heap, &roots).unwrap();
    assert_eq!(record_and_check(&mut store, record, &heap, &roots).unwrap(), None);
    heap.set_field_unbarriered(roots[0], 0, Value::Int(999)).unwrap();
    let record = parallel.checkpoint(&mut heap, &roots).unwrap();
    assert!(parallel.phases().unwrap().fast_path);
    let diff = record_and_check(&mut store, record, &heap, &roots).unwrap();
    assert_eq!(diff, Some(lost_write(&heap, roots[0], 999, 0)));
}

/// The diff `verify_restore` reports for a head node of [`world`] whose
/// live `v` is `live` but whose restored `v` is `restored`.
fn lost_write(heap: &Heap, head: ObjectId, live: i32, restored: i32) -> String {
    let stable = heap.stable_id(head).unwrap().raw();
    // Each head is allocated right after its tail.
    let state = |v: i32| {
        format!(
            "ObjectState {{ class_name: \"Node\", fields: [Int({v}), Ref(StableId({}))] }}",
            stable - 1
        )
    };
    format!("object id:{stable} differs: {} vs {}", state(live), state(restored))
}

/// An object allocated past the barrier is never flagged, so no
/// checkpoint records it; a recorded object that references it leaves a
/// dangling stable id in the stream, and restore names it.
#[test]
fn an_unrecorded_object_makes_restore_fail_with_missing_object() {
    let (mut heap, roots) = world();
    let node = heap.class_of(roots[0]).unwrap();
    let mut backend = GenericBackend::new(Engine::HotSpot, heap.registry());
    let mut store = CheckpointStore::new();
    let record = backend.checkpoint(&mut heap, &roots).unwrap();
    assert_eq!(record_and_check(&mut store, record, &heap, &roots).unwrap(), None);

    // Allocated clean, as only the restore path may: the fresh object is
    // reachable from the next checkpoint but never flagged.
    let fresh = heap.alloc_restored(node, heap.next_stable_id(), false).unwrap();
    assert_eq!(heap.stable_id(fresh).unwrap(), StableId(21));
    heap.set_field(roots[3], 1, Value::Ref(Some(fresh))).unwrap();
    let record = backend.checkpoint(&mut heap, &roots).unwrap();
    assert_eq!(record.stats().objects_recorded, 1, "only the rewired root is recorded");
    assert_eq!(
        record_and_check(&mut store, record, &heap, &roots),
        Err(CoreError::MissingObject(StableId(21)))
    );
}
