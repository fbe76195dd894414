//! Recovery: rebuilding a heap from a sequence of incremental checkpoints.
//!
//! The paper relies on unique identifiers "to reconstruct the state from a
//! sequence of incremental checkpoints"; this module implements and
//! verifies that claim. [`fold_records`] is the one last-writer-wins fold
//! of a history per [`StableId`]; [`restore`] materializes it into a fresh
//! heap under the original identities and re-links references, while
//! [`compact`](crate::compact) and [`merge_records`](crate::merge_records)
//! re-encode it.

use crate::checkpoint::CheckpointRecord;
use crate::error::CoreError;
use crate::store::CheckpointStore;
use crate::stream::{decode, RecordedObject, RecordedValue};
use ickp_heap::{ClassRegistry, Heap, HeapSnapshot, ObjectId, StableId, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// A history folded last-writer-wins: for each stable id the newest
/// recorded state, in first-touch order, plus the last record's roots.
///
/// First-touch order is the order in which replaying the records one by
/// one would first meet each object, so everything built from a fold —
/// a restored heap, a merged record — comes out the same however the
/// history was split into records.
#[derive(Debug, Default)]
pub struct FoldedHistory {
    objects: Vec<RecordedObject>,
    index: HashMap<StableId, usize>,
    roots: Vec<StableId>,
}

impl FoldedHistory {
    /// The surviving objects, in first-touch order.
    pub fn objects(&self) -> &[RecordedObject] {
        &self.objects
    }

    /// The roots of the last folded record.
    pub fn roots(&self) -> &[StableId] {
        &self.roots
    }

    /// The newest recorded state of `id`, if any record holds it.
    pub fn get(&self, id: StableId) -> Option<&RecordedObject> {
        self.index.get(&id).map(|&i| &self.objects[i])
    }
}

/// Folds `records` (an ascending run from one chain) last-writer-wins.
/// An empty run folds to an empty history with no roots.
///
/// # Errors
///
/// Decoding errors from [`decode`] if a record does not match `registry`.
pub fn fold_records(
    records: &[CheckpointRecord],
    registry: &ClassRegistry,
) -> Result<FoldedHistory, CoreError> {
    let mut history = FoldedHistory::default();
    for record in records {
        let decoded = decode(record.bytes(), registry)?;
        for obj in decoded.objects {
            match history.index.entry(obj.stable) {
                Entry::Occupied(at) => history.objects[*at.get()] = obj,
                Entry::Vacant(slot) => {
                    slot.insert(history.objects.len());
                    history.objects.push(obj);
                }
            }
        }
        history.roots = decoded.roots;
    }
    Ok(history)
}

/// How strictly [`restore`] validates the store before replaying it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestorePolicy {
    /// Require the store to begin with a full checkpoint.
    ///
    /// This is the classic recovery-line discipline: without a full base,
    /// objects that were never modified after the (missing) base would be
    /// silently absent.
    RequireFullBase,
    /// Accept any store.
    ///
    /// Correct when the producer's first checkpoint was taken while every
    /// object was still flagged modified (freshly allocated), which makes
    /// the first incremental checkpoint complete in practice.
    Lenient,
}

/// The result of a successful restore.
#[derive(Debug)]
pub struct RestoredHeap {
    heap: Heap,
    roots: Vec<ObjectId>,
    index: HashMap<StableId, usize>,
    handles: Vec<ObjectId>,
}

impl RestoredHeap {
    /// The reconstructed heap. Every object's modified flag is clear.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Consumes the restore, returning the heap for continued execution.
    pub fn into_heap(self) -> Heap {
        self.heap
    }

    /// The roots of the most recent checkpoint, as handles into the
    /// reconstructed heap.
    pub fn roots(&self) -> &[ObjectId] {
        &self.roots
    }

    /// Maps a recorded stable id to its handle in the reconstructed heap.
    pub fn lookup(&self, id: StableId) -> Option<ObjectId> {
        self.index.get(&id).map(|&i| self.handles[i])
    }

    /// Number of reconstructed objects.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// `true` if nothing was reconstructed.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }
}

/// Rebuilds program state from a checkpoint store.
///
/// # Errors
///
/// * [`CoreError::EmptyStore`] for an empty store.
/// * [`CoreError::BaseNotFull`] under [`RestorePolicy::RequireFullBase`].
/// * Decoding errors from [`decode`].
/// * [`CoreError::MissingObject`] if a recorded reference (or a root)
///   points to a stable id that no checkpoint in the store recorded.
pub fn restore(
    store: &CheckpointStore,
    registry: &ClassRegistry,
    policy: RestorePolicy,
) -> Result<RestoredHeap, CoreError> {
    if store.is_empty() {
        return Err(CoreError::EmptyStore);
    }
    if policy == RestorePolicy::RequireFullBase && !store.starts_full() {
        return Err(CoreError::BaseNotFull);
    }

    let FoldedHistory { objects, index, roots } = fold_records(store.records(), registry)?;

    // Materialize under original identities in first-touch order, flags
    // clear (the restored state is by definition in sync with the last
    // checkpoint).
    let mut heap = Heap::new(registry.clone());
    let handles = objects
        .iter()
        .map(|obj| heap.alloc_restored(obj.class, obj.stable, false))
        .collect::<Result<Vec<_>, _>>()?;
    let handle_of =
        |id: StableId| index.get(&id).map(|&i| handles[i]).ok_or(CoreError::MissingObject(id));

    // Re-link fields. Unbarriered stores keep the flags clear.
    for (obj, &handle) in objects.iter().zip(&handles) {
        for (slot, field) in obj.fields.iter().enumerate() {
            let value = match *field {
                RecordedValue::Int(v) => Value::Int(v),
                RecordedValue::Long(v) => Value::Long(v),
                RecordedValue::Double(v) => Value::Double(v),
                RecordedValue::Bool(v) => Value::Bool(v),
                RecordedValue::Ref(None) => Value::Ref(None),
                RecordedValue::Ref(Some(child)) => Value::Ref(Some(handle_of(child)?)),
            };
            heap.set_field_unbarriered(handle, slot, value)?;
        }
    }

    let roots = roots.iter().map(|&r| handle_of(r)).collect::<Result<Vec<_>, _>>()?;

    Ok(RestoredHeap { heap, roots, index, handles })
}

/// Verifies that a restore reproduced the live state: captures logical
/// snapshots of both heaps from the given roots and compares them.
///
/// Returns a human-readable description of the first difference, or `None`
/// when the states are identical.
///
/// # Errors
///
/// Propagates snapshot-capture failures (dangling references).
pub fn verify_restore(
    live: &Heap,
    live_roots: &[ObjectId],
    restored: &RestoredHeap,
) -> Result<Option<String>, CoreError> {
    let expected = HeapSnapshot::capture(live, live_roots)?;
    let actual = HeapSnapshot::capture(restored.heap(), restored.roots())?;
    Ok(expected.diff(&actual))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{CheckpointConfig, Checkpointer};
    use crate::methods::MethodTable;
    use ickp_heap::{ClassId, ClassRegistry, FieldType};

    fn registry() -> (ClassRegistry, ClassId) {
        let mut reg = ClassRegistry::new();
        let node = reg
            .define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])
            .unwrap();
        (reg, node)
    }

    struct Run {
        heap: Heap,
        table: MethodTable,
        ckp: Checkpointer,
        store: CheckpointStore,
        head: ObjectId,
        tail: ObjectId,
    }

    fn start_incremental_run() -> Run {
        let (reg, node) = registry();
        let mut heap = Heap::new(reg);
        let tail = heap.alloc(node).unwrap();
        let head = heap.alloc(node).unwrap();
        heap.set_field(head, 1, Value::Ref(Some(tail))).unwrap();
        heap.set_field(head, 0, Value::Int(1)).unwrap();
        heap.set_field(tail, 0, Value::Int(2)).unwrap();
        let table = MethodTable::derive(heap.registry());
        Run {
            heap,
            table,
            ckp: Checkpointer::new(CheckpointConfig::incremental()),
            store: CheckpointStore::new(),
            head,
            tail,
        }
    }

    impl Run {
        fn checkpoint(&mut self) {
            let rec = self.ckp.checkpoint(&mut self.heap, &self.table, &[self.head]).unwrap();
            self.store.push(rec).unwrap();
        }
    }

    #[test]
    fn single_checkpoint_restores_exact_state() {
        let mut run = start_incremental_run();
        run.checkpoint();
        let restored = restore(&run.store, run.heap.registry(), RestorePolicy::Lenient).unwrap();
        assert_eq!(restored.len(), 2);
        assert_eq!(verify_restore(&run.heap, &[run.head], &restored).unwrap(), None);
    }

    #[test]
    fn sequence_of_increments_replays_to_latest_state() {
        let mut run = start_incremental_run();
        run.checkpoint();
        let tail = run.tail;
        run.heap.set_field(tail, 0, Value::Int(42)).unwrap();
        run.checkpoint();
        let head = run.head;
        run.heap.set_field(head, 0, Value::Int(-3)).unwrap();
        run.checkpoint();

        let restored = restore(&run.store, run.heap.registry(), RestorePolicy::Lenient).unwrap();
        assert_eq!(verify_restore(&run.heap, &[run.head], &restored).unwrap(), None);

        // Spot-check via stable ids.
        let tail_sid = run.heap.stable_id(run.tail).unwrap();
        let r_tail = restored.lookup(tail_sid).unwrap();
        assert_eq!(restored.heap().field(r_tail, 0).unwrap(), Value::Int(42));
    }

    #[test]
    fn restored_objects_have_clear_modified_flags() {
        let mut run = start_incremental_run();
        run.checkpoint();
        let restored = restore(&run.store, run.heap.registry(), RestorePolicy::Lenient).unwrap();
        for id in restored.heap().iter_live() {
            assert!(!restored.heap().is_modified(id).unwrap());
        }
    }

    #[test]
    fn new_objects_appearing_mid_run_are_restored() {
        let mut run = start_incremental_run();
        run.checkpoint();
        // Grow the list by one node.
        let (node, head) = (run.heap.registry().id_of("Node").unwrap(), run.head);
        let extra = run.heap.alloc(node).unwrap();
        run.heap.set_field(extra, 0, Value::Int(7)).unwrap();
        let old_next = run.heap.field(head, 1).unwrap();
        run.heap.set_field(extra, 1, old_next).unwrap();
        run.heap.set_field(head, 1, Value::Ref(Some(extra))).unwrap();
        run.checkpoint();

        let restored = restore(&run.store, run.heap.registry(), RestorePolicy::Lenient).unwrap();
        assert_eq!(restored.len(), 3);
        assert_eq!(verify_restore(&run.heap, &[run.head], &restored).unwrap(), None);
    }

    #[test]
    fn restore_allocates_in_first_touch_order() {
        // Fresh nodes are spliced in right after the head, so the walk
        // meets them newest-first and first-touch order is not stable-id
        // order; several records each add objects and touch old ones.
        let (reg, node) = registry();
        let mut heap = Heap::new(reg);
        let table = MethodTable::derive(heap.registry());
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
        let mut store = CheckpointStore::new();
        let head = heap.alloc(node).unwrap();
        let mut nodes = Vec::new();
        for round in 0..4 {
            for _ in 0..10 {
                let fresh = heap.alloc(node).unwrap();
                let next = heap.field(head, 1).unwrap();
                heap.set_field(fresh, 1, next).unwrap();
                heap.set_field(head, 1, Value::Ref(Some(fresh))).unwrap();
                nodes.push(fresh);
            }
            heap.set_field(nodes[round * 3], 0, Value::Int(round as i32)).unwrap();
            store.push(ckp.checkpoint(&mut heap, &table, &[head]).unwrap()).unwrap();
        }

        let mut first_touch = Vec::new();
        for record in store.records() {
            for obj in decode(record.bytes(), heap.registry()).unwrap().objects {
                if !first_touch.contains(&obj.stable) {
                    first_touch.push(obj.stable);
                }
            }
        }
        let order = |r: &RestoredHeap| -> Vec<StableId> {
            r.heap().iter_live().map(|id| r.heap().stable_id(id).unwrap()).collect()
        };
        let a = restore(&store, heap.registry(), RestorePolicy::Lenient).unwrap();
        let b = restore(&store, heap.registry(), RestorePolicy::Lenient).unwrap();
        assert_eq!(order(&a), order(&b));
        assert_eq!(order(&a), first_touch);
        assert_eq!(first_touch.len(), 41);
    }

    #[test]
    fn fold_keeps_the_last_state_in_first_touch_order() {
        let mut run = start_incremental_run();
        run.checkpoint();
        let tail = run.tail;
        run.heap.set_field(tail, 0, Value::Int(42)).unwrap();
        run.checkpoint();
        let history = fold_records(run.store.records(), run.heap.registry()).unwrap();
        let head_sid = run.heap.stable_id(run.head).unwrap();
        let tail_sid = run.heap.stable_id(run.tail).unwrap();
        let ids: Vec<StableId> = history.objects().iter().map(|o| o.stable).collect();
        assert_eq!(ids, [head_sid, tail_sid]);
        assert_eq!(history.get(tail_sid).unwrap().fields[0], RecordedValue::Int(42));
        assert_eq!(history.roots(), [head_sid]);
        assert!(fold_records(&[], run.heap.registry()).unwrap().objects().is_empty());
    }

    #[test]
    fn empty_store_is_rejected() {
        let (reg, _) = registry();
        assert_eq!(
            restore(&CheckpointStore::new(), &reg, RestorePolicy::Lenient).unwrap_err(),
            CoreError::EmptyStore
        );
    }

    #[test]
    fn strict_policy_requires_full_base() {
        let mut run = start_incremental_run();
        run.checkpoint();
        let err =
            restore(&run.store, run.heap.registry(), RestorePolicy::RequireFullBase).unwrap_err();
        assert_eq!(err, CoreError::BaseNotFull);
    }

    #[test]
    fn full_base_plus_increments_restores_under_strict_policy() {
        let (reg, node) = registry();
        let mut heap = Heap::new(reg);
        let tail = heap.alloc(node).unwrap();
        let head = heap.alloc(node).unwrap();
        heap.set_field(head, 1, Value::Ref(Some(tail))).unwrap();
        let table = MethodTable::derive(heap.registry());
        let mut store = CheckpointStore::new();

        let mut full = Checkpointer::new(CheckpointConfig::full());
        store.push(full.checkpoint(&mut heap, &table, &[head]).unwrap()).unwrap();

        let mut incr = Checkpointer::new(CheckpointConfig::incremental());
        // Continue the sequence numbering after the full base.
        incr.checkpoint(&mut heap, &table, &[head]).unwrap(); // seq 0, discard
        heap.set_field(tail, 0, Value::Int(5)).unwrap();
        let rec = incr.checkpoint(&mut heap, &table, &[head]).unwrap(); // seq 1
        store.push(rec).unwrap();

        let restored = restore(&store, heap.registry(), RestorePolicy::RequireFullBase).unwrap();
        assert_eq!(verify_restore(&heap, &[head], &restored).unwrap(), None);
    }

    #[test]
    fn missing_referenced_object_is_reported() {
        // Take only the *second* incremental checkpoint (the first, which
        // recorded the tail, is dropped) — the head then references an id
        // the store never defines.
        let mut run = start_incremental_run();
        run.checkpoint();
        let head = run.head;
        run.heap.set_field(head, 0, Value::Int(10)).unwrap();
        let rec2 = run.ckp.checkpoint(&mut run.heap, &run.table, &[head]).unwrap();
        let mut partial = CheckpointStore::new();
        partial.push(rec2).unwrap();
        let err = restore(&partial, run.heap.registry(), RestorePolicy::Lenient).unwrap_err();
        assert!(matches!(err, CoreError::MissingObject(_)));
    }

    #[test]
    fn verify_detects_post_checkpoint_divergence() {
        let mut run = start_incremental_run();
        run.checkpoint();
        let restored = restore(&run.store, run.heap.registry(), RestorePolicy::Lenient).unwrap();
        // Mutate the live heap *after* the checkpoint.
        let head = run.head;
        run.heap.set_field(head, 0, Value::Int(1000)).unwrap();
        let diff = verify_restore(&run.heap, &[run.head], &restored).unwrap();
        assert!(diff.is_some());
    }

    #[test]
    fn restored_heap_supports_continued_execution_and_checkpointing() {
        let mut run = start_incremental_run();
        run.checkpoint();
        let restored = restore(&run.store, run.heap.registry(), RestorePolicy::Lenient).unwrap();
        let roots = restored.roots().to_vec();
        let mut heap = restored.into_heap();
        // Keep running: mutate and take a fresh checkpoint.
        heap.set_field(roots[0], 0, Value::Int(77)).unwrap();
        let table = MethodTable::derive(heap.registry());
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
        let rec = ckp.checkpoint(&mut heap, &table, &roots).unwrap();
        assert_eq!(rec.stats().objects_recorded, 1);
    }
}
