//! History rewriting: compaction and retention merges.
//!
//! A long run accumulates one incremental checkpoint per iteration; a
//! recovery must replay all of them, and the store grows without bound.
//! Both rewrites here write out the one last-writer-wins fold of
//! [`fold_records`], so a rewritten history restores exactly like the
//! original:
//!
//! * [`compact`] collapses a whole store into one full checkpoint holding
//!   only what the latest roots still reach, carrying the original latest
//!   sequence number — so a subsequent incremental checkpoint from the
//!   producing run still appends contiguously.
//! * [`merge_records`] folds a run of records into one record, keeping
//!   every object, for binomial retention.
//!
//! Each surviving object's newest object record is copied verbatim. A
//! record's bytes are a pure function of the object's identity, class and
//! field values, so the copy is byte for byte what re-encoding the decoded
//! state would write — which is what lets the durable layer's content-hash
//! dedup recognise an unchanged object.

use crate::checkpoint::CheckpointRecord;
use crate::error::CoreError;
use crate::restore::fold_records;
use crate::stats::TraversalStats;
use crate::store::CheckpointStore;
use crate::stream::{CheckpointKind, RecordedValue, StreamWriter};
use ickp_heap::{ClassRegistry, StableId};

/// One record with the given header holding the object records `objects`,
/// in order.
fn splice<'a>(
    seq: u64,
    kind: CheckpointKind,
    roots: &[StableId],
    objects: impl IntoIterator<Item = &'a [u8]>,
) -> CheckpointRecord {
    let mut w = StreamWriter::new(seq, kind, roots);
    for object in objects {
        w.append_shard(object, 1);
    }
    CheckpointRecord::from_parts(seq, kind, roots.to_vec(), w.finish(), TraversalStats::default())
}

/// Collapses `store` into an equivalent single-full-checkpoint store.
///
/// The compacted record covers everything reachable from the *latest*
/// checkpoint's roots, following the recorded references in the order a
/// full checkpoint of the restored heap would walk them; objects that
/// became unreachable during the run (superseded list nodes, dropped
/// subtrees) are garbage-collected by compaction, which is where the
/// space win beyond deduplication comes from.
///
/// # Errors
///
/// * [`CoreError::EmptyStore`] for an empty store.
/// * Decoding errors if a record does not match `registry`.
/// * [`CoreError::MissingObject`] if a root or a reachable reference
///   names a stable id that no record holds.
pub fn compact(
    store: &CheckpointStore,
    registry: &ClassRegistry,
) -> Result<CheckpointStore, CoreError> {
    let latest_seq = store.latest().ok_or(CoreError::EmptyStore)?.seq();
    let history = fold_records(store.records(), registry)?;

    // Depth-first from the roots, children in field order.
    let mut reachable = Vec::new();
    let mut visited = vec![false; history.len()];
    let mut stack: Vec<StableId> = history.roots().iter().rev().copied().collect();
    while let Some(id) = stack.pop() {
        let pos = history.position(id).ok_or(CoreError::MissingObject(id))?;
        if std::mem::replace(&mut visited[pos], true) {
            continue;
        }
        reachable.push(history.slice(pos));
        let before = stack.len();
        stack.extend(history.fields(pos).filter_map(|f| match f {
            RecordedValue::Ref(child) => child,
            _ => None,
        }));
        stack[before..].reverse();
    }

    let mut compacted = CheckpointStore::new();
    compacted.push(splice(latest_seq, CheckpointKind::Full, history.roots(), reachable))?;
    Ok(compacted)
}

/// Folds `records` (an ascending run from one chain) into a single
/// equivalent record.
///
/// Restoring the merged record materializes the same heap — same values
/// *and* same allocation order — as restoring the run. The merged record
/// carries the run's last sequence number (its identity as a restore
/// point) and the first record's kind (a run that began with a full
/// checkpoint is still complete).
///
/// # Errors
///
/// * [`CoreError::EmptyStore`] if `records` is empty.
/// * Decoding errors if a record does not match `registry`.
pub fn merge_records(
    records: &[CheckpointRecord],
    registry: &ClassRegistry,
) -> Result<CheckpointRecord, CoreError> {
    let (Some(first), Some(last)) = (records.first(), records.last()) else {
        return Err(CoreError::EmptyStore);
    };
    let history = fold_records(records, registry)?;
    let objects = (0..history.len()).map(|pos| history.slice(pos));
    Ok(splice(last.seq(), first.kind(), history.roots(), objects))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{CheckpointConfig, Checkpointer};
    use crate::methods::MethodTable;
    use crate::restore::{restore, verify_restore, RestorePolicy};
    use ickp_heap::{ClassId, FieldType, Heap, HeapSnapshot, ObjectId, Value};

    fn run_with_churn() -> (Heap, Vec<ObjectId>, CheckpointStore) {
        let mut reg = ClassRegistry::new();
        let node = reg
            .define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])
            .unwrap();
        let mut heap = Heap::new(reg);
        let head = heap.alloc(node).unwrap();
        let table = MethodTable::derive(heap.registry());
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
        let mut store = CheckpointStore::new();
        store.push(ckp.checkpoint(&mut heap, &table, &[head]).unwrap()).unwrap();

        // Churn: repeatedly swap in a fresh tail (the old ones become
        // garbage that compaction should shed) and mutate the head.
        let mut old_tails: Vec<ObjectId> = Vec::new();
        for i in 0..6 {
            let tail = heap.alloc(node).unwrap();
            heap.set_field(tail, 0, Value::Int(100 + i)).unwrap();
            if let Value::Ref(Some(old)) = heap.field(head, 1).unwrap() {
                old_tails.push(old);
            }
            heap.set_field(head, 1, Value::Ref(Some(tail))).unwrap();
            heap.set_field(head, 0, Value::Int(i)).unwrap();
            store.push(ckp.checkpoint(&mut heap, &table, &[head]).unwrap()).unwrap();
        }
        for t in old_tails {
            heap.free(t).unwrap();
        }
        (heap, vec![head], store)
    }

    fn node_class(heap: &Heap) -> ClassId {
        heap.registry().id_of("Node").unwrap()
    }

    #[test]
    fn compaction_preserves_the_recovered_state() {
        let (heap, roots, store) = run_with_churn();
        let compacted = compact(&store, heap.registry()).unwrap();
        assert_eq!(compacted.len(), 1);
        let rebuilt = restore(&compacted, heap.registry(), RestorePolicy::RequireFullBase).unwrap();
        assert_eq!(verify_restore(&heap, &roots, &rebuilt).unwrap(), None);
    }

    #[test]
    fn compaction_sheds_garbage_and_bytes() {
        let (heap, _, store) = run_with_churn();
        let compacted = compact(&store, heap.registry()).unwrap();
        assert!(compacted.total_bytes() < store.total_bytes());
        // Only head + current tail survive.
        let rebuilt = restore(&compacted, heap.registry(), RestorePolicy::Lenient).unwrap();
        assert_eq!(rebuilt.len(), 2);
        // The uncompacted store materializes every tail ever recorded.
        let full = restore(&store, heap.registry(), RestorePolicy::Lenient).unwrap();
        assert!(full.len() > rebuilt.len());
    }

    #[test]
    fn producers_can_append_after_compaction() {
        let (mut heap, roots, store) = run_with_churn();
        let latest_seq = store.latest().unwrap().seq();
        let mut compacted = compact(&store, heap.registry()).unwrap();
        assert_eq!(compacted.latest().unwrap().seq(), latest_seq);
        let _ = node_class(&heap);

        // The original run continues: its next incremental checkpoint
        // (sequence latest+1) appends contiguously to the compacted store.
        let table = MethodTable::derive(heap.registry());
        heap.set_field(roots[0], 0, Value::Int(-1)).unwrap();
        let mut producer = Checkpointer::new(CheckpointConfig::incremental());
        let rec = producer.checkpoint(&mut heap, &table, &roots).unwrap();
        let (_, kind, rec_roots, rec_bytes, rec_stats) = rec.into_parts();
        let rec =
            CheckpointRecord::from_parts(latest_seq + 1, kind, rec_roots, rec_bytes, rec_stats);
        compacted.push(rec).unwrap();

        let rebuilt = restore(&compacted, heap.registry(), RestorePolicy::RequireFullBase).unwrap();
        assert_eq!(verify_restore(&heap, &roots, &rebuilt).unwrap(), None);
    }

    #[test]
    fn compaction_matches_a_full_checkpoint_of_the_restored_heap() {
        let (heap, _, store) = run_with_churn();
        let compacted = compact(&store, heap.registry()).unwrap();
        let rebuilt = restore(&store, heap.registry(), RestorePolicy::Lenient).unwrap();
        let roots = rebuilt.roots().to_vec();
        let mut rebuilt = rebuilt.into_heap();
        let table = MethodTable::derive(rebuilt.registry());
        let mut full = Checkpointer::new(CheckpointConfig::full());
        full.set_next_seq(store.latest().unwrap().seq());
        let rec = full.checkpoint(&mut rebuilt, &table, &roots).unwrap();
        assert_eq!(compacted.latest().unwrap().bytes(), rec.bytes());
    }

    #[test]
    fn compaction_reports_missing_roots_and_references() {
        // Object 7 references 8, which no record holds; root 9 has no
        // record at all.
        let (heap, _, _) = run_with_churn();
        let mut reg = heap.registry().clone();
        let orphan = reg.define("Orphan", None, &[("next", FieldType::Ref(None))]).unwrap();
        let mut w = StreamWriter::new(0, CheckpointKind::Full, &[StableId(7)]);
        w.begin_object(StableId(7), orphan, 1);
        w.write_ref(Some(StableId(8)));
        let dangling = CheckpointRecord::from_parts(
            0,
            CheckpointKind::Full,
            vec![StableId(7)],
            w.finish(),
            TraversalStats::default(),
        );
        let mut store = CheckpointStore::new();
        store.push(dangling).unwrap();
        assert_eq!(compact(&store, &reg).unwrap_err(), CoreError::MissingObject(StableId(8)));

        let rootless = CheckpointRecord::from_parts(
            0,
            CheckpointKind::Full,
            vec![StableId(9)],
            StreamWriter::new(0, CheckpointKind::Full, &[StableId(9)]).finish(),
            TraversalStats::default(),
        );
        let mut store = CheckpointStore::new();
        store.push(rootless).unwrap();
        assert_eq!(compact(&store, &reg).unwrap_err(), CoreError::MissingObject(StableId(9)));
    }

    #[test]
    fn compaction_rejects_undecodable_records() {
        let (_, _, store) = run_with_churn();
        let other = ClassRegistry::new();
        assert!(matches!(
            compact(&store, &other).unwrap_err(),
            CoreError::UnknownClassIndex(_) | CoreError::Decode { .. }
        ));
    }

    #[test]
    fn empty_store_cannot_be_compacted() {
        let reg = ClassRegistry::new();
        assert_eq!(compact(&CheckpointStore::new(), &reg).unwrap_err(), CoreError::EmptyStore);
    }

    fn chain(n: usize) -> (Heap, Vec<ObjectId>, Vec<CheckpointRecord>) {
        let mut reg = ClassRegistry::new();
        let node = reg
            .define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])
            .unwrap();
        let mut heap = Heap::new(reg);
        let b = heap.alloc(node).unwrap();
        let a = heap.alloc(node).unwrap();
        heap.set_field(a, 1, Value::Ref(Some(b))).unwrap();
        let table = MethodTable::derive(heap.registry());
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
        let mut records = Vec::new();
        for i in 0..n {
            heap.set_field(if i % 2 == 0 { a } else { b }, 0, Value::Int(i as i32)).unwrap();
            records.push(ckp.checkpoint(&mut heap, &table, &[a]).unwrap());
        }
        (heap, vec![a], records)
    }

    #[test]
    fn merged_record_restores_the_same_heap() {
        let (heap, roots_live, records) = chain(6);
        let registry = heap.registry().clone();
        let merged = merge_records(&records, &registry).unwrap();
        assert_eq!(merged.seq(), records.last().unwrap().seq());
        assert_eq!(merged.kind(), records[0].kind());

        let mut store = CheckpointStore::new();
        store.push_merged(merged).unwrap();
        let rebuilt = restore(&store, &registry, RestorePolicy::Lenient).unwrap();
        assert_eq!(verify_restore(&heap, &roots_live, &rebuilt).unwrap(), None);
    }

    #[test]
    fn merging_a_prefix_matches_replaying_it() {
        let (heap, _, records) = chain(6);
        let registry = heap.registry().clone();

        // Restore the first 4 records directly...
        let mut plain = CheckpointStore::new();
        for r in &records[..4] {
            plain.push(r.clone()).unwrap();
        }
        let direct = restore(&plain, &registry, RestorePolicy::Lenient).unwrap();

        // ...and via a merge of [0..3] followed by record 3.
        let mut folded = CheckpointStore::new();
        folded.push_merged(merge_records(&records[..3], &registry).unwrap()).unwrap();
        folded.push_merged(records[3].clone()).unwrap();
        let via_merge = restore(&folded, &registry, RestorePolicy::Lenient).unwrap();

        assert_eq!(direct.len(), via_merge.len());
        // Object handles are heap-local; compare logical snapshots.
        let a = HeapSnapshot::capture(direct.heap(), direct.roots()).unwrap();
        let b = HeapSnapshot::capture(via_merge.heap(), via_merge.roots()).unwrap();
        assert_eq!(a.diff(&b), None);
    }

    #[test]
    fn unchanged_objects_reencode_byte_identically() {
        let (heap, _, records) = chain(4);
        let registry = heap.registry().clone();
        // Merge a single record: the fold is an identity and must
        // reproduce the original bytes exactly (the dedup premise).
        for r in &records {
            let merged = merge_records(std::slice::from_ref(r), &registry).unwrap();
            assert_eq!(merged.bytes(), r.bytes());
        }
    }

    #[test]
    fn merging_nothing_is_an_error() {
        let reg = ClassRegistry::new();
        assert_eq!(merge_records(&[], &reg).unwrap_err(), CoreError::EmptyStore);
    }
}
