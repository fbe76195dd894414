//! Recovery: rebuilding a heap from a sequence of incremental checkpoints.
//!
//! The paper relies on unique identifiers "to reconstruct the state from a
//! sequence of incremental checkpoints"; this module implements and
//! verifies that claim. [`fold_records`] is the one last-writer-wins fold
//! of a history per [`StableId`]; [`restore`] materializes it into a fresh
//! heap under the original identities and re-links references, while
//! [`compact`](crate::compact) and [`merge_records`](crate::merge_records)
//! write it out as one record.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use crate::checkpoint::CheckpointRecord;
use crate::error::CoreError;
use crate::store::CheckpointStore;
use crate::stream::{
    declared_objects, object_fields, object_identity, walk, RecordedValue, Visit,
    RECORD_HEADER_BYTES,
};
use ickp_heap::{
    ClassDef, ClassId, ClassRegistry, FieldDef, Heap, HeapSnapshot, ObjectId, StableId, Value,
};
use std::collections::HashMap;
use std::ops::Range;

/// A history folded last-writer-wins: for each stable id the newest
/// recorded state, in first-touch order, plus the last record's roots.
///
/// First-touch order is the order in which replaying the records one by
/// one would first meet each object, so everything built from a fold —
/// a restored heap, a merged record — comes out the same however the
/// history was split into records. Survivors are addressed by their
/// first-touch position, which is below [`FoldedHistory::len`]. Each
/// survivor's state stays in the record that last wrote it and is
/// decoded only on demand.
#[derive(Debug)]
pub struct FoldedHistory<'a> {
    records: &'a [CheckpointRecord],
    registry: &'a ClassRegistry,
    index: IdIndex,
    newest: Vec<Newest>,
    roots: Vec<StableId>,
}

/// Where a survivor's newest state lies: which record, and the offset of
/// its object record in that record's bytes.
#[derive(Debug, Clone, Copy)]
struct Newest {
    record: u32,
    offset: u32,
}

impl<'a> FoldedHistory<'a> {
    /// Number of surviving objects.
    pub fn len(&self) -> usize {
        self.newest.len()
    }

    /// `true` if no record held an object.
    pub fn is_empty(&self) -> bool {
        self.newest.is_empty()
    }

    /// The roots of the last folded record.
    pub fn roots(&self) -> &[StableId] {
        &self.roots
    }

    /// The first-touch position of `id`, if any record holds it.
    pub fn position(&self, id: StableId) -> Option<usize> {
        self.index.get(id)
    }

    /// The newest object record of the survivor at `pos`, byte for byte as
    /// its checkpoint holds it.
    ///
    /// # Panics
    ///
    /// If `pos` is not below [`FoldedHistory::len`].
    pub fn slice(&self, pos: usize) -> &'a [u8] {
        let (_, class, bytes) = self.at(pos);
        let state = self.registry.class(class).map_or(0, ClassDef::encoded_state_size);
        bytes.get(..RECORD_HEADER_BYTES + state).unwrap_or(bytes)
    }

    /// The stable id and class of the survivor at `pos`.
    ///
    /// # Panics
    ///
    /// If `pos` is not below [`FoldedHistory::len`].
    pub fn identity(&self, pos: usize) -> (StableId, ClassId) {
        let (stable, class, _) = self.at(pos);
        (stable, class)
    }

    /// The newest field values of the survivor at `pos`, in layout order.
    ///
    /// # Panics
    ///
    /// If `pos` is not below [`FoldedHistory::len`].
    pub fn fields(&self, pos: usize) -> impl Iterator<Item = RecordedValue> + 'a {
        let (_, class, bytes) = self.at(pos);
        object_fields(bytes, self.registry.class(class).map_or(&[][..], ClassDef::layout))
    }

    /// The stable id and class of every survivor, in first-touch order,
    /// each read once from its newest object record.
    fn identities(
        &self,
    ) -> impl ExactSizeIterator<Item = Result<(StableId, ClassId), CoreError>> + '_ {
        self.newest.iter().map(|newest| {
            let (stable, class, _) = self.locate(newest).ok_or_else(|| CoreError::Decode {
                offset: newest.offset as usize,
                what: "object offset outside its record".into(),
            })?;
            Ok((stable, class))
        })
    }

    /// The newest field values of the survivor at `pos`, decoded in the
    /// order of `layout`, its class's layout; none past the end.
    fn fields_in<'l>(
        &self,
        pos: usize,
        layout: &'l [FieldDef],
    ) -> impl Iterator<Item = RecordedValue> + 'l
    where
        'a: 'l,
    {
        let bytes = self.newest.get(pos).and_then(|newest| self.locate(newest));
        object_fields(bytes.map_or(&[][..], |(_, _, bytes)| bytes), layout)
    }

    /// The stable id, class and object record bytes of the survivor at
    /// `pos`.
    fn at(&self, pos: usize) -> (StableId, ClassId, &'a [u8]) {
        let survivor = self.newest.get(pos).and_then(|newest| self.locate(newest));
        survivor.unwrap_or_else(|| panic!("position {pos} of {} survivors", self.len()))
    }

    /// The stable id and class of the object record at `newest`, and the
    /// record's bytes from its start. The scan checked the record index,
    /// the offset and the header there, so this is `None` only for a
    /// location it never produced.
    fn locate(&self, newest: &Newest) -> Option<(StableId, ClassId, &'a [u8])> {
        let record = self.records.get(newest.record as usize)?;
        let bytes = record.bytes().get(newest.offset as usize..)?;
        let (stable, class) = object_identity(bytes)?;
        Some((stable, class, bytes))
    }
}

/// Stable id → first-touch position. Dense ids index a table directly;
/// once an id lies beyond [`IdIndex::SPREAD`] times the number of objects
/// the records hold, the table turns into a map, so its size follows the
/// recorded object count and never an untrusted id.
#[derive(Debug)]
enum IdIndex {
    Dense(Vec<u32>),
    Sparse(HashMap<StableId, u32>),
}

impl IdIndex {
    /// How far beyond the recorded object count a dense table may reach.
    const SPREAD: usize = 4;
    /// A dense table entry no object occupies.
    const ABSENT: u32 = u32::MAX;

    fn get(&self, id: StableId) -> Option<usize> {
        let pos = match self {
            IdIndex::Dense(table) => *usize::try_from(id.0).ok().and_then(|i| table.get(i))?,
            IdIndex::Sparse(map) => *map.get(&id)?,
        };
        (pos != IdIndex::ABSENT).then_some(pos as usize)
    }

    /// The position of `id`, after giving it position `next` if it had
    /// none. A dense table grows to at most `limit` entries.
    fn get_or_insert(&mut self, id: StableId, next: u32, limit: usize) -> u32 {
        let table = match self {
            IdIndex::Sparse(map) => return *map.entry(id).or_insert(next),
            IdIndex::Dense(table) => table,
        };
        if let Ok(i) = usize::try_from(id.0) {
            if i >= table.len() && i < limit {
                table.resize(i + 1, IdIndex::ABSENT);
            }
            if let Some(pos) = table.get_mut(i) {
                if *pos == IdIndex::ABSENT {
                    *pos = next;
                }
                return *pos;
            }
        }
        let occupied = table.iter().enumerate().filter(|(_, &p)| p != IdIndex::ABSENT);
        let mut map: HashMap<StableId, u32> =
            occupied.map(|(i, &p)| (StableId(i as u64), p)).collect();
        let pos = *map.entry(id).or_insert(next);
        *self = IdIndex::Sparse(map);
        pos
    }
}

/// Folds `records` (an ascending run from one chain) last-writer-wins.
/// An empty run folds to an empty history with no roots.
///
/// The fold keeps, per stable id, its first-touch position and the
/// location of its newest state; nothing is decoded. A record built by
/// [`CheckpointRecord::validate`] against a registry with `registry`'s
/// [`layout_digest`](ClassRegistry::layout_digest) is not scanned again:
/// the fold reads each object's stable id at the offsets that scan kept.
/// Every other record — from [`CheckpointRecord::from_parts`], a
/// checkpointer, a merge, or validated under different class layouts — is
/// walked once, with every check [`decode`](crate::decode) makes.
///
/// # Errors
///
/// The errors of [`decode`](crate::decode) if a walked record does not
/// match `registry`, and a [`CoreError::Decode`] for a record over 4 GiB
/// or records that could hold `u32::MAX` objects, which the fold cannot
/// index.
pub fn fold_records<'a>(
    records: &'a [CheckpointRecord],
    registry: &'a ClassRegistry,
) -> Result<FoldedHistory<'a>, CoreError> {
    struct Fold {
        index: IdIndex,
        newest: Vec<Newest>,
        record: u32,
        limit: usize,
    }
    impl Fold {
        /// The object record at `offset` of the current record holds the
        /// newest state of `stable` so far.
        fn touch(&mut self, stable: StableId, offset: u32) {
            let at = Newest { record: self.record, offset };
            let pos = self.index.get_or_insert(stable, self.newest.len() as u32, self.limit);
            match self.newest.get_mut(pos as usize) {
                Some(slot) => *slot = at,
                None => self.newest.push(at),
            }
        }
    }
    impl Visit for Fold {
        fn end_object(&mut self, stable: StableId, _: ClassId, range: Range<usize>) {
            self.touch(stable, range.start as u32);
        }
    }

    // Record indices, offsets and positions are kept as u32. Every object
    // record takes at least a header, which bounds all three; the scan
    // stops at the first malformed record, so a record's index never
    // exceeds the objects before it.
    let capacity: usize = records.iter().map(|r| r.bytes().len() / RECORD_HEADER_BYTES).sum();
    if capacity >= IdIndex::ABSENT as usize
        || records.iter().any(|r| u32::try_from(r.bytes().len()).is_err())
    {
        let what = "records over 4 GiB or 2^32 objects cannot be folded".into();
        return Err(CoreError::Decode { offset: 0, what });
    }
    // The footers' object counts, capped by what each record's length
    // allows so a corrupt footer cannot inflate them, size the fold once.
    let declared: usize = records.iter().map(|r| declared_objects(r.bytes())).sum();
    let mut fold = Fold {
        index: IdIndex::Dense(Vec::with_capacity(declared)),
        newest: Vec::with_capacity(declared),
        record: 0,
        limit: declared.saturating_mul(IdIndex::SPREAD),
    };
    let mut roots = Vec::new();
    for record in records {
        match record.object_starts(registry) {
            Some(starts) => {
                for &offset in starts {
                    let object = record.bytes().get(offset as usize..).unwrap_or_default();
                    let (stable, _) = object_identity(object).ok_or_else(|| {
                        let what = "object offset outside its record".into();
                        CoreError::Decode { offset: offset as usize, what }
                    })?;
                    fold.touch(stable, offset);
                }
                roots.clear();
                roots.extend_from_slice(record.roots());
            }
            None => roots = walk(record.bytes(), registry, &mut fold)?.roots,
        }
        fold.record += 1;
    }
    let Fold { index, newest, .. } = fold;
    Ok(FoldedHistory { records, registry, index, newest, roots })
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
    index: IdIndex,
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
        self.heap.handle_at(self.index.get(id)?)
    }

    /// Number of reconstructed objects.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if nothing was reconstructed.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Rebuilds program state from a checkpoint store.
///
/// The store is folded with [`fold_records`] and the survivors are built
/// with [`Heap::materialize`] into one field arena in first-touch order.
/// Each survivor's stable id and class are read once from its newest
/// object record, and its fields are decoded once under that class.
///
/// # Errors
///
/// * [`CoreError::EmptyStore`] for an empty store.
/// * [`CoreError::BaseNotFull`] under [`RestorePolicy::RequireFullBase`].
/// * Decoding errors from [`decode`](crate::decode).
/// * [`CoreError::MissingObject`] if a recorded reference (or a root)
///   points to a stable id that no checkpoint in the store recorded.
/// * [`CoreError::Heap`] if a reference breaks its slot's class
///   constraint, or for the stable id `u64::MAX`.
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

    let history = fold_records(store.records(), registry)?;
    let position = |id: StableId| history.position(id).ok_or(CoreError::MissingObject(id));

    // Materialize under original identities, flags clear: the restored
    // state is by definition in sync with the last checkpoint.
    let heap = Heap::materialize(registry.clone(), history.identities(), |pos, out| {
        for field in history.fields_in(pos, out.layout()) {
            let value = match field {
                RecordedValue::Int(v) => Value::Int(v),
                RecordedValue::Long(v) => Value::Long(v),
                RecordedValue::Double(v) => Value::Double(v),
                RecordedValue::Bool(v) => Value::Bool(v),
                RecordedValue::Ref(None) => Value::Ref(None),
                RecordedValue::Ref(Some(child)) => {
                    out.push_ref(position(child)?)?;
                    continue;
                }
            };
            out.push(value)?;
        }
        Ok::<(), CoreError>(())
    })?;

    let roots = history
        .roots()
        .iter()
        .map(|&r| heap.handle_at(position(r)?).ok_or(CoreError::MissingObject(r)))
        .collect::<Result<Vec<_>, _>>()?;

    Ok(RestoredHeap { heap, roots, index: history.index })
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
#[allow(clippy::unwrap_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::checkpoint::{CheckpointConfig, Checkpointer};
    use crate::methods::MethodTable;
    use crate::stream::{decode, CheckpointKind, StreamWriter};
    use ickp_heap::{FieldType, HeapError};

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
        let ids: Vec<StableId> = (0..history.len()).map(|p| history.identity(p).0).collect();
        assert_eq!(ids, [head_sid, tail_sid]);
        let tail_pos = history.position(tail_sid).unwrap();
        assert_eq!(history.fields(tail_pos).next(), Some(RecordedValue::Int(42)));
        assert_eq!(history.roots(), [head_sid]);
        assert!(fold_records(&[], run.heap.registry()).unwrap().is_empty());
    }

    #[test]
    fn validated_records_keep_their_offsets_for_their_layouts_only() {
        let mut run = start_incremental_run();
        run.checkpoint();
        let (record, reg) = (run.store.latest().unwrap(), run.heap.registry());
        let checked = CheckpointRecord::validate(record.bytes().to_vec(), reg).unwrap();
        let parts =
            |r: &CheckpointRecord| (r.seq(), r.kind(), r.roots().to_vec(), r.bytes().to_vec());
        assert_eq!(parts(&checked), parts(record));
        let slices = crate::stream::object_slices(record.bytes(), reg).unwrap();
        assert_eq!(checked.object_ranges(), Some(slices.clone()));
        let starts: Vec<u32> = slices.iter().map(|r| r.start as u32).collect();
        assert_eq!(checked.object_starts(reg), Some(&starts[..]));
        assert_eq!(checked.clone().object_starts(reg), Some(&starts[..]));
        // A checkpointer's record was never scanned; a registry with one
        // more class has another layout digest.
        assert_eq!((record.object_starts(reg), record.object_ranges()), (None, None));
        let mut grown = reg.clone();
        grown.define("Extra", None, &[]).unwrap();
        assert_eq!(checked.object_starts(&grown), None);
        let empty = CheckpointRecord::validate(
            StreamWriter::new(0, CheckpointKind::Full, &[]).finish(),
            reg,
        );
        assert_eq!(empty.unwrap().object_ranges(), Some(Vec::new()));
    }

    /// A store of one full record with the given roots, whose objects
    /// `write` encodes.
    fn store_of(roots: &[u64], write: impl FnOnce(&mut StreamWriter)) -> CheckpointStore {
        let roots: Vec<StableId> = roots.iter().map(|&r| StableId(r)).collect();
        let mut w = StreamWriter::new(0, CheckpointKind::Full, &roots);
        write(&mut w);
        let stats = crate::stats::TraversalStats::default();
        let mut store = CheckpointStore::new();
        let record =
            CheckpointRecord::from_parts(0, CheckpointKind::Full, roots, w.finish(), stats);
        store.push(record).unwrap();
        store
    }

    /// A store of `Node`s with the given stable ids, each `next` linking
    /// to the following one; the first is the root.
    fn chain_of(node: ClassId, ids: &[u64]) -> CheckpointStore {
        store_of(&ids[..1], |w| {
            for (i, &id) in ids.iter().enumerate() {
                w.begin_object(StableId(id), node, 2);
                w.write_int(i as i32);
                w.write_ref(ids.get(i + 1).map(|&next| StableId(next)));
            }
        })
    }

    #[test]
    fn the_last_stable_id_is_refused_not_wrapped() {
        let (reg, node) = registry();
        let store = chain_of(node, &[1, u64::MAX]);
        assert_eq!(
            restore(&store, &reg, RestorePolicy::RequireFullBase).unwrap_err(),
            CoreError::Heap(HeapError::StableIdOverflow(u64::MAX))
        );
    }

    #[test]
    fn sparse_ids_fold_into_a_map_not_a_table_sized_by_the_id() {
        let (reg, node) = registry();
        let store = chain_of(node, &[1, u64::MAX - 1]);
        let history = fold_records(store.records(), &reg).unwrap();
        assert!(matches!(history.index, IdIndex::Sparse(_)));
        let restored = restore(&store, &reg, RestorePolicy::RequireFullBase).unwrap();
        let far = restored.lookup(StableId(u64::MAX - 1)).unwrap();
        assert_eq!(restored.heap().field(far, 0).unwrap(), Value::Int(1));
        let root = restored.roots()[0];
        assert_eq!(restored.heap().field(root, 1).unwrap(), Value::Ref(Some(far)));
        assert_eq!(restored.lookup(StableId(2)), None);

        // Dense ids stay in the table, whatever order they come in.
        let store = chain_of(node, &[3, 1, 2]);
        let history = fold_records(store.records(), &reg).unwrap();
        assert!(matches!(history.index, IdIndex::Dense(_)));
    }

    #[test]
    fn bad_histories_fail_with_typed_errors() {
        let mut reg = ClassRegistry::new();
        let entry = reg.define("Entry", None, &[]).unwrap();
        let holder = reg.define("Holder", None, &[("e", FieldType::Ref(Some(entry)))]).unwrap();
        let node = reg
            .define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])
            .unwrap();
        let restored = |store: &CheckpointStore| restore(store, &reg, RestorePolicy::Lenient);

        // A recorded reference that breaks its slot's class constraint: the
        // holder at position 0 names the holder at position 1.
        let store = store_of(&[1], |w| {
            w.begin_object(StableId(1), holder, 1);
            w.write_ref(Some(StableId(2)));
            w.begin_object(StableId(2), holder, 1);
            w.write_ref(None);
        });
        let first = Heap::new(reg.clone()).alloc_restored(holder, StableId(1), false).unwrap();
        assert_eq!(
            restored(&store).unwrap_err(),
            CoreError::Heap(HeapError::ClassConstraint {
                object: first,
                slot: 0,
                expected: entry,
                actual: holder,
            })
        );

        // A reference to a stable id no record holds.
        let store = store_of(&[1], |w| {
            w.begin_object(StableId(1), node, 2);
            w.write_int(7);
            w.write_ref(Some(StableId(5)));
        });
        assert_eq!(restored(&store).unwrap_err(), CoreError::MissingObject(StableId(5)));

        // A short field list: declared short of the layout, or declared in
        // full with a field missing.
        let store = store_of(&[1], |w| {
            w.begin_object(StableId(1), node, 1);
            w.write_int(7);
        });
        assert_eq!(
            restored(&store).unwrap_err(),
            CoreError::FieldCountMismatch { class: "Node".into(), recorded: 1, expected: 2 }
        );
        let store = store_of(&[1], |w| {
            w.begin_object(StableId(1), node, 2);
            w.write_int(7);
        });
        let what = "unexpected end of stream (wanted 8 bytes)".into();
        assert_eq!(restored(&store).unwrap_err(), CoreError::Decode { offset: 46, what });
    }

    #[test]
    fn a_root_no_record_holds_is_reported() {
        let (reg, node) = registry();
        let store = store_of(&[9], |w| {
            w.begin_object(StableId(1), node, 2);
            w.write_int(0);
            w.write_ref(None);
        });
        assert_eq!(
            restore(&store, &reg, RestorePolicy::Lenient).unwrap_err(),
            CoreError::MissingObject(StableId(9))
        );
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
