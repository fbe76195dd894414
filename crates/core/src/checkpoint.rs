//! The generic checkpoint driver (the paper's `Checkpoint` class).
//!
//! [`Checkpointer::checkpoint`] is the faithful Rust rendering of the
//! paper's Figure 1 loop, in both flavors:
//!
//! * **full** — record every reachable object;
//! * **incremental** — test each object's modified flag, record and reset
//!   it when set, and in either case keep folding over the children
//!   (incrementality shrinks the *checkpoint*, not the *traversal*).
//!
//! All per-object behaviour is reached through the [`MethodTable`]'s boxed
//! closures, reproducing the virtual-call cost that the specializer in
//! `ickp-spec` exists to eliminate. Instrumentation counters
//! ([`TraversalStats`]) record how many dispatches, flag tests and visits a
//! checkpoint performed, so benchmarks can explain speedups rather than
//! just assert them.

use crate::error::CoreError;
use crate::journal::{JournalCache, JournalCacheBuilder};
use crate::methods::MethodTable;
use crate::pool::BufferPool;
use crate::stats::TraversalStats;
use crate::stream::{CheckpointKind, StreamWriter};
use ickp_heap::{ClassId, Heap, ObjectId, StableId};
use std::collections::HashSet;

/// Configuration for a [`Checkpointer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Full or incremental checkpointing.
    pub kind: CheckpointKind,
    /// Whether incremental checkpoints may use the dirty-set journal fast
    /// path (on by default). With the journal off, every checkpoint
    /// performs the paper's full flag-test traversal — useful as the
    /// reference behaviour in equivalence tests and benchmarks.
    pub journal: bool,
}

impl CheckpointConfig {
    /// Configuration for full checkpointing (record everything).
    pub fn full() -> CheckpointConfig {
        CheckpointConfig { kind: CheckpointKind::Full, journal: true }
    }

    /// Configuration for incremental checkpointing (record modified only).
    pub fn incremental() -> CheckpointConfig {
        CheckpointConfig { kind: CheckpointKind::Incremental, journal: true }
    }

    /// Disables the dirty-set journal fast path, forcing the flag-test
    /// traversal on every checkpoint.
    pub fn without_journal(mut self) -> CheckpointConfig {
        self.journal = false;
        self
    }
}

/// One completed checkpoint: its bytes plus bookkeeping.
///
/// A record produced by a pooled checkpointer returns its byte buffer to
/// the producer's [`BufferPool`] when dropped; use
/// [`CheckpointRecord::into_parts`] to take the bytes out instead.
#[derive(Debug)]
pub struct CheckpointRecord {
    seq: u64,
    kind: CheckpointKind,
    roots: Vec<StableId>,
    bytes: Vec<u8>,
    stats: TraversalStats,
    pool: Option<BufferPool>,
}

impl Clone for CheckpointRecord {
    /// Clones the record's data; the clone is detached from any buffer
    /// pool (only the original returns its buffer).
    fn clone(&self) -> CheckpointRecord {
        CheckpointRecord {
            seq: self.seq,
            kind: self.kind,
            roots: self.roots.clone(),
            bytes: self.bytes.clone(),
            stats: self.stats,
            pool: None,
        }
    }
}

impl PartialEq for CheckpointRecord {
    /// Records compare by content; buffer-pool attachment is ignored.
    fn eq(&self, other: &CheckpointRecord) -> bool {
        self.seq == other.seq
            && self.kind == other.kind
            && self.roots == other.roots
            && self.bytes == other.bytes
            && self.stats == other.stats
    }
}

impl Drop for CheckpointRecord {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.recycle(std::mem::take(&mut self.bytes));
        }
    }
}

impl CheckpointRecord {
    /// Assembles a checkpoint record from its parts.
    ///
    /// Exists so alternative producers (the specialized checkpointer in
    /// `ickp-spec`) can emit records interchangeable with the generic
    /// driver's; `bytes` must be a finished [`StreamWriter`] stream.
    pub fn from_parts(
        seq: u64,
        kind: CheckpointKind,
        roots: Vec<StableId>,
        bytes: Vec<u8>,
        stats: TraversalStats,
    ) -> CheckpointRecord {
        CheckpointRecord { seq, kind, roots, bytes, stats, pool: None }
    }

    pub(crate) fn pooled(
        seq: u64,
        kind: CheckpointKind,
        roots: Vec<StableId>,
        bytes: Vec<u8>,
        stats: TraversalStats,
        pool: BufferPool,
    ) -> CheckpointRecord {
        CheckpointRecord { seq, kind, roots, bytes, stats, pool: Some(pool) }
    }

    /// Dismantles the record into `(seq, kind, roots, bytes, stats)`,
    /// transferring ownership of the roots and bytes without cloning (and
    /// without returning the buffer to any pool).
    pub fn into_parts(mut self) -> (u64, CheckpointKind, Vec<StableId>, Vec<u8>, TraversalStats) {
        self.pool = None;
        (
            self.seq,
            self.kind,
            std::mem::take(&mut self.roots),
            std::mem::take(&mut self.bytes),
            self.stats,
        )
    }

    /// Sequence number within the producing run.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Full or incremental.
    pub fn kind(&self) -> CheckpointKind {
        self.kind
    }

    /// Stable ids of the roots this checkpoint covers.
    pub fn roots(&self) -> &[StableId] {
        &self.roots
    }

    /// The encoded checkpoint stream.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Checkpoint size in bytes (the paper's "Ckp. size").
    pub fn len_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Counters accumulated while producing this checkpoint.
    pub fn stats(&self) -> TraversalStats {
        self.stats
    }
}

/// Drives checkpoints over a heap; owns the sequence counter.
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug)]
pub struct Checkpointer {
    pub(crate) config: CheckpointConfig,
    pub(crate) next_seq: u64,
    pub(crate) cumulative: TraversalStats,
    /// Traversal-order cache backing the journal fast path; rebuilt by
    /// every slow-path checkpoint, invalidated by structure changes.
    pub(crate) cache: Option<JournalCache>,
    /// Shard-plan cache for `checkpoint_parallel` (same validity rule).
    pub(crate) plan_cache: Option<crate::parallel::PlanCache>,
    /// Per-shard counters of the most recent parallel checkpoint (one
    /// entry per shard; a single entry after a journal fast path).
    pub(crate) last_shard_stats: Vec<TraversalStats>,
    /// Wall-clock phase breakdown of the most recent parallel checkpoint.
    pub(crate) last_phases: Option<crate::parallel::ParallelPhases>,
    /// Recycles encode buffers between checkpoints (see [`BufferPool`]).
    pub(crate) pool: BufferPool,
    /// Reusable `(position, id)` scratch for the fast path's sort.
    pub(crate) scratch: Vec<(u32, ObjectId)>,
}

impl Checkpointer {
    /// Creates a checkpointer with sequence numbers starting at 0.
    pub fn new(config: CheckpointConfig) -> Checkpointer {
        Checkpointer {
            config,
            next_seq: 0,
            cumulative: TraversalStats::default(),
            cache: None,
            plan_cache: None,
            last_shard_stats: Vec::new(),
            last_phases: None,
            pool: BufferPool::default(),
            scratch: Vec::new(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> CheckpointConfig {
        self.config
    }

    /// Sequence number the next checkpoint will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Aligns the sequence counter, e.g. when resuming a run whose store
    /// already holds records from another driver (a restore, or a phase
    /// checkpointed by the specialized driver). The next checkpoint's
    /// stream header carries exactly this number, keeping persisted and
    /// in-memory sequence numbers consistent.
    pub fn set_next_seq(&mut self, seq: u64) {
        self.next_seq = seq;
    }

    /// Resets the checkpointer after a rollback to an earlier checkpoint
    /// (see `ickp-lifecycle`'s `reset_to`).
    ///
    /// Rolling a heap back re-materialises it from a checkpoint prefix, so
    /// every cache keyed on the *previous* timeline — the journal
    /// traversal-order cache, the parallel shard plan, the last shard
    /// counters — is stale and must be dropped, and the next sequence
    /// number must restart one past the restore point. Cumulative stats
    /// and the buffer pool survive: they describe work done, not heap
    /// state.
    pub fn rollback(&mut self, next_seq: u64) {
        self.next_seq = next_seq;
        self.cache = None;
        self.plan_cache = None;
        self.last_shard_stats.clear();
        self.last_phases = None;
    }

    /// Counters summed over every checkpoint taken so far.
    pub fn cumulative_stats(&self) -> TraversalStats {
        self.cumulative
    }

    /// Per-shard counters of the most recent parallel checkpoint, in
    /// shard (= stream merge) order. Each entry's `bytes_written` is that
    /// shard's record-body bytes, so the split can be compared against
    /// the static per-shard byte estimate of the `AUD205` imbalance lint.
    ///
    /// Empty until [`Checkpointer::checkpoint_parallel`] (or the traced
    /// variant) has run; a journal fast-path checkpoint leaves a single
    /// entry, since no shard workers ran.
    pub fn shard_stats(&self) -> &[TraversalStats] {
        &self.last_shard_stats
    }

    /// Wall-clock phase breakdown of the most recent parallel checkpoint
    /// (see [`crate::ParallelPhases`]), or `None` before the first
    /// [`Checkpointer::checkpoint_parallel`] call. This is the measured
    /// decomposition behind the scaling experiments: plan (the ownership
    /// pre-pass, including byte weighing), traverse (shard workers,
    /// spawn-to-join), merge (splice + bookkeeping + flag resets).
    pub fn parallel_phases(&self) -> Option<&crate::parallel::ParallelPhases> {
        self.last_phases.as_ref()
    }

    /// Takes one checkpoint of everything reachable from `roots`.
    ///
    /// This is the paper's Figure 1 `checkpoint` method applied to each
    /// root (see [`Walker::walk_into`]), or — for an incremental
    /// checkpoint whose heap shape and roots are unchanged since the last
    /// traversal — the byte-identical journal fast path.
    ///
    /// Uses a blocking protocol: the heap is borrowed for the whole
    /// checkpoint, exactly like the paper's stop-and-record assumption.
    ///
    /// # Errors
    ///
    /// Propagates heap errors (e.g. dangling references) and
    /// [`CoreError::UnknownClassIndex`] for objects whose class the method
    /// table does not cover.
    pub fn checkpoint(
        &mut self,
        heap: &mut Heap,
        methods: &MethodTable,
        roots: &[ObjectId],
    ) -> Result<CheckpointRecord, CoreError> {
        self.checkpoint_resolving(heap, methods, roots, Ok)
    }

    /// [`Checkpointer::checkpoint`] with every `record` and `fold`
    /// dispatch routed through `resolve`, on the traversal and the journal
    /// fast path alike. The engine backends in `ickp-backend` pass their
    /// dispatch mechanism (itable lookup, inline cache) here, so each
    /// object pays the engine's cost while the walk, the journal and the
    /// bytes stay this driver's.
    ///
    /// # Errors
    ///
    /// Fails like [`Checkpointer::checkpoint`], or with `resolve`'s error.
    pub fn checkpoint_resolving<R>(
        &mut self,
        heap: &mut Heap,
        methods: &MethodTable,
        roots: &[ObjectId],
        resolve: R,
    ) -> Result<CheckpointRecord, CoreError>
    where
        R: FnMut(ClassId) -> Result<ClassId, CoreError>,
    {
        let seq = self.next_seq;
        let root_ids: Vec<StableId> =
            roots.iter().map(|&r| heap.stable_id(r)).collect::<Result<_, _>>()?;
        if self.journal_usable(heap, roots) {
            return self.checkpoint_from_journal(heap, methods, root_ids, resolve);
        }
        let kind = self.config.kind;
        let (mut writer, reused) = self.writer_for(seq, kind, &root_ids);
        // Only incremental drivers can consume the cache; a full-kind
        // checkpoint would rebuild it for nothing.
        let journal_on = self.config.journal && kind == CheckpointKind::Incremental;
        let mut builder = journal_on.then(|| JournalCache::builder(heap, roots));
        // A fresh walker per checkpoint: its visited-set bookkeeping is
        // part of the generic driver's measured cost.
        let mut walker = Walker {
            kind,
            stack: Vec::with_capacity(roots.len()),
            visited: HashSet::with_capacity(roots.len() * 4),
        };
        let mut stats =
            walker.walk_into(heap, methods, roots, &mut writer, builder.as_mut(), resolve)?;
        if let Some(builder) = builder {
            self.cache = Some(builder.finish());
            heap.finish_journal_epoch();
        }
        stats.bytes_reused = reused;
        Ok(self.seal(seq, root_ids, writer, stats))
    }

    /// `true` if an incremental checkpoint of `roots` would skip the
    /// traversal and be served from the dirty-set journal: incremental
    /// mode, journal enabled, and a traversal-order cache that is still
    /// valid for this heap and root set.
    pub(crate) fn journal_usable(&self, heap: &Heap, roots: &[ObjectId]) -> bool {
        self.config.journal
            && self.config.kind == CheckpointKind::Incremental
            && self.cache.as_ref().is_some_and(|c| c.is_valid(heap, roots))
    }

    /// The journal fast path: O(modified log modified) instead of
    /// O(reachable). Emits the byte-identical stream the flag-test
    /// traversal would have produced, because the cached pre-order
    /// positions reproduce traversal order exactly and the journal is a
    /// complete membership filter for modified objects. Each emission
    /// still goes through `resolve`, so an engine's dispatch cost stays
    /// measurable here too.
    pub(crate) fn checkpoint_from_journal<R>(
        &mut self,
        heap: &mut Heap,
        methods: &MethodTable,
        root_ids: Vec<StableId>,
        mut resolve: R,
    ) -> Result<CheckpointRecord, CoreError>
    where
        R: FnMut(ClassId) -> Result<ClassId, CoreError>,
    {
        let seq = self.next_seq;
        let mut scratch = std::mem::take(&mut self.scratch);
        let cache = self.cache.as_ref().expect("journal_usable checked");
        let scanned = cache.collect_dirty(heap, &mut scratch);
        let hits = scratch.len() as u64;

        // Flag tests moved from the traversal to the journal scan; visits
        // shrink to the objects actually emitted.
        let mut stats = TraversalStats {
            flag_tests: scanned,
            journal_hits: hits,
            objects_visited: hits,
            subtrees_pruned: cache.reachable_len().saturating_sub(hits),
            ..TraversalStats::default()
        };

        let (mut writer, reused) = self.writer_for(seq, self.config.kind, &root_ids);
        stats.bytes_reused = reused;
        for &(_, id) in &scratch {
            let class = resolve(heap.class_of(id)?)?;
            let def = heap.class(class)?;
            writer.begin_object(heap.stable_id(id)?, class, def.num_slots());
            stats.virtual_calls += 1;
            methods.record(class)?(heap, id, &mut writer)?;
            stats.objects_recorded += 1;
            heap.reset_modified(id)?;
        }
        scratch.clear();
        self.scratch = scratch;
        heap.finish_journal_epoch();
        Ok(self.seal(seq, root_ids, writer, stats))
    }

    /// Finishes a checkpoint's stream into a pooled record and advances
    /// the sequence counter and cumulative stats.
    pub(crate) fn seal(
        &mut self,
        seq: u64,
        root_ids: Vec<StableId>,
        writer: StreamWriter,
        mut stats: TraversalStats,
    ) -> CheckpointRecord {
        stats.bytes_written = writer.len() as u64;
        let bytes = writer.finish();
        self.next_seq += 1;
        self.cumulative += stats;
        CheckpointRecord::pooled(seq, self.config.kind, root_ids, bytes, stats, self.pool.clone())
    }

    /// Starts a stream, reusing a pooled buffer when one is idle. Returns
    /// the writer and the recycled capacity (for `bytes_reused`).
    pub(crate) fn writer_for(
        &mut self,
        seq: u64,
        kind: CheckpointKind,
        root_ids: &[StableId],
    ) -> (StreamWriter, u64) {
        match self.pool.acquire() {
            Some(buf) => {
                let reused = buf.capacity() as u64;
                (StreamWriter::with_buffer(buf, seq, kind, root_ids), reused)
            }
            None => (StreamWriter::new(seq, kind, root_ids), 0),
        }
    }

    /// Performs the traversal and flag tests of an incremental checkpoint
    /// *without recording anything or resetting flags*.
    ///
    /// This isolates the "traversal time" row of the paper's Table 1: the
    /// walk-and-test cost that remains even when no object changed, i.e.
    /// the part of incremental checkpointing that only specialization can
    /// remove.
    ///
    /// # Errors
    ///
    /// Propagates heap and method-table errors like
    /// [`Checkpointer::checkpoint`].
    pub fn traverse_only(
        &mut self,
        heap: &Heap,
        methods: &MethodTable,
        roots: &[ObjectId],
    ) -> Result<TraversalStats, CoreError> {
        let mut stats = TraversalStats::default();
        let mut stack: Vec<ObjectId> = roots.iter().rev().copied().collect();
        let mut visited: HashSet<ObjectId> = HashSet::with_capacity(roots.len() * 4);
        while let Some(id) = stack.pop() {
            if !visited.insert(id) {
                continue;
            }
            stats.objects_visited += 1;
            stats.flag_tests += 1;
            // The flag read itself is the measured work.
            let _modified = heap.is_modified(id)?;
            let class = heap.class_of(id)?;
            stats.virtual_calls += 1;
            let before = stack.len();
            methods.fold(class)?(heap, id, &mut |child| {
                stack.push(child);
                Ok(())
            })?;
            stats.refs_followed += (stack.len() - before) as u64;
            stack[before..].reverse();
        }
        Ok(stats)
    }
}

/// The generic depth-first walk — the paper's Figure 1 loop — appending
/// to a caller's stream.
///
/// [`Checkpointer`]'s traversal and the generic fallbacks of specialized
/// plans in `ickp-spec` all run this one loop. Per object: *(incremental
/// only)* test the modified flag; if set, record the object's state (via
/// its virtual `record` method) and reset the flag; then, in either case,
/// fold over the children (via its virtual `fold` method) —
/// incrementality shrinks the *checkpoint*, not the *traversal*. A
/// visited set makes shared subobjects checkpoint once and keeps the walk
/// total even on (disallowed) cyclic inputs. A walker kept alive reuses
/// its stack and visited set across walks.
#[derive(Debug)]
pub struct Walker {
    kind: CheckpointKind,
    stack: Vec<ObjectId>,
    visited: HashSet<ObjectId>,
}

impl Walker {
    /// A walker for `kind` checkpoints: a full walk records every object
    /// it reaches, an incremental one only the modified.
    pub fn new(kind: CheckpointKind) -> Walker {
        Walker { kind, stack: Vec::new(), visited: HashSet::new() }
    }

    /// Walks everything reachable from `roots` in depth-first pre-order,
    /// appending records to `writer`, and returns the walk's counters
    /// (`bytes_written` is left to the caller, who owns the stream).
    ///
    /// `resolve` maps an object's class to the class whose methods run;
    /// it is called once before each `record` and once before each
    /// `fold`. Pass `Ok` for direct dispatch. `order`, when given, is fed
    /// every object at first visit (the journal fast path's pre-order).
    ///
    /// # Errors
    ///
    /// Propagates heap errors (e.g. dangling references), `resolve`'s
    /// errors and [`CoreError::UnknownClassIndex`] for objects whose class
    /// the method table does not cover.
    pub fn walk_into<R>(
        &mut self,
        heap: &mut Heap,
        methods: &MethodTable,
        roots: &[ObjectId],
        writer: &mut StreamWriter,
        mut order: Option<&mut JournalCacheBuilder>,
        mut resolve: R,
    ) -> Result<TraversalStats, CoreError>
    where
        R: FnMut(ClassId) -> Result<ClassId, CoreError>,
    {
        let Walker { kind, stack, visited } = self;
        let mut stats = TraversalStats::default();
        stack.clear();
        stack.extend(roots.iter().rev());
        visited.clear();
        while let Some(id) = stack.pop() {
            if !visited.insert(id) {
                continue;
            }
            stats.objects_visited += 1;
            if let Some(order) = &mut order {
                order.visit(id);
            }

            let record_it = match kind {
                CheckpointKind::Full => true,
                CheckpointKind::Incremental => {
                    stats.flag_tests += 1;
                    heap.is_modified(id)?
                }
            };
            let class = heap.class_of(id)?;
            if record_it {
                let class = resolve(class)?;
                let def = heap.class(class)?;
                writer.begin_object(heap.stable_id(id)?, class, def.num_slots());
                // Virtual call: o.record(d)
                stats.virtual_calls += 1;
                methods.record(class)?(heap, id, writer)?;
                stats.objects_recorded += 1;
                heap.reset_modified(id)?;
            }

            // Virtual call: o.fold(c)
            let class = resolve(class)?;
            stats.virtual_calls += 1;
            let before = stack.len();
            methods.fold(class)?(heap, id, &mut |child| {
                stack.push(child);
                Ok(())
            })?;
            stats.refs_followed += (stack.len() - before) as u64;
            // Preserve field order for the children just pushed.
            stack[before..].reverse();
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{decode, RecordedValue};
    use ickp_heap::{ClassId, ClassRegistry, FieldType, Value};

    fn setup() -> (Heap, ClassId, MethodTable) {
        let mut reg = ClassRegistry::new();
        let node = reg
            .define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])
            .unwrap();
        let table = MethodTable::derive(&reg);
        (Heap::new(reg), node, table)
    }

    /// Builds `head -> mid -> tail` and returns them tail-last.
    fn chain(heap: &mut Heap, node: ClassId) -> (ObjectId, ObjectId, ObjectId) {
        let tail = heap.alloc(node).unwrap();
        let mid = heap.alloc(node).unwrap();
        let head = heap.alloc(node).unwrap();
        heap.set_field(mid, 1, Value::Ref(Some(tail))).unwrap();
        heap.set_field(head, 1, Value::Ref(Some(mid))).unwrap();
        (head, mid, tail)
    }

    #[test]
    fn full_checkpoint_records_every_reachable_object() {
        let (mut heap, node, table) = setup();
        let (head, _, _) = chain(&mut heap, node);
        let mut ckp = Checkpointer::new(CheckpointConfig::full());
        let rec = ckp.checkpoint(&mut heap, &table, &[head]).unwrap();
        let d = decode(rec.bytes(), heap.registry()).unwrap();
        assert_eq!(d.objects.len(), 3);
        assert_eq!(rec.stats().objects_recorded, 3);
        assert_eq!(rec.stats().objects_visited, 3);
        assert_eq!(rec.stats().flag_tests, 0);
    }

    #[test]
    fn incremental_records_only_modified_and_resets_flags() {
        let (mut heap, node, table) = setup();
        let (head, mid, tail) = chain(&mut heap, node);
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());

        // First checkpoint: everything is fresh, so everything is recorded.
        let rec1 = ckp.checkpoint(&mut heap, &table, &[head]).unwrap();
        assert_eq!(rec1.stats().objects_recorded, 3);
        assert!(!heap.is_modified(head).unwrap());

        // No mutation: the second checkpoint is served by the journal fast
        // path — nothing is dirty, so nothing is visited at all.
        let rec2 = ckp.checkpoint(&mut heap, &table, &[head]).unwrap();
        assert_eq!(rec2.stats().objects_recorded, 0);
        assert_eq!(rec2.stats().objects_visited, 0);
        assert_eq!(rec2.stats().flag_tests, 0);
        assert_eq!(rec2.stats().subtrees_pruned, 3);
        assert!(rec2.len_bytes() < rec1.len_bytes());

        // Modify only the middle node: exactly one record, one visit.
        heap.set_field(mid, 0, Value::Int(5)).unwrap();
        let rec3 = ckp.checkpoint(&mut heap, &table, &[head]).unwrap();
        assert_eq!(rec3.stats().objects_recorded, 1);
        assert_eq!(rec3.stats().objects_visited, 1);
        assert_eq!(rec3.stats().journal_hits, 1);
        let d = decode(rec3.bytes(), heap.registry()).unwrap();
        assert_eq!(d.objects[0].stable, heap.stable_id(mid).unwrap());
        assert_eq!(d.objects[0].fields[0], RecordedValue::Int(5));
        let _ = tail;
    }

    #[test]
    fn traversal_visits_children_of_unmodified_parents() {
        // The paper is explicit: incrementality skips *recording*, never
        // *traversal* — a clean parent may hold a dirty child. With the
        // journal disabled, the driver keeps exactly that behaviour.
        let (mut heap, node, table) = setup();
        let (head, _, tail) = chain(&mut heap, node);
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental().without_journal());
        ckp.checkpoint(&mut heap, &table, &[head]).unwrap();
        heap.set_field(tail, 0, Value::Int(9)).unwrap();
        let rec = ckp.checkpoint(&mut heap, &table, &[head]).unwrap();
        assert_eq!(rec.stats().objects_recorded, 1);
        assert_eq!(rec.stats().objects_visited, 3);
    }

    #[test]
    fn shared_subobjects_are_checkpointed_once() {
        let (mut heap, node, table) = setup();
        let shared = heap.alloc(node).unwrap();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        heap.set_field(a, 1, Value::Ref(Some(shared))).unwrap();
        heap.set_field(b, 1, Value::Ref(Some(shared))).unwrap();
        let mut ckp = Checkpointer::new(CheckpointConfig::full());
        let rec = ckp.checkpoint(&mut heap, &table, &[a, b]).unwrap();
        assert_eq!(rec.stats().objects_recorded, 3);
    }

    #[test]
    fn sequence_numbers_increase() {
        let (mut heap, node, table) = setup();
        let o = heap.alloc(node).unwrap();
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
        let r0 = ckp.checkpoint(&mut heap, &table, &[o]).unwrap();
        let r1 = ckp.checkpoint(&mut heap, &table, &[o]).unwrap();
        assert_eq!(r0.seq(), 0);
        assert_eq!(r1.seq(), 1);
        assert_eq!(ckp.next_seq(), 2);
    }

    #[test]
    fn record_order_is_depth_first_preorder() {
        let (mut heap, node, table) = setup();
        let (head, mid, tail) = chain(&mut heap, node);
        let mut ckp = Checkpointer::new(CheckpointConfig::full());
        let rec = ckp.checkpoint(&mut heap, &table, &[head]).unwrap();
        let d = decode(rec.bytes(), heap.registry()).unwrap();
        let order: Vec<StableId> = d.objects.iter().map(|o| o.stable).collect();
        assert_eq!(
            order,
            vec![
                heap.stable_id(head).unwrap(),
                heap.stable_id(mid).unwrap(),
                heap.stable_id(tail).unwrap()
            ]
        );
    }

    #[test]
    fn traverse_only_counts_but_neither_records_nor_resets() {
        let (mut heap, node, table) = setup();
        let (head, _, _) = chain(&mut heap, node);
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
        let stats = ckp.traverse_only(&heap, &table, &[head]).unwrap();
        assert_eq!(stats.objects_visited, 3);
        assert_eq!(stats.flag_tests, 3);
        assert_eq!(stats.objects_recorded, 0);
        assert!(heap.is_modified(head).unwrap(), "flags untouched");
    }

    #[test]
    fn cumulative_stats_accumulate() {
        let (mut heap, node, table) = setup();
        let o = heap.alloc(node).unwrap();
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
        ckp.checkpoint(&mut heap, &table, &[o]).unwrap();
        ckp.checkpoint(&mut heap, &table, &[o]).unwrap();
        // First checkpoint traverses (1 visit, 1 flag test); the second is
        // a journal fast path over an empty dirty set (0 of each).
        assert_eq!(ckp.cumulative_stats().objects_visited, 1);
        assert_eq!(ckp.cumulative_stats().flag_tests, 1);
        assert_eq!(ckp.cumulative_stats().subtrees_pruned, 1);
    }

    #[test]
    fn roots_are_recorded_in_the_header() {
        let (mut heap, node, table) = setup();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        let mut ckp = Checkpointer::new(CheckpointConfig::full());
        let rec = ckp.checkpoint(&mut heap, &table, &[a, b]).unwrap();
        assert_eq!(rec.roots(), &[heap.stable_id(a).unwrap(), heap.stable_id(b).unwrap()]);
        let d = decode(rec.bytes(), heap.registry()).unwrap();
        assert_eq!(d.roots, rec.roots());
    }

    #[test]
    fn empty_roots_yield_empty_checkpoint() {
        let (mut heap, _, table) = setup();
        let mut ckp = Checkpointer::new(CheckpointConfig::full());
        let rec = ckp.checkpoint(&mut heap, &table, &[]).unwrap();
        assert_eq!(rec.stats().objects_recorded, 0);
        let d = decode(rec.bytes(), heap.registry()).unwrap();
        assert!(d.objects.is_empty());
    }
}
