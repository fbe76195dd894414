//! The specialized checkpoint driver.
//!
//! [`SpecializedCheckpointer`] is the drop-in replacement for
//! `ickp_core::Checkpointer`: it produces byte-identical
//! `CheckpointRecord`s (same stream format, same store, same restore path)
//! but runs a compiled [`Plan`] over each root instead of the generic
//! virtual-dispatch traversal.

use crate::plan::{GuardMode, Plan};
use ickp_core::{
    CheckpointConfig, CheckpointKind, CheckpointRecord, Checkpointer, CoreError, MethodTable,
    StreamWriter, TraversalStats,
};
use ickp_heap::{Heap, ObjectId, StableId};

/// Takes incremental checkpoints by executing specialized plans.
///
/// # Example
///
/// See the crate-level documentation of `ickp-spec`.
#[derive(Debug)]
pub struct SpecializedCheckpointer {
    mode: GuardMode,
    next_seq: u64,
    cumulative: TraversalStats,
}

impl SpecializedCheckpointer {
    /// Creates a driver; `mode` selects guarded or trusting plan execution.
    pub fn new(mode: GuardMode) -> SpecializedCheckpointer {
        SpecializedCheckpointer { mode, next_seq: 0, cumulative: TraversalStats::default() }
    }

    /// The guard mode in force.
    pub fn mode(&self) -> GuardMode {
        self.mode
    }

    /// Sequence number the next checkpoint will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Aligns the sequence counter with a store produced by other drivers
    /// (the generic checkpointer's base checkpoint, a reloaded store, …)
    /// so that records append contiguously with consistent stream headers.
    pub fn set_next_seq(&mut self, seq: u64) {
        self.next_seq = seq;
    }

    /// Counters summed over every checkpoint taken so far.
    pub fn cumulative_stats(&self) -> TraversalStats {
        self.cumulative
    }

    /// Takes one incremental checkpoint of `roots`, all sharing `plan`.
    ///
    /// This is the common case of the paper's benchmarks: many compound
    /// structures with the *same* declared shape, each checkpointed by one
    /// run of the same specialized routine.
    ///
    /// `methods` is needed only when the plan has `Dynamic` fallbacks.
    ///
    /// # Errors
    ///
    /// Fails like [`crate::PlanExecutor::run`]; on error no sequence number
    /// is consumed.
    pub fn checkpoint(
        &mut self,
        heap: &mut Heap,
        plan: &Plan,
        roots: &[ObjectId],
        methods: Option<&MethodTable>,
    ) -> Result<CheckpointRecord, CoreError> {
        self.checkpoint_each(heap, roots.iter().map(|&r| (plan, r)), methods)
    }

    /// Takes one incremental checkpoint where each root has its own plan
    /// (e.g. heterogeneous compound structures in one program phase).
    ///
    /// # Errors
    ///
    /// Fails like [`SpecializedCheckpointer::checkpoint`].
    pub fn checkpoint_each<'p, I>(
        &mut self,
        heap: &mut Heap,
        assignments: I,
        methods: Option<&MethodTable>,
    ) -> Result<CheckpointRecord, CoreError>
    where
        I: IntoIterator<Item = (&'p Plan, ObjectId)>,
    {
        let assignments: Vec<(&Plan, ObjectId)> = assignments.into_iter().collect();
        let root_ids: Vec<StableId> =
            assignments.iter().map(|&(_, r)| heap.stable_id(r)).collect::<Result<_, _>>()?;
        let seq = self.next_seq;
        let mut writer = StreamWriter::new(seq, CheckpointKind::Incremental, &root_ids);
        let mut stats = TraversalStats::default();

        // Reuse one executor per distinct plan to amortize register files
        // across consecutive roots sharing a plan.
        let mut current: Option<(*const Plan, crate::plan::PlanExecutor<'p>)> = None;
        for (plan, root) in &assignments {
            let plan_ptr: *const Plan = *plan;
            if !matches!(&current, Some((p, _)) if *p == plan_ptr) {
                current = Some((plan_ptr, plan.executor()));
            }
            let exec = &mut current.as_mut().expect("set above").1;
            exec.run(heap, *root, &mut writer, self.mode, methods, &mut stats)?;
        }

        stats.bytes_written = writer.len() as u64;
        let bytes = writer.finish();
        self.next_seq += 1;
        self.cumulative += stats;
        Ok(CheckpointRecord::from_parts(seq, CheckpointKind::Incremental, root_ids, bytes, stats))
    }
}

/// Result of [`SpecializedCheckpointer::checkpoint_or_fallback`].
#[derive(Debug, Clone, PartialEq)]
pub struct FallbackOutcome {
    /// The checkpoint that was actually taken.
    pub record: CheckpointRecord,
    /// `true` if the plan's guards fired and the generic path ran instead.
    pub fell_back: bool,
}

impl SpecializedCheckpointer {
    /// Takes a checkpoint with a specialized plan, **falling back to the
    /// generic checkpointer** if the heap no longer matches the plan's
    /// compiled shape.
    ///
    /// This is the safety valve the paper's hand-written alternative
    /// lacks ("when the program is modified, these manually optimized
    /// routines may need to be completely rewritten"): the plan runs in
    /// checked mode regardless of the driver's configured guard mode, and
    /// a guard failure triggers a *conservative* generic checkpoint — all
    /// objects are re-marked modified first, because a partially executed
    /// plan may already have reset flags of objects it recorded into the
    /// discarded stream. The fallback record therefore contains the full
    /// reachable state and keeps the store recoverable; it is taken by a
    /// journal-off `ickp_core::Checkpointer` at this driver's sequence
    /// number, so its bytes and counters are that driver's.
    ///
    /// # Errors
    ///
    /// Propagates non-guard errors (dangling handles, unknown classes in
    /// the method table).
    pub fn checkpoint_or_fallback(
        &mut self,
        heap: &mut Heap,
        plan: &Plan,
        roots: &[ObjectId],
        methods: &MethodTable,
    ) -> Result<FallbackOutcome, CoreError> {
        let saved_mode = self.mode;
        self.mode = GuardMode::Checked;
        let attempt = self.checkpoint(heap, plan, roots, Some(methods));
        self.mode = saved_mode;
        match attempt {
            Ok(record) => Ok(FallbackOutcome { record, fell_back: false }),
            Err(CoreError::GuardFailed { .. }) => {
                heap.mark_all_modified();
                let config = CheckpointConfig::incremental().without_journal();
                let mut generic = Checkpointer::new(config);
                generic.set_next_seq(self.next_seq);
                let record = generic.checkpoint(heap, methods, roots)?;
                self.next_seq += 1;
                self.cumulative += record.stats();
                Ok(FallbackOutcome { record, fell_back: true })
            }
            Err(other) => Err(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::Specializer;
    use crate::shape::{ListPattern, NodePattern, SpecShape};
    use ickp_core::{
        decode, restore, verify_restore, CheckpointConfig, CheckpointStore, Checkpointer,
        RestorePolicy,
    };
    use ickp_heap::{ClassId, ClassRegistry, FieldType, Value};

    struct World {
        heap: Heap,
        holder: ClassId,
        elem: ClassId,
        roots: Vec<ObjectId>,
        lists: Vec<Vec<ObjectId>>,
    }

    /// Builds `n` holders, each with one list of `len` elements.
    fn world(n: usize, len: usize) -> World {
        let mut reg = ClassRegistry::new();
        let elem = reg
            .define("Elem", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])
            .unwrap();
        let holder = reg.define("Holder", None, &[("head", FieldType::Ref(Some(elem)))]).unwrap();
        let mut heap = Heap::new(reg);
        let mut roots = Vec::new();
        let mut lists = Vec::new();
        for _ in 0..n {
            let mut ids = Vec::new();
            let mut next = None;
            for _ in 0..len {
                let e = heap.alloc(elem).unwrap();
                heap.set_field(e, 1, Value::Ref(next)).unwrap();
                next = Some(e);
                ids.push(e);
            }
            ids.reverse();
            let h = heap.alloc(holder).unwrap();
            heap.set_field(h, 0, Value::Ref(Some(ids[0]))).unwrap();
            roots.push(h);
            lists.push(ids);
        }
        World { heap, holder, elem, roots, lists }
    }

    fn shape(w: &World, len: usize, pattern: ListPattern) -> SpecShape {
        SpecShape::object(
            w.holder,
            NodePattern::MayModify,
            vec![(0, SpecShape::list(w.elem, 1, len, pattern))],
        )
    }

    #[test]
    fn specialized_and_generic_checkpoints_agree_byte_for_byte_on_content() {
        let mut w = world(4, 3);
        // Identical twin heap for the generic driver.
        let mut w2 = world(4, 3);
        let modify = |w: &mut World| {
            w.heap.reset_all_modified();
            let e = w.lists[1][2];
            w.heap.set_field(e, 0, Value::Int(99)).unwrap();
            let h = w.roots[3];
            let _ = h;
        };
        modify(&mut w);
        modify(&mut w2);

        let plan = Specializer::new(w.heap.registry())
            .compile(&shape(&w, 3, ListPattern::MayModify))
            .unwrap();
        let mut sc = SpecializedCheckpointer::new(GuardMode::Checked);
        let spec_rec = sc.checkpoint(&mut w.heap, &plan, &w.roots.clone(), None).unwrap();

        let table = MethodTable::derive(w2.heap.registry());
        let mut gc = Checkpointer::new(CheckpointConfig::incremental());
        let roots2 = w2.roots.clone();
        let gen_rec = gc.checkpoint(&mut w2.heap, &table, &roots2).unwrap();

        let d_spec = decode(spec_rec.bytes(), w.heap.registry()).unwrap();
        let d_gen = decode(gen_rec.bytes(), w2.heap.registry()).unwrap();
        assert_eq!(d_spec.objects, d_gen.objects);
        assert_eq!(d_spec.roots, d_gen.roots);
    }

    #[test]
    fn specialized_records_restore_exactly() {
        let mut w = world(3, 4);
        w.heap.reset_all_modified();
        w.heap.mark_all_modified(); // first checkpoint covers everything

        let plan = Specializer::new(w.heap.registry())
            .compile(&shape(&w, 4, ListPattern::MayModify))
            .unwrap();
        let mut sc = SpecializedCheckpointer::new(GuardMode::Checked);
        let mut store = CheckpointStore::new();
        let roots = w.roots.clone();
        store.push(sc.checkpoint(&mut w.heap, &plan, &roots, None).unwrap()).unwrap();

        // Mutate a couple of elements and take an increment.
        w.heap.set_field(w.lists[0][1], 0, Value::Int(5)).unwrap();
        w.heap.set_field(w.lists[2][3], 0, Value::Int(6)).unwrap();
        store.push(sc.checkpoint(&mut w.heap, &plan, &roots, None).unwrap()).unwrap();

        let rebuilt = restore(&store, w.heap.registry(), RestorePolicy::Lenient).unwrap();
        assert_eq!(verify_restore(&w.heap, &roots, &rebuilt).unwrap(), None);
    }

    #[test]
    fn sequence_numbers_and_cumulative_stats_advance() {
        let mut w = world(2, 2);
        let plan = Specializer::new(w.heap.registry())
            .compile(&shape(&w, 2, ListPattern::MayModify))
            .unwrap();
        let mut sc = SpecializedCheckpointer::new(GuardMode::Trusting);
        let roots = w.roots.clone();
        let r0 = sc.checkpoint(&mut w.heap, &plan, &roots, None).unwrap();
        let r1 = sc.checkpoint(&mut w.heap, &plan, &roots, None).unwrap();
        assert_eq!((r0.seq(), r1.seq()), (0, 1));
        assert_eq!(sc.next_seq(), 2);
        assert!(sc.cumulative_stats().flag_tests >= r0.stats().flag_tests);
        assert_eq!(sc.mode(), GuardMode::Trusting);
    }

    #[test]
    fn failed_checkpoint_consumes_no_sequence_number() {
        let mut w = world(1, 2);
        // Break the shape: null out the list head.
        w.heap.set_field(w.roots[0], 0, Value::Ref(None)).unwrap();
        let plan = Specializer::new(w.heap.registry())
            .compile(&shape(&w, 2, ListPattern::MayModify))
            .unwrap();
        let mut sc = SpecializedCheckpointer::new(GuardMode::Checked);
        let roots = w.roots.clone();
        assert!(sc.checkpoint(&mut w.heap, &plan, &roots, None).is_err());
        assert_eq!(sc.next_seq(), 0);
    }

    #[test]
    fn fallback_fires_on_shape_drift_and_remains_recoverable() {
        use ickp_core::{restore, verify_restore, RestorePolicy};
        let mut w = world(3, 2);
        let table = MethodTable::derive(w.heap.registry());
        let plan = Specializer::new(w.heap.registry())
            .compile(&shape(&w, 2, ListPattern::MayModify))
            .unwrap();
        let mut sc = SpecializedCheckpointer::new(GuardMode::Trusting);
        let mut store = CheckpointStore::new();

        // Round 1: shape intact — no fallback.
        let roots = w.roots.clone();
        let out = sc.checkpoint_or_fallback(&mut w.heap, &plan, &roots, &table).unwrap();
        assert!(!out.fell_back);
        store.push(out.record).unwrap();

        // The program evolves: one list shrinks to a single element, so
        // the plan's second LoadRef hits null mid-structure.
        w.heap.set_field(w.lists[1][0], 1, Value::Ref(None)).unwrap();
        let out = sc.checkpoint_or_fallback(&mut w.heap, &plan, &roots, &table).unwrap();
        assert!(out.fell_back, "guard failure must trigger fallback");
        assert!(out.record.stats().objects_recorded > 0);
        store.push(out.record).unwrap();

        // Recovery still works and matches the live (evolved) state.
        let rebuilt = restore(&store, w.heap.registry(), RestorePolicy::Lenient).unwrap();
        assert_eq!(verify_restore(&w.heap, &roots, &rebuilt).unwrap(), None);
    }

    #[test]
    fn fallback_walks_shared_subobjects_once_like_the_generic_driver() {
        // Two holders share one list; growing it trips the plan's
        // end-of-list guard on the first root.
        let mut w = world(1, 2);
        let shared_head = w.lists[0][0];
        let twin = w.heap.alloc(w.holder).unwrap();
        w.heap.set_field(twin, 0, Value::Ref(Some(shared_head))).unwrap();
        let roots = vec![w.roots[0], twin];
        let table = MethodTable::derive(w.heap.registry());
        let plan = Specializer::new(w.heap.registry())
            .compile(&shape(&w, 2, ListPattern::MayModify))
            .unwrap();
        let grown = w.heap.alloc(w.elem).unwrap();
        w.heap.set_field(w.lists[0][1], 1, Value::Ref(Some(grown))).unwrap();
        let mut reference_heap = w.heap.clone();

        let mut sc = SpecializedCheckpointer::new(GuardMode::Checked);
        sc.set_next_seq(4);
        let out = sc.checkpoint_or_fallback(&mut w.heap, &plan, &roots, &table).unwrap();
        assert!(out.fell_back);

        reference_heap.mark_all_modified();
        let mut generic = Checkpointer::new(CheckpointConfig::incremental().without_journal());
        generic.set_next_seq(4);
        let reference = generic.checkpoint(&mut reference_heap, &table, &roots).unwrap();
        assert_eq!(out.record.bytes(), reference.bytes());
        assert_eq!(out.record.stats(), reference.stats());
        // 2 holders + 3 list elements, the shared list walked once.
        assert_eq!(out.record.stats().objects_visited, 5);
        assert_eq!(out.record.stats().flag_tests, 5);
        assert_eq!(sc.next_seq(), 5);
    }

    #[test]
    fn fallback_restores_the_configured_guard_mode() {
        let mut w = world(1, 2);
        let table = MethodTable::derive(w.heap.registry());
        let plan = Specializer::new(w.heap.registry())
            .compile(&shape(&w, 2, ListPattern::MayModify))
            .unwrap();
        let mut sc = SpecializedCheckpointer::new(GuardMode::Trusting);
        let roots = w.roots.clone();
        sc.checkpoint_or_fallback(&mut w.heap, &plan, &roots, &table).unwrap();
        assert_eq!(sc.mode(), GuardMode::Trusting);
    }

    #[test]
    fn fallback_consumes_exactly_one_sequence_number() {
        let mut w = world(1, 2);
        let table = MethodTable::derive(w.heap.registry());
        let plan = Specializer::new(w.heap.registry())
            .compile(&shape(&w, 2, ListPattern::MayModify))
            .unwrap();
        w.heap.set_field(w.roots[0], 0, Value::Ref(None)).unwrap(); // break shape
        let mut sc = SpecializedCheckpointer::new(GuardMode::Checked);
        let roots = w.roots.clone();
        let out = sc.checkpoint_or_fallback(&mut w.heap, &plan, &roots, &table).unwrap();
        assert!(out.fell_back);
        assert_eq!(out.record.seq(), 0);
        assert_eq!(sc.next_seq(), 1);
    }

    #[test]
    fn heterogeneous_roots_use_their_own_plans() {
        let mut w = world(2, 3);
        let spec = Specializer::new(w.heap.registry());
        let plan_all = spec.compile(&shape(&w, 3, ListPattern::MayModify)).unwrap();
        let plan_last = spec.compile(&shape(&w, 3, ListPattern::LastOnly)).unwrap();
        w.heap.reset_all_modified();
        // Dirty element 0 of both structures; only the MayModify plan can
        // see it (LastOnly only tests the tail).
        w.heap.set_field(w.lists[0][0], 0, Value::Int(1)).unwrap();
        w.heap.set_field(w.lists[1][0], 0, Value::Int(1)).unwrap();

        let mut sc = SpecializedCheckpointer::new(GuardMode::Checked);
        let rec = sc
            .checkpoint_each(
                &mut w.heap,
                vec![(&plan_all, w.roots[0]), (&plan_last, w.roots[1])],
                None,
            )
            .unwrap();
        let d = decode(rec.bytes(), w.heap.registry()).unwrap();
        assert_eq!(d.objects.len(), 1, "LastOnly plan misses the head mutation by design");
    }
}
