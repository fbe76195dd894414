//! Specialized checkpointing under each engine.
//!
//! The same compiled [`Plan`] executes three ways:
//!
//! * `Jdk12` — threaded code (one dynamic call per residual instruction)
//!   with class guards on: a weak JIT can neither fuse the instruction
//!   stream nor prove the casts away.
//! * `HotSpot` — threaded for the first
//!   [`Engine::HOTSPOT_WARMUP`] checkpoints, then "compiled"
//!   (the direct interpreter), but the class guards stay: a managed
//!   runtime keeps its checkcasts.
//! * `Harissa` — the direct interpreter with guards elided from the
//!   start: the paper's generated C trusts the specializer.

use crate::engine::Engine;
use crate::threaded::ThreadedPlan;
use ickp_core::{
    CheckpointKind, CheckpointRecord, CoreError, MethodTable, StreamWriter, TraversalStats, Walker,
};
use ickp_heap::{Heap, ObjectId, StableId};
use ickp_spec::{GuardMode, Plan};

/// Specialized incremental checkpointing under a selected engine.
#[derive(Debug)]
pub struct SpecializedBackend {
    engine: Engine,
    plan: Plan,
    threaded: ThreadedPlan,
    next_seq: u64,
    /// Key of the last successful run — `(structure_version, roots,
    /// objects the plan visited)` — enabling the empty-dirty-set shortcut:
    /// if nothing in the journal is dirty and the graph shape and roots
    /// are unchanged, the plan's guards would pass exactly as before and
    /// every `TestModified` would skip, so the stream is just the header
    /// and footer and the plan need not run at all.
    last_good: Option<(u64, Vec<ObjectId>, u64)>,
}

impl SpecializedBackend {
    /// Builds the backend around a compiled plan.
    pub fn new(engine: Engine, plan: Plan) -> SpecializedBackend {
        let threaded = ThreadedPlan::compile(&plan);
        SpecializedBackend { engine, plan, threaded, next_seq: 0, last_good: None }
    }

    /// The engine in force.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The plan being executed.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Aligns the sequence counter with a store that already holds records
    /// from another driver (mirrors `ickp_core::Checkpointer::set_next_seq`).
    pub fn set_next_seq(&mut self, seq: u64) {
        self.next_seq = seq;
    }

    /// `true` once HotSpot has "compiled" the plan (after warmup).
    pub fn warmed_up(&self) -> bool {
        match self.engine {
            Engine::HotSpot => self.next_seq >= Engine::HOTSPOT_WARMUP,
            Engine::Harissa => true,
            Engine::Jdk12 => false,
        }
    }

    /// Takes one incremental checkpoint of `roots` under the engine's
    /// execution regime.
    ///
    /// # Errors
    ///
    /// Fails like `ickp_spec::SpecializedCheckpointer::checkpoint`; no
    /// sequence number is consumed on failure.
    pub fn checkpoint(
        &mut self,
        heap: &mut Heap,
        roots: &[ObjectId],
        methods: Option<&MethodTable>,
    ) -> Result<CheckpointRecord, CoreError> {
        let seq = self.next_seq;
        let root_ids: Vec<StableId> =
            roots.iter().map(|&r| heap.stable_id(r)).collect::<Result<_, _>>()?;
        if let Some((version, good_roots, visited)) = &self.last_good {
            if *version == heap.structure_version()
                && good_roots == roots
                && !heap.journal_has_dirty()
            {
                // Every record in a specialized plan sits behind a
                // modified-flag test (unconditionally-frozen nodes emit
                // nothing), so with zero dirty objects the plan would emit
                // an empty stream — which we can write directly.
                let writer = StreamWriter::new(seq, CheckpointKind::Incremental, &root_ids);
                let mut stats = TraversalStats {
                    flag_tests: heap.journal().len() as u64,
                    subtrees_pruned: *visited,
                    ..TraversalStats::default()
                };
                stats.bytes_written = writer.len() as u64;
                let bytes = writer.finish();
                self.next_seq += 1;
                heap.finish_journal_epoch();
                return Ok(CheckpointRecord::from_parts(
                    seq,
                    CheckpointKind::Incremental,
                    root_ids,
                    bytes,
                    stats,
                ));
            }
        }
        let mut writer = StreamWriter::new(seq, CheckpointKind::Incremental, &root_ids);
        let mut stats = TraversalStats::default();

        let (threaded_mode, guard) = match self.engine {
            Engine::Jdk12 => (true, GuardMode::Checked),
            Engine::HotSpot => (!self.warmed_up(), GuardMode::Checked),
            Engine::Harissa => (false, GuardMode::Trusting),
        };

        if threaded_mode {
            let mut regs = vec![None; self.threaded.num_regs() as usize];
            let mut walker = Walker::new(CheckpointKind::Incremental);
            for &root in roots {
                regs.fill(None);
                self.threaded.run(
                    heap,
                    root,
                    &mut writer,
                    guard,
                    methods,
                    &mut regs,
                    &mut walker,
                    &mut stats,
                )?;
            }
        } else {
            let mut exec = self.plan.executor();
            for &root in roots {
                exec.run(heap, root, &mut writer, guard, methods, &mut stats)?;
            }
        }

        stats.bytes_written = writer.len() as u64;
        let bytes = writer.finish();
        self.next_seq += 1;
        // A completed run is the proof the shortcut needs: guards passed
        // on this shape, so an unchanged shape with nothing dirty would
        // reproduce an empty stream.
        self.last_good = Some((heap.structure_version(), roots.to_vec(), stats.objects_visited));
        heap.finish_journal_epoch();
        Ok(CheckpointRecord::from_parts(seq, CheckpointKind::Incremental, root_ids, bytes, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ickp_core::decode;
    use ickp_heap::{ClassRegistry, FieldType, Value};
    use ickp_spec::{ListPattern, NodePattern, SpecShape, Specializer};

    fn world(n: usize) -> (Heap, Plan, Vec<ObjectId>, Vec<Vec<ObjectId>>) {
        let mut reg = ClassRegistry::new();
        let elem = reg
            .define("Elem", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])
            .unwrap();
        let holder = reg.define("Holder", None, &[("head", FieldType::Ref(Some(elem)))]).unwrap();
        let shape = SpecShape::object(
            holder,
            NodePattern::FrozenHere,
            vec![(0, SpecShape::list(elem, 1, 4, ListPattern::MayModify))],
        );
        let plan = Specializer::new(&reg).compile(&shape).unwrap();
        let mut heap = Heap::new(reg);
        let mut roots = Vec::new();
        let mut lists = Vec::new();
        for _ in 0..n {
            let mut ids = Vec::new();
            let mut next = None;
            for _ in 0..4 {
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
        heap.reset_all_modified();
        (heap, plan, roots, lists)
    }

    #[test]
    fn all_engines_record_the_same_objects() {
        let mut reference: Option<Vec<_>> = None;
        for engine in Engine::ALL {
            let (mut heap, plan, roots, lists) = world(5);
            heap.set_field(lists[2][3], 0, Value::Int(7)).unwrap();
            heap.set_field(lists[4][0], 0, Value::Int(8)).unwrap();
            let mut backend = SpecializedBackend::new(engine, plan);
            let rec = backend.checkpoint(&mut heap, &roots, None).unwrap();
            let d = decode(rec.bytes(), heap.registry()).unwrap();
            let stables: Vec<_> = d.objects.iter().map(|o| o.stable).collect();
            assert_eq!(d.objects.len(), 2, "{engine}");
            match &reference {
                None => reference = Some(stables),
                Some(r) => assert_eq!(&stables, r, "{engine}"),
            }
        }
    }

    #[test]
    fn hotspot_switches_from_threaded_to_compiled_after_warmup() {
        let (mut heap, plan, roots, lists) = world(3);
        let mut backend = SpecializedBackend::new(Engine::HotSpot, plan);
        assert!(!backend.warmed_up());
        for round in 0..4 {
            heap.set_field(lists[0][0], 0, Value::Int(round)).unwrap();
            backend.checkpoint(&mut heap, &roots, None).unwrap();
        }
        assert!(backend.warmed_up());
        // Jdk12 never warms up; Harissa is always compiled.
        let (_, plan2, _, _) = world(1);
        assert!(!SpecializedBackend::new(Engine::Jdk12, plan2).warmed_up());
        let (_, plan3, _, _) = world(1);
        assert!(SpecializedBackend::new(Engine::Harissa, plan3).warmed_up());
    }

    #[test]
    fn results_are_identical_before_and_after_warmup() {
        let (mut heap, plan, roots, lists) = world(4);
        let mut backend = SpecializedBackend::new(Engine::HotSpot, plan);
        let mut sizes = Vec::new();
        for round in 0..4 {
            heap.set_field(lists[1][2], 0, Value::Int(round)).unwrap();
            let rec = backend.checkpoint(&mut heap, &roots, None).unwrap();
            sizes.push(rec.len_bytes());
        }
        assert!(sizes.windows(2).all(|w| w[0] == w[1]), "{sizes:?}");
    }

    #[test]
    fn harissa_trusting_mode_skips_class_guards_but_not_null_checks() {
        let (mut heap, plan, roots, _) = world(1);
        heap.set_field(roots[0], 0, Value::Ref(None)).unwrap();
        let mut backend = SpecializedBackend::new(Engine::Harissa, plan);
        let err = backend.checkpoint(&mut heap, &roots, None).unwrap_err();
        assert!(matches!(err, CoreError::GuardFailed { .. }));
        assert_eq!(backend.next_seq, 0, "failed checkpoint consumes no seq");
    }

    #[test]
    fn dynamic_fallback_plans_run_under_every_engine() {
        use ickp_core::MethodTable;
        use ickp_spec::SpecShape;
        // Holder whose child shape is undeclared: the plan carries a
        // generic fallback, which must work threaded (Jdk12), warmed
        // (HotSpot) and compiled (Harissa).
        let mut reg = ClassRegistry::new();
        let elem = reg
            .define("Elem", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])
            .unwrap();
        let holder = reg.define("Holder", None, &[("head", FieldType::Ref(Some(elem)))]).unwrap();
        let shape =
            SpecShape::object(holder, NodePattern::MayModify, vec![(0, SpecShape::Dynamic)]);
        let plan = Specializer::new(&reg).compile(&shape).unwrap();
        assert!(plan.has_dynamic());

        for engine in Engine::ALL {
            let mut heap = Heap::new(reg.clone());
            let e2 = heap.alloc(elem).unwrap();
            let e1 = heap.alloc(elem).unwrap();
            heap.set_field(e1, 1, Value::Ref(Some(e2))).unwrap();
            let h = heap.alloc(holder).unwrap();
            heap.set_field(h, 0, Value::Ref(Some(e1))).unwrap();
            heap.reset_all_modified();
            heap.set_field(e2, 0, Value::Int(5)).unwrap();

            let table = MethodTable::derive(heap.registry());
            let mut backend = SpecializedBackend::new(engine, plan.clone());
            let rec = backend.checkpoint(&mut heap, &[h], Some(&table)).unwrap();
            let d = decode(rec.bytes(), heap.registry()).unwrap();
            assert_eq!(d.objects.len(), 1, "{engine}");
            assert!(rec.stats().virtual_calls > 0, "{engine}: fallback dispatched");
        }
    }

    #[test]
    fn plan_accessor_round_trips() {
        let (_, plan, _, _) = world(1);
        let ops = plan.ops().len();
        let backend = SpecializedBackend::new(Engine::Jdk12, plan);
        assert_eq!(backend.plan().ops().len(), ops);
        assert_eq!(backend.engine(), Engine::Jdk12);
    }
}
