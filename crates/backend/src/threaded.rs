//! Threaded-code execution of specialized plans.
//!
//! A non-optimizing JIT (the paper's JDK 1.2) runs the specialized
//! checkpointing *method* but cannot remove its own per-bytecode
//! interpretation overhead. We model that faithfully: every plan
//! instruction becomes one boxed closure, and executing the plan makes
//! one dynamic call per instruction — the specialized program with
//! engine-level indirection still on top.

use ickp_core::{CoreError, MethodTable, StreamWriter, TraversalStats, Walker};
use ickp_heap::{Heap, ObjectId, Value};
use ickp_spec::{record_with_template, GuardMode, Op, Plan, RecordTemplate};

/// Execution context threaded through the closure chain.
pub struct Ctx<'a> {
    /// Virtual registers.
    pub regs: &'a mut [Option<ObjectId>],
    /// The heap being checkpointed.
    pub heap: &'a mut Heap,
    /// The checkpoint stream.
    pub writer: &'a mut StreamWriter,
    /// Counters.
    pub stats: &'a mut TraversalStats,
    /// Method table for generic fallbacks.
    pub methods: Option<&'a MethodTable>,
    /// Guard strictness.
    pub mode: GuardMode,
    /// The generic walk behind fallbacks.
    pub walker: &'a mut Walker,
    /// The plan root for this run.
    pub root: ObjectId,
}

type ThreadedOp = Box<dyn Fn(&mut Ctx<'_>) -> Result<u32, CoreError> + Send + Sync>;

/// A plan compiled to threaded code: one boxed closure per instruction.
pub struct ThreadedPlan {
    ops: Vec<ThreadedOp>,
    num_regs: u32,
    has_dynamic: bool,
}

impl std::fmt::Debug for ThreadedPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedPlan")
            .field("ops", &self.ops.len())
            .field("num_regs", &self.num_regs)
            .finish()
    }
}

fn reg(ctx: &Ctx<'_>, r: u32) -> Result<ObjectId, CoreError> {
    ctx.regs[r as usize].ok_or_else(|| CoreError::GuardFailed {
        expected: format!("register r{r} bound"),
        found: "unbound register".into(),
    })
}

impl ThreadedPlan {
    /// Compiles a plan into threaded code.
    pub fn compile(plan: &Plan) -> ThreadedPlan {
        let templates: Vec<RecordTemplate> = plan.templates().to_vec();
        let ops = plan
            .ops()
            .iter()
            .map(|op| -> ThreadedOp {
                match op.clone() {
                    Op::LoadRoot { dst, class } => Box::new(move |ctx| {
                        if ctx.mode == GuardMode::Checked {
                            let actual = ctx.heap.class_of(ctx.root)?;
                            if actual != class {
                                return Err(CoreError::GuardFailed {
                                    expected: class.to_string(),
                                    found: actual.to_string(),
                                });
                            }
                        }
                        ctx.regs[dst as usize] = Some(ctx.root);
                        ctx.stats.objects_visited += 1;
                        Ok(0)
                    }),
                    Op::LoadRef { dst, src, slot, class } => Box::new(move |ctx| {
                        let src_obj = reg(ctx, src)?;
                        let child = match ctx.heap.field(src_obj, slot as usize)? {
                            Value::Ref(Some(child)) => child,
                            other => {
                                return Err(CoreError::GuardFailed {
                                    expected: format!("non-null {class} reference"),
                                    found: format!("{other}"),
                                })
                            }
                        };
                        if ctx.mode == GuardMode::Checked {
                            let actual = ctx.heap.class_of(child)?;
                            if actual != class {
                                return Err(CoreError::GuardFailed {
                                    expected: class.to_string(),
                                    found: actual.to_string(),
                                });
                            }
                        }
                        ctx.regs[dst as usize] = Some(child);
                        ctx.stats.refs_followed += 1;
                        ctx.stats.objects_visited += 1;
                        Ok(0)
                    }),
                    Op::LoadDyn { dst, src, slot, skip } => Box::new(move |ctx| {
                        let src_obj = reg(ctx, src)?;
                        match ctx.heap.field(src_obj, slot as usize)? {
                            Value::Ref(Some(child)) => {
                                ctx.regs[dst as usize] = Some(child);
                                ctx.stats.refs_followed += 1;
                                Ok(0)
                            }
                            Value::Ref(None) => Ok(skip),
                            other => Err(CoreError::GuardFailed {
                                expected: "reference field".into(),
                                found: format!("{other}"),
                            }),
                        }
                    }),
                    Op::TestModified { obj, skip } => Box::new(move |ctx| {
                        ctx.stats.flag_tests += 1;
                        let id = reg(ctx, obj)?;
                        Ok(if ctx.heap.is_modified(id)? { 0 } else { skip })
                    }),
                    Op::Record { obj, template } => {
                        let template = templates[template as usize].clone();
                        Box::new(move |ctx| {
                            let id = reg(ctx, obj)?;
                            record_with_template(ctx.heap, id, &template, ctx.writer)?;
                            ctx.heap.reset_modified(id)?;
                            ctx.stats.objects_recorded += 1;
                            Ok(0)
                        })
                    }
                    Op::GuardListEnd { obj, slot } => Box::new(move |ctx| {
                        if ctx.mode == GuardMode::Checked {
                            let tail = reg(ctx, obj)?;
                            if let Value::Ref(Some(_)) = ctx.heap.field(tail, slot as usize)? {
                                return Err(CoreError::GuardFailed {
                                    expected: "end of declared list (null next)".into(),
                                    found: "a further element (list grew)".into(),
                                });
                            }
                        }
                        Ok(0)
                    }),
                    Op::Generic { obj } => Box::new(move |ctx| {
                        let id = reg(ctx, obj)?;
                        let table = ctx.methods.ok_or_else(|| CoreError::GuardFailed {
                            expected: "a method table for generic fallback".into(),
                            found: "none supplied".into(),
                        })?;
                        *ctx.stats +=
                            ctx.walker.walk_into(ctx.heap, table, &[id], ctx.writer, None, Ok)?;
                        Ok(0)
                    }),
                }
            })
            .collect();
        ThreadedPlan { ops, num_regs: plan.num_regs(), has_dynamic: plan.has_dynamic() }
    }

    /// Number of virtual registers required.
    pub fn num_regs(&self) -> u32 {
        self.num_regs
    }

    /// `true` if a generic fallback is present.
    pub fn has_dynamic(&self) -> bool {
        self.has_dynamic
    }

    /// Number of threaded instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` for an empty plan.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Runs the threaded code once for `root`.
    ///
    /// # Errors
    ///
    /// Fails like `ickp_spec::PlanExecutor::run`.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        heap: &mut Heap,
        root: ObjectId,
        writer: &mut StreamWriter,
        mode: GuardMode,
        methods: Option<&MethodTable>,
        regs: &mut [Option<ObjectId>],
        walker: &mut Walker,
        stats: &mut TraversalStats,
    ) -> Result<(), CoreError> {
        let mut ctx = Ctx { regs, heap, writer, stats, methods, mode, walker, root };
        let mut pc = 0usize;
        while pc < self.ops.len() {
            // One dynamic call per residual instruction: the threaded-code
            // overhead this executor exists to model.
            let skip = (self.ops[pc])(&mut ctx)?;
            pc += 1 + skip as usize;
        }
        ctx.stats.bytes_written = ctx.writer.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ickp_core::{decode, CheckpointKind};
    use ickp_heap::{ClassRegistry, FieldType};
    use ickp_spec::{ListPattern, NodePattern, SpecShape, Specializer};

    fn setup() -> (Heap, Plan, ObjectId, Vec<ObjectId>) {
        let mut reg = ClassRegistry::new();
        let elem = reg
            .define("Elem", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])
            .unwrap();
        let holder = reg.define("Holder", None, &[("head", FieldType::Ref(Some(elem)))]).unwrap();
        let shape = SpecShape::object(
            holder,
            NodePattern::FrozenHere,
            vec![(0, SpecShape::list(elem, 1, 3, ListPattern::MayModify))],
        );
        let plan = Specializer::new(&reg).compile(&shape).unwrap();
        let mut heap = Heap::new(reg);
        let mut ids = Vec::new();
        let mut next = None;
        for _ in 0..3 {
            let e = heap.alloc(elem).unwrap();
            heap.set_field(e, 1, Value::Ref(next)).unwrap();
            next = Some(e);
            ids.push(e);
        }
        ids.reverse();
        let h = heap.alloc(holder).unwrap();
        heap.set_field(h, 0, Value::Ref(Some(ids[0]))).unwrap();
        heap.reset_all_modified();
        (heap, plan, h, ids)
    }

    fn run_threaded(
        heap: &mut Heap,
        plan: &Plan,
        root: ObjectId,
        mode: GuardMode,
    ) -> (Vec<u8>, TraversalStats) {
        let threaded = ThreadedPlan::compile(plan);
        let mut regs = vec![None; threaded.num_regs() as usize];
        let mut walker = Walker::new(CheckpointKind::Incremental);
        let mut writer = StreamWriter::new(0, CheckpointKind::Incremental, &[]);
        let mut stats = TraversalStats::default();
        threaded
            .run(heap, root, &mut writer, mode, None, &mut regs, &mut walker, &mut stats)
            .unwrap();
        (writer.finish(), stats)
    }

    #[test]
    fn threaded_execution_matches_the_interpreter() {
        let (mut heap, plan, h, ids) = setup();
        heap.set_field(ids[1], 0, Value::Int(5)).unwrap();

        let mut heap2 = heap.clone();
        let (threaded_bytes, threaded_stats) =
            run_threaded(&mut heap, &plan, h, GuardMode::Checked);

        let mut writer = StreamWriter::new(0, CheckpointKind::Incremental, &[]);
        let mut stats = TraversalStats::default();
        plan.executor()
            .run(&mut heap2, h, &mut writer, GuardMode::Checked, None, &mut stats)
            .unwrap();
        let interp_bytes = writer.finish();

        assert_eq!(threaded_bytes, interp_bytes);
        assert_eq!(threaded_stats, stats);
        let d = decode(&threaded_bytes, heap.registry()).unwrap();
        assert_eq!(d.objects.len(), 1);
    }

    #[test]
    fn guard_modes_behave_like_the_interpreter() {
        let (mut heap, plan, h, _) = setup();
        // Break the shape: null the head.
        heap.set_field(h, 0, Value::Ref(None)).unwrap();
        let threaded = ThreadedPlan::compile(&plan);
        for mode in [GuardMode::Checked, GuardMode::Trusting] {
            let mut regs = vec![None; threaded.num_regs() as usize];
            let mut writer = StreamWriter::new(0, CheckpointKind::Incremental, &[]);
            let mut stats = TraversalStats::default();
            let err = threaded
                .run(
                    &mut heap,
                    h,
                    &mut writer,
                    mode,
                    None,
                    &mut regs,
                    &mut Walker::new(CheckpointKind::Incremental),
                    &mut stats,
                )
                .unwrap_err();
            assert!(matches!(err, CoreError::GuardFailed { .. }), "{mode:?}");
        }
    }

    #[test]
    fn compile_preserves_plan_metadata() {
        let (_, plan, _, _) = setup();
        let threaded = ThreadedPlan::compile(&plan);
        assert_eq!(threaded.len(), plan.ops().len());
        assert_eq!(threaded.num_regs(), plan.num_regs());
        assert_eq!(threaded.has_dynamic(), plan.has_dynamic());
        assert!(!threaded.is_empty());
    }
}
