//! Checkpoint plans: the residual programs produced by specialization.
//!
//! A [`Plan`] is the specializer's output — the moral equivalent of the
//! straight-line Java methods in the paper's Figures 5 and 6, expressed as
//! a flat instruction sequence instead of generated source. Executing a
//! plan performs **no dynamic dispatch**: every class, slot index and list
//! length was resolved at specialization time; only field *values* and
//! modified *flags* are consulted at run time, and only where the declared
//! modification pattern says they can vary.
//!
//! Plans can run in two guard modes:
//!
//! * [`GuardMode::Checked`] verifies, at each load, that the object graph
//!   still has the declared shape (class guards) — safety the paper's
//!   generated C code omits;
//! * [`GuardMode::Trusting`] skips the class guards (null checks remain,
//!   since they are required for memory safety), matching the paper's
//!   performance assumptions.

use crate::error::SpecError;
use ickp_core::{CheckpointKind, CoreError, MethodTable, StreamWriter, TraversalStats, Walker};
use ickp_heap::{ClassId, FieldType, Heap, ObjectId, Value};

/// How strictly a plan validates the heap against its compiled shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardMode {
    /// Verify class guards on every load (detects stale plans).
    Checked,
    /// Trust the declaration; only null checks are performed.
    Trusting,
}

/// A virtual register holding an object reference during plan execution.
pub type Reg = u32;

/// One instruction of a compiled checkpoint plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Bind the plan's root object into `dst` (guard: `class`).
    LoadRoot {
        /// Destination register.
        dst: Reg,
        /// Statically declared class of the root.
        class: ClassId,
    },
    /// `dst = src.slots[slot]`, a statically resolved field load
    /// (guard: referent is `class`). The residual form of an inlined
    /// `fold` step.
    LoadRef {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
        /// Field slot to load.
        slot: u32,
        /// Statically declared class of the referent.
        class: ClassId,
    },
    /// Like [`Op::LoadRef`] but the referent's shape is unknown: a `null`
    /// simply skips the next `skip` instructions instead of failing.
    LoadDyn {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
        /// Field slot to load.
        slot: u32,
        /// Instructions to skip when the field is null.
        skip: u32,
    },
    /// If the object in `obj` is *not* modified, skip the next `skip`
    /// instructions. The residual form of `if (info.modified())`.
    TestModified {
        /// Register holding the object to test.
        obj: Reg,
        /// Instructions to skip when clean.
        skip: u32,
    },
    /// Record the object's full local state using template `template`,
    /// then reset its modified flag. The residual form of
    /// `d.writeInt(id); o.record(d); info.resetModified();`, fully inlined.
    Record {
        /// Register holding the object to record.
        obj: Reg,
        /// Index into the plan's record templates.
        template: u32,
    },
    /// Fall back to the generic incremental checkpointer for the subtree
    /// rooted at `obj` (a `Dynamic` declaration).
    Generic {
        /// Register holding the subtree root.
        obj: Reg,
    },
    /// Verify that the declared list ends here: `obj.slots[slot]` must be
    /// null. Emitted after the tail element of a fixed-length list so a
    /// *grown* list trips the guards instead of being silently truncated
    /// (its new elements would otherwise never be recorded). A shape
    /// guard, so only enforced under [`GuardMode::Checked`].
    GuardListEnd {
        /// Register holding the declared tail element.
        obj: Reg,
        /// The list's `next` slot, expected to hold null.
        slot: u32,
    },
}

/// Precompiled field-writing recipe for one class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordTemplate {
    class: ClassId,
    kinds: Vec<FieldType>,
}

impl RecordTemplate {
    /// Builds a template from a class layout.
    pub fn new(class: ClassId, kinds: Vec<FieldType>) -> RecordTemplate {
        RecordTemplate { class, kinds }
    }

    /// The class this template records.
    pub fn class(&self) -> ClassId {
        self.class
    }

    /// The field kinds in layout order.
    pub fn kinds(&self) -> &[FieldType] {
        &self.kinds
    }
}

/// A compiled, specialized checkpoint routine for one declared shape.
///
/// Produced by [`crate::Specializer::compile`]; executed by
/// [`PlanExecutor`]. See the crate docs for an end-to-end example.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    ops: Vec<Op>,
    templates: Vec<RecordTemplate>,
    num_regs: u32,
    has_dynamic: bool,
}

impl Plan {
    pub(crate) fn new(
        ops: Vec<Op>,
        templates: Vec<RecordTemplate>,
        num_regs: u32,
        has_dynamic: bool,
    ) -> Plan {
        Plan { ops, templates, num_regs, has_dynamic }
    }

    /// Assembles a plan directly from its parts, with **no validation**.
    ///
    /// [`crate::Specializer::compile`] is the supported way to obtain a
    /// plan; this constructor exists for tooling that needs to build plans
    /// by hand — notably the static verifier in `ickp-audit`, whose test
    /// suite feeds it deliberately malformed instruction sequences. A plan
    /// built here may panic or corrupt the stream when executed; run it
    /// through the auditor first.
    pub fn from_raw_parts(
        ops: Vec<Op>,
        templates: Vec<RecordTemplate>,
        num_regs: u32,
        has_dynamic: bool,
    ) -> Plan {
        Plan::new(ops, templates, num_regs, has_dynamic)
    }

    /// The instruction sequence.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The record templates referenced by [`Op::Record`].
    pub fn templates(&self) -> &[RecordTemplate] {
        &self.templates
    }

    /// Number of virtual registers the plan needs.
    pub fn num_regs(&self) -> u32 {
        self.num_regs
    }

    /// `true` if the plan contains a generic fallback and therefore needs a
    /// [`MethodTable`] at execution time.
    pub fn has_dynamic(&self) -> bool {
        self.has_dynamic
    }

    /// Creates an executor with scratch space sized for this plan.
    pub fn executor(&self) -> PlanExecutor<'_> {
        PlanExecutor {
            plan: self,
            regs: vec![None; self.num_regs as usize],
            walker: Walker::new(CheckpointKind::Incremental),
        }
    }
}

/// Reusable execution state for a [`Plan`].
///
/// Keeping the executor alive across the many roots of a checkpoint avoids
/// reallocating register files per object — the specialized analog of the
/// paper's monolithic per-structure routine being called in a loop.
#[derive(Debug)]
pub struct PlanExecutor<'p> {
    plan: &'p Plan,
    regs: Vec<Option<ObjectId>>,
    /// The generic walk behind [`Op::Generic`] fallbacks.
    walker: Walker,
}

impl<'p> PlanExecutor<'p> {
    /// Runs the plan once, rooted at `root`, appending records to `writer`
    /// and accumulating counters into `stats`.
    ///
    /// `methods` is required only when the plan
    /// [`has_dynamic`](Plan::has_dynamic) fallbacks.
    ///
    /// # Errors
    ///
    /// * [`CoreError::GuardFailed`] if the heap no longer matches the
    ///   declared shape (always for nulls on static edges; additionally for
    ///   class mismatches under [`GuardMode::Checked`]).
    /// * [`CoreError::Heap`] for dangling references.
    /// * [`CoreError::UnknownClassIndex`] if a generic fallback meets a
    ///   class the method table does not cover.
    pub fn run(
        &mut self,
        heap: &mut Heap,
        root: ObjectId,
        writer: &mut StreamWriter,
        mode: GuardMode,
        methods: Option<&MethodTable>,
        stats: &mut TraversalStats,
    ) -> Result<(), CoreError> {
        if self.plan.has_dynamic && methods.is_none() {
            return Err(CoreError::GuardFailed {
                expected: "a method table for generic fallback".into(),
                found: SpecError::MissingMethodTable.to_string(),
            });
        }
        let ops = &self.plan.ops;
        let mut pc = 0usize;
        while pc < ops.len() {
            match &ops[pc] {
                Op::LoadRoot { dst, class } => {
                    if mode == GuardMode::Checked {
                        let actual = heap.class_of(root)?;
                        if actual != *class {
                            return Err(guard_class_error(heap, *class, actual));
                        }
                    }
                    self.regs[*dst as usize] = Some(root);
                    stats.objects_visited += 1;
                }
                Op::LoadRef { dst, src, slot, class } => {
                    let src_obj = self.reg(*src)?;
                    let value = heap.field(src_obj, *slot as usize)?;
                    let child = match value {
                        Value::Ref(Some(child)) => child,
                        Value::Ref(None) => {
                            return Err(CoreError::GuardFailed {
                                expected: format!("non-null {class} reference"),
                                found: "null".into(),
                            })
                        }
                        other => {
                            return Err(CoreError::GuardFailed {
                                expected: "reference field".into(),
                                found: format!("{other}"),
                            })
                        }
                    };
                    if mode == GuardMode::Checked {
                        let actual = heap.class_of(child)?;
                        if actual != *class {
                            return Err(guard_class_error(heap, *class, actual));
                        }
                    }
                    self.regs[*dst as usize] = Some(child);
                    stats.refs_followed += 1;
                    stats.objects_visited += 1;
                }
                Op::LoadDyn { dst, src, slot, skip } => {
                    let src_obj = self.reg(*src)?;
                    match heap.field(src_obj, *slot as usize)? {
                        Value::Ref(Some(child)) => {
                            self.regs[*dst as usize] = Some(child);
                            stats.refs_followed += 1;
                        }
                        Value::Ref(None) => {
                            pc += *skip as usize;
                        }
                        other => {
                            return Err(CoreError::GuardFailed {
                                expected: "reference field".into(),
                                found: format!("{other}"),
                            })
                        }
                    }
                }
                Op::TestModified { obj, skip } => {
                    stats.flag_tests += 1;
                    if !heap.is_modified(self.reg(*obj)?)? {
                        pc += *skip as usize;
                    }
                }
                Op::Record { obj, template } => {
                    let id = self.reg(*obj)?;
                    let t = &self.plan.templates[*template as usize];
                    record_with_template(heap, id, t, writer)?;
                    heap.reset_modified(id)?;
                    stats.objects_recorded += 1;
                }
                Op::GuardListEnd { obj, slot } => {
                    if mode == GuardMode::Checked {
                        let tail = self.reg(*obj)?;
                        if let Value::Ref(Some(_)) = heap.field(tail, *slot as usize)? {
                            return Err(CoreError::GuardFailed {
                                expected: "end of declared list (null next)".into(),
                                found: "a further element (list grew)".into(),
                            });
                        }
                    }
                }
                Op::Generic { obj } => {
                    let id = self.reg(*obj)?;
                    let table = methods.expect("checked at entry");
                    *stats += self.walker.walk_into(heap, table, &[id], writer, None, Ok)?;
                }
            }
            pc += 1;
        }
        stats.bytes_written = writer.len() as u64;
        Ok(())
    }

    fn reg(&self, r: Reg) -> Result<ObjectId, CoreError> {
        self.regs[r as usize].ok_or_else(|| CoreError::GuardFailed {
            expected: format!("register r{r} bound"),
            found: "unbound register (skipped load?)".into(),
        })
    }
}

fn guard_class_error(heap: &Heap, expected: ClassId, actual: ClassId) -> CoreError {
    let name =
        |c: ClassId| heap.class(c).map(|d| d.name().to_string()).unwrap_or_else(|_| c.to_string());
    CoreError::GuardFailed { expected: name(expected), found: name(actual) }
}

/// Writes one object's full state using a precompiled template: the
/// inlined, dispatch-free residual of `record`.
///
/// Public so alternative plan executors (e.g. the threaded-code backends
/// in `ickp-backend`) can share the exact record semantics.
///
/// # Errors
///
/// Returns [`CoreError::GuardFailed`] if a field value does not match the
/// template (stale plan) and propagates heap errors.
pub fn record_with_template(
    heap: &Heap,
    id: ObjectId,
    template: &RecordTemplate,
    writer: &mut StreamWriter,
) -> Result<(), CoreError> {
    let obj = heap.object(id)?;
    writer.begin_object(obj.info().stable_id(), template.class, template.kinds.len());
    let fields = obj.fields();
    for (slot, kind) in template.kinds.iter().enumerate() {
        match (fields[slot], kind) {
            (Value::Int(v), FieldType::Int) => writer.write_int(v),
            (Value::Long(v), FieldType::Long) => writer.write_long(v),
            (Value::Double(v), FieldType::Double) => writer.write_double(v),
            (Value::Bool(v), FieldType::Bool) => writer.write_bool(v),
            (Value::Ref(None), FieldType::Ref(_)) => writer.write_ref(None),
            (Value::Ref(Some(child)), FieldType::Ref(_)) => {
                writer.write_ref(Some(heap.stable_id(child)?))
            }
            (v, ty) => {
                return Err(CoreError::GuardFailed {
                    expected: format!("value of type {ty}"),
                    found: format!("{v}"),
                })
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ickp_core::{decode, CheckpointKind};
    use ickp_heap::{ClassRegistry, StableId};

    fn setup() -> (Heap, ClassId) {
        let mut reg = ClassRegistry::new();
        let node = reg
            .define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])
            .unwrap();
        (Heap::new(reg), node)
    }

    fn hand_plan(node: ClassId) -> Plan {
        // test root; record if modified; load next; test; record.
        Plan::new(
            vec![
                Op::LoadRoot { dst: 0, class: node },
                Op::TestModified { obj: 0, skip: 1 },
                Op::Record { obj: 0, template: 0 },
                Op::LoadRef { dst: 1, src: 0, slot: 1, class: node },
                Op::TestModified { obj: 1, skip: 1 },
                Op::Record { obj: 1, template: 0 },
            ],
            vec![RecordTemplate::new(node, vec![FieldType::Int, FieldType::Ref(None)])],
            2,
            false,
        )
    }

    #[test]
    fn plan_records_only_modified_objects() {
        let (mut heap, node) = setup();
        let child = heap.alloc(node).unwrap();
        let root = heap.alloc(node).unwrap();
        heap.set_field(root, 1, Value::Ref(Some(child))).unwrap();
        heap.reset_all_modified();
        heap.set_field(child, 0, Value::Int(3)).unwrap();

        let plan = hand_plan(node);
        let mut exec = plan.executor();
        let mut writer = StreamWriter::new(0, CheckpointKind::Incremental, &[]);
        let mut stats = TraversalStats::default();
        exec.run(&mut heap, root, &mut writer, GuardMode::Checked, None, &mut stats).unwrap();
        let bytes = writer.finish();

        let d = decode(&bytes, heap.registry()).unwrap();
        assert_eq!(d.objects.len(), 1);
        assert_eq!(d.objects[0].stable, heap.stable_id(child).unwrap());
        assert_eq!(stats.flag_tests, 2);
        assert_eq!(stats.objects_recorded, 1);
        assert_eq!(stats.virtual_calls, 0, "specialized code never dispatches");
        assert!(!heap.is_modified(child).unwrap(), "flag reset after record");
    }

    #[test]
    fn null_static_edge_fails_in_both_modes() {
        let (mut heap, node) = setup();
        let root = heap.alloc(node).unwrap(); // next is null
        let plan = hand_plan(node);
        for mode in [GuardMode::Checked, GuardMode::Trusting] {
            let mut exec = plan.executor();
            let mut writer = StreamWriter::new(0, CheckpointKind::Incremental, &[]);
            let mut stats = TraversalStats::default();
            let err = exec.run(&mut heap, root, &mut writer, mode, None, &mut stats).unwrap_err();
            assert!(matches!(err, CoreError::GuardFailed { .. }), "{mode:?}");
        }
    }

    #[test]
    fn class_guard_fires_only_in_checked_mode() {
        let (mut heap, node) = setup();
        let other = heap
            .define_class("Other", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])
            .unwrap();
        let child = heap.alloc(other).unwrap();
        let root = heap.alloc(node).unwrap();
        heap.set_field(root, 1, Value::Ref(Some(child))).unwrap();

        let plan = hand_plan(node);
        let mut writer = StreamWriter::new(0, CheckpointKind::Incremental, &[]);
        let mut stats = TraversalStats::default();
        let err = plan
            .executor()
            .run(&mut heap, root, &mut writer, GuardMode::Checked, None, &mut stats)
            .unwrap_err();
        assert!(matches!(err, CoreError::GuardFailed { .. }));

        // Trusting mode records under the *declared* class — same layout
        // here, so it succeeds (the unsafe speed the paper assumes).
        let mut writer = StreamWriter::new(0, CheckpointKind::Incremental, &[]);
        let mut stats = TraversalStats::default();
        plan.executor()
            .run(&mut heap, root, &mut writer, GuardMode::Trusting, None, &mut stats)
            .unwrap();
    }

    #[test]
    fn dynamic_plan_requires_method_table() {
        let (mut heap, node) = setup();
        let root = heap.alloc(node).unwrap();
        let plan = Plan::new(
            vec![Op::LoadRoot { dst: 0, class: node }, Op::Generic { obj: 0 }],
            vec![],
            1,
            true,
        );
        let mut writer = StreamWriter::new(0, CheckpointKind::Incremental, &[]);
        let mut stats = TraversalStats::default();
        let err = plan
            .executor()
            .run(&mut heap, root, &mut writer, GuardMode::Checked, None, &mut stats)
            .unwrap_err();
        assert!(matches!(err, CoreError::GuardFailed { .. }));

        let table = MethodTable::derive(heap.registry());
        let mut writer = StreamWriter::new(0, CheckpointKind::Incremental, &[]);
        let mut stats = TraversalStats::default();
        plan.executor()
            .run(&mut heap, root, &mut writer, GuardMode::Checked, Some(&table), &mut stats)
            .unwrap();
        assert_eq!(stats.objects_recorded, 1);
        assert!(stats.virtual_calls > 0, "fallback dispatches generically");
    }

    #[test]
    fn load_dyn_skips_on_null() {
        let (mut heap, node) = setup();
        let root = heap.alloc(node).unwrap();
        let table = MethodTable::derive(heap.registry());
        let plan = Plan::new(
            vec![
                Op::LoadRoot { dst: 0, class: node },
                Op::LoadDyn { dst: 1, src: 0, slot: 1, skip: 1 },
                Op::Generic { obj: 1 },
            ],
            vec![],
            2,
            true,
        );
        let mut writer = StreamWriter::new(0, CheckpointKind::Incremental, &[]);
        let mut stats = TraversalStats::default();
        plan.executor()
            .run(&mut heap, root, &mut writer, GuardMode::Checked, Some(&table), &mut stats)
            .unwrap();
        assert_eq!(stats.objects_recorded, 0, "null edge skipped the fallback");
    }

    #[test]
    fn record_stream_is_decodable_and_complete() {
        let (mut heap, node) = setup();
        let child = heap.alloc(node).unwrap();
        let root = heap.alloc(node).unwrap();
        heap.set_field(root, 0, Value::Int(10)).unwrap();
        heap.set_field(root, 1, Value::Ref(Some(child))).unwrap();
        heap.set_field(child, 0, Value::Int(20)).unwrap();

        let plan = hand_plan(node);
        let root_sid = heap.stable_id(root).unwrap();
        let mut writer = StreamWriter::new(7, CheckpointKind::Incremental, &[root_sid]);
        let mut stats = TraversalStats::default();
        plan.executor()
            .run(&mut heap, root, &mut writer, GuardMode::Checked, None, &mut stats)
            .unwrap();
        let d = decode(&writer.finish(), heap.registry()).unwrap();
        assert_eq!(d.seq, 7);
        assert_eq!(d.objects.len(), 2);
        assert_eq!(d.roots, vec![root_sid]);
    }

    #[test]
    fn unbound_register_is_an_execution_error() {
        let (mut heap, node) = setup();
        let root = heap.alloc(node).unwrap();
        // Record from a register nothing ever loaded.
        let plan = Plan::new(
            vec![Op::Record { obj: 3, template: 0 }],
            vec![RecordTemplate::new(node, vec![FieldType::Int, FieldType::Ref(None)])],
            4,
            false,
        );
        let mut writer = StreamWriter::new(0, CheckpointKind::Incremental, &[]);
        let mut stats = TraversalStats::default();
        let err = plan
            .executor()
            .run(&mut heap, root, &mut writer, GuardMode::Checked, None, &mut stats)
            .unwrap_err();
        assert!(matches!(err, CoreError::GuardFailed { .. }));
        let _ = StableId(0);
    }
}
