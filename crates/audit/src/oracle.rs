//! The dynamic cross-validator: a debug-only oracle backing the static
//! verdicts.
//!
//! Where [`crate::verify_plan`] reasons about a plan symbolically,
//! [`cross_validate`] runs it: on a scratch clone of the heap, over the
//! given roots, into a real checkpoint stream — then compares what got
//! recorded against the heap journal's dirty set, bucketed by what the
//! declaration claims about each object:
//!
//! * **missed** — dirty, covered by the declaration (a test/record site
//!   or inside a dynamic subtree), yet absent from the stream. A sound
//!   plan never produces these; one missed object is a bug in either the
//!   plan or the declaration.
//! * **spurious** — recorded though its modified flag was clear. Also
//!   never expected: every record site is flag-guarded.
//! * **declared-clean** dirty objects — dirty, but the declaration says
//!   this phase cannot touch them. The specializer *trusts* declarations
//!   (the paper's contract), so these are not plan bugs; they are exactly
//!   what the static pattern checker (`AUD101`) exists to catch. The
//!   oracle counts them so tests can assert both halves of the story.

use ickp_core::{
    decode, journal_dirty_set, CheckpointKind, CoreError, MethodTable, StreamWriter, TraversalStats,
};
use ickp_heap::{preorder, Heap, ObjectId, StableId, Value};
use ickp_spec::{GuardMode, ListPattern, NodePattern, Plan, SpecShape};
use std::collections::{HashMap, HashSet};

/// How the declaration covers one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Coverage {
    /// A static test/record site: recorded iff dirty.
    Recordable,
    /// Inside a declared-dynamic subtree: the generic fallback records it
    /// iff dirty.
    DynamicCovered,
}

/// The oracle's verdict for one plan execution. See the module docs for
/// the bucket semantics.
#[derive(Debug, Clone, Default)]
pub struct OracleReport {
    /// Objects the executed plan actually recorded.
    pub recorded: usize,
    /// Dirty objects in the journal at validation time.
    pub dirty: usize,
    /// Dirty, declaration-covered, yet unrecorded objects (bugs).
    pub missed: Vec<ObjectId>,
    /// Recorded objects whose modified flag was clear (bugs).
    pub spurious: Vec<StableId>,
    /// Dirty objects the declaration claims this phase cannot write.
    pub declared_clean_dirty: usize,
}

impl OracleReport {
    /// `true` when the run and the declaration agree: nothing covered was
    /// missed and nothing clean was recorded.
    pub fn is_consistent(&self) -> bool {
        self.missed.is_empty() && self.spurious.is_empty()
    }
}

/// Executes `plan` from each of `roots` on a scratch clone of `heap` and
/// reconciles the resulting checkpoint stream against the journal's dirty
/// set, classified under `shape`.
///
/// `heap` itself is untouched (flag resets happen on the clone), so the
/// oracle can run repeatedly and alongside static passes.
///
/// # Errors
///
/// Propagates executor failures — a guard failure here means the heap no
/// longer conforms to the declaration — and stream decode errors.
pub fn cross_validate(
    heap: &Heap,
    plan: &Plan,
    shape: &SpecShape,
    roots: &[ObjectId],
    mode: GuardMode,
) -> Result<OracleReport, CoreError> {
    // 1. Classify every declaration-covered object reachable from a root.
    let mut coverage: HashMap<ObjectId, Coverage> = HashMap::new();
    for &root in roots {
        classify(heap, root, shape, &mut coverage)?;
    }

    // 2. Execute the plan for real, on a clone, into one stream.
    let mut scratch = heap.clone();
    let table = plan.has_dynamic().then(|| MethodTable::derive(heap.registry()));
    let mut writer = StreamWriter::new(0, CheckpointKind::Incremental, &[]);
    let mut stats = TraversalStats::default();
    let mut executor = plan.executor();
    for &root in roots {
        executor.run(&mut scratch, root, &mut writer, mode, table.as_ref(), &mut stats)?;
    }
    let decoded = decode(&writer.finish(), heap.registry())?;
    let recorded: HashSet<StableId> = decoded.objects.iter().map(|o| o.stable).collect();

    // 3. Reconcile against the journal of the *original* heap.
    let mut report = OracleReport { recorded: recorded.len(), ..OracleReport::default() };
    let mut dirty_stables: HashSet<StableId> = HashSet::new();
    for id in journal_dirty_set(heap) {
        let stable = heap.stable_id(id)?;
        dirty_stables.insert(stable);
        report.dirty += 1;
        match coverage.get(&id) {
            Some(_) if !recorded.contains(&stable) => report.missed.push(id),
            Some(_) => {}
            None => report.declared_clean_dirty += 1,
        }
    }
    report.spurious = recorded.iter().filter(|s| !dirty_stables.contains(s)).copied().collect();
    Ok(report)
}

/// Walks the declaration over the live heap, recording which objects the
/// specialized checkpointer is responsible for.
fn classify(
    heap: &Heap,
    obj: ObjectId,
    shape: &SpecShape,
    out: &mut HashMap<ObjectId, Coverage>,
) -> Result<(), CoreError> {
    match shape {
        SpecShape::Object { pattern, children, .. } => {
            match pattern {
                NodePattern::MayModify => {
                    out.insert(obj, Coverage::Recordable);
                }
                NodePattern::FrozenHere => {}
                // The declaration asserts the whole subtree clean: nothing
                // below is covered.
                NodePattern::Unmodified => return Ok(()),
            }
            for (slot, child) in children {
                if let Value::Ref(Some(id)) = heap.field(obj, *slot)? {
                    classify(heap, id, child, out)?;
                }
            }
        }
        SpecShape::List { next_slot, len, pattern, .. } => {
            let mut cur = Some(obj);
            for pos in 0..*len {
                let Some(id) = cur else { break };
                let covered = match pattern {
                    ListPattern::Unmodified => false,
                    ListPattern::MayModify => true,
                    ListPattern::LastOnly => pos == len - 1,
                    ListPattern::Positions(ps) => ps.contains(&pos),
                };
                if covered {
                    out.insert(id, Coverage::Recordable);
                }
                cur = match heap.field(id, *next_slot)? {
                    Value::Ref(r) => r,
                    _ => None,
                };
            }
        }
        SpecShape::Dynamic => {
            // The generic fallback records any dirty object in the whole
            // reachable subtree.
            let enter = |id| out.insert(id, Coverage::DynamicCovered).is_none();
            preorder(heap, &[obj], enter, |_, _| Ok::<(), CoreError>(()))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ickp_heap::{ClassRegistry, FieldType};
    use ickp_spec::Specializer;

    /// holder -> e0 -> e1 -> e2, with the phase declared LastOnly.
    /// Returns (heap, holder id, elements, shape, elem class, holder class).
    #[allow(clippy::type_complexity)]
    fn world() -> (Heap, ObjectId, Vec<ObjectId>, SpecShape, ickp_heap::ClassId, ickp_heap::ClassId)
    {
        let mut reg = ClassRegistry::new();
        let elem = reg
            .define("Elem", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])
            .unwrap();
        let holder = reg.define("Holder", None, &[("head", FieldType::Ref(Some(elem)))]).unwrap();
        let mut heap = Heap::new(reg);
        let e2 = heap.alloc(elem).unwrap();
        let e1 = heap.alloc(elem).unwrap();
        heap.set_field(e1, 1, Value::Ref(Some(e2))).unwrap();
        let e0 = heap.alloc(elem).unwrap();
        heap.set_field(e0, 1, Value::Ref(Some(e1))).unwrap();
        let h = heap.alloc(holder).unwrap();
        heap.set_field(h, 0, Value::Ref(Some(e0))).unwrap();
        let shape = SpecShape::object(
            holder,
            NodePattern::FrozenHere,
            vec![(0, SpecShape::list(elem, 1, 3, ListPattern::LastOnly))],
        );
        (heap, h, vec![e0, e1, e2], shape, elem, holder)
    }

    #[test]
    fn faithful_plan_and_declaration_reconcile() {
        let (mut heap, h, elems, shape, _, _) = world();
        let plan = Specializer::new(heap.registry()).compile(&shape).unwrap();
        heap.reset_all_modified();
        heap.set_field(elems[2], 0, Value::Int(9)).unwrap(); // dirty the tail
        let r = cross_validate(&heap, &plan, &shape, &[h], GuardMode::Checked).unwrap();
        assert!(r.is_consistent(), "{r:?}");
        assert_eq!(r.recorded, 1);
        assert_eq!(r.dirty, 1);
        assert_eq!(r.declared_clean_dirty, 0);
    }

    #[test]
    fn out_of_declaration_writes_are_trusted_not_missed() {
        let (mut heap, h, elems, shape, _, _) = world();
        let plan = Specializer::new(heap.registry()).compile(&shape).unwrap();
        heap.reset_all_modified();
        // Dirty the head, which LastOnly declares clean.
        heap.set_field(elems[0], 0, Value::Int(9)).unwrap();
        let r = cross_validate(&heap, &plan, &shape, &[h], GuardMode::Checked).unwrap();
        assert!(r.is_consistent(), "declarations are trusted: {r:?}");
        assert_eq!(r.recorded, 0);
        assert_eq!(r.declared_clean_dirty, 1);
    }

    #[test]
    fn a_plan_for_the_wrong_pattern_misses_covered_objects() {
        let (mut heap, h, elems, shape, elem, holder) = world();
        // Compile for LastOnly but *declare* MayModify: every element is
        // covered, so dirtying the head must surface as a miss.
        let broad = SpecShape::object(
            holder,
            NodePattern::FrozenHere,
            vec![(0, SpecShape::list(elem, 1, 3, ListPattern::MayModify))],
        );
        let plan = Specializer::new(heap.registry()).compile(&shape).unwrap();
        heap.reset_all_modified();
        heap.set_field(elems[0], 0, Value::Int(9)).unwrap();
        let r = cross_validate(&heap, &plan, &broad, &[h], GuardMode::Checked).unwrap();
        assert_eq!(r.missed, vec![elems[0]]);
        assert!(!r.is_consistent());
    }
}
