//! Model-based randomized tests: the heap against a naive reference model.
//!
//! Previously written with `proptest`; rewritten over the in-repo seeded
//! PRNG so the suite runs with no network access (no external
//! dev-dependencies). Each case is fully determined by its seed, so a
//! failure message names the seed to replay.

use ickp_heap::{ClassRegistry, FieldType, Heap, HeapError, ObjectId, Value};
use ickp_prng::Prng;
use std::collections::HashMap;

/// Operations the fuzzer drives.
#[derive(Debug, Clone)]
enum Op {
    /// Allocates an instance of the two-slot class, or (`true`) of the
    /// three-slot one.
    Alloc(bool),
    Free(usize),
    SetInt(usize, i32),
    SetRef(usize, usize),
    SetRefNull(usize),
    ResetModified(usize),
    /// Stores into the third slot, which only the three-slot class has.
    SetLong(usize, i64),
}

fn random_op(rng: &mut Prng) -> Op {
    // Weights mirror the original proptest strategy, 2/1/3/2/1/1, plus 1
    // for the third slot's stores.
    match rng.below(11) {
        0 | 1 => Op::Alloc(rng.next_bool()),
        2 => Op::Free(rng.index(64)),
        3..=5 => Op::SetInt(rng.index(64), rng.next_i32()),
        6 | 7 => Op::SetRef(rng.index(64), rng.index(64)),
        8 => Op::SetRefNull(rng.index(64)),
        9 => Op::ResetModified(rng.index(64)),
        _ => Op::SetLong(rng.index(64), rng.next_u64() as i64),
    }
}

/// Reference model of one object: its fields in layout order.
#[derive(Debug, Clone, PartialEq)]
struct ModelObject {
    fields: Vec<Value>,
    modified: bool,
}

/// Every operation behaves exactly like a trivial in-memory model; stale
/// handles always error; flags track barriered writes. Objects of two
/// classes with different slot counts are allocated and freed in turn, so
/// freed field ranges are reused within each class while the other class
/// allocates around them.
#[test]
fn heap_agrees_with_reference_model() {
    for case in 0..128u64 {
        let mut rng = Prng::seed_from_u64(0x6ea9_0000 + case);
        let ops = 1 + rng.index(120);
        let mut reg = ClassRegistry::new();
        let pair =
            reg.define("N", None, &[("v", FieldType::Int), ("r", FieldType::Ref(None))]).unwrap();
        let triple = reg
            .define(
                "T",
                None,
                &[("v", FieldType::Int), ("r", FieldType::Ref(None)), ("w", FieldType::Long)],
            )
            .unwrap();
        let mut heap = Heap::new(reg);
        let mut model: HashMap<ObjectId, ModelObject> = HashMap::new();
        let mut handles: Vec<ObjectId> = Vec::new();

        for _ in 0..ops {
            // A store of `value` into `slot` of handle `i`, as the model
            // sees it: the object's fields, or the error the heap returns.
            let mut store = |heap: &mut Heap, i: usize, slot: usize, value: Value| {
                let id = handles[i % handles.len()];
                match (heap.set_field(id, slot, value), model.get_mut(&id)) {
                    (Ok(()), Some(m)) => {
                        m.fields[slot] = value;
                        m.modified = true;
                    }
                    (Err(HeapError::DanglingObject(_)), None) => {}
                    (Err(HeapError::SlotOutOfBounds { .. }), Some(m)) if m.fields.len() <= slot => {
                    }
                    (h, m) => panic!("case {case}: store mismatch: {h:?} vs {m:?}"),
                }
            };
            match random_op(&mut rng) {
                Op::Alloc(three) => {
                    let id = heap.alloc(if three { triple } else { pair }).unwrap();
                    assert!(!model.contains_key(&id), "case {case}: handles are never reissued");
                    let mut fields = vec![Value::Int(0), Value::Ref(None)];
                    if three {
                        fields.push(Value::Long(0));
                    }
                    model.insert(id, ModelObject { fields, modified: true });
                    handles.push(id);
                }
                Op::Free(i) if !handles.is_empty() => {
                    let id = handles[i % handles.len()];
                    match (heap.free(id), model.remove(&id)) {
                        (Ok(_), Some(_)) => {
                            // References to the freed object stay in other
                            // objects (dangling), as in the real system.
                        }
                        (Err(HeapError::DanglingObject(_)), None) => {}
                        (h, m) => panic!("case {case}: free mismatch: {h:?} vs {m:?}"),
                    }
                }
                Op::SetInt(i, v) if !handles.is_empty() => store(&mut heap, i, 0, Value::Int(v)),
                Op::SetRef(a, b) if !handles.is_empty() => {
                    // An unconstrained ref slot accepts any handle — even a
                    // stale one (the dangle is detected at *use*, like a
                    // page holding both live objects and garbage).
                    let dst = handles[b % handles.len()];
                    store(&mut heap, a, 1, Value::Ref(Some(dst)))
                }
                Op::SetRefNull(i) if !handles.is_empty() => {
                    store(&mut heap, i, 1, Value::Ref(None))
                }
                Op::SetLong(i, v) if !handles.is_empty() => store(&mut heap, i, 2, Value::Long(v)),
                Op::ResetModified(i) if !handles.is_empty() => {
                    let id = handles[i % handles.len()];
                    match (heap.reset_modified(id), model.get_mut(&id)) {
                        (Ok(()), Some(m)) => m.modified = false,
                        (Err(HeapError::DanglingObject(_)), None) => {}
                        (h, m) => panic!("case {case}: reset mismatch: {h:?} vs {m:?}"),
                    }
                }
                _ => {}
            }

            // Full-state check after every operation.
            assert_eq!(heap.len(), model.len(), "case {case}");
            for (&id, m) in &model {
                let object = heap.object(id).unwrap();
                assert_eq!(object.fields(), m.fields, "case {case}");
                let class = if m.fields.len() == 3 { triple } else { pair };
                assert_eq!(object.class(), class, "case {case}");
                assert_eq!(heap.is_modified(id).unwrap(), m.modified, "case {case}");
            }
        }

        // Live iteration agrees with the model's key set.
        let live: Vec<ObjectId> = heap.iter_live().collect();
        assert_eq!(live.len(), model.len(), "case {case}");
        for id in live {
            assert!(model.contains_key(&id), "case {case}");
        }
    }
}

/// Stable ids are unique across the lifetime of a heap, even with slot
/// reuse after frees.
#[test]
fn stable_ids_never_repeat() {
    for case in 0..64u64 {
        let mut rng = Prng::seed_from_u64(0x51ab_0000 + case);
        let rounds = 1 + rng.index(80);
        let mut reg = ClassRegistry::new();
        let class = reg.define("N", None, &[("v", FieldType::Int)]).unwrap();
        let mut heap = Heap::new(reg);
        let mut seen = std::collections::HashSet::new();
        let mut live: Vec<ObjectId> = Vec::new();
        for _ in 0..rounds {
            let id = heap.alloc(class).unwrap();
            assert!(seen.insert(heap.stable_id(id).unwrap()), "case {case}: stable id reused");
            live.push(id);
            if rng.next_bool() && live.len() > 1 {
                let victim = live.remove(0);
                heap.free(victim).unwrap();
            }
        }
    }
}
