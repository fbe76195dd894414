//! Cheap full-traversal digest of a heap's reachable logical state.
//!
//! [`state_digest`] folds a depth-first pre-order over the objects
//! reachable from the roots into a single FNV-1a hash: per object its
//! stable id, class name, and field values, with references folded by the
//! *stable id* of the referent. Two heaps — even in different arenas, with
//! different `ObjectId` handles — digest equal exactly when a checkpoint
//! of one restores to the logical state of the other, because the digest
//! covers precisely what the stream format records, in the order the
//! stream records it.
//!
//! The end-to-end benchmark and the fold oracle tests use it as a cheap
//! equality check between a live heap and a restored one. Where a
//! mismatch must be explained, `verify_restore` names the first
//! differing object instead.

use crate::error::CoreError;
use ickp_heap::{Heap, ObjectId, Value};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

fn fold_u64(hash: &mut u64, v: u64) {
    fold(hash, &v.to_le_bytes());
}

/// FNV-1a digest of the logical state reachable from `roots` in `heap`.
///
/// Arena-independent (stable ids only), order-sensitive (depth-first
/// pre-order, children in field order, roots left to right — the stream
/// emission order), and cheap: one traversal, no allocations beyond the
/// visit stack and seen-set.
///
/// # Errors
///
/// Returns [`CoreError::Heap`] if a root or a traversed reference
/// dangles.
pub fn state_digest(heap: &Heap, roots: &[ObjectId]) -> Result<u64, CoreError> {
    let mut hash = FNV_OFFSET;
    let mut seen = vec![false; heap.arena_size()];
    let mut stack: Vec<ObjectId> = Vec::new();
    fold_u64(&mut hash, roots.len() as u64);
    for &root in roots {
        fold_u64(&mut hash, heap.stable_id(root)?.raw());
        stack.push(root);
        while let Some(id) = stack.pop() {
            let slot = id.index();
            if seen[slot] {
                continue;
            }
            seen[slot] = true;
            let obj = heap.object(id)?;
            fold_u64(&mut hash, obj.info().stable_id().raw());
            let class = heap.class(obj.class())?;
            fold(&mut hash, class.name().as_bytes());
            for value in obj.fields() {
                match *value {
                    Value::Int(v) => {
                        fold(&mut hash, b"i");
                        fold(&mut hash, &v.to_le_bytes());
                    }
                    Value::Long(v) => {
                        fold(&mut hash, b"l");
                        fold(&mut hash, &v.to_le_bytes());
                    }
                    Value::Double(v) => {
                        fold(&mut hash, b"d");
                        fold(&mut hash, &v.to_bits().to_le_bytes());
                    }
                    Value::Bool(v) => {
                        fold(&mut hash, b"b");
                        fold(&mut hash, &[u8::from(v)]);
                    }
                    Value::Ref(None) => fold(&mut hash, b"n"),
                    Value::Ref(Some(child)) => {
                        fold(&mut hash, b"r");
                        fold_u64(&mut hash, heap.stable_id(child)?.raw());
                    }
                }
            }
            // Push children in reverse so they pop in field order,
            // matching the recursive pre-order the stream writer uses.
            for value in obj.fields().iter().rev() {
                if let Value::Ref(Some(child)) = *value {
                    if !seen[child.index()] {
                        stack.push(child);
                    }
                }
            }
        }
    }
    Ok(hash)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ickp_heap::{ClassRegistry, FieldType};

    fn registry() -> ClassRegistry {
        let mut reg = ClassRegistry::new();
        reg.define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))]).unwrap();
        reg
    }

    fn chain(values: &[i32]) -> (Heap, Vec<ObjectId>) {
        let reg = registry();
        let node = reg.id_of("Node").unwrap();
        let mut heap = Heap::new(reg);
        let mut next = None;
        let mut head = None;
        for &v in values.iter().rev() {
            let id = heap.alloc(node).unwrap();
            heap.set_field(id, 0, Value::Int(v)).unwrap();
            heap.set_field(id, 1, Value::Ref(next)).unwrap();
            next = Some(id);
            head = Some(id);
        }
        (heap, vec![head.unwrap()])
    }

    #[test]
    fn logically_equal_heaps_digest_equal_across_arenas() {
        let (a, ra) = chain(&[1, 2, 3]);
        let (mut b, rb) = chain(&[1, 2, 3]);
        // Different arena layout: churn some slots in b.
        let node = b.registry().id_of("Node").unwrap();
        let junk = b.alloc(node).unwrap();
        b.free(junk).unwrap();
        assert_eq!(state_digest(&a, &ra).unwrap(), state_digest(&b, &rb).unwrap());
    }

    #[test]
    fn field_and_shape_changes_change_the_digest() {
        let (a, ra) = chain(&[1, 2, 3]);
        let base = state_digest(&a, &ra).unwrap();

        let (mut b, rb) = chain(&[1, 2, 3]);
        b.set_field(rb[0], 0, Value::Int(9)).unwrap();
        assert_ne!(base, state_digest(&b, &rb).unwrap(), "scalar change");

        let (mut c, rc) = chain(&[1, 2, 3]);
        c.set_field(rc[0], 1, Value::Ref(None)).unwrap();
        assert_ne!(base, state_digest(&c, &rc).unwrap(), "reachability change");

        let (e, re) = chain(&[1, 2]);
        assert_ne!(base, state_digest(&e, &re).unwrap(), "different length");
    }

    #[test]
    fn unbarriered_stores_change_the_digest_too() {
        // The whole point: the digest sees bytes, not modified flags.
        let (mut a, ra) = chain(&[1, 2]);
        a.reset_all_modified();
        let base = state_digest(&a, &ra).unwrap();
        a.set_field_unbarriered(ra[0], 0, Value::Int(5)).unwrap();
        assert!(!a.is_modified(ra[0]).unwrap(), "the store left no barrier trace");
        assert_ne!(base, state_digest(&a, &ra).unwrap(), "but the digest still catches it");
    }
}
