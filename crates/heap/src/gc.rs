//! Mark-sweep garbage collection.
//!
//! The paper motivates language-level checkpointing partly by the JVM's
//! memory behaviour: "a single page may contain both live objects and
//! objects awaiting garbage collection", which defeats page-granularity
//! incremental checkpointing. Our heap reproduces that world — objects
//! become unreachable and linger — and this module provides the collector
//! that reclaims them.
//!
//! Collection is checkpoint-transparent: it never touches surviving
//! objects' fields, modified flags, or stable ids, so a checkpoint taken
//! after a collection records exactly what it would have recorded before
//! (garbage was unreachable and therefore never traversed anyway). The
//! one interaction to be aware of is *restore*: old checkpoints may
//! contain records of since-collected objects; restore materializes them
//! again (they are unreachable in the restored heap too, and a
//! [`crate::Heap::collect`] there reclaims them — or use
//! `ickp_core::compact` to drop them from the store itself).

use crate::graph::{preorder, Visited};
use crate::heap::Heap;
use crate::ids::ObjectId;

/// Statistics from one collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcStats {
    /// Objects scanned during marking (the live set).
    pub live: usize,
    /// Objects reclaimed.
    pub freed: usize,
}

impl Heap {
    /// Reclaims every object unreachable from `roots` (mark-sweep).
    ///
    /// Surviving objects keep their handles, stable ids, field values and
    /// modified flags; freed objects' handles become dangling, exactly as
    /// with [`Heap::free`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::HeapError::DanglingObject`] if `roots` or a
    /// traversed reference dangles *before* collection starts (a heap
    /// whose live graph already contains dangling edges is reported, not
    /// silently pruned).
    pub fn collect(&mut self, roots: &[ObjectId]) -> Result<GcStats, crate::HeapError> {
        // Mark.
        let mut marked = Visited::new(self);
        preorder(self, roots, |id| marked.insert(id), |_, _| Ok::<(), crate::HeapError>(()))?;
        // Sweep.
        let victims: Vec<ObjectId> = self.iter_live().filter(|&id| !marked.contains(id)).collect();
        let freed = victims.len();
        for id in victims {
            self.free(id).expect("victim was live when enumerated");
        }
        // Every marked object is live and every unmarked one is gone.
        Ok(GcStats { live: self.len(), freed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassRegistry;
    use crate::ids::ClassId;
    use crate::snapshot::HeapSnapshot;
    use crate::value::{FieldType, Value};

    fn heap() -> (Heap, ClassId) {
        let mut reg = ClassRegistry::new();
        let node = reg
            .define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])
            .unwrap();
        (Heap::new(reg), node)
    }

    #[test]
    fn collect_frees_unreachable_and_keeps_reachable() {
        let (mut heap, node) = heap();
        let kept_child = heap.alloc(node).unwrap();
        let root = heap.alloc(node).unwrap();
        heap.set_field(root, 1, Value::Ref(Some(kept_child))).unwrap();
        let garbage = heap.alloc(node).unwrap();
        let garbage2 = heap.alloc(node).unwrap();
        heap.set_field(garbage, 1, Value::Ref(Some(garbage2))).unwrap();

        let stats = heap.collect(&[root]).unwrap();
        assert_eq!(stats, GcStats { live: 2, freed: 2 });
        assert!(heap.contains(root) && heap.contains(kept_child));
        assert!(!heap.contains(garbage) && !heap.contains(garbage2));
        assert_eq!(heap.len(), 2);
    }

    #[test]
    fn collection_is_checkpoint_transparent() {
        let (mut heap, node) = heap();
        let child = heap.alloc(node).unwrap();
        let root = heap.alloc(node).unwrap();
        heap.set_field(root, 1, Value::Ref(Some(child))).unwrap();
        heap.reset_modified(root).unwrap(); // mixed flag state
        let _garbage = heap.alloc(node).unwrap();

        let before = HeapSnapshot::capture(&heap, &[root]).unwrap();
        let root_sid = heap.stable_id(root).unwrap();
        let child_modified = heap.is_modified(child).unwrap();

        heap.collect(&[root]).unwrap();

        let after = HeapSnapshot::capture(&heap, &[root]).unwrap();
        assert_eq!(before, after, "logical state untouched");
        assert_eq!(heap.stable_id(root).unwrap(), root_sid);
        assert_eq!(heap.is_modified(child).unwrap(), child_modified);
        assert!(!heap.is_modified(root).unwrap(), "flags untouched");
    }

    #[test]
    fn empty_roots_collect_everything() {
        let (mut heap, node) = heap();
        for _ in 0..5 {
            heap.alloc(node).unwrap();
        }
        let stats = heap.collect(&[]).unwrap();
        assert_eq!(stats.freed, 5);
        assert!(heap.is_empty());
    }

    #[test]
    fn shared_and_cyclic_garbage_is_reclaimed() {
        let (mut heap, node) = heap();
        let root = heap.alloc(node).unwrap();
        // A garbage cycle: a -> b -> a.
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        heap.set_field(a, 1, Value::Ref(Some(b))).unwrap();
        heap.set_field(b, 1, Value::Ref(Some(a))).unwrap();
        let stats = heap.collect(&[root]).unwrap();
        assert_eq!(stats.freed, 2, "cycles do not keep garbage alive");
    }

    #[test]
    fn dangling_live_edge_is_reported_not_pruned() {
        let (mut heap, node) = heap();
        let child = heap.alloc(node).unwrap();
        let root = heap.alloc(node).unwrap();
        heap.set_field(root, 1, Value::Ref(Some(child))).unwrap();
        heap.free(child).unwrap();
        assert!(heap.collect(&[root]).is_err());
    }

    #[test]
    fn repeated_collection_is_idempotent() {
        let (mut heap, node) = heap();
        let root = heap.alloc(node).unwrap();
        heap.alloc(node).unwrap(); // garbage
        heap.collect(&[root]).unwrap();
        let stats = heap.collect(&[root]).unwrap();
        assert_eq!(stats.freed, 0);
        assert_eq!(stats.live, 1);
    }
}
