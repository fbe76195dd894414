//! Generic (unspecialized) incremental checkpointing under each engine.
//!
//! The walk, the journal fast path and the bytes are
//! `ickp_core::Checkpointer`'s; only the *dispatch mechanism* for reaching
//! each object's `record`/`fold` methods differs per [`Engine`], plugged
//! in through `Checkpointer::checkpoint_resolving`:
//!
//! * `Jdk12` — a hash-table lookup per virtual call (itable search; the
//!   JIT neither caches nor inlines),
//! * `HotSpot` — a monomorphic inline cache per call site, falling back
//!   to the hash table on a miss,
//! * `Harissa` — direct dense-table dispatch (AOT-resolved).

use crate::barrier_shadow::{BarrierShadow, BarrierShadowReport};
use crate::engine::Engine;
use ickp_core::{CheckpointConfig, CheckpointRecord, Checkpointer, CoreError, MethodTable};
use ickp_heap::{ClassId, ClassRegistry, Heap, ObjectId};
use std::collections::HashMap;

/// Generic incremental checkpointing under a selected engine.
#[derive(Debug)]
pub struct GenericBackend {
    engine: Engine,
    table: MethodTable,
    /// Jdk12/HotSpot-miss path: class → dense index, looked up by hash.
    itable: HashMap<u32, ClassId>,
    /// HotSpot inline cache: the last class dispatched at this call site.
    cache: Option<ClassId>,
    driver: Checkpointer,
    /// Differential journal sanitizer; populated (and fed) only when the
    /// `barrier-sanitize` feature arms it.
    shadow: Option<BarrierShadow>,
    /// Shadow verdict of the most recent checkpoint.
    last_barrier: Option<BarrierShadowReport>,
}

impl GenericBackend {
    /// Builds the backend for a class registry.
    pub fn new(engine: Engine, registry: &ClassRegistry) -> GenericBackend {
        GenericBackend::with_config(engine, registry, CheckpointConfig::incremental())
    }

    /// [`GenericBackend::new`] with an explicit driver configuration —
    /// e.g. `CheckpointConfig::incremental().without_journal()` so every
    /// round pays the paper's full flag-testing traversal under the
    /// engine's dispatch (the paper-figure harnesses need this: with the
    /// journal on, steady-state rounds ride the journal fast path).
    pub fn with_config(
        engine: Engine,
        registry: &ClassRegistry,
        config: CheckpointConfig,
    ) -> GenericBackend {
        GenericBackend {
            engine,
            table: MethodTable::derive(registry),
            itable: registry.iter().map(|d| (d.id().index() as u32, d.id())).collect(),
            cache: None,
            driver: Checkpointer::new(config),
            #[cfg(feature = "barrier-sanitize")]
            shadow: Some(BarrierShadow::new(registry)),
            #[cfg(not(feature = "barrier-sanitize"))]
            shadow: None,
            last_barrier: None,
        }
    }

    /// The engine in force.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Takes one incremental checkpoint of `roots`.
    ///
    /// With the `barrier-sanitize` cargo feature enabled, the emitted
    /// record is additionally folded into a [`BarrierShadow`] and the
    /// shadow is digest-compared against the live heap; the verdict is
    /// available from [`GenericBackend::barrier_report`] until the next
    /// checkpoint. The record bytes are identical either way.
    ///
    /// # Errors
    ///
    /// Fails like `ickp_core::Checkpointer::checkpoint`.
    pub fn checkpoint(
        &mut self,
        heap: &mut Heap,
        roots: &[ObjectId],
    ) -> Result<CheckpointRecord, CoreError> {
        let fast_path = self.shadow.is_some() && self.driver.journal_usable(heap, roots);
        let GenericBackend { engine, itable, cache, .. } = self;
        let record = self.driver.checkpoint_resolving(heap, &self.table, roots, |class| {
            dispatch(*engine, itable, cache, class)
        })?;
        if let Some(shadow) = self.shadow.as_mut() {
            shadow.absorb(&record)?;
            self.last_barrier = Some(shadow.verify(heap, roots, fast_path)?);
        }
        Ok(record)
    }

    /// The differential sanitizer's verdict on the most recent checkpoint,
    /// or `None` before the first checkpoint or when the `barrier-sanitize`
    /// feature is off (the unarmed backend verifies nothing).
    pub fn barrier_report(&self) -> Option<&BarrierShadowReport> {
        self.last_barrier.as_ref()
    }
}

/// Resolves a class through `engine`'s dispatch mechanism.
///
/// All three return the same class id — what differs is the work done to
/// obtain it, which is exactly the overhead the engines differ by.
#[inline]
fn dispatch(
    engine: Engine,
    itable: &HashMap<u32, ClassId>,
    cache: &mut Option<ClassId>,
    class: ClassId,
) -> Result<ClassId, CoreError> {
    let lookup = || {
        itable
            .get(&(class.index() as u32))
            .copied()
            .ok_or(CoreError::UnknownClassIndex(class.index() as u32))
    };
    match engine {
        Engine::Harissa => Ok(class),
        Engine::Jdk12 => lookup(),
        Engine::HotSpot if *cache == Some(class) => Ok(class),
        Engine::HotSpot => {
            let resolved = lookup()?;
            *cache = Some(resolved);
            Ok(resolved)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ickp_core::{decode, CheckpointConfig, Checkpointer};
    use ickp_heap::{FieldType, Value};

    fn world() -> (Heap, Vec<ObjectId>) {
        let mut reg = ClassRegistry::new();
        let node = reg
            .define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])
            .unwrap();
        let mut heap = Heap::new(reg);
        let mut roots = Vec::new();
        for i in 0..10 {
            let tail = heap.alloc(node).unwrap();
            let head = heap.alloc(node).unwrap();
            heap.set_field(head, 0, Value::Int(i)).unwrap();
            heap.set_field(head, 1, Value::Ref(Some(tail))).unwrap();
            roots.push(head);
        }
        (heap, roots)
    }

    #[test]
    fn every_engine_produces_the_reference_checkpoint() {
        for engine in Engine::ALL {
            let (mut heap, roots) = world();
            let (mut ref_heap, ref_roots) = world();

            let mut backend = GenericBackend::new(engine, heap.registry());
            let rec = backend.checkpoint(&mut heap, &roots).unwrap();

            let table = MethodTable::derive(ref_heap.registry());
            let mut core = Checkpointer::new(CheckpointConfig::incremental());
            let ref_rec = core.checkpoint(&mut ref_heap, &table, &ref_roots).unwrap();

            let a = decode(rec.bytes(), heap.registry()).unwrap();
            let b = decode(ref_rec.bytes(), ref_heap.registry()).unwrap();
            assert_eq!(a.objects, b.objects, "{engine}");
            assert_eq!(rec.stats().flag_tests, ref_rec.stats().flag_tests, "{engine}");
        }
    }

    #[test]
    fn incrementality_holds_across_engines() {
        for engine in Engine::ALL {
            let (mut heap, roots) = world();
            let mut backend = GenericBackend::new(engine, heap.registry());
            backend.checkpoint(&mut heap, &roots).unwrap();
            heap.set_field(roots[3], 0, Value::Int(99)).unwrap();
            let rec = backend.checkpoint(&mut heap, &roots).unwrap();
            assert_eq!(rec.stats().objects_recorded, 1, "{engine}");
            // The journal fast path visits only the dirty object and
            // prunes the other 19 reachable ones.
            assert_eq!(rec.stats().objects_visited, 1, "{engine}");
            assert_eq!(rec.stats().journal_hits, 1, "{engine}");
            assert_eq!(rec.stats().subtrees_pruned, 19, "{engine}");
            assert_eq!(rec.seq(), 1);
        }
    }

    #[test]
    fn engine_accessor_reports_configuration() {
        let (heap, _) = world();
        let backend = GenericBackend::new(Engine::HotSpot, heap.registry());
        assert_eq!(backend.engine(), Engine::HotSpot);
    }
}
