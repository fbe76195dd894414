//! The parallel sharded engine as a fourth implementation point.
//!
//! The paper's engine axis (Figures 11a/b, Table 2) varies *dispatch*
//! overhead; this backend varies the *execution schedule* instead: generic
//! incremental checkpointing spread over worker threads by
//! `ickp_core::Checkpointer::checkpoint_parallel`. It emits standard
//! `CheckpointRecord`s — byte-identical to the sequential generic driver —
//! so it slots into the same benchmark tables as the other engines.

use crate::barrier_shadow::{BarrierShadow, BarrierShadowReport};
use crate::sanitize::SanitizerReport;
use ickp_core::{
    CheckpointConfig, CheckpointRecord, Checkpointer, CoreError, MethodTable, ParallelPhases,
    RecordSink, TraversalStats,
};
use ickp_heap::{ClassRegistry, Heap, ObjectId};

/// Generic incremental checkpointing parallelized over `workers` threads.
///
/// Each worker dispatches `record` through the derived [`MethodTable`]
/// but reads child references straight from the object instead of
/// dispatching `fold`. `virtual_calls` in the returned stats still counts
/// what the generic driver dispatches for the same walk (one `record` per
/// recorded object, one `fold` per visited object), so this engine's
/// counters equal the sequential driver's; its measured time does not
/// include the `fold` dispatches.
///
/// # Example
///
/// ```
/// use ickp_backend::ParallelBackend;
/// use ickp_heap::{ClassRegistry, FieldType, Heap};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut reg = ClassRegistry::new();
/// let node = reg.define("Node", None, &[("v", FieldType::Int)])?;
/// let mut heap = Heap::new(reg);
/// let roots: Vec<_> = (0..8).map(|_| heap.alloc(node)).collect::<Result<_, _>>()?;
///
/// let mut backend = ParallelBackend::new(4, heap.registry());
/// let record = backend.checkpoint(&mut heap, &roots)?;
/// assert_eq!(record.stats().objects_recorded, 8);
/// # Ok(()) }
/// ```
#[derive(Debug)]
pub struct ParallelBackend {
    workers: usize,
    table: MethodTable,
    driver: Checkpointer,
    /// Access-sanitizer verdict of the most recent checkpoint; populated
    /// only when the `sanitize` feature traces the engine.
    last_sanitize: Option<SanitizerReport>,
    /// Differential journal sanitizer; populated (and fed) only when the
    /// `barrier-sanitize` feature arms it.
    shadow: Option<BarrierShadow>,
    /// Shadow verdict of the most recent checkpoint.
    last_barrier: Option<BarrierShadowReport>,
}

impl ParallelBackend {
    /// Builds the backend for a class registry. `workers` of 0 or 1 run a
    /// single worker thread.
    pub fn new(workers: usize, registry: &ClassRegistry) -> ParallelBackend {
        ParallelBackend::with_config(workers, registry, CheckpointConfig::incremental())
    }

    /// [`ParallelBackend::new`] with an explicit driver configuration —
    /// e.g. `CheckpointConfig::incremental().without_journal()` so every
    /// round exercises the shard workers (the scaling harness needs this:
    /// with the journal on, steady-state rounds ride the sequential fast
    /// path). Shards are always planned by [`ickp_core::plan_shards`].
    pub fn with_config(
        workers: usize,
        registry: &ClassRegistry,
        config: CheckpointConfig,
    ) -> ParallelBackend {
        ParallelBackend {
            workers,
            table: MethodTable::derive(registry),
            driver: Checkpointer::new(config),
            last_sanitize: None,
            #[cfg(feature = "barrier-sanitize")]
            shadow: Some(BarrierShadow::new(registry)),
            #[cfg(not(feature = "barrier-sanitize"))]
            shadow: None,
            last_barrier: None,
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Aligns the sequence counter with a store that already holds records
    /// from another driver (mirrors `ickp_core::Checkpointer::set_next_seq`),
    /// so engines can be mixed within one contiguous store.
    ///
    /// # Example
    ///
    /// ```
    /// use ickp_backend::ParallelBackend;
    /// use ickp_heap::{ClassRegistry, FieldType, Heap};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut reg = ClassRegistry::new();
    /// let node = reg.define("Node", None, &[("v", FieldType::Int)])?;
    /// let mut heap = Heap::new(reg);
    /// let root = heap.alloc(node)?;
    ///
    /// // A store that already holds records with seq 0 and 1:
    /// let mut backend = ParallelBackend::new(2, heap.registry());
    /// backend.set_next_seq(2);
    /// let record = backend.checkpoint(&mut heap, &[root])?;
    /// assert_eq!(record.seq(), 2);
    /// # Ok(()) }
    /// ```
    pub fn set_next_seq(&mut self, seq: u64) {
        self.driver.set_next_seq(seq);
    }

    /// Takes one incremental checkpoint of `roots` across the worker pool.
    ///
    /// With the `sanitize` cargo feature enabled, the engine additionally
    /// records each shard's object-access set and reconciles them at
    /// merge time; the verdict is available from
    /// [`ParallelBackend::sanitizer_report`] until the next checkpoint.
    /// With `barrier-sanitize`, the record is additionally folded into a
    /// [`BarrierShadow`] and digest-compared against the live heap
    /// ([`ParallelBackend::barrier_report`]). The record bytes are
    /// identical either way.
    ///
    /// # Errors
    ///
    /// Fails like `ickp_core::Checkpointer::checkpoint_parallel`.
    pub fn checkpoint(
        &mut self,
        heap: &mut Heap,
        roots: &[ObjectId],
    ) -> Result<CheckpointRecord, CoreError> {
        #[cfg(feature = "sanitize")]
        let record = {
            let (record, trace) =
                self.driver.checkpoint_parallel_traced(heap, &self.table, roots, self.workers)?;
            self.last_sanitize = Some(SanitizerReport::from_trace(&trace));
            record
        };
        #[cfg(not(feature = "sanitize"))]
        let record = self.driver.checkpoint_parallel(heap, &self.table, roots, self.workers)?;

        if let Some(shadow) = self.shadow.as_mut() {
            let fast_path = self.driver.parallel_phases().map(|p| p.fast_path).unwrap_or(false);
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

    /// The access-sanitizer verdict of the most recent checkpoint, or
    /// `None` before the first checkpoint or when the `sanitize` feature
    /// is off (the untraced engine observes nothing).
    pub fn sanitizer_report(&self) -> Option<&SanitizerReport> {
        self.last_sanitize.as_ref()
    }

    /// Per-shard traversal counters of the most recent checkpoint, in
    /// shard order (see `ickp_core::Checkpointer::shard_stats`). Available
    /// regardless of the `sanitize` feature.
    pub fn shard_stats(&self) -> &[TraversalStats] {
        self.driver.shard_stats()
    }

    /// Wall-clock phase breakdown (plan / traverse / merge) of the most
    /// recent checkpoint (see `ickp_core::Checkpointer::parallel_phases`),
    /// or `None` before the first one.
    pub fn phases(&self) -> Option<&ParallelPhases> {
        self.driver.parallel_phases()
    }

    /// Takes one incremental checkpoint and streams the record straight
    /// into `sink` — a `CheckpointStore`, or a durable store writing to
    /// disk — returning the traversal statistics.
    ///
    /// The record is handed to the sink even if the sink then fails, so
    /// a storage error means the checkpoint was *taken* (flags reset,
    /// sequence advanced) but not *stored*; callers that must not lose
    /// it re-dirty the captured objects and retry.
    ///
    /// # Errors
    ///
    /// Fails like [`ParallelBackend::checkpoint`], or with the sink's
    /// error (for the durable store, [`CoreError::Storage`]).
    pub fn checkpoint_into(
        &mut self,
        heap: &mut Heap,
        roots: &[ObjectId],
        sink: &mut dyn RecordSink,
    ) -> Result<TraversalStats, CoreError> {
        let record = self.checkpoint(heap, roots)?;
        let stats = record.stats();
        sink.append_record(record)?;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, GenericBackend};
    use ickp_core::decode;
    use ickp_heap::{FieldType, Value};

    fn world() -> (Heap, Vec<ObjectId>) {
        let mut reg = ClassRegistry::new();
        let node = reg
            .define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])
            .unwrap();
        let mut heap = Heap::new(reg);
        let mut roots = Vec::new();
        for i in 0..12 {
            let tail = heap.alloc(node).unwrap();
            let head = heap.alloc(node).unwrap();
            heap.set_field(head, 0, Value::Int(i)).unwrap();
            heap.set_field(head, 1, Value::Ref(Some(tail))).unwrap();
            roots.push(head);
        }
        (heap, roots)
    }

    #[test]
    fn parallel_backend_matches_the_sequential_engines() {
        for workers in [1, 2, 4] {
            let (mut heap, roots) = world();
            let (mut ref_heap, ref_roots) = world();
            let mut parallel = ParallelBackend::new(workers, heap.registry());
            let mut reference = GenericBackend::new(Engine::Harissa, ref_heap.registry());
            let a = parallel.checkpoint(&mut heap, &roots).unwrap();
            let b = reference.checkpoint(&mut ref_heap, &ref_roots).unwrap();
            let da = decode(a.bytes(), heap.registry()).unwrap();
            let db = decode(b.bytes(), ref_heap.registry()).unwrap();
            assert_eq!(da.objects, db.objects, "{workers} workers");
            assert_eq!(a.stats(), b.stats(), "{workers} workers");
        }
    }

    #[test]
    fn checkpoint_into_streams_to_a_sink() {
        use ickp_core::CheckpointStore;
        let (mut heap, roots) = world();
        let mut backend = ParallelBackend::new(2, heap.registry());
        let mut store = CheckpointStore::new();
        let full = backend.checkpoint_into(&mut heap, &roots, &mut store).unwrap();
        assert_eq!(full.objects_recorded, 24);
        heap.set_field(roots[3], 0, Value::Int(-1)).unwrap();
        let incr = backend.checkpoint_into(&mut heap, &roots, &mut store).unwrap();
        assert_eq!(incr.objects_recorded, 1);
        assert_eq!(store.len(), 2);
        assert_eq!(store.latest().unwrap().seq(), 1);
    }

    #[test]
    fn per_shard_stats_are_surfaced_regardless_of_the_sanitize_feature() {
        let (mut heap, roots) = world();
        let mut backend = ParallelBackend::new(3, heap.registry());
        assert!(backend.shard_stats().is_empty(), "no stats before the first checkpoint");
        let record = backend.checkpoint(&mut heap, &roots).unwrap();
        let shard_stats = backend.shard_stats();
        assert_eq!(shard_stats.len(), 3);
        assert_eq!(
            shard_stats.iter().map(|s| s.objects_recorded).sum::<u64>(),
            record.stats().objects_recorded
        );
        // Shard bodies sum to the stream minus its header and footer.
        let body: u64 = shard_stats.iter().map(|s| s.bytes_written).sum();
        assert!(0 < body && body < record.stats().bytes_written);
        #[cfg(not(feature = "sanitize"))]
        assert!(backend.sanitizer_report().is_none(), "untraced engines observe nothing");
    }

    #[test]
    fn no_journal_config_reruns_shard_workers_every_round() {
        let (mut heap, roots) = world();
        let config = CheckpointConfig::incremental().without_journal();
        let mut backend = ParallelBackend::with_config(3, heap.registry(), config);
        assert!(backend.phases().is_none());
        backend.checkpoint(&mut heap, &roots).unwrap();
        heap.set_field(roots[1], 0, Value::Int(7)).unwrap();
        backend.checkpoint(&mut heap, &roots).unwrap();
        let phases = *backend.phases().unwrap();
        // Without the journal the second round still runs the shard
        // workers (no fast path), with the plan served from cache.
        assert!(!phases.fast_path);
        assert!(phases.plan_cached);
        assert_eq!(backend.shard_stats().len(), 3);
    }

    #[test]
    fn incrementality_holds_across_rounds() {
        let (mut heap, roots) = world();
        let mut backend = ParallelBackend::new(4, heap.registry());
        assert_eq!(backend.workers(), 4);
        backend.checkpoint(&mut heap, &roots).unwrap();
        heap.set_field(roots[5], 0, Value::Int(99)).unwrap();
        let rec = backend.checkpoint(&mut heap, &roots).unwrap();
        assert_eq!(rec.stats().objects_recorded, 1);
        // Served from the dirty-set journal: one visit, 23 reachable
        // objects pruned without traversal.
        assert_eq!(rec.stats().objects_visited, 1);
        assert_eq!(rec.stats().subtrees_pruned, 23);
        assert_eq!(rec.seq(), 1);
    }
}
