//! The parallel sharded checkpoint engine.
//!
//! [`Checkpointer::checkpoint_parallel`] splits the root set into disjoint
//! ownership shards of about equal estimated stream bytes ([`plan_shards`]:
//! one parallel first-touch claim pass gives both the byte weights and the
//! owners), traverses each shard on its own OS thread, and splices the
//! per-shard record streams back into one stream. The result is
//! **byte-for-byte identical** to what [`Checkpointer::checkpoint`]
//! produces on the same heap state — same header, same record order, same
//! footer, same [`TraversalStats`] — so every downstream consumer (store,
//! compaction, restore, verification) is oblivious to how the checkpoint
//! was produced.
//!
//! Three properties make this sound:
//!
//! 1. **Read-only traversal.** Workers only *read* the heap; the one
//!    mutation of a checkpoint — resetting modified flags — is deferred and
//!    applied sequentially after all workers join. The [`MethodTable`]'s
//!    closures are `Send + Sync`, so one table serves every worker.
//! 2. **First-touch ownership.** Each reachable object is owned by exactly
//!    one shard (the lowest-index shard reaching it), so no object is
//!    recorded twice and workers can prune their traversal at any foreign
//!    object (everything beyond it belongs to an earlier shard).
//! 3. **Order-preserving merge.** Shards are contiguous chunks of the root
//!    order, so concatenating shard bodies in shard order reproduces the
//!    sequential depth-first pre-order exactly (see
//!    [`ickp_heap::ShardPlan`]).
//!
//! Each worker walks its shard with [`ShardPlan::walk_shard`], which reads
//! each object's slot once and follows its references straight from the
//! fields. Workers dispatch `record` through the [`MethodTable`] and look
//! every visited object's class up in it, but make no `fold` dispatch:
//! the derived `fold` visits reference slots in slot order, which is the
//! walk's order. [`TraversalStats::virtual_calls`] still counts the `fold`
//! the sequential driver dispatches per visited object, so the counters
//! match it too. The sequential [`crate::Walker`] and the paper-model
//! harnesses keep the virtual `fold`.
//!
//! A failed checkpoint changes nothing: no flag is reset, the cached
//! plan stays, and [`Checkpointer::shard_stats`] and
//! [`Checkpointer::parallel_phases`] keep describing the last checkpoint
//! that succeeded.

use crate::checkpoint::{CheckpointRecord, Checkpointer};
use crate::error::CoreError;
use crate::journal::JournalCache;
use crate::methods::MethodTable;
use crate::stats::TraversalStats;
use crate::stream::{CheckpointKind, StreamWriter, RECORD_HEADER_BYTES};
use ickp_heap::{weighted_plan, Heap, ObjectId, ShardPlan, StableId};
use std::time::{Duration, Instant};

/// A [`ShardPlan`] cached across parallel checkpoints, valid while the
/// heap structure, root set, and worker count are unchanged (the same
/// validity rule as [`JournalCache`]).
#[derive(Debug)]
pub(crate) struct PlanCache {
    structure_version: u64,
    roots: Vec<ObjectId>,
    workers: usize,
    plan: ShardPlan,
}

impl PlanCache {
    fn matches(&self, heap: &Heap, roots: &[ObjectId], workers: usize) -> bool {
        self.structure_version == heap.structure_version()
            && self.workers == workers
            && self.roots == roots
    }
}

/// Wall-clock decomposition of one parallel checkpoint, recorded by
/// [`Checkpointer::checkpoint_parallel`] and read back through
/// [`Checkpointer::parallel_phases`].
///
/// This replaces the old *projected* Amdahl decomposition: instead of
/// timing the planner in isolation and extrapolating, the engine
/// stamps its own phases, so benchmarks and the `repro scaling` gate
/// report what actually happened — including the effect of the plan cache
/// and of the parallel pre-pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParallelPhases {
    /// Building the [`ShardPlan`] ([`plan_shards`]: the parallel
    /// first-touch claim pass plus byte weighing). Zero when the cached
    /// plan was reused.
    pub plan: Duration,
    /// Shard workers, spawn to last join — the parallel section.
    pub traverse: Duration,
    /// Sequential epilogue: splicing shard bodies, stats/journal-cache
    /// bookkeeping, modified-flag resets.
    pub merge: Duration,
    /// `true` when the shard plan came from the cache (no pre-pass ran).
    pub plan_cached: bool,
    /// `true` when the journal fast path served the checkpoint: no shard
    /// workers ran and the phase durations above are all zero.
    pub fast_path: bool,
}

impl ParallelPhases {
    /// Total engine time accounted to the three phases.
    pub fn total(&self) -> Duration {
        self.plan + self.traverse + self.merge
    }

    /// Fraction of the accounted time spent outside the parallel section
    /// (plan + merge) — the measured serial fraction of this checkpoint.
    /// `0.0` when nothing was accounted (fast path).
    pub fn serial_fraction(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        (self.plan + self.merge).as_secs_f64() / total
    }
}

/// Builds the [`ShardPlan`] the parallel engine uses for `(roots,
/// workers)` — the single source of truth for planning, shared by
/// [`Checkpointer::checkpoint_parallel`], the shard audit's
/// cross-validator, and the scaling harness, so a plan computed outside
/// the engine is guaranteed to equal the one the engine runs.
///
/// This is [`weighted_plan`] with the record-header overhead: one parallel
/// first-touch claim pass weighs each root by its estimated stream bytes,
/// places the shard boundaries by prefix sum, and yields the shard owners.
/// The plan equals the sequential oracle [`ickp_heap::first_touch_plan`]
/// over the same chunks.
///
/// # Errors
///
/// Propagates heap errors (a dangling root or reference) from the claim
/// pass.
pub fn plan_shards(
    heap: &Heap,
    roots: &[ObjectId],
    workers: usize,
) -> Result<ShardPlan, CoreError> {
    Ok(weighted_plan(heap, roots, workers, RECORD_HEADER_BYTES as u64)?)
}

/// What one shard actually touched during a traced parallel checkpoint.
///
/// This is the *dynamic* counterpart of the static shard footprint that
/// `ickp-audit`'s `audit_shards` computes: the access sanitizer in
/// `ickp-backend` compares the two, and the audit crate's cross-validator
/// asserts `visited` ⊆ the static footprint on randomized heaps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAccess {
    /// Every object the shard visited, in visit order.
    pub visited: Vec<ObjectId>,
    /// The subset of `visited` the shard emitted a record for.
    pub recorded: Vec<ObjectId>,
    /// The shard's traversal counters; `bytes_written` is the shard's
    /// share of the record body (headers excluded).
    pub stats: TraversalStats,
}

/// Per-shard access sets observed while producing one parallel checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardTrace {
    /// `true` when the checkpoint was served by the journal fast path:
    /// no shard workers ran, and `shards` is empty.
    pub fast_path: bool,
    /// One entry per shard, in shard (= stream merge) order.
    pub shards: Vec<ShardAccess>,
}

/// What one worker hands back: its record bytes plus deferred bookkeeping.
struct ShardOutput {
    body: Vec<u8>,
    records: u32,
    stats: TraversalStats,
    /// Objects recorded by this shard, whose modified flags still need
    /// resetting (workers cannot: they hold the heap immutably).
    recorded: Vec<ObjectId>,
    /// Every object this shard visited, in visit order — concatenated in
    /// shard order this reproduces the sequential depth-first pre-order
    /// (merge invariant 3), which is what the journal cache needs.
    /// Collected only when the driver has the journal enabled.
    visit_order: Vec<ObjectId>,
}

/// One shard's traversal: the sequential checkpoint loop restricted to the
/// objects this shard owns, writing into a headerless shard stream.
/// Only `record` is dispatched; see the module docs for the counters.
fn shard_worker(
    heap: &Heap,
    methods: &MethodTable,
    plan: &ShardPlan,
    shard: usize,
    kind: CheckpointKind,
    collect_order: bool,
) -> Result<ShardOutput, CoreError> {
    let mut writer = StreamWriter::new_shard();
    let mut stats = TraversalStats::default();
    let mut recorded = Vec::new();
    let mut visit_order = Vec::new();
    stats.refs_followed = plan.walk_shard(heap, shard, |id, obj| {
        stats.objects_visited += 1;
        if collect_order {
            visit_order.push(id);
        }
        let record_it = match kind {
            CheckpointKind::Full => true,
            CheckpointKind::Incremental => {
                stats.flag_tests += 1;
                obj.info().modified()
            }
        };
        // Looked up for every object, recorded or not, so a class the
        // table does not cover fails here as the driver's `fold` would.
        let class = obj.class();
        let record = methods.record(class)?;
        if record_it {
            writer.begin_object(obj.info().stable_id(), class, obj.fields().len());
            stats.virtual_calls += 1;
            record(heap, id, &mut writer)?;
            stats.objects_recorded += 1;
            recorded.push(id);
        }
        stats.virtual_calls += 1;
        Ok::<(), CoreError>(())
    })?;
    let (body, records) = writer.finish_shard();
    Ok(ShardOutput { body, records, stats, recorded, visit_order })
}

impl Checkpointer {
    /// Takes one checkpoint of everything reachable from `roots`, spread
    /// over up to `workers` threads.
    ///
    /// Semantically identical to [`Checkpointer::checkpoint`]: the returned
    /// [`CheckpointRecord`] — bytes, roots, kind, sequence number and
    /// traversal counters — is byte-for-byte what the sequential driver
    /// would have produced on the same heap state, and the same modified
    /// flags are reset. `workers` is clamped to the number of roots (one
    /// shard needs at least one root) and values of 0 or 1 degrade to a
    /// single worker thread.
    ///
    /// The shard plan comes from [`plan_shards`]: one parallel claim pass
    /// over the reachability graph places the shard boundaries by
    /// estimated stream bytes per root and assigns the owners (see
    /// [`ParallelPhases`] for the measured phase split). The plan is
    /// cached across checkpoints while the heap structure, root set and
    /// worker count are unchanged.
    ///
    /// # Errors
    ///
    /// Fails like [`Checkpointer::checkpoint`]. If any shard fails, the
    /// first error (in shard order) is returned, *no* modified flags are
    /// reset, and the checkpointer keeps its cached plan,
    /// [`Checkpointer::shard_stats`] and [`Checkpointer::parallel_phases`]
    /// as they were.
    ///
    /// # Example
    ///
    /// ```
    /// use ickp_core::{CheckpointConfig, Checkpointer, MethodTable};
    /// use ickp_heap::{ClassRegistry, FieldType, Heap, Value};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut reg = ClassRegistry::new();
    /// let node = reg.define("Node", None, &[("v", FieldType::Int)])?;
    /// let mut heap = Heap::new(reg);
    /// let roots: Vec<_> = (0..8).map(|_| heap.alloc(node)).collect::<Result<_, _>>()?;
    ///
    /// let table = MethodTable::derive(heap.registry());
    /// let mut sequential = Checkpointer::new(CheckpointConfig::incremental());
    /// let mut parallel = Checkpointer::new(CheckpointConfig::incremental());
    ///
    /// let reference = sequential.checkpoint(&mut heap.clone(), &table, &roots)?;
    /// let sharded = parallel.checkpoint_parallel(&mut heap, &table, &roots, 4)?;
    /// assert_eq!(sharded.bytes(), reference.bytes());
    /// assert_eq!(sharded.stats(), reference.stats());
    /// # Ok(()) }
    /// ```
    pub fn checkpoint_parallel(
        &mut self,
        heap: &mut Heap,
        methods: &MethodTable,
        roots: &[ObjectId],
        workers: usize,
    ) -> Result<CheckpointRecord, CoreError> {
        self.checkpoint_parallel_impl(heap, methods, roots, workers, false)
            .map(|(record, _)| record)
    }

    /// [`Checkpointer::checkpoint_parallel`], additionally returning the
    /// per-shard access sets observed during the traversal.
    ///
    /// The record is byte-for-byte the same either way; tracing only adds
    /// bookkeeping (each shard keeps its visit order and recorded set).
    /// This is the probe behind the `sanitize` feature of `ickp-backend`
    /// and the shard-audit cross-validator: the returned [`ShardTrace`]
    /// is what the shards *actually* touched, to be checked against what
    /// the static analysis said they *may* touch.
    ///
    /// # Errors
    ///
    /// Fails like [`Checkpointer::checkpoint_parallel`].
    pub fn checkpoint_parallel_traced(
        &mut self,
        heap: &mut Heap,
        methods: &MethodTable,
        roots: &[ObjectId],
        workers: usize,
    ) -> Result<(CheckpointRecord, ShardTrace), CoreError> {
        self.checkpoint_parallel_impl(heap, methods, roots, workers, true)
            .map(|(record, trace)| (record, trace.expect("tracing was requested")))
    }

    fn checkpoint_parallel_impl(
        &mut self,
        heap: &mut Heap,
        methods: &MethodTable,
        roots: &[ObjectId],
        workers: usize,
        trace: bool,
    ) -> Result<(CheckpointRecord, Option<ShardTrace>), CoreError> {
        let seq = self.next_seq;
        let kind = self.config.kind;
        let root_ids: Vec<StableId> =
            roots.iter().map(|&r| heap.stable_id(r)).collect::<Result<_, _>>()?;
        if self.journal_usable(heap, roots) {
            // The fast path emits O(modified) records sequentially; there
            // is nothing left to parallelize, and the output is the same
            // byte-identical stream either way.
            let record = self.checkpoint_from_journal(heap, methods, root_ids, Ok)?;
            self.last_shard_stats = vec![record.stats()];
            self.last_phases =
                Some(ParallelPhases { fast_path: true, ..ParallelPhases::default() });
            let fast = trace.then(|| ShardTrace { fast_path: true, shards: Vec::new() });
            return Ok((record, fast));
        }
        // The cached plan is borrowed, not taken: a failing checkpoint must
        // leave the checkpointer as it found it, and a still-valid plan in
        // the cache along with it.
        let plan_timer = Instant::now();
        let plan_cached = self.plan_cache.as_ref().is_some_and(|c| c.matches(heap, roots, workers));
        let mut fresh = None;
        let plan: &ShardPlan = match &self.plan_cache {
            Some(cached) if plan_cached => &cached.plan,
            _ => fresh.insert(plan_shards(heap, roots, workers)?),
        };
        let plan_time = plan_timer.elapsed();
        let journal_wanted = self.config.journal && kind == CheckpointKind::Incremental;
        let collect_order = journal_wanted || trace;

        let traverse_timer = Instant::now();
        let outputs = std::thread::scope(|scope| {
            let heap = &*heap;
            let handles: Vec<_> = (0..plan.num_shards())
                .map(|shard| {
                    scope.spawn(move || {
                        shard_worker(heap, methods, plan, shard, kind, collect_order)
                    })
                })
                .collect();
            // The first error in shard order; the scope joins the rest.
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker does not panic"))
                .collect::<Result<Vec<ShardOutput>, CoreError>>()
        });
        let traverse_time = traverse_timer.elapsed();
        let outputs = outputs?;

        let merge_timer = Instant::now();
        let (mut writer, reused) = self.writer_for(seq, kind, &root_ids);
        let mut stats = TraversalStats::default();
        let mut to_reset: Vec<ObjectId> = Vec::new();
        let mut builder = journal_wanted.then(|| JournalCache::builder(heap, roots));
        let mut accesses = trace.then(Vec::new);
        self.last_shard_stats.clear();
        for mut out in outputs {
            // Per-shard bytes are this shard's body; the aggregate
            // `bytes_written` is replaced by the full stream length below,
            // so the sum here never leaks into the record's stats.
            out.stats.bytes_written = out.body.len() as u64;
            writer.append_shard(&out.body, out.records);
            stats += out.stats;
            self.last_shard_stats.push(out.stats);
            if let Some(accesses) = &mut accesses {
                accesses.push(ShardAccess {
                    visited: out.visit_order.clone(),
                    recorded: out.recorded.clone(),
                    stats: out.stats,
                });
            }
            to_reset.extend(out.recorded);
            if let Some(builder) = &mut builder {
                // Shard visit orders concatenated in shard order are the
                // sequential depth-first pre-order (merge invariant 3), so
                // the cache built here equals the sequential driver's.
                for id in out.visit_order {
                    builder.visit(id);
                }
            }
        }
        for id in to_reset {
            heap.reset_modified(id)?;
        }
        if let Some(builder) = builder {
            self.cache = Some(builder.finish());
            heap.finish_journal_epoch();
        }
        stats.bytes_reused = reused;
        if let Some(plan) = fresh {
            self.plan_cache = Some(PlanCache {
                structure_version: heap.structure_version(),
                roots: roots.to_vec(),
                workers,
                plan,
            });
        }

        let record = self.seal(seq, root_ids, writer, stats);
        self.last_phases = Some(ParallelPhases {
            plan: if plan_cached { Duration::ZERO } else { plan_time },
            traverse: traverse_time,
            merge: merge_timer.elapsed(),
            plan_cached,
            fast_path: false,
        });
        let shard_trace = accesses.map(|shards| ShardTrace { fast_path: false, shards });
        Ok((record, shard_trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointConfig;
    use crate::restore::{restore, verify_restore, RestorePolicy};
    use crate::store::CheckpointStore;
    use crate::stream::decode;
    use ickp_heap::{ClassId, ClassRegistry, FieldType, Value};

    fn setup() -> (Heap, ClassId, MethodTable) {
        let mut reg = ClassRegistry::new();
        let node = reg
            .define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])
            .unwrap();
        let table = MethodTable::derive(&reg);
        (Heap::new(reg), node, table)
    }

    /// `n` chains of length 3 with some sharing between neighbours.
    fn world(n: usize) -> (Heap, MethodTable, Vec<ObjectId>) {
        let (mut heap, node, table) = setup();
        let mut roots = Vec::new();
        let mut prev_mid = None;
        for i in 0..n {
            let tail = heap.alloc(node).unwrap();
            let mid = heap.alloc(node).unwrap();
            let head = heap.alloc(node).unwrap();
            heap.set_field(head, 0, Value::Int(i as i32)).unwrap();
            heap.set_field(head, 1, Value::Ref(Some(mid))).unwrap();
            heap.set_field(mid, 1, Value::Ref(Some(tail))).unwrap();
            // Every third structure also points at its neighbour's middle
            // node, giving the partitioner cross-shard sharing to resolve.
            if i % 3 == 0 {
                if let Some(shared) = prev_mid {
                    heap.set_field(tail, 1, Value::Ref(Some(shared))).unwrap();
                }
            }
            prev_mid = Some(mid);
            roots.push(head);
        }
        (heap, table, roots)
    }

    fn assert_matches_sequential(kind: CheckpointConfig, workers: usize) {
        let (mut heap, table, roots) = world(10);
        let mut reference_heap = heap.clone();
        let mut seq_ckp = Checkpointer::new(kind);
        let mut par_ckp = Checkpointer::new(kind);
        let reference = seq_ckp.checkpoint(&mut reference_heap, &table, &roots).unwrap();
        let sharded = par_ckp.checkpoint_parallel(&mut heap, &table, &roots, workers).unwrap();
        assert_eq!(sharded.bytes(), reference.bytes(), "workers={workers}");
        assert_eq!(sharded.stats(), reference.stats(), "workers={workers}");
        assert_eq!(sharded.roots(), reference.roots());
        assert_eq!(
            ickp_heap::HeapSnapshot::capture(&heap, &roots).unwrap(),
            ickp_heap::HeapSnapshot::capture(&reference_heap, &roots).unwrap()
        );
    }

    #[test]
    fn parallel_full_checkpoint_is_byte_identical_to_sequential() {
        for workers in [1, 2, 3, 4, 7, 8, 100] {
            assert_matches_sequential(CheckpointConfig::full(), workers);
        }
    }

    #[test]
    fn parallel_incremental_checkpoint_is_byte_identical_to_sequential() {
        for workers in [1, 2, 4, 7] {
            assert_matches_sequential(CheckpointConfig::incremental(), workers);
        }
    }

    #[test]
    fn phase_breakdown_tracks_cache_and_fast_path() {
        let (mut heap, table, roots) = world(8);
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental().without_journal());
        assert!(ckp.parallel_phases().is_none());

        ckp.checkpoint_parallel(&mut heap, &table, &roots, 4).unwrap();
        let first = *ckp.parallel_phases().unwrap();
        assert!(!first.fast_path && !first.plan_cached);
        assert!(first.plan > Duration::ZERO, "pre-pass ran");
        assert!(first.traverse > Duration::ZERO && first.merge > Duration::ZERO);
        assert!(first.serial_fraction() > 0.0 && first.serial_fraction() < 1.0);

        // Unchanged structure: the plan cache serves the second round.
        ckp.checkpoint_parallel(&mut heap, &table, &roots, 4).unwrap();
        let second = *ckp.parallel_phases().unwrap();
        assert!(second.plan_cached && second.plan == Duration::ZERO);

        // A structure change invalidates the cached plan.
        let extra = heap.alloc(heap.class_of(roots[0]).unwrap()).unwrap();
        heap.set_field(roots[0], 1, Value::Ref(Some(extra))).unwrap();
        ckp.checkpoint_parallel(&mut heap, &table, &roots, 4).unwrap();
        let third = *ckp.parallel_phases().unwrap();
        assert!(!third.plan_cached && third.plan > Duration::ZERO);

        // With the journal on, a clean second round is marked fast-path.
        let mut journaled = Checkpointer::new(CheckpointConfig::incremental());
        journaled.checkpoint_parallel(&mut heap, &table, &roots, 4).unwrap();
        journaled.checkpoint_parallel(&mut heap, &table, &roots, 4).unwrap();
        let fast = *journaled.parallel_phases().unwrap();
        assert!(fast.fast_path);
        assert_eq!(fast.total(), Duration::ZERO);
    }

    #[test]
    fn stale_plan_cache_is_rebuilt_after_structure_changes() {
        // The plan cache must never survive a structure change: grow the
        // graph between parallel checkpoints and require byte-identity
        // with a fresh sequential driver each round.
        let (mut heap, table, mut roots) = world(6);
        let config = CheckpointConfig::incremental();
        let mut par_ckp = Checkpointer::new(config);
        let mut seq_ckp = Checkpointer::new(config);
        let mut seq_heap = heap.clone();
        let node = heap.class_of(roots[0]).unwrap();
        for round in 0..4 {
            let par = par_ckp.checkpoint_parallel(&mut heap, &table, &roots, 3).unwrap();
            let seq = seq_ckp.checkpoint(&mut seq_heap, &table, &roots).unwrap();
            assert_eq!(par.bytes(), seq.bytes(), "round {round}");
            // Mutate both heaps identically: new subtree on one root
            // (structure change) plus a scalar dirty.
            for h in [&mut heap, &mut seq_heap] {
                let fresh = h.alloc(node).unwrap();
                h.set_field(fresh, 0, Value::Int(round as i32)).unwrap();
                h.set_field(roots[round], 1, Value::Ref(Some(fresh))).unwrap();
                h.set_field(roots[5], 0, Value::Int(100 + round as i32)).unwrap();
            }
            roots.rotate_left(1); // changed root order also invalidates
        }
    }

    #[test]
    fn parallel_incremental_resets_exactly_the_recorded_flags() {
        let (mut heap, table, roots) = world(6);
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
        ckp.checkpoint_parallel(&mut heap, &table, &roots, 3).unwrap();
        for &r in &roots {
            assert!(!heap.is_modified(r).unwrap());
        }
        heap.set_field(roots[2], 0, Value::Int(77)).unwrap();
        let rec = ckp.checkpoint_parallel(&mut heap, &table, &roots, 3).unwrap();
        assert_eq!(rec.stats().objects_recorded, 1);
        assert_eq!(rec.seq(), 1);
        let d = decode(rec.bytes(), heap.registry()).unwrap();
        assert_eq!(d.objects[0].stable, heap.stable_id(roots[2]).unwrap());
    }

    #[test]
    fn parallel_checkpoints_restore_exactly() {
        let (mut heap, table, roots) = world(9);
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
        let mut store = CheckpointStore::new();
        store.push(ckp.checkpoint_parallel(&mut heap, &table, &roots, 4).unwrap()).unwrap();
        for (i, &r) in roots.iter().enumerate() {
            if i % 2 == 0 {
                heap.set_field(r, 0, Value::Int(1000 + i as i32)).unwrap();
            }
        }
        store.push(ckp.checkpoint_parallel(&mut heap, &table, &roots, 4).unwrap()).unwrap();
        let rebuilt = restore(&store, heap.registry(), RestorePolicy::Lenient).unwrap();
        assert_eq!(verify_restore(&heap, &roots, &rebuilt).unwrap(), None);
    }

    #[test]
    fn empty_roots_match_sequential() {
        let (mut heap, _, table) = setup();
        let mut seq_ckp = Checkpointer::new(CheckpointConfig::full());
        let mut par_ckp = Checkpointer::new(CheckpointConfig::full());
        let reference = seq_ckp.checkpoint(&mut heap.clone(), &table, &[]).unwrap();
        let sharded = par_ckp.checkpoint_parallel(&mut heap, &table, &[], 4).unwrap();
        assert_eq!(sharded.bytes(), reference.bytes());
    }

    #[test]
    fn duplicate_roots_are_recorded_once() {
        let (mut heap, table, mut roots) = world(4);
        roots.push(roots[0]);
        roots.push(roots[3]);
        let mut reference_heap = heap.clone();
        let reference = Checkpointer::new(CheckpointConfig::full())
            .checkpoint(&mut reference_heap, &table, &roots)
            .unwrap();
        let sharded = Checkpointer::new(CheckpointConfig::full())
            .checkpoint_parallel(&mut heap, &table, &roots, 3)
            .unwrap();
        assert_eq!(sharded.bytes(), reference.bytes());
    }

    #[test]
    fn traced_checkpoint_reports_disjoint_accesses_in_merge_order() {
        let (mut heap, table, roots) = world(8);
        let mut reference_heap = heap.clone();
        let reference = Checkpointer::new(CheckpointConfig::full())
            .checkpoint(&mut reference_heap, &table, &roots)
            .unwrap();
        let mut ckp = Checkpointer::new(CheckpointConfig::full());
        let (record, trace) = ckp.checkpoint_parallel_traced(&mut heap, &table, &roots, 4).unwrap();
        assert_eq!(record.bytes(), reference.bytes(), "tracing never perturbs the stream");
        assert!(!trace.fast_path);
        assert_eq!(trace.shards.len(), 4);

        // Visit orders are pairwise disjoint and concatenate to the
        // sequential pre-order; full checkpoints record what they visit.
        let mut seen = std::collections::HashSet::new();
        let mut merged = Vec::new();
        for access in &trace.shards {
            assert_eq!(access.visited, access.recorded);
            for &id in &access.visited {
                assert!(seen.insert(id), "object {id:?} touched by two shards");
            }
            merged.extend(access.visited.iter().copied());
        }
        assert_eq!(merged, ickp_heap::reachable_from(&heap, &roots).unwrap());

        // The surfaced per-shard stats are the trace's, and the per-shard
        // body bytes sum to the full stream minus its header/footer.
        let shard_stats: Vec<_> = trace.shards.iter().map(|a| a.stats).collect();
        assert_eq!(ckp.shard_stats(), &shard_stats[..]);
        let body: u64 = shard_stats.iter().map(|s| s.bytes_written).sum();
        assert!(body < record.stats().bytes_written);
        assert_eq!(
            shard_stats.iter().map(|s| s.objects_recorded).sum::<u64>(),
            record.stats().objects_recorded
        );
    }

    #[test]
    fn fast_path_trace_is_marked_and_has_no_shards() {
        let (mut heap, table, roots) = world(4);
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
        let (_, first) = ckp.checkpoint_parallel_traced(&mut heap, &table, &roots, 2).unwrap();
        assert!(!first.fast_path);
        assert_eq!(ckp.shard_stats().len(), 2);
        // Nothing dirty: the journal serves the next one sequentially.
        let (record, second) =
            ckp.checkpoint_parallel_traced(&mut heap, &table, &roots, 2).unwrap();
        assert!(second.fast_path);
        assert!(second.shards.is_empty());
        assert_eq!(ckp.shard_stats(), &[record.stats()]);
    }

    #[test]
    fn cumulative_stats_and_sequence_numbers_advance() {
        let (mut heap, table, roots) = world(5);
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
        ckp.checkpoint_parallel(&mut heap, &table, &roots, 2).unwrap();
        ckp.checkpoint_parallel(&mut heap, &table, &roots, 2).unwrap();
        assert_eq!(ckp.next_seq(), 2);
        // The second round rides the journal fast path: nothing dirty,
        // nothing visited.
        assert_eq!(ckp.cumulative_stats().objects_visited, 15);
        assert_eq!(ckp.cumulative_stats().subtrees_pruned, 15);
    }
}
