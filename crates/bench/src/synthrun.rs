//! The synthetic-benchmark runner shared by Figures 7–11 and Table 2.
//!
//! A [`SynthRunner`] owns one built [`SynthWorld`] and measures the wall
//! time of a *checkpoint* (never of the modification writes) under any
//! [`Variant`]. Each measurement round performs one modification round and
//! one checkpoint, mirroring the paper's per-round protocol; the median
//! over rounds is reported.

use crate::timing::median;
use ickp_backend::{Engine, GenericBackend, ParallelBackend, SpecializedBackend};
use ickp_core::{CheckpointConfig, Checkpointer, MethodTable, ParallelPhases, TraversalStats};
use ickp_spec::{GuardMode, Plan, SpecializedCheckpointer, Specializer};
use ickp_synth::{ModificationSpec, SynthConfig, SynthWorld};
use std::time::{Duration, Instant};

/// Which checkpointing implementation a measurement exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Generic full checkpointing (records everything).
    FullGeneric,
    /// Generic incremental checkpointing. The dirty-set journal is on, as
    /// in production: steady-state rounds are served in O(modified) from
    /// the journal.
    Incremental,
    /// Generic incremental checkpointing with the journal pinned off —
    /// every round pays the paper's full flag-testing traversal. The
    /// baseline of Figures 7–10, and the one the `dirty_fraction` bench
    /// compares the journal against.
    IncrementalNoJournal,
    /// Specialized w.r.t. structure only (Figure 8).
    SpecStructure,
    /// Specialized w.r.t. structure + the set of possibly-modified lists
    /// (Figure 9). The list count comes from the modification spec.
    SpecModifiedLists,
    /// Specialized w.r.t. structure + lists + last-element position
    /// (Figures 10/11). The list count comes from the modification spec.
    SpecLastOnly,
    /// Generic incremental under an execution engine (Fig. 11 / Table 2),
    /// journal pinned off like the paper's traversal.
    EngineGeneric(Engine),
    /// Last-only specialized plan under an execution engine.
    EngineSpecLastOnly(Engine),
    /// Parallel sharded incremental checkpointing with this many worker
    /// threads (the `parallel_scaling` bench; fourth point in Fig. 11 /
    /// Table 2).
    Parallel(usize),
    /// [`Variant::Parallel`] with the dirty-set journal pinned off, so
    /// every round runs the shard workers instead of riding the
    /// sequential journal fast path — the variant the measured-scaling
    /// harness uses to exercise the parallel engine itself.
    ParallelNoJournal(usize),
}

/// One measurement: median checkpoint time plus the final round's stats.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Median checkpoint construction time.
    pub time: Duration,
    /// Checkpoint size in bytes (final round).
    pub bytes: usize,
    /// Traversal counters (final round).
    pub stats: TraversalStats,
    /// Objects dirtied by the final modification round.
    pub modified: usize,
    /// Plan/traverse/merge wall-clock breakdown of the final round — only
    /// for the parallel variants; `None` for sequential drivers.
    pub phases: Option<ParallelPhases>,
}

/// Owns a synthetic world and measures checkpoint variants on it.
#[derive(Debug)]
pub struct SynthRunner {
    world: SynthWorld,
    table: MethodTable,
}

impl SynthRunner {
    /// Builds the world for the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics on impossible configurations (zero-length lists).
    pub fn new(structures: usize, list_len: usize, ints_per_element: usize) -> SynthRunner {
        let config = SynthConfig {
            structures,
            lists_per_structure: 5,
            list_len,
            ints_per_element,
            seed: 0xABCD
                ^ (structures as u64) << 20
                ^ (list_len as u64) << 8
                ^ ints_per_element as u64,
        };
        let world = SynthWorld::build(config).expect("synthetic world builds");
        let table = MethodTable::derive(world.heap().registry());
        SynthRunner { world, table }
    }

    /// The underlying world.
    pub fn world(&self) -> &SynthWorld {
        &self.world
    }

    fn plan_for(&self, variant: Variant, mods: &ModificationSpec) -> Option<Plan> {
        let spec = Specializer::new(self.world.heap().registry());
        let k = mods.modified_lists.min(5);
        let shape = match variant {
            Variant::SpecStructure => self.world.shape_structure_only(),
            Variant::SpecModifiedLists => self.world.shape_modified_lists(k),
            Variant::SpecLastOnly | Variant::EngineSpecLastOnly(_) => self.world.shape_last_only(k),
            _ => return None,
        };
        Some(spec.compile(&shape).expect("synthetic shapes compile"))
    }

    /// Measures `variant` under `mods` over `rounds` modification+checkpoint
    /// rounds (plus warmup), returning the median checkpoint time.
    pub fn measure(
        &mut self,
        variant: Variant,
        mods: &ModificationSpec,
        rounds: usize,
    ) -> Measurement {
        let (samples, bytes, stats, modified, phases) = self.samples(variant, mods, 2, rounds);
        Measurement { time: median(samples), bytes, stats, modified, phases }
    }

    /// Total checkpoint time of `rounds` modification+checkpoint rounds,
    /// with no warmup — the raw quantity Criterion's `iter_custom` wants.
    pub fn time_rounds(
        &mut self,
        variant: Variant,
        mods: &ModificationSpec,
        rounds: usize,
    ) -> Duration {
        let (samples, _, _, _, _) = self.samples(variant, mods, 0, rounds);
        samples.into_iter().sum()
    }

    fn samples(
        &mut self,
        variant: Variant,
        mods: &ModificationSpec,
        warmup: usize,
        rounds: usize,
    ) -> (Vec<Duration>, usize, TraversalStats, usize, Option<ParallelPhases>) {
        let plan = self.plan_for(variant, mods);
        // Start every measurement from a clean heap (as if a base
        // checkpoint had just completed).
        self.world.reset_modified();

        enum Driver {
            Full(Checkpointer),
            Incr(Checkpointer),
            Spec(SpecializedCheckpointer),
            EngineGen(Box<GenericBackend>),
            EngineSpec(SpecializedBackend),
            Par(Box<ParallelBackend>),
        }
        let mut driver = match variant {
            Variant::FullGeneric => Driver::Full(Checkpointer::new(CheckpointConfig::full())),
            Variant::Incremental => {
                Driver::Incr(Checkpointer::new(CheckpointConfig::incremental()))
            }
            Variant::IncrementalNoJournal => {
                Driver::Incr(Checkpointer::new(CheckpointConfig::incremental().without_journal()))
            }
            Variant::SpecStructure | Variant::SpecModifiedLists | Variant::SpecLastOnly => {
                Driver::Spec(SpecializedCheckpointer::new(GuardMode::Trusting))
            }
            Variant::EngineGeneric(engine) => {
                Driver::EngineGen(Box::new(GenericBackend::with_config(
                    engine,
                    self.world.heap().registry(),
                    CheckpointConfig::incremental().without_journal(),
                )))
            }
            Variant::EngineSpecLastOnly(engine) => Driver::EngineSpec(SpecializedBackend::new(
                engine,
                plan.clone().expect("engine-spec variant has a plan"),
            )),
            Variant::Parallel(workers) => {
                Driver::Par(Box::new(ParallelBackend::new(workers, self.world.heap().registry())))
            }
            Variant::ParallelNoJournal(workers) => {
                Driver::Par(Box::new(ParallelBackend::with_config(
                    workers,
                    self.world.heap().registry(),
                    CheckpointConfig::incremental().without_journal(),
                )))
            }
        };

        let roots = self.world.roots().to_vec();
        let mut samples = Vec::with_capacity(rounds);
        let mut last_bytes = 0usize;
        let mut last_stats = TraversalStats::default();
        let mut last_modified = 0usize;
        for round in 0..warmup + rounds {
            let modified = self.world.apply_modifications(mods);
            let heap = self.world.heap_mut();
            let start = Instant::now();
            let rec = match &mut driver {
                Driver::Full(c) | Driver::Incr(c) => {
                    c.checkpoint(heap, &self.table, &roots).expect("checkpoint")
                }
                Driver::Spec(c) => c
                    .checkpoint(heap, plan.as_ref().expect("spec variant has a plan"), &roots, None)
                    .expect("checkpoint"),
                Driver::EngineGen(b) => b.checkpoint(heap, &roots).expect("checkpoint"),
                Driver::EngineSpec(b) => b.checkpoint(heap, &roots, None).expect("checkpoint"),
                Driver::Par(b) => b.checkpoint(heap, &roots).expect("checkpoint"),
            };
            let elapsed = start.elapsed();
            if round >= warmup {
                samples.push(elapsed);
                last_bytes = rec.len_bytes();
                last_stats = rec.stats();
                last_modified = modified;
            }
            // Full checkpointing does not consult flags but must not let
            // them accumulate unboundedly either; incremental/spec reset
            // recorded flags themselves. Clear leftovers outside plans'
            // view (e.g. flags outside the declared pattern).
            self.world.reset_modified();
        }
        let phases = match &driver {
            Driver::Par(b) => b.phases().copied(),
            _ => None,
        };
        (samples, last_bytes, last_stats, last_modified, phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mods(pct: u8, lists: usize, last_only: bool) -> ModificationSpec {
        ModificationSpec { pct_modified: pct, modified_lists: lists, last_only }
    }

    #[test]
    fn full_records_everything_incremental_records_the_modified() {
        let mut runner = SynthRunner::new(40, 5, 1);
        let full = runner.measure(Variant::FullGeneric, &mods(50, 5, false), 2);
        let incr = runner.measure(Variant::Incremental, &mods(50, 5, false), 2);
        assert_eq!(full.stats.objects_recorded, 40 * 26);
        assert!(incr.stats.objects_recorded < full.stats.objects_recorded);
        assert!(incr.bytes < full.bytes);
        // Steady-state rounds are served from the dirty-set journal: the
        // driver visits exactly the modified objects and prunes the rest
        // of the reachable heap without traversing it.
        assert_eq!(incr.stats.objects_recorded as usize, incr.modified);
        assert_eq!(incr.stats.journal_hits, incr.stats.objects_recorded);
        assert_eq!(incr.stats.objects_visited, incr.stats.objects_recorded);
        assert_eq!(incr.stats.subtrees_pruned, 40 * 26 - incr.stats.objects_recorded);
    }

    #[test]
    fn specialized_variants_record_exactly_what_incremental_does() {
        let m = mods(50, 3, false);
        let mut runner = SynthRunner::new(30, 5, 1);
        let incr = runner.measure(Variant::Incremental, &m, 1);
        let s1 = runner.measure(Variant::SpecStructure, &m, 1);
        let s2 = runner.measure(Variant::SpecModifiedLists, &m, 1);
        // Same seed sequence? No — rounds advance the RNG, so compare
        // against the invariant instead: recorded == modified.
        assert_eq!(incr.stats.objects_recorded as usize, incr.modified);
        assert_eq!(s1.stats.objects_recorded as usize, s1.modified);
        assert_eq!(s2.stats.objects_recorded as usize, s2.modified);
    }

    #[test]
    fn narrowed_plans_do_less_work() {
        let m = mods(100, 1, true);
        let mut runner = SynthRunner::new(30, 5, 1);
        let incr = runner.measure(Variant::Incremental, &m, 1);
        let spec = runner.measure(Variant::SpecLastOnly, &m, 1);
        assert_eq!(spec.stats.flag_tests, 30, "one test per structure");
        // The journal narrows the generic driver even harder than the
        // specialized plan: its scan touches only journaled entries and
        // follows no references at all.
        assert_eq!(incr.stats.flag_tests, incr.stats.journal_hits, "scan touches only the dirty");
        assert_eq!(incr.stats.refs_followed, 0, "no pointer chasing on the fast path");
        assert_eq!(spec.stats.objects_recorded as usize, spec.modified);
    }

    #[test]
    fn parallel_variant_records_what_incremental_records() {
        let m = mods(50, 5, false);
        let mut runner = SynthRunner::new(20, 5, 1);
        let incr = runner.measure(Variant::Incremental, &m, 1);
        assert_eq!(incr.stats.objects_recorded as usize, incr.modified);
        for workers in [1usize, 4] {
            // The RNG advances between measurements, so the two variants
            // see different modification sets; compare each against the
            // shared steady-state invariant instead: every round is served
            // from the journal and records exactly what was modified.
            let par = runner.measure(Variant::Parallel(workers), &m, 1);
            assert_eq!(par.stats.objects_recorded as usize, par.modified, "{workers} workers");
            assert_eq!(par.stats.objects_visited, par.stats.journal_hits, "{workers} workers");
            assert_eq!(
                par.stats.subtrees_pruned,
                20 * 26 - par.stats.objects_visited,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn no_journal_parallel_variant_runs_the_shard_workers() {
        let m = mods(50, 5, false);
        let mut runner = SynthRunner::new(20, 5, 1);
        let par = runner.measure(Variant::ParallelNoJournal(4), &m, 1);
        let phases = par.phases.expect("parallel variants report a phase breakdown");
        assert!(!phases.fast_path, "journal off, yet the round took the fast path");
        assert!(phases.traverse > Duration::ZERO, "shard workers never ran");
        // Steady-state shape: the plan is served from cache.
        assert!(phases.plan_cached);
        // Sequential variants have no phase breakdown to report.
        let incr = runner.measure(Variant::Incremental, &m, 1);
        assert!(incr.phases.is_none());
    }

    #[test]
    fn engine_variants_produce_valid_measurements() {
        let m = mods(100, 5, true);
        let mut runner = SynthRunner::new(10, 5, 1);
        for engine in Engine::ALL {
            let g = runner.measure(Variant::EngineGeneric(engine), &m, 1);
            let s = runner.measure(Variant::EngineSpecLastOnly(engine), &m, 1);
            assert_eq!(g.stats.objects_recorded, s.stats.objects_recorded, "{engine}");
            assert!(s.stats.virtual_calls < g.stats.virtual_calls, "{engine}");
        }
    }
}
