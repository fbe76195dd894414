//! Table 1 harness: checkpointing the program-analysis engine.
//!
//! Reproduces the paper's §4.3 protocol: analyze the generated
//! image-manipulation program; during the binding-time and
//! evaluation-time phases take one checkpoint per fixpoint iteration,
//! under three strategies — full, incremental, and specialized
//! incremental (the phase-specific Figure 6 plan) — and additionally
//! isolate the pure *traversal* time of the incremental and specialized
//! traversals.

use ickp_analysis::{AnalysisEngine, Division, Phase};
use ickp_core::{CheckpointConfig, Checkpointer, MethodTable, TraversalStats};
use ickp_minic::parse;
use ickp_minic::programs::image_program_source;
use ickp_spec::{GuardMode, SpecializedCheckpointer};
use std::time::{Duration, Instant};

/// Checkpointing strategy measured in Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Full checkpointing every iteration.
    Full,
    /// Generic incremental checkpointing.
    Incremental,
    /// Phase-specialized incremental checkpointing.
    SpecializedIncremental,
}

impl Strategy {
    /// All strategies in the table's column order.
    pub const ALL: [Strategy; 3] =
        [Strategy::Full, Strategy::Incremental, Strategy::SpecializedIncremental];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Full => "full ckp.",
            Strategy::Incremental => "incremental",
            Strategy::SpecializedIncremental => "specialized incremental",
        }
    }
}

/// One strategy × phase measurement.
#[derive(Debug, Clone)]
pub struct PhaseRun {
    /// The measured strategy.
    pub strategy: Strategy,
    /// The measured phase.
    pub phase: Phase,
    /// Fixpoint iterations (= checkpoints).
    pub iterations: usize,
    /// Checkpoint sizes per iteration, bytes.
    pub sizes: Vec<usize>,
    /// Checkpoint construction times per iteration.
    pub times: Vec<Duration>,
    /// Pure traversal time over all attribute roots (post-phase, nothing
    /// modified): the cost that survives incrementality.
    pub traversal: Duration,
    /// Counters summed over all iterations.
    pub stats: TraversalStats,
}

impl PhaseRun {
    /// Smallest per-iteration checkpoint.
    pub fn min_size(&self) -> usize {
        self.sizes.iter().copied().min().unwrap_or(0)
    }

    /// Largest per-iteration checkpoint.
    pub fn max_size(&self) -> usize {
        self.sizes.iter().copied().max().unwrap_or(0)
    }

    /// Total checkpoint time across iterations.
    pub fn total_time(&self) -> Duration {
        self.times.iter().sum()
    }
}

/// The complete Table 1 data.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Number of `Attributes` structures (= statements analyzed).
    pub attributes: usize,
    /// All strategy × phase runs.
    pub runs: Vec<PhaseRun>,
}

impl Table1 {
    /// Looks up one cell.
    pub fn run(&self, strategy: Strategy, phase: Phase) -> Option<&PhaseRun> {
        self.runs.iter().find(|r| r.strategy == strategy && r.phase == phase)
    }
}

fn division() -> Division {
    Division { dynamic_globals: vec!["image".into(), "work".into()] }
}

/// Runs the full Table 1 protocol on an image program with `filters`
/// convolution stages (the paper's ≈750-line program ⇒
/// [`ickp_minic::programs::DEFAULT_FILTERS`]).
///
/// # Panics
///
/// Panics if the generated program fails to analyze — that would be a
/// workload-generator bug, not a measurement outcome.
pub fn run_table1(filters: usize) -> Table1 {
    let source = image_program_source(filters);
    let mut runs = Vec::new();
    let mut attributes = 0;
    for strategy in Strategy::ALL {
        for phase in [Phase::BindingTime, Phase::EvalTime] {
            let program = parse(&source).expect("generated program parses");
            let mut engine = AnalysisEngine::new(program, division()).expect("engine builds");
            attributes = engine.roots().len();
            runs.push(measure_phase(&mut engine, strategy, phase));
        }
    }
    Table1 { attributes, runs }
}

fn measure_phase(engine: &mut AnalysisEngine, strategy: Strategy, phase: Phase) -> PhaseRun {
    let table = MethodTable::derive(engine.heap().registry());
    let plans = engine.compile_phase_plans().expect("phase plans compile");

    // Phase prerequisites, checkpoint-free: side-effect analysis always,
    // binding-time analysis when measuring the ETA phase.
    engine.run_phase(Phase::SideEffect, |_, _, _| Ok(())).expect("SE phase");
    if phase == Phase::EvalTime {
        engine.run_phase(Phase::BindingTime, |_, _, _| Ok(())).expect("BTA phase");
    }
    // Base checkpoint (untimed): establishes the recovery line and clears
    // the allocation/prerequisite dirt so the measured increments reflect
    // only the measured phase's writes.
    //
    // Table 1 reproduces the paper's *traversal* cost model, so the
    // incremental drivers here pin the dirty-set journal off: the measured
    // counters must reflect full flag-testing traversals, not the journal
    // fast path (benchmarked separately in `benches/dirty_fraction.rs`).
    let mut base = Checkpointer::new(CheckpointConfig::incremental().without_journal());
    let roots = engine.roots().to_vec();
    base.checkpoint(engine.heap_mut(), &table, &roots).expect("base checkpoint");

    let mut sizes = Vec::new();
    let mut times = Vec::new();
    let mut stats = TraversalStats::default();

    let mut full = Checkpointer::new(CheckpointConfig::full());
    let mut incr = Checkpointer::new(CheckpointConfig::incremental().without_journal());
    let mut spec = SpecializedCheckpointer::new(GuardMode::Trusting);
    let plan = plans.plan(phase.key()).expect("phase plan registered");

    let report = engine
        .run_phase(phase, |heap, roots, _iter| {
            let roots = roots.to_vec();
            let start = Instant::now();
            let rec = match strategy {
                Strategy::Full => full.checkpoint(heap, &table, &roots)?,
                Strategy::Incremental => incr.checkpoint(heap, &table, &roots)?,
                Strategy::SpecializedIncremental => spec.checkpoint(heap, plan, &roots, None)?,
            };
            times.push(start.elapsed());
            sizes.push(rec.len_bytes());
            stats += rec.stats();
            Ok(())
        })
        .expect("measured phase");

    // Pure traversal cost, measured after convergence (nothing dirty).
    let reps = 5;
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        match strategy {
            Strategy::Full | Strategy::Incremental => {
                let mut t = Checkpointer::new(CheckpointConfig::incremental().without_journal());
                t.traverse_only(engine.heap(), &table, &roots).expect("traversal");
            }
            Strategy::SpecializedIncremental => {
                let mut sc = SpecializedCheckpointer::new(GuardMode::Trusting);
                sc.checkpoint(engine.heap_mut(), plan, &roots, None).expect("traversal");
            }
        }
        samples.push(start.elapsed());
    }
    let traversal = crate::timing::median(samples);

    PhaseRun { strategy, phase, iterations: report.iterations, sizes, times, traversal, stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_every_cell_and_sane_shapes() {
        // Small program (2 filters) to keep the test fast.
        let t = run_table1(2);
        assert!(t.attributes > 30);
        assert_eq!(t.runs.len(), 6);
        for strategy in Strategy::ALL {
            for phase in [Phase::BindingTime, Phase::EvalTime] {
                let run = t.run(strategy, phase).unwrap();
                assert!(run.iterations >= 1, "{strategy:?}/{phase:?}");
                assert_eq!(run.sizes.len(), run.iterations);
                assert_eq!(run.times.len(), run.iterations);
            }
        }
    }

    #[test]
    fn incremental_checkpoints_are_smaller_than_full() {
        let t = run_table1(2);
        for phase in [Phase::BindingTime, Phase::EvalTime] {
            let full = t.run(Strategy::Full, phase).unwrap();
            let incr = t.run(Strategy::Incremental, phase).unwrap();
            assert!(incr.max_size() < full.min_size(), "{phase:?}");
        }
    }

    #[test]
    fn specialized_and_incremental_record_identical_bytes_per_iteration() {
        let t = run_table1(2);
        for phase in [Phase::BindingTime, Phase::EvalTime] {
            let incr = t.run(Strategy::Incremental, phase).unwrap();
            let spec = t.run(Strategy::SpecializedIncremental, phase).unwrap();
            assert_eq!(incr.sizes, spec.sizes, "{phase:?}");
        }
    }

    #[test]
    fn specialization_slashes_the_work_counters() {
        let t = run_table1(2);
        let incr = t.run(Strategy::Incremental, Phase::BindingTime).unwrap();
        let spec = t.run(Strategy::SpecializedIncremental, Phase::BindingTime).unwrap();
        assert_eq!(spec.stats.virtual_calls, 0);
        assert!(spec.stats.flag_tests < incr.stats.flag_tests / 2);
        assert!(spec.stats.objects_visited < incr.stats.objects_visited);
    }
}
