//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. **guards** — checked vs trusting plan execution (the safety the
//!    paper's generated C omits: what does keeping it cost?).
//! 2. **threaded vs interpreted** plan execution (is removing dispatch
//!    enough, or does instruction fusion matter?).
//! 3. **write barrier** — the §6 concern: "extra time on every
//!    assignment to update the associated flag".
//! 4. **flag tests** — traversal with flag tests vs the full incremental
//!    checkpoint at 0% modified (the test-only residue).

use ickp_backend::ThreadedPlan;
use ickp_bench::BenchGroup;
use ickp_core::{CheckpointKind, StreamWriter, TraversalStats, Walker};
use ickp_heap::Value;
use ickp_spec::{GuardMode, Specializer};
use ickp_synth::{SynthConfig, SynthWorld};
use std::time::{Duration, Instant};

fn world() -> SynthWorld {
    SynthWorld::build(SynthConfig {
        structures: 2_000,
        lists_per_structure: 5,
        list_len: 5,
        ints_per_element: 1,
        seed: 99,
    })
    .expect("world builds")
}

fn main() {
    let mut group = BenchGroup::new("ablation");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(400));

    // 1 + 2: guard modes × executors on a structure-only plan, everything
    // modified (worst case for both knobs).
    for (name, threaded, mode) in [
        ("plan/interpreted-trusting", false, GuardMode::Trusting),
        ("plan/interpreted-checked", false, GuardMode::Checked),
        ("plan/threaded-trusting", true, GuardMode::Trusting),
        ("plan/threaded-checked", true, GuardMode::Checked),
    ] {
        let mut w = world();
        let plan =
            Specializer::new(w.heap().registry()).compile(&w.shape_structure_only()).unwrap();
        let threaded_plan = ThreadedPlan::compile(&plan);
        let roots = w.roots().to_vec();
        group.bench_custom(name, |iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                w.heap_mut().mark_all_modified();
                let mut writer = StreamWriter::new(0, CheckpointKind::Incremental, &[]);
                let mut stats = TraversalStats::default();
                let start = Instant::now();
                if threaded {
                    let mut regs = vec![None; threaded_plan.num_regs() as usize];
                    let mut walker = Walker::new(CheckpointKind::Incremental);
                    for &root in &roots {
                        threaded_plan
                            .run(
                                w.heap_mut(),
                                root,
                                &mut writer,
                                mode,
                                None,
                                &mut regs,
                                &mut walker,
                                &mut stats,
                            )
                            .expect("run");
                    }
                } else {
                    let mut exec = plan.executor();
                    for &root in &roots {
                        exec.run(w.heap_mut(), root, &mut writer, mode, None, &mut stats)
                            .expect("run");
                    }
                }
                total += start.elapsed();
            }
            total
        });
    }

    // 3: write barrier cost per store.
    {
        let mut w = world();
        let targets: Vec<_> = (0..w.config().structures).map(|s| w.element(s, 0, 0)).collect();
        group.bench_custom("barrier/set_field", |iters| {
            let start = Instant::now();
            for i in 0..iters {
                for &t in &targets {
                    w.heap_mut().set_field(t, 0, Value::Int(i as i32)).expect("store");
                }
            }
            start.elapsed()
        });
    }
    {
        let mut w = world();
        let targets: Vec<_> = (0..w.config().structures).map(|s| w.element(s, 0, 0)).collect();
        group.bench_custom("barrier/set_field_unbarriered", |iters| {
            let start = Instant::now();
            for i in 0..iters {
                for &t in &targets {
                    w.heap_mut().set_field_unbarriered(t, 0, Value::Int(i as i32)).expect("store");
                }
            }
            start.elapsed()
        });
    }

    // 4: the traversal+flag-test residue of incremental checkpointing
    // when nothing at all is modified.
    {
        let mut w = world();
        w.reset_modified();
        let table = ickp_core::MethodTable::derive(w.heap().registry());
        let roots = w.roots().to_vec();
        group.bench("flags/traverse-clean-heap", || {
            let mut ckp = ickp_core::Checkpointer::new(ickp_core::CheckpointConfig::incremental());
            ckp.traverse_only(w.heap(), &table, &roots).expect("traverse")
        });
    }

    group.finish();
}
