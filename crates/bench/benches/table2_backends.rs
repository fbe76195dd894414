//! Bench tracking for Table 2: absolute checkpoint times across all
//! three engines, unspecialized and specialized (10 ints per element),
//! plus the parallel sharded engine as a fourth implementation point.

use ickp_backend::Engine;
use ickp_bench::{BenchGroup, SynthRunner, Variant};
use ickp_synth::ModificationSpec;
use std::time::Duration;

const STRUCTURES: usize = 2_000;

fn main() {
    let mut group = BenchGroup::new("table2");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(400));
    let mods = ModificationSpec { pct_modified: 50, modified_lists: 5, last_only: true };
    let mut runner = SynthRunner::new(STRUCTURES, 5, 10);
    for engine in Engine::ALL {
        group.bench_custom(&format!("unspec/{engine}"), |iters| {
            runner.time_rounds(Variant::EngineGeneric(engine), &mods, iters as usize)
        });
        group.bench_custom(&format!("spec/{engine}"), |iters| {
            runner.time_rounds(Variant::EngineSpecLastOnly(engine), &mods, iters as usize)
        });
    }
    for workers in [1usize, 4] {
        group.bench_custom(&format!("parallel/{workers}workers"), |iters| {
            runner.time_rounds(Variant::ParallelNoJournal(workers), &mods, iters as usize)
        });
    }
    group.finish();
}
