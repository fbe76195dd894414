//! Bench tracking for Figure 11: specialized vs unspecialized code under
//! the JDK 1.2 and HotSpot execution engines, plus the parallel sharded
//! engine as a fourth implementation point.

use ickp_backend::Engine;
use ickp_bench::{BenchGroup, SynthRunner, Variant};
use ickp_synth::ModificationSpec;
use std::time::Duration;

const STRUCTURES: usize = 2_000;

fn main() {
    let mut group = BenchGroup::new("fig11");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(400));
    let mods = ModificationSpec { pct_modified: 50, modified_lists: 3, last_only: true };
    let mut runner = SynthRunner::new(STRUCTURES, 5, 1);
    for engine in [Engine::Jdk12, Engine::HotSpot] {
        group.bench_custom(&format!("unspec/{engine}"), |iters| {
            runner.time_rounds(Variant::EngineGeneric(engine), &mods, iters as usize)
        });
        group.bench_custom(&format!("spec/{engine}"), |iters| {
            runner.time_rounds(Variant::EngineSpecLastOnly(engine), &mods, iters as usize)
        });
    }
    group.bench_custom("parallel/4workers", |iters| {
        runner.time_rounds(Variant::ParallelNoJournal(4), &mods, iters as usize)
    });
    group.finish();
}
