//! Bench tracking for Figure 8: structure specialization vs the generic
//! incremental checkpointer.

use ickp_bench::{BenchGroup, SynthRunner, Variant};
use ickp_synth::ModificationSpec;
use std::time::Duration;

const STRUCTURES: usize = 2_000;

fn main() {
    let mut group = BenchGroup::new("fig8");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(400));
    for (len, ints, pct) in [(5usize, 1usize, 25u8), (5, 10, 100), (1, 1, 100)] {
        let mut runner = SynthRunner::new(STRUCTURES, len, ints);
        let mods = ModificationSpec { pct_modified: pct, modified_lists: 5, last_only: false };
        let label = format!("len{len}_ints{ints}_pct{pct}");
        group.bench_custom(&format!("incremental/{label}"), |iters| {
            runner.time_rounds(Variant::IncrementalNoJournal, &mods, iters as usize)
        });
        group.bench_custom(&format!("spec-structure/{label}"), |iters| {
            runner.time_rounds(Variant::SpecStructure, &mods, iters as usize)
        });
    }
    group.finish();
}
