//! Bench tracking for Figure 9: specialization w.r.t. the set of lists
//! that may contain modified elements.

use ickp_bench::{BenchGroup, SynthRunner, Variant};
use ickp_synth::ModificationSpec;
use std::time::Duration;

const STRUCTURES: usize = 2_000;

fn main() {
    let mut group = BenchGroup::new("fig9");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(400));
    let mut runner = SynthRunner::new(STRUCTURES, 5, 1);
    for k in [1usize, 3, 5] {
        let mods = ModificationSpec { pct_modified: 50, modified_lists: k, last_only: false };
        let label = format!("lists{k}_pct50");
        group.bench_custom(&format!("incremental/{label}"), |iters| {
            runner.time_rounds(Variant::IncrementalNoJournal, &mods, iters as usize)
        });
        group.bench_custom(&format!("spec-lists/{label}"), |iters| {
            runner.time_rounds(Variant::SpecModifiedLists, &mods, iters as usize)
        });
    }
    group.finish();
}
