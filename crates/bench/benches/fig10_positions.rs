//! Bench tracking for Figure 10: specialization w.r.t. modified-list set
//! *and* last-element-only positions.

use ickp_bench::{BenchGroup, SynthRunner, Variant};
use ickp_synth::ModificationSpec;
use std::time::Duration;

const STRUCTURES: usize = 2_000;

fn main() {
    let mut group = BenchGroup::new("fig10");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(400));
    for ints in [1usize, 10] {
        let mut runner = SynthRunner::new(STRUCTURES, 5, ints);
        for k in [1usize, 5] {
            let mods = ModificationSpec { pct_modified: 50, modified_lists: k, last_only: true };
            let label = format!("ints{ints}_lists{k}");
            group.bench_custom(&format!("incremental/{label}"), |iters| {
                runner.time_rounds(Variant::IncrementalNoJournal, &mods, iters as usize)
            });
            group.bench_custom(&format!("spec-last-only/{label}"), |iters| {
                runner.time_rounds(Variant::SpecLastOnly, &mods, iters as usize)
            });
        }
    }
    group.finish();
}
