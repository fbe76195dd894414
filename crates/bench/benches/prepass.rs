//! Cost of the ownership pre-pass itself: planning, not checkpointing.
//!
//! Two axes on a paper-scale synthetic heap:
//!
//! * **chunking** — boundary computation alone: `chunk_roots` (one
//!   `Vec<ObjectId>` per shard, the shape the oracle takes) against
//!   `chunk_bounds` (indices into the existing root slice, the shape a
//!   `ShardPlan` stores).
//! * **plan** — full first-touch plans: the sequential oracle
//!   (`first_touch_plan` over count-balanced chunks) against the one
//!   planner the engine runs (`ickp_core::plan_shards`: one parallel
//!   claim pass yields the byte weights and the owners).
//!
//! On a single-CPU host the planner's claim pass cannot beat the oracle
//! (same traversal, plus thread spawn and the byte-weighing scan); the CI
//! scaling job shows it on more cores.

use ickp_bench::BenchGroup;
use ickp_core::plan_shards;
use ickp_heap::{chunk_bounds, chunk_roots, first_touch_plan};
use ickp_synth::{SynthConfig, SynthWorld};
use std::hint::black_box;
use std::time::Duration;

const SHARDS: usize = 8;

fn main() {
    let world = SynthWorld::build(SynthConfig {
        structures: 2_000,
        lists_per_structure: 5,
        list_len: 5,
        ints_per_element: 10,
        seed: 0x009e_9a55,
    })
    .expect("synthetic world builds");
    let heap = world.heap();
    let roots = world.roots().to_vec();

    let mut group = BenchGroup::new("prepass");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));

    group.bench("chunking/vec_per_shard", || black_box(chunk_roots(&roots, SHARDS)));
    group.bench("chunking/bounds_only", || black_box(chunk_bounds(roots.len(), SHARDS)));

    group.bench("plan/sequential", || {
        black_box(first_touch_plan(heap, chunk_roots(&roots, SHARDS)).expect("plan"))
    });
    group.bench("plan/planner", || black_box(plan_shards(heap, &roots, SHARDS).expect("plan")));
    group.finish();
}
