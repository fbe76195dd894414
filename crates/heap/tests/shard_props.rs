//! Randomized shard-plan properties on DAG heaps with shared substructure.
//!
//! These pin the exact invariant `ickp-audit`'s shard-interference pass
//! and the parallel engine build on: the planner ([`weighted_plan`]) is,
//! slot for slot, the sequential first-touch oracle ([`first_touch_plan`])
//! over chunks cut at [`chunk_bounds_weighted`] of independently computed
//! per-root byte weights; ownership is the *first-touch* prediction
//! derived purely from root order; every reachable object is owned by
//! exactly one shard; and the per-shard pre-orders concatenate to the
//! sequential pre-order (so the parallel stream merge is byte-identical
//! to sequential by construction).
//!
//! Heaps are built bottom-up — object `i` only references objects
//! allocated before it — which guarantees acyclicity while still
//! producing heavy sharing (many parents per object). Two classes with
//! different encoded sizes make byte weights differ from object counts.

use ickp_heap::{
    chunk_bounds_weighted, chunk_roots, first_touch_plan, reachable_from, weighted_plan,
    ClassRegistry, FieldType, Heap, ObjectId, ShardPlan, Value,
};
use ickp_prng::Prng;
use std::collections::{HashMap, HashSet};

const REF_SLOTS: usize = 3;

/// The record-header overhead the engine plans with.
const OVERHEAD: u64 = 15;

/// Builds a random DAG heap and returns its live objects in allocation
/// order.
fn random_dag(rng: &mut Prng) -> (Heap, Vec<ObjectId>) {
    let mut reg = ClassRegistry::new();
    let refs =
        [("a", FieldType::Ref(None)), ("b", FieldType::Ref(None)), ("c", FieldType::Ref(None))];
    let small = reg.define("D", None, &[&[("v", FieldType::Int)], &refs[..]].concat()).unwrap();
    let large = reg
        .define(
            "E",
            None,
            &[
                &[("v", FieldType::Int)],
                &refs[..],
                &[("x", FieldType::Long), ("y", FieldType::Long)],
            ]
            .concat(),
        )
        .unwrap();
    let mut heap = Heap::new(reg);
    let n = 2 + rng.index(60);
    let mut objects = Vec::with_capacity(n);
    for i in 0..n {
        let id = heap.alloc(if rng.ratio(1, 4) { large } else { small }).unwrap();
        heap.set_field(id, 0, Value::Int(i as i32)).unwrap();
        // Each ref slot independently points at a random earlier object,
        // so late allocations fan in on early ones (shared substructure).
        for slot in 0..REF_SLOTS {
            if i > 0 && rng.below(3) != 0 {
                let target = objects[rng.index(i)];
                heap.set_field(id, 1 + slot, Value::Ref(Some(target))).unwrap();
            }
        }
        objects.push(id);
    }
    (heap, objects)
}

/// Picks a random subset of `objects` in random order, then, in about
/// half the cases, appends duplicates of some of them.
fn random_roots(rng: &mut Prng, objects: &[ObjectId]) -> Vec<ObjectId> {
    let mut pool = objects.to_vec();
    let count = 1 + rng.index(pool.len().min(12));
    let mut roots = Vec::with_capacity(count);
    for _ in 0..count {
        roots.push(pool.swap_remove(rng.index(pool.len())));
    }
    if rng.next_bool() {
        for _ in 0..1 + rng.index(3) {
            roots.push(roots[rng.index(count)]);
        }
    }
    roots
}

/// An independent reimplementation of first-touch ownership: walk each
/// root chunk in order with a depth-first pre-order traversal, claiming
/// every object not yet claimed by an earlier chunk.
fn predict_first_touch(heap: &Heap, chunks: &[Vec<ObjectId>]) -> HashMap<ObjectId, usize> {
    let mut owner = HashMap::new();
    for (shard, chunk) in chunks.iter().enumerate() {
        let mut stack: Vec<ObjectId> = chunk.iter().rev().copied().collect();
        while let Some(id) = stack.pop() {
            if owner.contains_key(&id) {
                continue;
            }
            owner.insert(id, shard);
            let object = heap.object(id).unwrap();
            for value in object.fields().iter().rev() {
                if let Value::Ref(Some(child)) = value {
                    stack.push(*child);
                }
            }
        }
    }
    owner
}

/// Per-root byte weights from the sequential oracle with one root per
/// chunk: each reachable object's record header plus encoded state,
/// credited to the lowest root that reaches it.
fn reference_weights(heap: &Heap, roots: &[ObjectId]) -> Vec<u64> {
    let per_root = first_touch_plan(heap, roots.iter().map(|&r| vec![r]).collect()).unwrap();
    let mut weights = vec![0u64; roots.len()];
    for id in heap.iter_live() {
        if let Some(root) = per_root.owner_of(id) {
            let class = heap.class(heap.class_of(id).unwrap()).unwrap();
            weights[root as usize] += OVERHEAD + class.encoded_state_size() as u64;
        }
    }
    weights
}

/// The plan the planner must produce: the sequential oracle over the
/// chunks cut at the reference weights.
fn oracle(heap: &Heap, roots: &[ObjectId], shards: usize) -> ShardPlan {
    let bounds = chunk_bounds_weighted(&reference_weights(heap, roots), shards);
    let chunks = bounds.windows(2).map(|w| roots[w[0]..w[1]].to_vec()).collect();
    first_touch_plan(heap, chunks).unwrap()
}

fn planned(heap: &Heap, roots: &[ObjectId], shards: usize) -> ShardPlan {
    weighted_plan(heap, roots, shards, OVERHEAD).unwrap()
}

/// The shard counts every case runs: 0 and 1, the counts the engine
/// uses, and more shards than roots.
fn shard_counts(roots: &[ObjectId]) -> Vec<usize> {
    let mut counts: Vec<usize> = (0..=8).collect();
    counts.push(roots.len() + 3);
    counts
}

/// Ownership is exactly the first-touch prediction from root order, and
/// unreachable objects stay unowned — for the count-balanced oracle plan
/// the audit's tests build and for the planner's own chunks.
#[test]
fn ownership_is_the_first_touch_prediction_from_root_order() {
    for case in 0..96u64 {
        let mut rng = Prng::seed_from_u64(0x5a4d_0000 + case);
        let (heap, objects) = random_dag(&mut rng);
        let roots = random_roots(&mut rng, &objects);
        let reachable: HashSet<ObjectId> =
            reachable_from(&heap, &roots).unwrap().into_iter().collect();
        for shards in 1..=8usize {
            let counted = chunk_roots(&roots, shards);
            let plan = planned(&heap, &roots, shards);
            let own_chunks: Vec<Vec<ObjectId>> =
                (0..plan.num_shards()).map(|s| plan.roots(s).to_vec()).collect();
            let checks =
                [(first_touch_plan(&heap, counted.clone()).unwrap(), counted), (plan, own_chunks)];
            for (plan, chunks) in checks {
                let predicted = predict_first_touch(&heap, &chunks);
                assert_eq!(plan.num_objects(), reachable.len(), "case {case}, {shards} shards");
                for &id in &objects {
                    match (plan.owner_of(id), predicted.get(&id)) {
                        (Some(got), Some(&want)) => {
                            assert_eq!(
                                got as usize, want,
                                "case {case}, {shards} shards, object {id:?}"
                            )
                        }
                        (None, None) => assert!(
                            !reachable.contains(&id),
                            "case {case}: unowned object {id:?} is reachable"
                        ),
                        (got, want) => panic!(
                            "case {case}, {shards} shards, object {id:?}: plan says {got:?}, \
                             prediction says {want:?}"
                        ),
                    }
                }
            }
        }
    }
}

/// The per-shard pre-order slices are a partition of the reachable set
/// whose concatenation is exactly the sequential pre-order.
#[test]
fn shard_slices_partition_the_reachable_set_in_sequential_order() {
    for case in 0..96u64 {
        let mut rng = Prng::seed_from_u64(0x9a27_0000 + case);
        let (heap, objects) = random_dag(&mut rng);
        let roots = random_roots(&mut rng, &objects);
        let sequential = reachable_from(&heap, &roots).unwrap();
        for shards in 1..=8usize {
            let plan = planned(&heap, &roots, shards);
            let mut merged = Vec::new();
            let mut seen: HashSet<ObjectId> = HashSet::new();
            for shard in 0..plan.num_shards() {
                let slice = plan.shard_preorder(&heap, shard).unwrap();
                assert_eq!(
                    slice.len(),
                    plan.objects_per_shard()[shard],
                    "case {case}, shard {shard}/{shards}"
                );
                for &id in &slice {
                    assert!(
                        seen.insert(id),
                        "case {case}, {shards} shards: object {id:?} emitted by two shards"
                    );
                    assert_eq!(plan.owner_of(id), Some(shard as u32), "case {case}");
                }
                merged.extend(slice);
            }
            assert_eq!(merged, sequential, "case {case}, {shards} shards");
        }
    }
}

/// **The planner is the oracle**: on randomized DAGs with heavy shared
/// substructure and duplicate roots, the one-pass parallel planner equals
/// the sequential oracle over chunks cut at independently computed byte
/// weights — same roots, same bounds, same owner table, same object
/// count — for shard counts 0 and 1, the engine's counts, and more shards
/// than roots.
#[test]
fn planner_equals_the_oracle_on_random_dags() {
    for case in 0..96u64 {
        let mut rng = Prng::seed_from_u64(0x7a11_0000 + case);
        let (heap, objects) = random_dag(&mut rng);
        let roots = random_roots(&mut rng, &objects);
        for shards in shard_counts(&roots) {
            let plan = planned(&heap, &roots, shards);
            let want = oracle(&heap, &roots, shards);
            assert_eq!(plan, want, "case {case}, {shards} shards");
            assert_eq!(plan.owner_table(), want.owner_table(), "case {case}, {shards} shards");
        }
    }
}

/// An empty root set plans to zero shards and no owned object, whatever
/// the requested count; shard count 0 plans like 1.
#[test]
fn empty_roots_and_zero_shards_match_the_oracle() {
    let mut rng = Prng::seed_from_u64(0x7a11_e000);
    let (heap, objects) = random_dag(&mut rng);
    for shards in [0, 1, 4] {
        let plan = planned(&heap, &[], shards);
        assert_eq!(plan, oracle(&heap, &[], shards), "{shards} shards");
        assert_eq!(plan.num_shards(), 0);
        assert_eq!(plan.num_objects(), 0);
        assert!(plan.owner_table().iter().all(|&s| s == u32::MAX));
    }
    let roots = random_roots(&mut rng, &objects);
    assert_eq!(planned(&heap, &roots, 0), planned(&heap, &roots, 1));
    assert_eq!(planned(&heap, &roots, 0).num_shards(), 1);
}

/// **Shared subgraphs race to one winner**: many roots funneling into one
/// diamond-shaped core still produce the oracle's plan — the lowest root
/// wins every contended object no matter how threads interleave.
#[test]
fn contended_shared_subgraph_resolves_to_the_lowest_chunk() {
    let mut reg = ClassRegistry::new();
    let class =
        reg.define("S", None, &[("a", FieldType::Ref(None)), ("b", FieldType::Ref(None))]).unwrap();
    let mut heap = Heap::new(reg);
    // A 40-deep diamond ladder every root can reach.
    let mut lower = heap.alloc(class).unwrap();
    for _ in 0..40 {
        let left = heap.alloc(class).unwrap();
        let right = heap.alloc(class).unwrap();
        let top = heap.alloc(class).unwrap();
        heap.set_field(left, 0, Value::Ref(Some(lower))).unwrap();
        heap.set_field(right, 0, Value::Ref(Some(lower))).unwrap();
        heap.set_field(top, 0, Value::Ref(Some(left))).unwrap();
        heap.set_field(top, 1, Value::Ref(Some(right))).unwrap();
        lower = top;
    }
    // 16 roots, each pointing straight at the contended ladder.
    let mut roots = Vec::new();
    for _ in 0..16 {
        let root = heap.alloc(class).unwrap();
        heap.set_field(root, 0, Value::Ref(Some(lower))).unwrap();
        roots.push(root);
    }
    for shards in [2, 3, 4, 8, 16] {
        let plan = planned(&heap, &roots, shards);
        assert_eq!(plan, oracle(&heap, &roots, shards), "{shards} shards");
        // The whole ladder belongs to shard 0 — first touch from root 0.
        assert_eq!(plan.owner_of(lower), Some(0));
    }
}

/// **Stale plans must be rebuilt, and rebuilds agree**: after structural
/// mutations bump `structure_version`, a freshly computed plan equals the
/// fresh oracle and diverges from the stale plan — the exact invalidation
/// signal the engine's plan cache keys on.
#[test]
fn recomputed_plans_agree_after_structure_changes() {
    for case in 0..24u64 {
        let mut rng = Prng::seed_from_u64(0x57a1_0000 + case);
        let (mut heap, mut objects) = random_dag(&mut rng);
        let roots = random_roots(&mut rng, &objects);
        let class = heap.class_of(objects[0]).unwrap();
        let before = planned(&heap, &roots, 4);
        let version = heap.structure_version();

        // Grow a fresh spine under root 0 so first-touch order shifts.
        let mut next = None;
        for _ in 0..3 + rng.index(5) {
            let id = heap.alloc(class).unwrap();
            heap.set_field(id, 1, Value::Ref(next)).unwrap();
            next = Some(id);
            objects.push(id);
        }
        heap.set_field(roots[0], 1, Value::Ref(next)).unwrap();
        assert_ne!(heap.structure_version(), version, "case {case}: mutation must be visible");

        let plan = planned(&heap, &roots, 4);
        assert_eq!(plan, oracle(&heap, &roots, 4), "case {case}");
        assert_ne!(plan, before, "case {case}: stale plan should differ after growth");
        assert_eq!(plan.num_objects(), reachable_from(&heap, &roots).unwrap().len());
    }
}
