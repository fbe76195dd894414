//! Byte-identity of byte-weighted shard balancing across engines.
//!
//! The weighted chunking the parallel engine plans with moves shard
//! *boundaries*, never stream *bytes*: every round must match a
//! journal-free sequential reference byte-for-byte on heaps skewed enough
//! that weighted and count-balanced boundaries genuinely differ —
//! including rounds served from the dirty-set journal fast path and
//! rounds whose ref rewires force a plan recompute.

use ickp_backend::{Engine, GenericBackend, ParallelBackend};
use ickp_core::{plan_shards, CheckpointConfig, Checkpointer, MethodTable};
use ickp_heap::{chunk_roots, first_touch_plan, ClassRegistry, FieldType, Heap, ObjectId, Value};
use ickp_prng::Prng;

/// Mirrored heaps with heavily skewed root weights: a few long chains up
/// front, then a tail of singletons. Count-balanced and byte-weighted
/// chunking place different boundaries on this shape.
fn skewed_world() -> (Heap, Heap, Vec<ObjectId>, Vec<Vec<ObjectId>>) {
    let mut reg = ClassRegistry::new();
    let node =
        reg.define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))]).unwrap();
    let build = |reg: &ClassRegistry| {
        let mut heap = Heap::new(reg.clone());
        let mut roots = Vec::new();
        let mut chains = Vec::new();
        for len in [14usize, 10, 6, 1, 1, 1, 1, 1, 1, 1, 1, 1] {
            let mut ids = Vec::new();
            let mut next = None;
            for _ in 0..len {
                let e = heap.alloc(node).unwrap();
                heap.set_field(e, 1, Value::Ref(next)).unwrap();
                next = Some(e);
                ids.push(e);
            }
            ids.reverse();
            roots.push(ids[0]);
            chains.push(ids);
        }
        (heap, roots, chains)
    };
    let (a, roots_a, chains_a) = build(&reg);
    let (b, roots_b, _) = build(&reg);
    assert_eq!(roots_a, roots_b, "mirrored construction diverged");
    (a, b, roots_a, chains_a)
}

/// The same random write script on both mirrors: mostly scalar writes
/// (journal-friendly), occasionally a rewire within one chain that bumps
/// `structure_version` and invalidates cached plans.
fn mutate(rng: &mut Prng, heaps: [&mut Heap; 2], chains: &[Vec<ObjectId>]) {
    let [a, b] = heaps;
    for _ in 0..1 + rng.index(6) {
        let chain = rng.index(chains.len());
        let pos = rng.index(chains[chain].len());
        let id = chains[chain][pos];
        if rng.ratio(1, 8) {
            let target =
                if rng.next_bool() { None } else { Some(chains[chain][chains[chain].len() - 1]) };
            a.set_field(id, 1, Value::Ref(target)).unwrap();
            b.set_field(id, 1, Value::Ref(target)).unwrap();
        } else {
            let v = rng.next_i32();
            a.set_field(id, 0, Value::Int(v)).unwrap();
            b.set_field(id, 0, Value::Int(v)).unwrap();
        }
    }
}

/// The skew is real: on this world, the engine's weighted plan and a
/// count-balanced chunking disagree (otherwise the byte-identity rounds
/// below prove nothing about weighted boundaries).
#[test]
fn weighted_and_counted_plans_actually_differ_on_the_skewed_world() {
    let (heap, _, roots, _) = skewed_world();
    let weighted = plan_shards(&heap, &roots, 4).unwrap();
    let counted = first_touch_plan(&heap, chunk_roots(&roots, 4)).unwrap();
    assert_ne!(
        weighted.objects_per_shard(),
        counted.objects_per_shard(),
        "skewed world no longer separates weighted from count-balanced boundaries"
    );
}

/// **Weighted parallel vs sequential reference, with the journal on**:
/// every round byte-identical, and the script drives both journal-served
/// fast-path rounds and slow-path rounds through plan recomputes.
#[test]
fn weighted_parallel_matches_the_reference_through_journal_and_replans() {
    for workers in [2usize, 4] {
        let mut rng = Prng::seed_from_u64(0x3e1d_0001 + workers as u64);
        let (mut heap, mut ref_heap, roots, chains) = skewed_world();
        let mut backend = ParallelBackend::new(workers, heap.registry());
        let table = MethodTable::derive(ref_heap.registry());
        let mut reference = Checkpointer::new(CheckpointConfig::incremental().without_journal());

        let (mut fast_rounds, mut slow_rounds) = (0u32, 0u32);
        for round in 0..24 {
            mutate(&mut rng, [&mut heap, &mut ref_heap], &chains);
            let a = backend.checkpoint(&mut heap, &roots).unwrap();
            let b = reference.checkpoint(&mut ref_heap, &table, &roots).unwrap();
            assert_eq!(a.bytes(), b.bytes(), "{workers} workers, round {round}");
            if backend.phases().unwrap().fast_path {
                fast_rounds += 1;
            } else {
                slow_rounds += 1;
            }
        }
        assert!(fast_rounds > 0, "{workers} workers: journal fast path never exercised");
        assert!(slow_rounds > 1, "{workers} workers: shard workers never re-ran");
    }
}

/// **Weighted parallel vs sequential reference, with the journal off**:
/// every round runs the shard workers, and every round is byte-identical
/// to the sequential driver, at every worker count.
#[test]
fn weighted_parallel_matches_the_reference_every_round_without_journal() {
    for workers in [1usize, 2, 4, 8] {
        let mut rng = Prng::seed_from_u64(0x3e1d_0100 + workers as u64);
        let (mut heap, mut ref_heap, roots, chains) = skewed_world();
        let config = CheckpointConfig::incremental().without_journal();
        let mut weighted = ParallelBackend::with_config(workers, heap.registry(), config);
        let table = MethodTable::derive(ref_heap.registry());
        let mut reference = Checkpointer::new(config);
        for round in 0..12 {
            mutate(&mut rng, [&mut heap, &mut ref_heap], &chains);
            let a = weighted.checkpoint(&mut heap, &roots).unwrap();
            let b = reference.checkpoint(&mut ref_heap, &table, &roots).unwrap();
            assert_eq!(a.bytes(), b.bytes(), "{workers} workers, round {round}");
            assert!(!weighted.phases().unwrap().fast_path, "journal off, yet fast path taken");
        }
    }
}

/// **Weighted parallel vs every sequential dispatch engine**: the full
/// first round matches each generic engine's stream byte-for-byte (same
/// heap shape, fresh mirrors per engine).
#[test]
fn weighted_parallel_matches_every_sequential_engine_on_the_full_round() {
    for engine in Engine::ALL {
        let (mut heap, mut ref_heap, roots, _) = skewed_world();
        let mut parallel = ParallelBackend::new(4, heap.registry());
        let mut reference = GenericBackend::new(engine, ref_heap.registry());
        let a = parallel.checkpoint(&mut heap, &roots).unwrap();
        let b = reference.checkpoint(&mut ref_heap, &roots).unwrap();
        assert_eq!(a.bytes(), b.bytes(), "{engine}");
    }
}
