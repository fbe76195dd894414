//! Byte-identity of the journal fast path across all four backends.
//!
//! Each backend checkpoints one of a pair of mirrored heaps receiving
//! identical write scripts; the other heap is checkpointed by a
//! journal-free reference driver. Streams must match byte-for-byte every
//! round — including rounds served from the journal, rounds that fall
//! back to traversal after a shape change, and all-clean rounds that hit
//! the specialized backend's empty-dirty shortcut.

use ickp_backend::{Engine, GenericBackend, ParallelBackend, SpecializedBackend};
use ickp_core::{CheckpointConfig, Checkpointer, MethodTable};
use ickp_heap::{ClassRegistry, FieldType, Heap, ObjectId, Value};
use ickp_prng::Prng;
use ickp_spec::{ListPattern, NodePattern, Plan, SpecShape, Specializer};

/// A pair of mirrored list-of-lists heaps. Identical construction order
/// means identical `ObjectId`s, so one id set addresses both.
fn mirrored_world(n: usize) -> (Heap, Heap, Vec<ObjectId>, Vec<Vec<ObjectId>>) {
    let mut reg = ClassRegistry::new();
    let node =
        reg.define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))]).unwrap();
    let build = |reg: &ClassRegistry| {
        let mut heap = Heap::new(reg.clone());
        let mut roots = Vec::new();
        let mut lists = Vec::new();
        for _ in 0..n {
            let mut ids = Vec::new();
            let mut next = None;
            for _ in 0..5 {
                let e = heap.alloc(node).unwrap();
                heap.set_field(e, 1, Value::Ref(next)).unwrap();
                next = Some(e);
                ids.push(e);
            }
            ids.reverse();
            roots.push(ids[0]);
            lists.push(ids);
        }
        (heap, roots, lists)
    };
    let (a, roots_a, lists_a) = build(&reg);
    let (b, roots_b, _) = build(&reg);
    assert_eq!(roots_a, roots_b, "mirrored construction diverged");
    (a, b, roots_a, lists_a)
}

/// Applies the same script of random writes to every mirror: mostly Int
/// writes (journal-friendly), occasionally a ref rewire that invalidates
/// the cached traversal order and forces the next round to the slow path.
fn mutate<const N: usize>(rng: &mut Prng, mut heaps: [&mut Heap; N], lists: &[Vec<ObjectId>]) {
    for _ in 0..1 + rng.index(6) {
        let list = rng.index(lists.len());
        let pos = rng.index(lists[list].len());
        let id = lists[list][pos];
        let (slot, value) = if rng.ratio(1, 8) {
            let target = if rng.next_bool() { None } else { Some(*rng.choose(&lists[list])) };
            (1, Value::Ref(target))
        } else {
            (0, Value::Int(rng.next_i32()))
        };
        for heap in &mut heaps {
            heap.set_field(id, slot, value).unwrap();
        }
    }
}

#[test]
fn generic_backends_match_the_reference_stream_every_round() {
    let with_journal = CheckpointConfig::incremental();
    for engine in Engine::ALL {
        for config in [with_journal, with_journal.without_journal()] {
            let mut rng = Prng::seed_from_u64(0xe9e1_0001);
            let (mut heap, mut ref_heap, roots, lists) = mirrored_world(8);
            let mut twin_heap = heap.clone();
            let mut backend = GenericBackend::with_config(engine, heap.registry(), config);
            let table = MethodTable::derive(ref_heap.registry());
            let mut reference =
                Checkpointer::new(CheckpointConfig::incremental().without_journal());
            // The backend's own driver configuration: engine dispatch must
            // leave every counter as the plain driver's.
            let mut twin = Checkpointer::new(config);

            let mut journal_rounds = 0u32;
            for round in 0..20 {
                mutate(&mut rng, [&mut heap, &mut ref_heap, &mut twin_heap], &lists);
                let a = backend.checkpoint(&mut heap, &roots).unwrap();
                let b = reference.checkpoint(&mut ref_heap, &table, &roots).unwrap();
                let c = twin.checkpoint(&mut twin_heap, &table, &roots).unwrap();
                let label = format!("{engine} journal {} round {round}", config.journal);
                assert_eq!(a.bytes(), b.bytes(), "{label}");
                assert_eq!(a.stats(), c.stats(), "{label}");
                if a.stats().journal_hits > 0 {
                    journal_rounds += 1;
                }
            }
            if config.journal {
                assert!(
                    journal_rounds > 5,
                    "{engine}: only {journal_rounds} journal-served rounds"
                );
            } else {
                assert_eq!(journal_rounds, 0, "{engine}: journal off, yet rounds were served");
            }
        }
    }
}

#[test]
fn parallel_backend_matches_the_reference_stream_every_round() {
    for workers in [1usize, 2, 4] {
        let mut rng = Prng::seed_from_u64(0xe9e1_0002);
        let (mut heap, mut ref_heap, roots, lists) = mirrored_world(10);
        let mut backend = ParallelBackend::new(workers, heap.registry());
        let table = MethodTable::derive(ref_heap.registry());
        let mut reference = Checkpointer::new(CheckpointConfig::incremental().without_journal());

        for round in 0..16 {
            mutate(&mut rng, [&mut heap, &mut ref_heap], &lists);
            let a = backend.checkpoint(&mut heap, &roots).unwrap();
            let b = reference.checkpoint(&mut ref_heap, &table, &roots).unwrap();
            assert_eq!(a.bytes(), b.bytes(), "{workers} workers, round {round}");
        }
    }
}

/// The specialized world from the backend's own test suite: holders over
/// short `MayModify` lists, compilable by the specializer.
fn spec_world(n: usize) -> (Heap, Plan, Vec<ObjectId>, Vec<Vec<ObjectId>>) {
    let mut reg = ClassRegistry::new();
    let elem =
        reg.define("Elem", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))]).unwrap();
    let holder = reg.define("Holder", None, &[("head", FieldType::Ref(Some(elem)))]).unwrap();
    let shape = SpecShape::object(
        holder,
        NodePattern::FrozenHere,
        vec![(0, SpecShape::list(elem, 1, 4, ListPattern::MayModify))],
    );
    let plan = Specializer::new(&reg).compile(&shape).unwrap();
    let mut heap = Heap::new(reg);
    let mut roots = Vec::new();
    let mut lists = Vec::new();
    for _ in 0..n {
        let mut ids = Vec::new();
        let mut next = None;
        for _ in 0..4 {
            let e = heap.alloc(elem).unwrap();
            heap.set_field(e, 1, Value::Ref(next)).unwrap();
            next = Some(e);
            ids.push(e);
        }
        ids.reverse();
        let h = heap.alloc(holder).unwrap();
        heap.set_field(h, 0, Value::Ref(Some(ids[0]))).unwrap();
        roots.push(h);
        lists.push(ids);
    }
    heap.reset_all_modified();
    (heap, plan, roots, lists)
}

/// All-clean rounds take the empty-dirty shortcut (no plan execution at
/// all) and must still emit exactly the stream a fresh backend — which
/// has no shortcut state and runs the full plan — produces.
#[test]
fn specialized_shortcut_rounds_match_a_fresh_plan_execution() {
    let mut rng = Prng::seed_from_u64(0xe9e1_0003);
    let (mut heap, plan, roots, lists) = spec_world(6);
    let (mut ref_heap, ref_plan, ref_roots, _) = spec_world(6);
    assert_eq!(roots, ref_roots, "mirrored construction diverged");
    let mut backend = SpecializedBackend::new(Engine::Harissa, plan);

    let mut shortcut_rounds = 0u32;
    for round in 0..12 {
        // Half the rounds modify nothing: the long-lived backend may take
        // the shortcut, the fresh one never can.
        if round % 2 == 0 {
            for _ in 0..1 + rng.index(4) {
                let list = rng.index(lists.len());
                let pos = rng.index(lists[list].len());
                let v = rng.next_i32();
                heap.set_field(lists[list][pos], 0, Value::Int(v)).unwrap();
                ref_heap.set_field(lists[list][pos], 0, Value::Int(v)).unwrap();
            }
        }
        let a = backend.checkpoint(&mut heap, &roots, None).unwrap();

        let mut fresh = SpecializedBackend::new(Engine::Harissa, ref_plan.clone());
        fresh.set_next_seq(a.seq());
        let b = fresh.checkpoint(&mut ref_heap, &ref_roots, None).unwrap();

        assert_eq!(a.bytes(), b.bytes(), "round {round}");
        if round % 2 == 1 {
            assert_eq!(a.stats().objects_recorded, 0, "round {round}");
            shortcut_rounds += 1;
        }
    }
    assert!(shortcut_rounds > 0);
}
