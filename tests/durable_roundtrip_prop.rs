//! Randomized round-trip property: for random worlds, random
//! modification sequences and every execution engine, a checkpoint run
//! survives the crash-safe segmented durable store on *both* paths into
//! it — record by record and after `compact` — and restores to exactly
//! the live state.
//!
//! Driven by the in-repo seeded PRNG; each case is fully determined by
//! its seed, named in the assertion message for replay.

use ickp::backend::{Engine, GenericBackend};
use ickp::core::{compact, restore, verify_restore, CheckpointStore, RestorePolicy};
use ickp::durable::{DurableConfig, DurableStore, MemFs};
use ickp::heap::ClassRegistry;
use ickp::synth::{ModificationSpec, SynthConfig, SynthWorld};
use ickp_prng::Prng;

fn random_config(rng: &mut Prng) -> SynthConfig {
    SynthConfig {
        structures: 1 + rng.index(6),
        lists_per_structure: 1 + rng.index(3),
        list_len: 1 + rng.index(4),
        ints_per_element: 1 + rng.index(2),
        seed: rng.next_u64(),
    }
}

/// Writes `store` through a durable store over a fresh in-memory
/// filesystem, reopens it, and returns the recovered store.
fn through_durable(
    store: &CheckpointStore,
    registry: &ClassRegistry,
    segment_target_bytes: u64,
) -> CheckpointStore {
    let config = DurableConfig { segment_target_bytes };
    let mut fs = MemFs::new();
    let mut durable = DurableStore::create(&mut fs, config).unwrap();
    for record in store.records() {
        durable.append(record).unwrap();
    }
    drop(durable);
    let (_, recovered) = DurableStore::open(&mut fs, config, registry).unwrap();
    recovered
}

#[test]
fn random_runs_round_trip_through_both_persistence_paths() {
    for case in 0..24u64 {
        let mut rng = Prng::seed_from_u64(0x00d0_7ab1_e000 ^ (case << 16));
        let config = random_config(&mut rng);
        let rounds = 1 + rng.index(4);
        let pcts: Vec<u8> = (0..rounds).map(|_| rng.below(101) as u8).collect();
        // Random segment target: from "roll on every append" to "never".
        let segment_target = 1u64 << (6 + rng.index(16));

        for engine in Engine::ALL {
            let mut world = SynthWorld::build(config).unwrap();
            let registry = world.heap().registry().clone();
            let roots = world.roots().to_vec();
            let mut backend = GenericBackend::new(engine, &registry);
            let mut store = CheckpointStore::new();

            world.heap_mut().mark_all_modified();
            store.push(backend.checkpoint(world.heap_mut(), &roots).unwrap()).unwrap();
            for &pct in &pcts {
                world.apply_modifications(&ModificationSpec::uniform(pct));
                store.push(backend.checkpoint(world.heap_mut(), &roots).unwrap()).unwrap();
            }

            // The durable segmented store.
            let recovered = through_durable(&store, &registry, segment_target);
            assert_eq!(recovered.len(), store.len(), "case {case} engine {engine}");
            for (a, b) in store.records().iter().zip(recovered.records()) {
                assert_eq!(a.bytes(), b.bytes(), "case {case} engine {engine} seq {}", a.seq());
            }
            let rebuilt = restore(&recovered, &registry, RestorePolicy::Lenient).unwrap();
            assert_eq!(
                verify_restore(world.heap(), &roots, &rebuilt).unwrap(),
                None,
                "case {case} engine {engine} via durable"
            );

            // Compaction commutes with durable persistence.
            let compacted = compact(&store, &registry).unwrap();
            let recovered = through_durable(&compacted, &registry, segment_target);
            let rebuilt = restore(&recovered, &registry, RestorePolicy::Lenient).unwrap();
            assert_eq!(
                verify_restore(world.heap(), &roots, &rebuilt).unwrap(),
                None,
                "case {case} engine {engine} via compact+durable"
            );
        }
    }
}
