//! Stable storage across "process restarts": write a run to a durable
//! store on disk, reopen it in a fresh context, and resume the run.

use ickp::core::{
    restore, verify_restore, CheckpointConfig, Checkpointer, MethodTable, RestorePolicy,
};
use ickp::durable::{DurableConfig, DurableStore, StdFs};
use ickp::spec::{GuardMode, SpecializedCheckpointer, Specializer};
use ickp::synth::{ModificationSpec, SynthConfig, SynthWorld};

/// A fresh, empty directory for one test's store.
fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ickp-int-tests-{}", std::process::id())).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_run_survives_a_full_process_restart() {
    let dir = temp_dir("restart");
    let config = DurableConfig::default();

    // ---- "Process 1": run, checkpoint, persist, crash. -----------------
    let registry = {
        let mut world = SynthWorld::build(SynthConfig {
            structures: 12,
            lists_per_structure: 3,
            list_len: 4,
            ints_per_element: 2,
            seed: 77,
        })
        .unwrap();
        let roots = world.roots().to_vec();
        let table = MethodTable::derive(world.heap().registry());
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
        let mut durable = DurableStore::create(StdFs::new(&dir).unwrap(), config).unwrap();
        world.heap_mut().mark_all_modified();
        durable.append(&ckp.checkpoint(world.heap_mut(), &table, &roots).unwrap()).unwrap();
        for pct in [60u8, 30] {
            world.apply_modifications(&ModificationSpec::uniform(pct));
            durable.append(&ckp.checkpoint(world.heap_mut(), &table, &roots).unwrap()).unwrap();
        }
        world.heap().registry().clone()
        // world and store dropped: the "process" dies here.
    };

    // ---- "Process 2": reopen, restore, resume with specialization. -----
    let (mut durable, loaded) =
        DurableStore::open(StdFs::new(&dir).unwrap(), config, &registry).unwrap();
    assert_eq!(loaded.len(), 3);
    let rebuilt = restore(&loaded, &registry, RestorePolicy::Lenient).unwrap();
    let roots = rebuilt.roots().to_vec();
    let mut heap = rebuilt.into_heap();

    // Resume: mutate and take a specialized checkpoint that appends to
    // the reopened store.
    let spec = Specializer::new(&registry);
    // Rebuild the declaration from the live (restored) structures.
    let mut recorder = ickp::spec::ProfileRecorder::new();
    heap.mark_all_modified();
    recorder.observe(&heap, &roots).unwrap();
    heap.reset_all_modified();
    let plan = spec.compile(&recorder.infer().unwrap()).unwrap();

    // Dirty one structure's subtree and checkpoint with the inferred plan.
    let first_list_head = heap.field(roots[0], 0).unwrap().as_ref_id().unwrap();
    heap.set_field(first_list_head, 0, ickp::heap::Value::Int(123)).unwrap();
    let mut sc = SpecializedCheckpointer::new(GuardMode::Checked);
    sc.set_next_seq(loaded.latest().unwrap().seq() + 1);
    durable.append(&sc.checkpoint(&mut heap, &plan, &roots, None).unwrap()).unwrap();
    drop(durable);

    // ---- "Process 3": final recovery equals the resumed state. ---------
    let (_, reloaded) = DurableStore::open(StdFs::new(&dir).unwrap(), config, &registry).unwrap();
    assert_eq!(reloaded.len(), 4);
    let final_rebuild = restore(&reloaded, &registry, RestorePolicy::Lenient).unwrap();
    assert_eq!(verify_restore(&heap, &roots, &final_rebuild).unwrap(), None);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loading_with_the_wrong_registry_is_detected() {
    let dir = temp_dir("wrong-registry");
    let config = DurableConfig::default();
    let mut world = SynthWorld::build(SynthConfig::small()).unwrap();
    let roots = world.roots().to_vec();
    let table = MethodTable::derive(world.heap().registry());
    let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
    let mut durable = DurableStore::create(StdFs::new(&dir).unwrap(), config).unwrap();
    world.heap_mut().mark_all_modified();
    durable.append(&ckp.checkpoint(world.heap_mut(), &table, &roots).unwrap()).unwrap();
    drop(durable);

    // A registry with different layouts cannot decode the records.
    let mut other = ickp::heap::ClassRegistry::new();
    other.define("X", None, &[("a", ickp::heap::FieldType::Bool)]).unwrap();
    assert!(DurableStore::open(StdFs::new(&dir).unwrap(), config, &other).is_err());

    let _ = std::fs::remove_dir_all(&dir);
}
