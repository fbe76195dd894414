//! Recorded checkpoint histories over the synthetic world: the shared
//! set-up of the `repro` gates and the durable-store benches.
//!
//! Every history has one shape. The world is built from its config and
//! every object is marked modified, so the first checkpoint is complete.
//! Then each round applies the modification spec (every round but the
//! first) and takes one checkpoint with the caller's engine.

use ickp_backend::ParallelBackend;
use ickp_core::{CheckpointConfig, CheckpointRecord, Checkpointer, CoreError, MethodTable};
use ickp_heap::{ClassRegistry, Heap, ObjectId};
use ickp_synth::{ModificationSpec, SynthConfig, SynthWorld};

/// One recorded history: the world after its last round, the records,
/// and the engine that took them.
pub struct History<E> {
    /// The world after the last round.
    pub world: SynthWorld,
    /// The world's roots, which every checkpoint captured.
    pub roots: Vec<ObjectId>,
    /// One record per round.
    pub records: Vec<CheckpointRecord>,
    /// A copy of the heap and roots after each round, if asked for.
    pub states: Vec<(Heap, Vec<ObjectId>)>,
    /// The checkpoint closure, for callers that go on checkpointing.
    pub engine: E,
}

/// Records `rounds` checkpoints of the world `config` builds, applying
/// `spec` before each one after the first, and keeping a copy of every
/// round's heap and roots when `keep_states` is set.
///
/// `engine` sees the world once, after every object is marked modified,
/// and returns the checkpoint closure; it may also prepare the world.
///
/// # Panics
///
/// If the world does not build or a checkpoint fails.
pub fn record_history<E>(
    config: SynthConfig,
    rounds: usize,
    spec: &ModificationSpec,
    keep_states: bool,
    engine: impl FnOnce(&mut SynthWorld) -> E,
) -> History<E>
where
    E: FnMut(&mut Heap, &[ObjectId]) -> Result<CheckpointRecord, CoreError>,
{
    let mut world = SynthWorld::build(config).expect("world builds");
    let roots = world.roots().to_vec();
    world.heap_mut().mark_all_modified();
    let mut engine = engine(&mut world);
    let mut records = Vec::with_capacity(rounds);
    let mut states = Vec::new();
    for round in 0..rounds {
        if round > 0 {
            world.apply_modifications(spec);
        }
        records.push(engine(world.heap_mut(), &roots).expect("checkpoint"));
        if keep_states {
            states.push((world.heap().clone(), roots.clone()));
        }
    }
    History { world, roots, records, states, engine }
}

/// The sequential incremental checkpointer (journal on) over
/// `registry`, as a checkpoint closure.
pub fn sequential(
    registry: &ClassRegistry,
) -> impl FnMut(&mut Heap, &[ObjectId]) -> Result<CheckpointRecord, CoreError> {
    let table = MethodTable::derive(registry);
    let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
    move |heap, roots| ckp.checkpoint(heap, &table, roots)
}

/// The parallel engine with `workers` shard workers over `registry`,
/// as a checkpoint closure.
pub fn parallel(
    workers: usize,
    registry: &ClassRegistry,
) -> impl FnMut(&mut Heap, &[ObjectId]) -> Result<CheckpointRecord, CoreError> {
    let mut backend = ParallelBackend::new(workers, registry);
    move |heap, roots| backend.checkpoint(heap, roots)
}
