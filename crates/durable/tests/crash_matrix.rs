//! Crash-point enumeration over real workloads (the ISSUE's acceptance
//! bar): for every mutating I/O operation the workload performs, crash
//! there, recover, and require the recovered store to hold exactly the
//! acknowledged checkpoints — byte-identical — and to restore to the
//! matching program state.

use ickp_analysis::{AnalysisEngine, Division, Phase};
use ickp_backend::{Engine, GenericBackend, ParallelBackend};
use ickp_core::{verify_restore, CheckpointRecord, RecordSink};
use ickp_durable::{
    crash_matrix, DurableConfig, DurableStore, MatrixOptions, MemFs, StoreTopology,
};
use ickp_heap::{ClassRegistry, Heap, ObjectId};
use ickp_synth::{ModificationSpec, SynthConfig, SynthWorld};

/// Heap snapshot taken right after each checkpoint, for state verification.
type States = Vec<(Heap, Vec<ObjectId>)>;

/// Synthetic workload: the paper's list-of-structures world, checkpointed
/// by the parallel sharded engine across several modification rounds.
fn synthetic_workload() -> (ClassRegistry, States, Vec<CheckpointRecord>) {
    let config = SynthConfig {
        structures: 6,
        lists_per_structure: 2,
        list_len: 3,
        ints_per_element: 1,
        seed: 11,
    };
    let mut world = SynthWorld::build(config).expect("world builds");
    let registry = world.heap().registry().clone();
    let roots = world.roots().to_vec();
    let mut backend = ParallelBackend::new(2, &registry);
    let mut states = Vec::new();
    let mut records = Vec::new();
    // The world is built clean; the first checkpoint must be a base.
    world.heap_mut().mark_all_modified();
    for round in 0..4 {
        if round > 0 {
            world.apply_modifications(&ModificationSpec::uniform(30));
        }
        records.push(backend.checkpoint(world.heap_mut(), &roots).expect("checkpoint"));
        states.push((world.heap().clone(), roots.clone()));
    }
    (registry, states, records)
}

/// Analysis-engine workload: the three analysis phases over a small
/// program, checkpointed after every fixpoint iteration.
fn analysis_workload() -> (ClassRegistry, States, Vec<CheckpointRecord>) {
    let program = ickp_minic::parse("int d; int s; void main() { s = d + 1; }").expect("parses");
    let division = Division { dynamic_globals: vec!["d".to_string()] };
    let mut engine = AnalysisEngine::new(program, division).expect("engine builds");
    let registry = engine.heap().registry().clone();
    let mut backend = GenericBackend::new(Engine::Jdk12, &registry);
    let mut states: States = Vec::new();
    let mut records = Vec::new();
    for phase in [Phase::SideEffect, Phase::BindingTime, Phase::EvalTime] {
        engine
            .run_phase(phase, |heap, attrs, _iter| {
                records.push(backend.checkpoint(heap, attrs)?);
                states.push((heap.clone(), attrs.to_vec()));
                Ok(())
            })
            .expect("phase runs");
    }
    (registry, states, records)
}

fn run_matrix(
    name: &str,
    registry: &ClassRegistry,
    states: &States,
    records: &[CheckpointRecord],
    config: DurableConfig,
) {
    assert!(records.len() >= 3, "{name}: workload too small to be interesting");
    let report = crash_matrix(
        &StoreTopology { config },
        registry,
        records,
        MatrixOptions::default(),
        |fs, acks| {
            let mut store = DurableStore::create(fs, config)?;
            for (i, record) in records.iter().enumerate() {
                store.append(record)?;
                acks.ack(i as u64 + 1);
            }
            Ok(())
        },
        |acked, restored| {
            let (heap, roots) = &states[acked - 1];
            verify_restore(heap, roots, restored).expect("verify_restore runs")
        },
    )
    .unwrap_or_else(|e| panic!("{name}: {e}"));
    // Every append is at least 6 mutating ops; all were enumerated.
    assert!(report.total_ops >= 6 * records.len() as u64, "{name}: too few ops enumerated");
    let acked = report.acked();
    assert_eq!(acked.len(), report.total_ops as usize);
    // The matrix covers every acknowledgment state from "nothing durable"
    // up to "all but the final append durable".
    assert_eq!(acked[0], 0, "{name}");
    assert_eq!(*acked.last().unwrap(), records.len() as u64 - 1, "{name}");
}

#[test]
fn synthetic_workload_survives_every_crash_point() {
    let (registry, states, records) = synthetic_workload();
    // Tiny segment target: the matrix also crosses segment rolls.
    let config = DurableConfig { segment_target_bytes: 256 };
    run_matrix("synthetic", &registry, &states, &records, config);
}

#[test]
fn synthetic_workload_survives_every_crash_point_in_one_segment() {
    let (registry, states, records) = synthetic_workload();
    run_matrix("synthetic/one-segment", &registry, &states, &records, DurableConfig::default());
}

#[test]
fn analysis_workload_survives_every_crash_point() {
    let (registry, states, records) = analysis_workload();
    let config = DurableConfig { segment_target_bytes: 512 };
    run_matrix("analysis", &registry, &states, &records, config);
}

#[test]
fn parallel_backend_streams_into_durable_segments() {
    let config = SynthConfig {
        structures: 4,
        lists_per_structure: 2,
        list_len: 3,
        ints_per_element: 1,
        seed: 3,
    };
    let mut world = SynthWorld::build(config).expect("world builds");
    let registry = world.heap().registry().clone();
    let roots = world.roots().to_vec();
    let mut backend = ParallelBackend::new(3, &registry);

    let mut fs = MemFs::new();
    let mut store =
        DurableStore::create(&mut fs, DurableConfig { segment_target_bytes: 128 }).unwrap();
    world.heap_mut().mark_all_modified();
    for round in 0..5 {
        if round > 0 {
            world.apply_modifications(&ModificationSpec::uniform(40));
        }
        backend.checkpoint_into(world.heap_mut(), &roots, &mut store).expect("streams");
    }
    assert_eq!(store.record_count(), 5);
    assert!(store.segment_count() > 1, "small target must roll segments");
    drop(store);

    // A clean reopen restores the exact final state.
    let (_, recovered) =
        DurableStore::open(&mut fs, DurableConfig { segment_target_bytes: 128 }, &registry)
            .unwrap();
    assert_eq!(recovered.len(), 5);
    let rebuilt =
        ickp_core::restore(&recovered, &registry, ickp_core::RestorePolicy::Lenient).unwrap();
    assert_eq!(verify_restore(world.heap(), &roots, &rebuilt).unwrap(), None);
}

/// `RecordSink` failures surface as `CoreError::Storage`, so producers
/// (the backend's `checkpoint_into`) report storage trouble through the
/// normal core error channel.
#[test]
fn sink_failures_surface_as_storage_errors() {
    use ickp_core::CoreError;
    use ickp_durable::{FailFs, FaultPlan};

    let (_, _, records) = synthetic_workload();
    // Fail the very first I/O op of the first append (op 4, after the
    // 4 ops of `create`).
    let mut fs = FailFs::new(FaultPlan::error_at(4));
    let mut store = DurableStore::create(&mut fs, DurableConfig::default()).unwrap();
    let err = store.append_record(records[0].clone()).unwrap_err();
    assert!(matches!(err, CoreError::Storage { .. }), "unexpected error: {err}");
    // The store self-heals and the retry lands.
    store.append_record(records[0].clone()).unwrap();
    assert_eq!(store.record_count(), 1);
    drop(store);
    assert!(!fs.crashed());
}
