//! Randomized two-node replication properties: across random DAG
//! heaps, dirty fractions, batch sizes, checkpoint engines and injected
//! transport faults, the promoted follower's bytes are always the
//! primary's acknowledged prefix.
//!
//! Each case is fully determined by its seed (named in every assertion
//! for replay) and lands in one of three modes:
//!
//! * **masked** — random loss/duplication/reordering: the run must
//!   complete as if the link were perfect, both nodes byte-identical.
//! * **kill** — a crash armed at one random interleaved op across all
//!   three layers: whatever survives must be a byte-identical prefix,
//!   the survivor at least the acknowledged prefix, and promotable to
//!   completion.
//! * **partition** — a black-holed link must surface as an error with
//!   both nodes alive and the follower promotable.

use ickp_backend::{Engine, GenericBackend, ParallelBackend};
use ickp_core::{
    restore, verify_restore, CheckpointConfig, CheckpointRecord, Checkpointer, MethodTable,
    RestorePolicy,
};
use ickp_durable::{DurableConfig, DurableStore, FaultPlan, MemFs, NodeDisk, OpCounter};
use ickp_heap::{ClassRegistry, FieldType, Heap, ObjectId, Value};
use ickp_prng::Prng;
use ickp_replicate::{PairFaults, PairTopology, ReplicateConfig, TransportFault, TransportPlan};

/// A random DAG: node `i` only points at nodes with larger indices, so
/// the graph is acyclic but shares substructure freely.
fn random_dag(rng: &mut Prng) -> (Heap, Vec<ObjectId>) {
    let mut reg = ClassRegistry::new();
    let node = reg
        .define(
            "Node",
            None,
            &[("v", FieldType::Int), ("a", FieldType::Ref(None)), ("b", FieldType::Ref(None))],
        )
        .unwrap();
    let mut heap = Heap::new(reg);
    let n = 4 + rng.index(12);
    let nodes: Vec<ObjectId> = (0..n).map(|_| heap.alloc(node).unwrap()).collect();
    for i in 0..n - 1 {
        let j = i + 1 + rng.index(n - i - 1);
        heap.set_field(nodes[i], 1, Value::Ref(Some(nodes[j]))).unwrap();
        if rng.next_bool() {
            let k = i + 1 + rng.index(n - i - 1);
            heap.set_field(nodes[i], 2, Value::Ref(Some(nodes[k]))).unwrap();
        }
    }
    let mut roots = vec![nodes[0]];
    if n > 6 && rng.next_bool() {
        roots.push(nodes[1]); // overlapping root sets share the DAG
    }
    (heap, roots)
}

/// Produces the case's records with one of the three checkpoint
/// engines, mutating a random dirty fraction of the live nodes between
/// rounds. Returns the records and the final heap for state verify.
fn produce(
    rng: &mut Prng,
    case: u64,
) -> (ClassRegistry, Heap, Vec<ObjectId>, Vec<CheckpointRecord>) {
    let (mut heap, roots) = random_dag(rng);
    let registry = heap.registry().clone();
    let rounds = 3 + rng.index(5);
    let dirty_pct = 10 + rng.index(90);
    let live: Vec<ObjectId> = heap.iter_live().collect();
    let mutate = |heap: &mut Heap, rng: &mut Prng, round: usize| {
        let mut touched = false;
        for &id in &live {
            if rng.index(100) < dirty_pct {
                heap.set_field(id, 0, Value::Int((round * 1000 + case as usize) as i32)).unwrap();
                touched = true;
            }
        }
        if !touched {
            heap.set_field(live[0], 0, Value::Int(round as i32)).unwrap();
        }
    };
    let mut records = Vec::new();
    match case % 3 {
        0 => {
            let table = MethodTable::derive(heap.registry());
            let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
            for round in 0..rounds {
                mutate(&mut heap, rng, round);
                records.push(ckp.checkpoint(&mut heap, &table, &roots).unwrap());
            }
        }
        1 => {
            let engine = Engine::ALL[rng.index(3)];
            let mut backend = GenericBackend::new(engine, &registry);
            for round in 0..rounds {
                mutate(&mut heap, rng, round);
                records.push(backend.checkpoint(&mut heap, &roots).unwrap());
            }
        }
        _ => {
            let mut backend = ParallelBackend::new(2 + rng.index(3), &registry);
            for round in 0..rounds {
                mutate(&mut heap, rng, round);
                records.push(backend.checkpoint(&mut heap, &roots).unwrap());
            }
        }
    }
    (registry, heap, roots, records)
}

/// Reboots a disk and asserts it holds a byte-identical prefix of
/// `expected`, returning the prefix length.
fn assert_prefix(
    disk: &mut MemFs,
    cfg: ReplicateConfig,
    registry: &ClassRegistry,
    expected: &[CheckpointRecord],
    who: &str,
    case: u64,
) -> usize {
    let (_, recovered) = DurableStore::open(&mut *disk, cfg.durable, registry)
        .unwrap_or_else(|e| panic!("case {case}: {who} recovery failed: {e}"));
    assert!(recovered.len() <= expected.len(), "case {case}: {who} has phantom records");
    for (want, got) in expected.iter().zip(recovered.records()) {
        assert_eq!(want.seq(), got.seq(), "case {case}: {who} seq mismatch");
        assert_eq!(want.bytes(), got.bytes(), "case {case}: {who} not byte-identical");
    }
    recovered.len()
}

#[test]
fn promoted_follower_bytes_equal_acknowledged_prefix() {
    for case in 0..36u64 {
        let mut rng = Prng::seed_from_u64(0x5e11_ca5e + case);
        let (registry, heap, roots, records) = produce(&mut rng, case);
        let cfg = ReplicateConfig {
            durable: DurableConfig { segment_target_bytes: [96, 256, 1024][rng.index(3)] as u64 },
            batch_records: 1 + rng.index(4),
            max_retries: 3,
            dedup: rng.next_bool(),
        };

        // Fault placement: random indices over a generous window; an
        // index owned by a filesystem simply never fires its transport
        // fault, which is itself a property worth sweeping.
        let mode = rng.below(3);
        let (pplan, fplan, tplan) = match mode {
            0 => {
                let mut plan = TransportPlan::none();
                for _ in 0..1 + rng.index(3) {
                    let fault =
                        [TransportFault::Loss, TransportFault::Duplicate, TransportFault::Reorder]
                            [rng.index(3)];
                    plan = plan.with(rng.index(120) as u64, fault);
                }
                (FaultPlan::none(), FaultPlan::none(), plan)
            }
            1 => {
                let k = rng.index(150) as u64;
                (
                    FaultPlan::crash_at(k),
                    FaultPlan::crash_at(k),
                    TransportPlan::fault_at(k, TransportFault::Crash),
                )
            }
            _ => {
                let t = rng.index(120) as u64;
                (
                    FaultPlan::none(),
                    FaultPlan::none(),
                    TransportPlan::fault_at(t, TransportFault::Partition),
                )
            }
        };

        let faults = PairFaults { primary: pplan, follower: fplan, wire: tplan };
        let run = PairTopology { config: cfg }.run_once(
            &registry,
            faults,
            &OpCounter::new(),
            None,
            |pair| {
                for record in &records {
                    pair.append(record.clone())?;
                }
                pair.commit()?;
                Ok(())
            },
        );
        let (result, acked) = (run.result, run.acked);
        let [p, f]: [NodeDisk; 2] = run.nodes.try_into().expect("a pair has two nodes");
        let (primary_dead, follower_dead) = (p.dead, f.dead);
        let (mut pdisk, mut fdisk) = (p.disk, f.disk);

        match (&result, mode) {
            (Ok(()), _) => {
                // Completed (masked faults, or a fault index that was
                // never reached): both nodes must hold everything.
                assert_eq!(acked, records.len() as u64, "case {case}: incomplete ack");
                let plen = assert_prefix(&mut pdisk, cfg, &registry, &records, "primary", case);
                let flen = assert_prefix(&mut fdisk, cfg, &registry, &records, "follower", case);
                assert_eq!(plen, records.len(), "case {case}");
                assert_eq!(flen, records.len(), "case {case}");
                let (_, recovered) = DurableStore::open(&mut fdisk, cfg.durable, &registry)
                    .unwrap_or_else(|e| panic!("case {case}: follower reopen: {e}"));
                let restored = restore(&recovered, &registry, RestorePolicy::Lenient)
                    .unwrap_or_else(|e| panic!("case {case}: restore: {e}"));
                assert_eq!(
                    verify_restore(&heap, &roots, &restored).unwrap(),
                    None,
                    "case {case}: follower state diverges from the live heap"
                );
            }
            (Err(e), 2) => {
                // Partition: clean failure, both alive, follower is the
                // promotable side and holds at least the acked prefix.
                assert!(e.contains("unacknowledged"), "case {case}: {e}");
                assert!(!primary_dead && !follower_dead, "case {case}: partition killed a node");
                let flen = assert_prefix(&mut fdisk, cfg, &registry, &records, "follower", case);
                assert!(flen as u64 >= acked, "case {case}: follower lost acked records");
                assert_prefix(&mut pdisk, cfg, &registry, &records, "primary", case);
            }
            (Err(_), 1) => {
                // Kill: exactly one node died; the survivor holds at
                // least the acked prefix and promotes to completion.
                assert!(
                    primary_dead != follower_dead,
                    "case {case}: expected exactly one dead node"
                );
                let plen = assert_prefix(&mut pdisk, cfg, &registry, &records, "primary", case);
                let flen = assert_prefix(&mut fdisk, cfg, &registry, &records, "follower", case);
                let (survivor_disk, survivor_len) =
                    if primary_dead { (&mut fdisk, flen) } else { (&mut pdisk, plen) };
                assert!(
                    survivor_len as u64 >= acked,
                    "case {case}: survivor holds {survivor_len}, {acked} were acked"
                );
                let (mut store, _) =
                    DurableStore::open(&mut *survivor_disk, cfg.durable, &registry)
                        .unwrap_or_else(|e| panic!("case {case}: promotion failed: {e}"));
                for batch in records[survivor_len..].chunks(cfg.batch_records.max(1)) {
                    store
                        .append_batch(batch)
                        .unwrap_or_else(|e| panic!("case {case}: promoted append: {e}"));
                }
                drop(store);
                let full =
                    assert_prefix(&mut *survivor_disk, cfg, &registry, &records, "promoted", case);
                assert_eq!(full, records.len(), "case {case}: promoted store incomplete");
            }
            (Err(e), _) => panic!("case {case}: masked-fault run failed: {e}"),
        }
    }
}
