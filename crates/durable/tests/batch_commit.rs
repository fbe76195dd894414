//! Group-commit pins: the batched write path must keep its fsync
//! budget, its dedup accounting, and — the load-bearing invariant — its
//! atomicity: a back-reference may dedup against chunks staged earlier
//! in the *same* batch (one manifest swap commits them together) but a
//! crash mid-batch must erase the whole batch, staged chunks included,
//! leaving every earlier chunk valid for future back-references.

use std::ops::Range;

use ickp_core::{
    object_slices, verify_restore, CheckpointConfig, CheckpointRecord, Checkpointer, MethodTable,
};
use ickp_durable::{
    crash_matrix, segment_name, DurableConfig, DurableStore, FailFs, FaultPlan, MatrixOptions,
    MemFs, StoreTopology, Vfs, MANIFEST,
};
use ickp_heap::{ClassRegistry, FieldType, Heap, ObjectId, Value};

/// Heap snapshot taken right after each checkpoint, for state verify.
type States = Vec<(Heap, Vec<ObjectId>)>;

/// Two-node list whose head is re-touched with the *same* value every
/// round (so it recurs byte-identically and is dedupable) while the
/// tail really changes. Long padding makes a back-reference a clear win.
fn workload(rounds: usize) -> (Heap, Vec<ObjectId>, States, Vec<CheckpointRecord>) {
    let mut reg = ClassRegistry::new();
    let node = reg
        .define(
            "Node",
            None,
            &[
                ("v", FieldType::Int),
                ("next", FieldType::Ref(None)),
                ("p0", FieldType::Long),
                ("p1", FieldType::Long),
                ("p2", FieldType::Long),
                ("p3", FieldType::Long),
            ],
        )
        .unwrap();
    let mut heap = Heap::new(reg);
    let tail = heap.alloc(node).unwrap();
    let head = heap.alloc(node).unwrap();
    heap.set_field(head, 1, Value::Ref(Some(tail))).unwrap();
    let roots = vec![head];
    let table = MethodTable::derive(heap.registry());
    let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
    let mut states = Vec::new();
    let mut records = Vec::new();
    for i in 0..rounds {
        heap.set_field(head, 0, Value::Int(7)).unwrap();
        heap.set_field(tail, 0, Value::Int(i as i32)).unwrap();
        records.push(ckp.checkpoint(&mut heap, &table, &roots).unwrap());
        states.push((heap.clone(), roots.clone()));
    }
    (heap, roots, states, records)
}

fn layouts(records: &[CheckpointRecord], registry: &ClassRegistry) -> Vec<Vec<Range<usize>>> {
    records.iter().map(|r| object_slices(r.bytes(), registry).expect("records decode")).collect()
}

#[test]
fn a_single_segment_batch_costs_three_fsyncs() {
    let (heap, _, _, records) = workload(6);
    let registry = heap.registry();
    let mut fs = MemFs::new();
    let mut store = DurableStore::create(&mut fs, DurableConfig::default()).unwrap();

    let before = store.io_stats();
    store.append_batch(&records).unwrap();
    let after = store.io_stats();
    assert_eq!(after.frames_written - before.frames_written, records.len() as u64);
    assert_eq!(after.manifest_swaps - before.manifest_swaps, 1, "one swap acks the batch");
    assert_eq!(
        after.fsyncs() - before.fsyncs(),
        3,
        "segment + manifest + directory, independent of batch size"
    );
    // The split, not just the total: one segment fsync + one manifest-tmp
    // fsync, one directory fsync, one rename (the manifest publish).
    assert_eq!(after.file_syncs - before.file_syncs, 2, "segment + manifest tmp");
    assert_eq!(after.dir_syncs - before.dir_syncs, 1, "one directory fsync per swap");
    assert_eq!(after.renames - before.renames, 1, "one manifest rename per swap");

    // The same records as single appends pay the per-record price.
    let (heap2, _, _, records2) = workload(6);
    let mut fs2 = MemFs::new();
    let mut single = DurableStore::create(&mut fs2, DurableConfig::default()).unwrap();
    let before = single.io_stats();
    for r in &records2 {
        single.append(r).unwrap();
    }
    let after = single.io_stats();
    assert_eq!(after.fsyncs() - before.fsyncs(), 3 * records2.len() as u64);
    assert_eq!(after.manifest_swaps - before.manifest_swaps, records2.len() as u64);
    let n = records2.len() as u64;
    assert_eq!(after.file_syncs - before.file_syncs, 2 * n, "per record: segment + manifest tmp");
    assert_eq!(after.dir_syncs - before.dir_syncs, n, "per record: one directory fsync");
    assert_eq!(after.renames - before.renames, n, "per record: one manifest rename");
    drop(single);
    drop(store);

    // Same acknowledged contents either way.
    let (_, a) = DurableStore::open(&mut fs, DurableConfig::default(), registry).unwrap();
    let (_, b) = DurableStore::open(&mut fs2, DurableConfig::default(), heap2.registry()).unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.records().iter().zip(b.records()) {
        assert_eq!(x.bytes(), y.bytes());
    }
}

/// Batching moves no byte: the same records appended as one deduped
/// batch and as one deduped append at a time leave identical segments,
/// an identical manifest and an identical chunk index.
#[test]
fn batching_never_changes_a_byte() {
    let (heap, _, _, records) = workload(10);
    let layouts = layouts(&records, heap.registry());

    let mut batched_fs = MemFs::new();
    let mut batched = DurableStore::create(&mut batched_fs, DurableConfig::default()).unwrap();
    batched.append_batch_deduped(&records, &layouts).unwrap();
    let batched_chunks = batched.chunk_count();
    drop(batched);

    let mut single_fs = MemFs::new();
    let mut single = DurableStore::create(&mut single_fs, DurableConfig::default()).unwrap();
    for (record, layout) in records.iter().zip(&layouts) {
        single.append_deduped(record, layout).unwrap();
    }
    assert_eq!(single.chunk_count(), batched_chunks);
    drop(single);

    assert_eq!(batched_fs.list().unwrap(), single_fs.list().unwrap());
    for name in [segment_name(0), MANIFEST.to_string()] {
        assert_eq!(batched_fs.read(&name).unwrap(), single_fs.read(&name).unwrap(), "{name}");
    }
}

#[test]
fn intra_batch_back_references_are_counted_and_invisible_after_recovery() {
    let (heap, _, _, records) = workload(5);
    let registry = heap.registry();
    let layouts = layouts(&records, registry);

    let mut fs = MemFs::new();
    let mut store = DurableStore::create(&mut fs, DurableConfig::default()).unwrap();
    let stats = store.append_batch_deduped(&records, &layouts).unwrap();
    let offered: u64 = layouts.iter().map(|l| l.len() as u64).sum();
    assert_eq!(stats.chunks_total, offered, "every offered chunk is accounted");
    // Rounds 2..5 re-record the head byte-identically to round 1's: all
    // four later copies dedup against chunks staged earlier in the batch.
    assert!(stats.chunks_deduped >= 4, "got {} back-references", stats.chunks_deduped);
    assert!(stats.bytes_saved() > 0);
    // Only the distinct chunks entered the index.
    assert_eq!(store.chunk_count(), stats.chunks_total - stats.chunks_deduped);
    drop(store);

    let (_, recovered) = DurableStore::open(&mut fs, DurableConfig::default(), registry).unwrap();
    assert_eq!(recovered.len(), records.len());
    for (a, b) in records.iter().zip(recovered.records()) {
        assert_eq!(a.bytes(), b.bytes(), "dedup must be invisible after recovery");
    }
}

/// The regression this file exists for: crash at *every* I/O operation
/// inside the second batch, reopen, and require (a) the whole torn
/// batch gone — never a prefix of it, (b) the first batch's chunks
/// still present and valid, (c) a re-append of the lost batch to dedup
/// against those surviving chunks and recover byte-identical.
#[test]
fn a_torn_batch_vanishes_whole_and_never_poisons_earlier_chunks() {
    let (heap, _, _, records) = workload(6);
    let registry = heap.registry().clone();
    let config = DurableConfig { segment_target_bytes: 256 }; // batches cross segment rolls
    let (first, second) = records.split_at(3);
    let first_layouts = layouts(first, &registry);
    let second_layouts = layouts(second, &registry);

    // Baseline: where does the first batch end, where does the run end?
    let mut baseline = FailFs::new(FaultPlan::none());
    let mut store = DurableStore::create(&mut baseline, config).unwrap();
    store.append_batch_deduped(first, &first_layouts).unwrap();
    let committed_chunks = store.chunk_count();
    drop(store);
    let first_batch_ops = baseline.ops();
    let mut store = DurableStore::open(&mut baseline, config, &registry).map(|(s, _)| s).unwrap();
    store.append_batch_deduped(second, &second_layouts).unwrap();
    drop(store);
    let total_ops = baseline.ops();
    assert!(total_ops > first_batch_ops + 3, "second batch too cheap to be interesting");

    for crash_at in first_batch_ops..total_ops {
        let mut fs = FailFs::new(FaultPlan::crash_at(crash_at));
        let mut store = DurableStore::create(&mut fs, config).unwrap();
        store.append_batch_deduped(first, &first_layouts).unwrap();
        let torn = store.append_batch_deduped(second, &second_layouts);
        drop(store);
        assert!(torn.is_err(), "crash {crash_at}: the torn batch was acknowledged");
        assert!(fs.crashed(), "crash {crash_at}: run failed without the fault firing");

        let mut disk = fs.into_recovered();
        let (mut reopened, recovered) = DurableStore::open(&mut disk, config, &registry)
            .unwrap_or_else(|e| panic!("crash {crash_at}: recovery failed: {e}"));
        assert_eq!(recovered.len(), first.len(), "crash {crash_at}: torn batch leaked a prefix");
        assert_eq!(
            reopened.chunk_count(),
            committed_chunks,
            "crash {crash_at}: staged chunks from the torn batch escaped into the index"
        );
        for (want, got) in first.iter().zip(recovered.records()) {
            assert_eq!(want.bytes(), got.bytes(), "crash {crash_at}: first batch corrupted");
        }

        // Earlier chunks must still be live targets for back-references.
        let stats = reopened
            .append_batch_deduped(second, &second_layouts)
            .unwrap_or_else(|e| panic!("crash {crash_at}: re-append failed: {e}"));
        assert!(
            stats.chunks_deduped > 0,
            "crash {crash_at}: re-appended batch found no surviving chunks to reference"
        );
        drop(reopened);
        let (_, full) = DurableStore::open(&mut disk, config, &registry).unwrap();
        assert_eq!(full.len(), records.len(), "crash {crash_at}");
        for (want, got) in records.iter().zip(full.records()) {
            assert_eq!(want.bytes(), got.bytes(), "crash {crash_at}: divergence after re-append");
        }
    }
}

#[test]
fn batched_writes_survive_the_full_crash_matrix() {
    let (heap, _, states, records) = workload(7);
    let registry = heap.registry().clone();
    let config = DurableConfig { segment_target_bytes: 256 };
    let all_layouts = layouts(&records, &registry);

    let report = crash_matrix(
        &StoreTopology { config },
        &registry,
        &records,
        MatrixOptions::default(),
        |fs, acks| {
            let mut store = DurableStore::create(fs, config)?;
            for (batch, lay) in records.chunks(3).zip(all_layouts.chunks(3)) {
                store.append_batch_deduped(batch, lay)?;
                acks.ack(acks.records() + batch.len() as u64);
            }
            Ok(())
        },
        |acked, restored| {
            let (heap, roots) = &states[acked - 1];
            verify_restore(heap, roots, restored).expect("verify_restore runs")
        },
    )
    .expect("batched crash matrix");
    assert!(report.total_ops > 0);
    // Acknowledgment moves in whole batches: the acked counts seen
    // across the matrix are exactly {0, 3, 6, 7} — never mid-batch.
    let mut seen = report.acked();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen, vec![0, 3, 6], "a crash mid-batch must ack at a batch boundary");
    assert_eq!(*report.acked().last().unwrap(), 6, "final crash point sits in the last batch");
}
