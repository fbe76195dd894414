//! Seeded byte flips inside a committed frame's ICKP stream, with the
//! frame checksum fixed up after each flip, so that only the stream's
//! own validation can catch it. For every flip, `DurableStore::open`
//! either refuses with exactly the `CoreError` that `decode` gives on
//! the flipped stream, or opens, and restore then builds the state (or
//! fails with the error) that a plain store of the flipped records gives.
//!
//! The eight bytes of a stream's sequence number are never flipped: the
//! store checks sequence numbers against their neighbours and the
//! manifest, which the crash matrix covers.

use ickp_core::{
    decode, restore, state_digest, CheckpointConfig, CheckpointRecord, CheckpointStore,
    Checkpointer, CoreError, MethodTable, RestorePolicy, TraversalStats,
};
use ickp_durable::{
    crc32, segment_name, DurableConfig, DurableError, DurableStore, MemFs, Vfs, MANIFEST,
};
use ickp_heap::{ClassRegistry, FieldType, Heap, Value};
use ickp_prng::Prng;

/// Bytes of a segment header before its first frame.
const SEGMENT_HEADER_LEN: usize = 10;
/// Bytes of a frame header: payload length, then checksum.
const FRAME_HEADER_LEN: usize = 8;
/// Where a stream's sequence number lies: after magic and version.
const SEQ_BYTES: std::ops::Range<usize> = 6..14;

/// A list of nodes with every field kind and a class-constrained
/// reference, checkpointed three times: fresh (everything), then twice
/// after changing a few nodes.
fn workload() -> (ClassRegistry, Vec<CheckpointRecord>) {
    let mut reg = ClassRegistry::new();
    let node = reg
        .define(
            "Node",
            None,
            &[
                ("v", FieldType::Int),
                ("w", FieldType::Double),
                ("b", FieldType::Bool),
                ("n", FieldType::Long),
                ("next", FieldType::Ref(Some(ickp_heap::ClassId::from_index(0)))),
            ],
        )
        .unwrap();
    let mut heap = Heap::new(reg.clone());
    let mut nodes = Vec::new();
    for i in 0..12 {
        let n = heap.alloc(node).unwrap();
        heap.set_field(n, 0, Value::Int(i)).unwrap();
        heap.set_field(n, 1, Value::Double(f64::from(i) / 4.0)).unwrap();
        heap.set_field(n, 2, Value::Bool(i % 3 == 0)).unwrap();
        heap.set_field(n, 3, Value::Long(i64::from(i) << 33)).unwrap();
        if let Some(&prev) = nodes.last() {
            heap.set_field(n, 4, Value::Ref(Some(prev))).unwrap();
        }
        nodes.push(n);
    }
    let head = *nodes.last().unwrap();
    let table = MethodTable::derive(heap.registry());
    let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
    let mut records = vec![ckp.checkpoint(&mut heap, &table, &[head]).unwrap()];
    for round in 0..2 {
        for &n in nodes.iter().skip(round).step_by(4) {
            heap.set_field(n, 0, Value::Int(100 + round as i32)).unwrap();
            heap.set_field(n, 2, Value::Bool(round == 0)).unwrap();
        }
        records.push(ckp.checkpoint(&mut heap, &table, &[head]).unwrap());
    }
    // Recovered records carry no traversal statistics.
    let unmeasured = |r: CheckpointRecord| {
        let (seq, kind, roots, bytes, _) = r.into_parts();
        CheckpointRecord::from_parts(seq, kind, roots, bytes, TraversalStats::default())
    };
    (reg, records.into_iter().map(unmeasured).collect())
}

/// The start of the frame whose payload holds `at`.
fn frame_holding(segment: &[u8], at: usize) -> usize {
    let mut frame = SEGMENT_HEADER_LEN;
    loop {
        let len = u32::from_be_bytes(segment[frame..frame + 4].try_into().unwrap()) as usize;
        if at < frame + FRAME_HEADER_LEN + len {
            return frame;
        }
        frame += FRAME_HEADER_LEN + len;
    }
}

/// Recomputes the checksum of the frame at `frame`: CRC-32 over its
/// length field and payload.
fn fix_frame_crc(segment: &mut [u8], frame: usize) {
    let len = u32::from_be_bytes(segment[frame..frame + 4].try_into().unwrap()) as usize;
    let mut covered = segment[frame..frame + 4].to_vec();
    covered.extend_from_slice(&segment[frame + FRAME_HEADER_LEN..frame + FRAME_HEADER_LEN + len]);
    segment[frame + 4..frame + FRAME_HEADER_LEN].copy_from_slice(&crc32(&covered).to_be_bytes());
}

/// The state digest of restoring `store`, or the error restore gives.
fn restored_state(store: &CheckpointStore, reg: &ClassRegistry) -> Result<u64, CoreError> {
    let restored = restore(store, reg, RestorePolicy::Lenient)?;
    state_digest(restored.heap(), restored.roots())
}

#[test]
fn a_flipped_stream_is_refused_as_decode_refuses_it_or_restores_as_decode_reads_it() {
    let (reg, records) = workload();
    let mut fs = MemFs::new();
    let mut store = DurableStore::create(&mut fs, DurableConfig::default()).unwrap();
    for record in &records {
        store.append(record).unwrap();
    }
    drop(store);
    let segment = fs.read(&segment_name(0)).unwrap();
    let manifest = fs.read(MANIFEST).unwrap();
    // Undisturbed, the store opens to the records it was given.
    let (_, recovered) = DurableStore::open(&mut fs, DurableConfig::default(), &reg).unwrap();
    assert_eq!(recovered.records(), records.as_slice());

    let mut rng = Prng::seed_from_u64(0x0F1E_F11B);
    let (mut refused, mut opened) = (0, 0);
    for flip in 0..200 {
        let k = rng.index(records.len());
        let stream = records[k].bytes();
        let start = segment.windows(stream.len()).position(|w| w == stream).unwrap();
        let at = loop {
            let at = rng.index(stream.len());
            if !SEQ_BYTES.contains(&at) {
                break at;
            }
        };
        let bit = 1u8 << rng.below(8);
        let mut flipped = stream.to_vec();
        flipped[at] ^= bit;
        let mut damaged = segment.clone();
        damaged[start + at] ^= bit;
        let frame = frame_holding(&damaged, start + at);
        fix_frame_crc(&mut damaged, frame);

        let mut fs = MemFs::new();
        fs.write_file(&segment_name(0), &damaged).unwrap();
        fs.write_file(MANIFEST, &manifest).unwrap();
        let case = format!("flip {flip}: record {k}, byte {at}, bit {bit:#04x}");
        let opened_store = DurableStore::open(&mut fs, DurableConfig::default(), &reg);
        match decode(&flipped, &reg) {
            Err(want) => {
                refused += 1;
                match opened_store {
                    Err(DurableError::Core(got)) => assert_eq!(got, want, "{case}"),
                    Err(other) => panic!("{case}: open refused with {other}, decode with {want}"),
                    Ok(_) => panic!("{case}: open accepted a stream decode refuses ({want})"),
                }
            }
            Ok(read) => {
                opened += 1;
                let (_, recovered) = opened_store.unwrap_or_else(|e| panic!("{case}: {e}"));
                let mut plain = CheckpointStore::new();
                for (i, record) in records.iter().enumerate() {
                    let record = if i == k {
                        let stats = TraversalStats::default();
                        CheckpointRecord::from_parts(
                            read.seq,
                            read.kind,
                            read.roots.clone(),
                            flipped.clone(),
                            stats,
                        )
                    } else {
                        record.clone()
                    };
                    plain.push(record).unwrap();
                }
                assert_eq!(recovered.records(), plain.records(), "{case}: recovered records");
                assert_eq!(
                    restored_state(&recovered, &reg),
                    restored_state(&plain, &reg),
                    "{case}: restored state"
                );
            }
        }
    }
    // Both outcomes occur: flipped field bytes mostly still decode.
    assert!(refused >= 20 && opened >= 20, "{refused} refused, {opened} opened");
}
