//! Golden bytes: a segment, a manifest and a replication frame, written
//! as hex by an earlier build of the store, must still be produced
//! byte for byte, open, decode and restore. A change to the checksum
//! code, the dedup encoder or the stream reader that altered one byte
//! of the on-disk or wire format fails here.

use std::ops::Range;

use ickp_core::{
    object_slices, restore, verify_restore, CheckpointConfig, CheckpointRecord, Checkpointer,
    MethodTable, RestorePolicy,
};
use ickp_durable::{segment_name, DurableConfig, DurableStore, MemFs, Vfs, MANIFEST};
use ickp_heap::{ClassRegistry, FieldType, Heap, ObjectId, Value};
use ickp_replicate::{WireError, WireMessage};

/// `seg-000000.ickd`: a three-record batch and a single append, with
/// indexed chunks and two back-references.
const SEGMENT: &[&str] = &[
    "49434b440002000000000000008cf3747bed000000001b49434b500001000000",
    "000000000001000000010000000000000002020000002c010000000000000002",
    "00000000000500000000ffffff00000000000000000000000000000000000000",
    "000001020000002c010000000000000001000000000005000000000000000000",
    "00000000000000000000000000000000000000000000000005ff000000020000",
    "005bb8d35155000000001b49434b500001000000000000000101000000010000",
    "000000000002020000002c010000000000000001000000000005000000050000",
    "00000000000000000000000000000000000000000000000000000005ff000000",
    "0100000068fb452766000000001b49434b500001000000000000000201000000",
    "010000000000000002020000002c010000000000000002000000000005000000",
    "00ffffff00000000004004000000000000010000000000000001013c7aff6d71",
    "d415a50000002c0000000005ff0000000200000037065ad22b000000001b4943",
    "4b500001000000000000000301000000010000000000000002013c7aff6d71d4",
    "15a50000002c0000000005ff00000001",
];

/// `MANIFEST`: four records, one segment, the tag `golden` -> 1 and the
/// chunk-index summary.
const MANIFEST_BYTES: &[&str] = &[
    "49434b4d00020000000000000004010000000000000003000000010000000000",
    "000000000001b00000000000000000000000010006676f6c64656e0000000000",
    "0000010000000000000004f2c0b20abd674e647578fe7e",
];

/// An ICKW v2 `Batch` message carrying the first two records' sealed
/// frames, which are the golden segment's first two frames.
const BATCH_FRAME: &[&str] = &[
    "49434b57020001010000000000000002000000940000000000008cf3747bed00",
    "0000001b49434b50000100000000000000000100000001000000000000000202",
    "0000002c01000000000000000200000000000500000000ffffff000000000000",
    "00000000000000000000000000000001020000002c0100000000000000010000",
    "0000000500000000000000000000000000000000000000000000000000000000",
    "000000000005ff00000002630000000000005bb8d35155000000001b49434b50",
    "0001000000000000000101000000010000000000000002020000002c01000000",
    "0000000001000000000005000000050000000000000000000000000000000000",
    "00000000000000000000000005ff000000019cfc234a",
];

/// The ICKW v1 `Batch` message for the same two records, which carried
/// their logical streams; a v2 decoder refuses it by its version.
const BATCH_FRAME_V1: &[&str] = &[
    "49434b570100010100000000000000020000007800000049434b500001000000",
    "0000000000010000000100000000000000020100000000000000020000000000",
    "0500000000ffffff000000000000000000000000000000000000000000010100",
    "0000000000000100000000000500000000000000000000000000000000000000",
    "00000000000000000000ff000000024c00000049434b50000100000000000000",
    "0101000000010000000000000002010000000000000001000000000005000000",
    "0500000000000000000000000000000000000000000000000000ff000000019c",
    "c72611",
];

fn unhex(lines: &[&str]) -> Vec<u8> {
    let hex: String = lines.concat();
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex literal"))
        .collect()
}

/// The golden workload: two linked nodes over every field type, four
/// incremental checkpoints. The last two re-record the tail state of the
/// second, so the store writes back-references to a chunk staged earlier
/// in the same batch and to a committed one.
fn workload() -> (Heap, Vec<ObjectId>, Vec<CheckpointRecord>) {
    let mut reg = ClassRegistry::new();
    let node = reg
        .define(
            "Node",
            None,
            &[
                ("v", FieldType::Int),
                ("w", FieldType::Long),
                ("x", FieldType::Double),
                ("b", FieldType::Bool),
                ("next", FieldType::Ref(None)),
            ],
        )
        .unwrap();
    let mut heap = Heap::new(reg);
    let tail = heap.alloc(node).unwrap();
    let head = heap.alloc(node).unwrap();
    heap.set_field(head, 4, Value::Ref(Some(tail))).unwrap();
    heap.set_field(head, 1, Value::Long(-1 << 40)).unwrap();
    let table = MethodTable::derive(heap.registry());
    let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
    let mut records = vec![ckp.checkpoint(&mut heap, &table, &[head]).unwrap()];
    heap.set_field(tail, 0, Value::Int(5)).unwrap();
    records.push(ckp.checkpoint(&mut heap, &table, &[head]).unwrap());
    heap.set_field(head, 3, Value::Bool(true)).unwrap();
    heap.set_field(head, 2, Value::Double(2.5)).unwrap();
    heap.set_field(tail, 0, Value::Int(5)).unwrap();
    records.push(ckp.checkpoint(&mut heap, &table, &[head]).unwrap());
    heap.set_field(tail, 0, Value::Int(5)).unwrap();
    records.push(ckp.checkpoint(&mut heap, &table, &[head]).unwrap());
    (heap, vec![head], records)
}

/// Writes the workload into a fresh store: a deduplicated batch of
/// three, a single deduplicated append, and a tag.
fn write_store(registry: &ClassRegistry, records: &[CheckpointRecord]) -> MemFs {
    let layouts: Vec<Vec<Range<usize>>> =
        records.iter().map(|r| object_slices(r.bytes(), registry).unwrap()).collect();
    let mut fs = MemFs::new();
    let mut store = DurableStore::create(&mut fs, DurableConfig::default()).unwrap();
    store.append_batch_deduped(&records[..3], &layouts[..3]).unwrap();
    store.append_deduped(&records[3], &layouts[3]).unwrap();
    store.tag("golden", 1).unwrap();
    drop(store);
    fs
}

/// The replication message that ships the first two records: the
/// frames a primary's store seals when it commits them as one batch.
fn batch_frame(registry: &ClassRegistry, records: &[CheckpointRecord]) -> Vec<u8> {
    let layouts: Vec<Vec<Range<usize>>> =
        records[..2].iter().map(|r| object_slices(r.bytes(), registry).unwrap()).collect();
    let mut store = DurableStore::create(MemFs::new(), DurableConfig::default()).unwrap();
    let batch = store.append_batch_deduped(&records[..2], &layouts).unwrap();
    WireMessage::Batch { op_seq: 1, frames: batch.frames }.encode()
}

#[test]
fn the_store_writes_the_golden_segment_and_manifest() {
    let (heap, _, records) = workload();
    let fs = write_store(heap.registry(), &records);
    assert_eq!(fs.list().unwrap(), vec![MANIFEST.to_string(), segment_name(0)]);
    assert_eq!(fs.read(&segment_name(0)).unwrap(), unhex(SEGMENT));
    assert_eq!(fs.read(MANIFEST).unwrap(), unhex(MANIFEST_BYTES));
}

#[test]
fn the_golden_store_opens_and_restores() {
    let (heap, roots, records) = workload();
    let mut fs = MemFs::new();
    fs.write_file(&segment_name(0), &unhex(SEGMENT)).unwrap();
    fs.write_file(MANIFEST, &unhex(MANIFEST_BYTES)).unwrap();
    let (store, recovered) =
        DurableStore::open(&mut fs, DurableConfig::default(), heap.registry()).unwrap();
    assert_eq!(store.tags(), &[("golden".to_string(), 1)]);
    assert_eq!(recovered.len(), records.len());
    for (want, got) in records.iter().zip(recovered.records()) {
        assert_eq!((got.seq(), got.kind(), got.roots()), (want.seq(), want.kind(), want.roots()));
        assert_eq!(got.bytes(), want.bytes());
    }
    let rebuilt = restore(&recovered, heap.registry(), RestorePolicy::Lenient).unwrap();
    assert_eq!(verify_restore(&heap, &roots, &rebuilt).unwrap(), None);
}

#[test]
fn the_golden_batch_frame_encodes_and_decodes() {
    let (heap, _, records) = workload();
    let frame = unhex(BATCH_FRAME);
    assert_eq!(batch_frame(heap.registry(), &records), frame);
    let segment = unhex(SEGMENT);
    match WireMessage::decode(&frame).unwrap() {
        WireMessage::Batch { op_seq: 1, frames } => {
            // The shipped frames are the segment's first two, byte for
            // byte: the follower appends exactly what the primary wrote.
            assert_eq!(frames.len(), 2);
            let mut at = 10; // past the segment header
            for shipped in frames {
                assert_eq!(&segment[at..at + shipped.len()], shipped);
                at += shipped.len();
            }
        }
        other => panic!("expected the batch, got {other:?}"),
    }
}

#[test]
fn a_version_1_batch_frame_is_refused_by_its_version() {
    let frame = unhex(BATCH_FRAME_V1);
    assert_eq!(WireMessage::decode(&frame), Err(WireError::Version { found: 1 }));
}
