//! Differential tests of the history fold.
//!
//! [`fold_records`] scans each record once and decodes only the newest
//! state of each surviving object; [`restore`] builds the heap from that
//! fold with `Heap::materialize`, and [`merge_records`] and [`compact`]
//! copy survivors' object records verbatim. The oracle here is the
//! straightforward version they replaced: decode every record in full,
//! fold last-writer-wins through a `HashMap`, allocate each survivor with
//! default fields and store its slots one by one, and re-encode survivors
//! field by field. Every case is determined by its seed, named in the
//! assertion messages for replay.
//!
//! Records built by [`CheckpointRecord::validate`] fold from the object
//! offsets their validating scan kept instead of scanning again; the last
//! tests hold them to the records `from_parts` builds from the same
//! bytes, under the registry they were validated with and under
//! registries whose class layouts differ.

use ickp_core::{
    compact, decode, fold_records, merge_records, restore, state_digest, CheckpointKind,
    CheckpointRecord, CheckpointStore, CoreError, FoldedHistory, RecordedObject, RecordedValue,
    RestorePolicy, StreamWriter, TraversalStats,
};
use ickp_heap::{ClassId, ClassRegistry, FieldType, Heap, ObjectId, StableId, Value};
use ickp_prng::Prng;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

// ------------------------------------------------------------------ oracle

/// Survivors in first-touch order, their index, and the last roots.
type OracleFold = (Vec<RecordedObject>, HashMap<StableId, usize>, Vec<StableId>);

fn oracle_fold(records: &[CheckpointRecord], reg: &ClassRegistry) -> Result<OracleFold, CoreError> {
    let (mut objects, mut index, mut roots) = (Vec::new(), HashMap::new(), Vec::new());
    for record in records {
        let decoded = decode(record.bytes(), reg)?;
        for obj in decoded.objects {
            match index.entry(obj.stable) {
                Entry::Occupied(at) => objects[*at.get()] = obj,
                Entry::Vacant(slot) => {
                    slot.insert(objects.len());
                    objects.push(obj);
                }
            }
        }
        roots = decoded.roots;
    }
    Ok((objects, index, roots))
}

/// The restored heap, its roots, and the handle of every stable id.
type OracleRestore = (Heap, Vec<ObjectId>, HashMap<StableId, ObjectId>);

fn oracle_restore(
    store: &CheckpointStore,
    reg: &ClassRegistry,
) -> Result<OracleRestore, CoreError> {
    if store.is_empty() {
        return Err(CoreError::EmptyStore);
    }
    let (objects, index, roots) = oracle_fold(store.records(), reg)?;
    let mut heap = Heap::new(reg.clone());
    let handles = objects
        .iter()
        .map(|obj| heap.alloc_restored(obj.class, obj.stable, false))
        .collect::<Result<Vec<_>, _>>()?;
    let handle_of =
        |id: StableId| index.get(&id).map(|&i| handles[i]).ok_or(CoreError::MissingObject(id));
    for (obj, &handle) in objects.iter().zip(&handles) {
        for (slot, field) in obj.fields.iter().enumerate() {
            let value = match *field {
                RecordedValue::Int(v) => Value::Int(v),
                RecordedValue::Long(v) => Value::Long(v),
                RecordedValue::Double(v) => Value::Double(v),
                RecordedValue::Bool(v) => Value::Bool(v),
                RecordedValue::Ref(None) => Value::Ref(None),
                RecordedValue::Ref(Some(child)) => Value::Ref(Some(handle_of(child)?)),
            };
            heap.set_field_unbarriered(handle, slot, value)?;
        }
    }
    let roots = roots.iter().map(|&r| handle_of(r)).collect::<Result<Vec<_>, _>>()?;
    let by_id = index.iter().map(|(&id, &i)| (id, handles[i])).collect();
    Ok((heap, roots, by_id))
}

fn oracle_encode<'a>(
    seq: u64,
    kind: CheckpointKind,
    roots: &[StableId],
    objects: impl IntoIterator<Item = &'a RecordedObject>,
) -> Vec<u8> {
    let mut w = StreamWriter::new(seq, kind, roots);
    for obj in objects {
        w.begin_object(obj.stable, obj.class, obj.fields.len());
        for field in &obj.fields {
            match *field {
                RecordedValue::Int(v) => w.write_int(v),
                RecordedValue::Long(v) => w.write_long(v),
                RecordedValue::Double(v) => w.write_double(v),
                RecordedValue::Bool(v) => w.write_bool(v),
                RecordedValue::Ref(v) => w.write_ref(v),
            }
        }
    }
    w.finish()
}

fn oracle_compact(store: &CheckpointStore, reg: &ClassRegistry) -> Result<Vec<u8>, CoreError> {
    let latest_seq = store.latest().ok_or(CoreError::EmptyStore)?.seq();
    let (objects, index, roots) = oracle_fold(store.records(), reg)?;
    let mut reachable = Vec::new();
    let mut visited = HashSet::new();
    let mut stack: Vec<StableId> = roots.iter().rev().copied().collect();
    while let Some(id) = stack.pop() {
        if !visited.insert(id) {
            continue;
        }
        let obj = index.get(&id).map(|&i| &objects[i]).ok_or(CoreError::MissingObject(id))?;
        reachable.push(obj);
        let before = stack.len();
        stack.extend(obj.fields.iter().filter_map(|f| match *f {
            RecordedValue::Ref(child) => child,
            _ => None,
        }));
        stack[before..].reverse();
    }
    Ok(oracle_encode(latest_seq, CheckpointKind::Full, &roots, reachable))
}

// --------------------------------------------------------------- histories

struct World {
    reg: ClassRegistry,
    node: ClassId,
    leaf: ClassId,
}

/// `Node` has scalars, an unconstrained reference and a reference that
/// must name a `Node`; `Leaf` has a single long.
fn world() -> World {
    let mut reg = ClassRegistry::new();
    let node = reg
        .define(
            "Node",
            None,
            &[
                ("v", FieldType::Int),
                ("w", FieldType::Double),
                ("b", FieldType::Bool),
                ("any", FieldType::Ref(None)),
                ("next", FieldType::Ref(Some(ClassId::from_index(0)))),
            ],
        )
        .unwrap();
    let leaf = reg.define("Leaf", None, &[("x", FieldType::Long)]).unwrap();
    World { reg, node, leaf }
}

/// How a case picks its stable ids.
#[derive(Debug, Clone, Copy)]
enum Ids {
    /// `1..=n` in shuffled order.
    Dense,
    /// Arbitrary 64-bit ids, including the largest ones.
    Sparse,
    /// Dense, plus a few far-out ids that later records introduce.
    Mixed,
}

/// A seeded history over `world`: several records that re-record objects,
/// touch some objects first in a later record and record some ids twice
/// in one record. Every reference and root names an object some record
/// holds, so the history restores, unless `break_it` corrupts it.
fn history(w: &World, seed: u64, ids: Ids, break_it: bool) -> Vec<CheckpointRecord> {
    let mut rng = Prng::seed_from_u64(seed);
    let n = 1 + rng.index(40);
    let mut pool: Vec<u64> = match ids {
        Ids::Dense | Ids::Mixed => (1..=n as u64).collect(),
        Ids::Sparse => (0..n)
            .map(|_| match rng.below(64) {
                0 => u64::MAX,
                1..=6 => u64::MAX - 1 - rng.below(2),
                _ => rng.next_u64(),
            })
            .collect(),
    };
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.index(i + 1));
    }
    if let Ids::Mixed = ids {
        pool.extend([1 << 40, u64::MAX - 1, n as u64 * 1000]);
    }
    let class_of: HashMap<u64, ClassId> =
        pool.iter().map(|&id| (id, if rng.ratio(2, 3) { w.node } else { w.leaf })).collect();
    let nodes: Vec<u64> = pool.iter().copied().filter(|id| class_of[id] == w.node).collect();

    // Objects enter the history in pool order, a few per record, so later
    // records touch some objects for the first time; each record also
    // re-records about half of the objects that entered before it.
    let nrecords = 1 + rng.index(6);
    let mut known = 0;
    let mut records = Vec::new();
    for seq in 0..nrecords as u64 {
        let entered = known;
        known = if seq + 1 == nrecords as u64 {
            pool.len()
        } else {
            (known + 1 + rng.index(pool.len())).min(pool.len())
        };
        let mut recorded = Vec::new();
        for (i, &id) in pool[..known].iter().enumerate() {
            if i >= entered || rng.ratio(1, 2) {
                recorded.push(id);
                if rng.ratio(1, 8) {
                    recorded.push(id); // the same id twice in one record
                }
            }
        }
        let roots: Vec<StableId> =
            (0..rng.index(3)).map(|_| StableId(*rng.choose(&pool))).collect();
        let kind = if seq == 0 && rng.ratio(1, 2) {
            CheckpointKind::Full
        } else {
            CheckpointKind::Incremental
        };
        let mut writer = StreamWriter::new(seq, kind, &roots);
        for &id in &recorded {
            let class = class_of[&id];
            let fields = w.reg.class(class).unwrap().num_slots();
            writer.begin_object(StableId(id), class, fields);
            if class == w.leaf {
                writer.write_long(rng.next_i64());
                continue;
            }
            writer.write_int(rng.next_i32());
            writer.write_double(f64::from(rng.next_i32()) / 8.0);
            writer.write_bool(rng.next_bool());
            writer.write_ref(rng.ratio(2, 3).then(|| StableId(*rng.choose(&pool))));
            writer.write_ref(rng.ratio(2, 3).then(|| StableId(*rng.choose(&nodes))));
        }
        let bytes = writer.finish();
        records.push(CheckpointRecord::from_parts(
            seq,
            kind,
            roots,
            bytes,
            TraversalStats::default(),
        ));
    }
    if break_it {
        corrupt(w, &mut rng, &mut records, &pool, &nodes);
    }
    records
}

/// Breaks one record of a history: a flipped or dropped byte, a reference
/// or root to an id no record holds, or a `Leaf` where a `Node` must be.
fn corrupt(
    w: &World,
    rng: &mut Prng,
    records: &mut [CheckpointRecord],
    pool: &[u64],
    nodes: &[u64],
) {
    let at = rng.index(records.len());
    let (seq, kind, roots, mut bytes, stats) = records[at].clone().into_parts();
    let unrecorded = (1..).find(|id| !pool.contains(id)).unwrap();
    match rng.below(5) {
        0 => {
            let i = rng.index(bytes.len());
            bytes[i] ^= 1 << rng.below(8);
        }
        1 => {
            bytes.remove(rng.index(bytes.len()));
        }
        2 | 3 => {
            // One extra Node whose reference names an unrecorded id, or a
            // Leaf in its constrained slot.
            let leaf = pool.iter().copied().find(|id| !nodes.contains(id));
            let target = match leaf {
                Some(leaf) if rng.next_bool() => leaf,
                _ => unrecorded,
            };
            let mut extra = StreamWriter::new_shard();
            extra.begin_object(StableId(*rng.choose(pool)), w.node, 5);
            extra.write_int(0);
            extra.write_double(0.0);
            extra.write_bool(false);
            extra.write_ref(None);
            extra.write_ref(Some(StableId(target)));
            let (body, _) = extra.finish_shard();
            let records = u32::from_be_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
            let footer = bytes.len() - 5;
            bytes.splice(footer..footer, body);
            let n = bytes.len();
            bytes[n - 4..].copy_from_slice(&(records + 1).to_be_bytes());
        }
        _ => {
            let mut writer = StreamWriter::new(seq, kind, &[StableId(unrecorded)]);
            for object in &ickp_core::object_slices(&bytes, &w.reg).unwrap() {
                writer.append_shard(&bytes[object.clone()], 1);
            }
            bytes = writer.finish();
            let roots = vec![StableId(unrecorded)];
            records[at] = CheckpointRecord::from_parts(seq, kind, roots, bytes, stats);
            return;
        }
    }
    records[at] = CheckpointRecord::from_parts(seq, kind, roots, bytes, stats);
}

fn store_of(records: &[CheckpointRecord]) -> CheckpointStore {
    let mut store = CheckpointStore::new();
    for record in records {
        store.push_merged(record.clone()).unwrap();
    }
    store
}

// ------------------------------------------------------------------- cases

/// Every stable id a history's records or roots name, plus a few no
/// record holds.
fn named_ids(records: &[CheckpointRecord], reg: &ClassRegistry) -> HashSet<StableId> {
    records
        .iter()
        .filter_map(|r| decode(r.bytes(), reg).ok())
        .flat_map(|d| d.objects.into_iter().map(|o| o.stable).chain(d.roots))
        .chain([StableId(0), StableId(7777), StableId(u64::MAX)])
        .collect()
}

/// Runs the fold, restore, merge and compaction of one history against
/// the oracle. Returns whether the history restored.
fn check(w: &World, records: &[CheckpointRecord], case: &str) -> bool {
    let ids = named_ids(records, &w.reg);

    let folded = fold_records(records, &w.reg);
    match (&folded, oracle_fold(records, &w.reg)) {
        (Ok(h), Ok((objects, index, roots))) => {
            let survivors: Vec<RecordedObject> = (0..h.len())
                .map(|p| {
                    let (stable, class) = h.identity(p);
                    RecordedObject { stable, class, fields: h.fields(p).collect() }
                })
                .collect();
            assert_eq!(survivors, objects, "{case}: survivors");
            assert_eq!(h.roots(), roots, "{case}: roots");
            for &id in &ids {
                assert_eq!(h.position(id), index.get(&id).copied(), "{case}: position of {id}");
            }
        }
        (Err(got), Err(want)) => assert_eq!(got, &want, "{case}: fold error"),
        (got, want) => panic!("{case}: fold gave {got:?}, the oracle {want:?}"),
    }

    let store = store_of(records);
    let restored = restore(&store, &w.reg, RestorePolicy::Lenient);
    let ok = match (&restored, oracle_restore(&store, &w.reg)) {
        (Ok(got), Ok((heap, roots, by_id))) => {
            assert_eq!(got.roots(), roots, "{case}: root handles");
            assert_eq!(
                state_digest(got.heap(), got.roots()).unwrap(),
                state_digest(&heap, &roots).unwrap(),
                "{case}: state digest"
            );
            assert_eq!(got.len(), heap.len(), "{case}: object count");
            assert_eq!(got.heap().stats(), heap.stats(), "{case}: heap counters");
            assert_eq!(got.heap().structure_version(), heap.structure_version(), "{case}");
            assert_eq!(got.heap().next_stable_id(), heap.next_stable_id(), "{case}");
            for &id in &ids {
                let handle = got.lookup(id);
                assert_eq!(handle, by_id.get(&id).copied(), "{case}: lookup of {id}");
                if let Some(handle) = handle {
                    let (a, b) = (got.heap().object(handle).unwrap(), heap.object(handle).unwrap());
                    assert_eq!(a.class(), b.class(), "{case}: class of {id}");
                    assert_eq!(a.info(), b.info(), "{case}: metadata of {id}");
                    assert_eq!(a.fields(), b.fields(), "{case}: fields of {id}");
                }
            }
            true
        }
        (Err(got), Err(want)) => {
            assert_eq!(got, &want, "{case}: restore error");
            false
        }
        (got, want) => panic!("{case}: restore gave {got:?}, the oracle {:?}", want.map(|r| r.1)),
    };

    if let (Some(first), Some(last)) = (records.first(), records.last()) {
        let merged = merge_records(records, &w.reg).map(|r| r.bytes().to_vec());
        let oracle = oracle_fold(records, &w.reg)
            .map(|(objects, _, roots)| oracle_encode(last.seq(), first.kind(), &roots, &objects));
        assert_eq!(merged, oracle, "{case}: merged bytes");
        let compacted = compact(&store, &w.reg).map(|s| s.latest().unwrap().bytes().to_vec());
        assert_eq!(compacted, oracle_compact(&store, &w.reg), "{case}: compacted bytes");
    }
    ok
}

#[test]
fn the_fold_matches_the_decode_everything_oracle() {
    let w = world();
    for (ids, base) in
        [(Ids::Dense, 0xF01D_0000), (Ids::Sparse, 0xF01D_1000), (Ids::Mixed, 0xF01D_2000)]
    {
        for case in 0..120u64 {
            let records = history(&w, base + case, ids, false);
            let case = format!("{ids:?} seed {:#x}", base + case);
            // Sparse pools sometimes draw the one stable id a heap cannot
            // hold; every other well-formed history restores.
            let holds_last_id = records.iter().any(|r| {
                decode(r.bytes(), &w.reg).unwrap().objects.iter().any(|o| o.stable.0 == u64::MAX)
            });
            assert_eq!(check(&w, &records, &case), !holds_last_id, "{case}: restored");
        }
    }
}

#[test]
fn malformed_histories_fail_exactly_like_the_oracle() {
    let w = world();
    let mut failed = 0;
    for (ids, base) in
        [(Ids::Dense, 0xBAD_0000), (Ids::Sparse, 0xBAD_1000), (Ids::Mixed, 0xBAD_2000)]
    {
        for case in 0..120u64 {
            let records = history(&w, base + case, ids, true);
            failed +=
                !check(&w, &records, &format!("broken {ids:?} seed {:#x}", base + case)) as usize;
        }
    }
    assert!(failed >= 200, "only {failed} of 360 corrupted histories failed to restore");
}

#[test]
fn an_empty_run_folds_to_nothing() {
    let w = world();
    let history = fold_records(&[], &w.reg).unwrap();
    assert!(history.is_empty() && history.roots().is_empty());
    assert_eq!(history.position(StableId(1)), None);
    assert!(!check(&w, &[], "empty run"));
    assert_eq!(
        restore(&CheckpointStore::new(), &w.reg, RestorePolicy::Lenient).unwrap_err(),
        CoreError::EmptyStore
    );
}

// ------------------------------------------------------- validated records

/// `records` rebuilt as durable recovery and the replication follower
/// build them: one validating scan of each record's bytes under `reg`.
fn validated(records: &[CheckpointRecord], reg: &ClassRegistry) -> Vec<CheckpointRecord> {
    let scan = |r: &CheckpointRecord| CheckpointRecord::validate(r.bytes().to_vec(), reg).unwrap();
    records.iter().map(scan).collect()
}

/// Asserts that two folds hold the same history: roots, and per
/// survivor its identity, object record bytes and field values, and per
/// named id its position.
fn assert_same_fold(a: &FoldedHistory, b: &FoldedHistory, ids: &HashSet<StableId>, case: &str) {
    assert_eq!(a.len(), b.len(), "{case}: survivors");
    assert_eq!(a.roots(), b.roots(), "{case}: roots");
    for p in 0..a.len() {
        assert_eq!(a.identity(p), b.identity(p), "{case}: identity at {p}");
        assert_eq!(a.slice(p), b.slice(p), "{case}: slice at {p}");
        let fields = |h: &FoldedHistory| h.fields(p).collect::<Vec<_>>();
        assert_eq!(fields(a), fields(b), "{case}: fields at {p}");
    }
    for &id in ids {
        assert_eq!(a.position(id), b.position(id), "{case}: position of {id}");
    }
}

/// Folds and restores `plain` and `checked` under `reg` and asserts both
/// give the same history and the same state, or fail with the same error.
/// Returns whether they restored.
fn assert_fold_like_plain(
    plain: &[CheckpointRecord],
    checked: &[CheckpointRecord],
    reg: &ClassRegistry,
    case: &str,
) -> bool {
    match (fold_records(plain, reg), fold_records(checked, reg)) {
        (Ok(a), Ok(b)) => assert_same_fold(&a, &b, &named_ids(plain, reg), case),
        (Err(a), Err(b)) => assert_eq!(a, b, "{case}: fold error"),
        (a, b) => panic!("{case}: plain records fold to {a:?}, validated ones to {b:?}"),
    }
    let digest = |records: &[CheckpointRecord]| {
        let restored = restore(&store_of(records), reg, RestorePolicy::Lenient)?;
        state_digest(restored.heap(), restored.roots())
    };
    match (digest(plain), digest(checked)) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "{case}: state digest");
            true
        }
        (Err(a), Err(b)) => {
            assert_eq!(a, b, "{case}: restore error");
            false
        }
        (a, b) => panic!("{case}: plain records restore to {a:?}, validated ones to {b:?}"),
    }
}

#[test]
fn validated_records_fold_and_restore_like_their_plain_copies() {
    let w = world();
    for (ids, base) in
        [(Ids::Dense, 0x0FF5_0000), (Ids::Sparse, 0x0FF5_1000), (Ids::Mixed, 0x0FF5_2000)]
    {
        for case in 0..120u64 {
            let plain = history(&w, base + case, ids, false);
            let checked = validated(&plain, &w.reg);
            let case = format!("{ids:?} seed {:#x}", base + case);
            for (a, b) in plain.iter().zip(&checked) {
                assert_eq!(a, b, "{case}: a validated record equals its plain copy");
            }
            let restored = assert_fold_like_plain(&plain, &checked, &w.reg, &case);
            // The oracle holds for validated records too.
            assert_eq!(check(&w, &checked, &case), restored, "{case}: restored");
        }
    }
}

/// `world`'s classes with one layout changed, or only renamed.
fn changed_registries(w: &World) -> Vec<(&'static str, ClassRegistry)> {
    let node_fields = |b: FieldType, extra: Option<(&'static str, FieldType)>| {
        let mut fields = vec![
            ("v", FieldType::Int),
            ("w", FieldType::Double),
            ("b", b),
            ("any", FieldType::Ref(None)),
            ("next", FieldType::Ref(Some(w.node))),
        ];
        fields.extend(extra);
        fields
    };
    let registry = |node: &[(&str, FieldType)], leaf: Option<FieldType>, names: [&str; 2]| {
        let mut reg = ClassRegistry::new();
        reg.define(names[0], None, node).unwrap();
        if let Some(x) = leaf {
            reg.define(names[1], None, &[("x", x)]).unwrap();
        }
        reg
    };
    let names = ["Node", "Leaf"];
    vec![
        (
            "renamed",
            registry(&node_fields(FieldType::Bool, None), Some(FieldType::Long), ["N", "L"]),
        ),
        ("Node gains a field", {
            let node = node_fields(FieldType::Bool, Some(("z", FieldType::Int)));
            registry(&node, Some(FieldType::Long), names)
        }),
        ("Node's boolean is an int", {
            registry(&node_fields(FieldType::Int, None), Some(FieldType::Long), names)
        }),
        ("Leaf's long is a double", {
            registry(&node_fields(FieldType::Bool, None), Some(FieldType::Double), names)
        }),
        ("Leaf's long is an int", {
            registry(&node_fields(FieldType::Bool, None), Some(FieldType::Int), names)
        }),
        ("no Leaf", registry(&node_fields(FieldType::Bool, None), None, names)),
    ]
}

#[test]
fn records_validated_under_other_class_layouts_fold_by_walking() {
    let w = world();
    let changed = changed_registries(&w);
    assert_eq!(changed[0].1.layout_digest(), w.reg.layout_digest(), "names do not count");
    for (name, reg) in &changed[1..] {
        assert_ne!(reg.layout_digest(), w.reg.layout_digest(), "{name}: layouts count");
    }
    let mut errors = HashMap::new();
    for (ids, base) in [(Ids::Dense, 0x1A70_0000), (Ids::Mixed, 0x1A70_1000)] {
        for case in 0..60u64 {
            let plain = history(&w, base + case, ids, false);
            let checked = validated(&plain, &w.reg);
            for (name, reg) in &changed {
                let case = format!("{name}, {ids:?} seed {:#x}", base + case);
                let restored = assert_fold_like_plain(&plain, &checked, reg, &case);
                *errors.entry(*name).or_insert(0) += usize::from(!restored);
            }
        }
    }
    // Every layout a walk must refuse was refused somewhere; under the
    // renamed registry, and with a long's bytes read as a double, every
    // history restores.
    for (name, _) in &changed[1..] {
        let refused = errors[name];
        assert_eq!(refused > 0, *name != "Leaf's long is a double", "{name}: {refused} refused");
    }
    assert_eq!(errors["renamed"], 0);
}
