//! Durability-ordering auditor, end to end: the real protocols must
//! audit error-clean, every injected ordering violation must surface
//! its exact `AUD4xx` code, and the static crash-class verdicts must
//! agree with the real `MemFs` crash machinery (via the crash matrix).

use ickp_audit::{audit_durability, OpTraceSpec};
use ickp_core::{
    object_slices, CheckpointConfig, CheckpointRecord, Checkpointer, MethodTable, RecordSink,
};
use ickp_durable::{
    crash_matrix, DurableConfig, DurableStore, MatrixOptions, MemFs, OpCounter, StoreTopology,
    TraceEvent, TraceLog, TraceNode, TraceOp, TraceVfs, MANIFEST,
};
use ickp_heap::{ClassRegistry, FieldType, Heap, ObjectId, Value};
use ickp_replicate::{ChannelTransport, ReplicaPair, ReplicateConfig, TransportPlan};

/// A deterministic stream of checkpoint records over a two-node list.
fn produce(rounds: usize) -> (ClassRegistry, Vec<CheckpointRecord>) {
    let mut reg = ClassRegistry::new();
    let node = reg
        .define(
            "Node",
            None,
            &[("v", FieldType::Int), ("next", FieldType::Ref(None)), ("pad", FieldType::Long)],
        )
        .unwrap();
    let mut heap = Heap::new(reg);
    let tail = heap.alloc(node).unwrap();
    let head = heap.alloc(node).unwrap();
    heap.set_field(head, 1, Value::Ref(Some(tail))).unwrap();
    let roots: Vec<ObjectId> = vec![head];
    let table = MethodTable::derive(heap.registry());
    let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
    let mut records = Vec::new();
    for i in 0..rounds {
        heap.set_field(tail, 0, Value::Int(i as i32)).unwrap();
        records.push(ckp.checkpoint(&mut heap, &table, &roots).unwrap());
    }
    let registry = heap.registry().clone();
    (registry, records)
}

fn config() -> DurableConfig {
    DurableConfig { segment_target_bytes: 256 }
}

/// A hand-built trace, for injecting protocols the sound store cannot
/// produce.
struct RawTrace {
    events: Vec<TraceEvent>,
    counted: u64,
}

impl OpTraceSpec for RawTrace {
    fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    fn counted_ops(&self) -> u64 {
        self.counted
    }
}

fn op(index: u64, node: TraceNode, op: TraceOp) -> TraceEvent {
    TraceEvent::Op { index, node, op }
}

fn error_codes(trace: &RawTrace) -> Vec<&'static str> {
    let audit = audit_durability(trace);
    audit
        .report
        .diagnostics()
        .iter()
        .filter(|d| d.severity == ickp_audit::Severity::Error)
        .map(|d| d.code.code())
        .collect()
}

/// The canonical sound single-node commit at `base`: append + fsync,
/// then the four-step manifest swap, then the acknowledgement.
fn sound_commit(base: u64, node: TraceNode, seg: &str, records: u64) -> Vec<TraceEvent> {
    vec![
        op(base, node, TraceOp::Write { path: seg.into(), offset: 0, len: 64 }),
        op(base + 1, node, TraceOp::Fsync { path: seg.into() }),
        op(base + 2, node, TraceOp::Create { path: "MANIFEST.tmp".into(), len: 32 }),
        op(base + 3, node, TraceOp::Fsync { path: "MANIFEST.tmp".into() }),
        op(base + 4, node, TraceOp::Rename { from: "MANIFEST.tmp".into(), to: MANIFEST.into() }),
        op(base + 5, node, TraceOp::DirFsync),
        TraceEvent::ClientAck { records },
    ]
}

// ---------------------------------------------------------------------
// The real protocols audit error-clean.
// ---------------------------------------------------------------------

/// The full single-node `DurableStore` protocol — singles, a group
/// commit, a tag, and a dedup rewrite — leaves an error-free trace.
#[test]
fn the_real_store_protocol_audits_error_clean() {
    let (registry, records) = produce(6);
    let log = TraceLog::new();
    let mut fs = TraceVfs::new(MemFs::new(), log.clone());
    let mut store = DurableStore::create(&mut fs, config()).unwrap();

    let mut acked = 0u64;
    for record in &records[..3] {
        store.append(record).unwrap();
        acked += 1;
        log.client_ack(acked);
    }
    store.append_batch(&records[3..]).unwrap();
    acked += (records.len() - 3) as u64;
    log.client_ack(acked);
    store.tag("stable", records[2].seq()).unwrap();

    let layouts: Vec<_> =
        records.iter().map(|r| object_slices(r.bytes(), &registry).unwrap().objects).collect();
    let tags = store.tags().to_vec();
    store.rewrite(&records, &layouts, &tags).unwrap();
    drop(store);

    let trace = log.snapshot(&fs.counter());
    let audit = audit_durability(&trace);
    assert!(audit.is_sound(), "real store protocol flagged:\n{}", audit.report.render());
    assert_eq!(audit.acks, 4, "three singles + one batch");
    assert!(audit.commits >= 6, "create + per-ack swaps + tag + rewrite, got {}", audit.commits);
    assert_eq!(audit.counted_ops, trace.counted);
    assert!(!audit.classes.is_empty());
}

/// The replicated `ReplicaPair` protocol — both nodes and the wire in
/// one shared counter space — leaves an error-free trace.
#[test]
fn the_real_replicated_protocol_audits_error_clean() {
    let (registry, records) = produce(5);
    let log = TraceLog::new();
    let counter = OpCounter::new();
    let mut pfs =
        TraceVfs::with_counter(MemFs::new(), log.clone(), counter.clone(), TraceNode::Primary);
    let mut ffs =
        TraceVfs::with_counter(MemFs::new(), log.clone(), counter.clone(), TraceNode::Follower);
    let mut link = ChannelTransport::with_counter(TransportPlan::none(), counter.clone());
    link.set_trace(log.clone());

    let cfg = ReplicateConfig { durable: config(), batch_records: 2, max_retries: 3, dedup: false };
    let mut pair = ReplicaPair::create(&mut pfs, &mut ffs, &mut link, cfg, &registry).unwrap();
    for record in &records {
        pair.append(record.clone()).unwrap();
        if pair.acked_records() > 0 {
            log.client_ack(pair.acked_records());
        }
    }
    pair.commit().unwrap();
    log.client_ack(pair.acked_records());
    drop(pair);

    let trace = log.snapshot(&counter);
    let audit = audit_durability(&trace);
    assert!(audit.is_sound(), "replicated protocol flagged:\n{}", audit.report.render());
    assert!(audit.wire_sends > 0, "data must have crossed the wire");
    assert!(audit.wire_acks > 0, "acks must have crossed back");
    assert!(audit.acks > 0);
}

/// The `RecordSink` seam: an `AckHook` around the store places the
/// acknowledgement markers, so producers need no tracing knowledge.
#[test]
fn ack_hook_markers_line_up_with_store_commits() {
    let (_registry, records) = produce(4);
    let log = TraceLog::new();
    let mut fs = TraceVfs::new(MemFs::new(), log.clone());
    let store = DurableStore::create(&mut fs, config()).unwrap();
    let marker_log = log.clone();
    let mut sink = ickp_core::AckHook::new(store, move |acked| marker_log.client_ack(acked));
    for record in records {
        sink.append_record(record).unwrap();
    }
    drop(sink);

    let trace = log.snapshot(&fs.counter());
    let audit = audit_durability(&trace);
    assert!(audit.is_sound(), "{}", audit.report.render());
    assert_eq!(audit.acks, 4);
}

// ---------------------------------------------------------------------
// Injected violations surface their exact codes.
// ---------------------------------------------------------------------

/// AUD401: the acknowledgement rests on fsynced bytes but no manifest
/// publish — recovery would return the previous frontier.
#[test]
fn injected_ack_without_publish_is_exactly_aud401() {
    let trace = RawTrace {
        events: vec![
            op(0, TraceNode::Local, TraceOp::Write { path: "seg".into(), offset: 0, len: 64 }),
            op(1, TraceNode::Local, TraceOp::Fsync { path: "seg".into() }),
            TraceEvent::ClientAck { records: 1 },
        ],
        counted: 2,
    };
    assert_eq!(error_codes(&trace), vec!["AUD401"]);
}

/// AUD401 (volatile flavour): the segment bytes were never fsynced at
/// all, yet the manifest swap acknowledged them.
#[test]
fn injected_unsynced_segment_under_an_ack_is_aud401() {
    let trace = RawTrace {
        events: vec![
            op(0, TraceNode::Local, TraceOp::Write { path: "seg".into(), offset: 0, len: 64 }),
            // Missing: fsync("seg").
            op(1, TraceNode::Local, TraceOp::Create { path: "MANIFEST.tmp".into(), len: 32 }),
            op(2, TraceNode::Local, TraceOp::Fsync { path: "MANIFEST.tmp".into() }),
            op(
                3,
                TraceNode::Local,
                TraceOp::Rename { from: "MANIFEST.tmp".into(), to: MANIFEST.into() },
            ),
            op(4, TraceNode::Local, TraceOp::DirFsync),
            TraceEvent::ClientAck { records: 1 },
        ],
        counted: 5,
    };
    assert_eq!(error_codes(&trace), vec!["AUD401"]);
}

/// AUD402: the manifest temp file is renamed before its fsync — the
/// name can become durable ahead of the bytes it points at.
#[test]
fn injected_rename_before_fsync_is_exactly_aud402() {
    let trace = RawTrace {
        events: vec![
            op(0, TraceNode::Local, TraceOp::Create { path: "MANIFEST.tmp".into(), len: 32 }),
            op(
                1,
                TraceNode::Local,
                TraceOp::Rename { from: "MANIFEST.tmp".into(), to: MANIFEST.into() },
            ),
            op(2, TraceNode::Local, TraceOp::Fsync { path: MANIFEST.into() }),
            op(3, TraceNode::Local, TraceOp::DirFsync),
            TraceEvent::ClientAck { records: 1 },
        ],
        counted: 4,
    };
    assert_eq!(error_codes(&trace), vec!["AUD402"]);
}

/// AUD403: the manifest rename is never sealed by a parent-directory
/// fsync before the acknowledgement.
#[test]
fn injected_missing_dir_fsync_is_exactly_aud403() {
    let trace = RawTrace {
        events: vec![
            op(0, TraceNode::Local, TraceOp::Create { path: "MANIFEST.tmp".into(), len: 32 }),
            op(1, TraceNode::Local, TraceOp::Fsync { path: "MANIFEST.tmp".into() }),
            op(
                2,
                TraceNode::Local,
                TraceOp::Rename { from: "MANIFEST.tmp".into(), to: MANIFEST.into() },
            ),
            // Missing: sync_dir().
            TraceEvent::ClientAck { records: 1 },
        ],
        counted: 3,
    };
    assert_eq!(error_codes(&trace), vec!["AUD403"]);
}

/// AUD404: a write lands inside a region the committed manifest already
/// references.
#[test]
fn injected_committed_overwrite_is_exactly_aud404() {
    let mut events = sound_commit(0, TraceNode::Local, "seg", 1);
    events.push(op(6, TraceNode::Local, TraceOp::Write { path: "seg".into(), offset: 8, len: 8 }));
    let trace = RawTrace { events, counted: 7 };
    assert_eq!(error_codes(&trace), vec!["AUD404"]);
}

/// AUD405: the client is acknowledged after the data frame ships but
/// before the follower's acknowledgement returns.
#[test]
fn injected_early_replication_ack_is_exactly_aud405() {
    let mut events = Vec::new();
    events.extend(sound_commit(0, TraceNode::Primary, "seg", 1));
    // The sound_commit helper appended ClientAck{1}; replace the tail:
    // ship the frame, then acknowledge a second batch with no wire ack.
    events.pop();
    events.push(op(6, TraceNode::Primary, TraceOp::WireSend));
    events.push(TraceEvent::ClientAck { records: 1 });
    let trace = RawTrace { events, counted: 7 };
    assert_eq!(error_codes(&trace), vec!["AUD405"]);
}

/// AUD406: an op index claimed on the shared counter never shows up in
/// the trace — some I/O ran outside the audited op space.
#[test]
fn injected_uncounted_op_is_exactly_aud406() {
    let mut events = sound_commit(0, TraceNode::Local, "seg", 1);
    // The counter handed out 7 indices but the trace only shows 6.
    let trace = RawTrace { events: std::mem::take(&mut events), counted: 7 };
    assert_eq!(error_codes(&trace), vec!["AUD406"]);
}

// ---------------------------------------------------------------------
// Perf lints.
// ---------------------------------------------------------------------

/// AUD407: a second fsync with nothing pending is flagged as waste, at
/// lint severity — the protocol is still sound.
#[test]
fn redundant_fsync_is_linted_as_aud407() {
    let mut events = sound_commit(0, TraceNode::Local, "seg", 1);
    events.push(op(6, TraceNode::Local, TraceOp::Fsync { path: "seg".into() }));
    let trace = RawTrace { events, counted: 7 };
    let audit = audit_durability(&trace);
    assert!(audit.is_sound(), "{}", audit.report.render());
    let lints: Vec<_> = audit
        .report
        .diagnostics()
        .iter()
        .filter(|d| d.severity == ickp_audit::Severity::PerfLint)
        .map(|d| d.code.code())
        .collect();
    assert!(lints.contains(&"AUD407"), "{lints:?}");
}

/// AUD408: a run of single-record commits is flagged with the fsyncs a
/// group commit would save.
#[test]
fn single_record_commit_runs_are_linted_as_aud408() {
    let mut events = Vec::new();
    for i in 0..4u64 {
        events.extend(sound_commit(i * 6, TraceNode::Local, &format!("seg-{i}"), i + 1));
    }
    let trace = RawTrace { events, counted: 24 };
    let audit = audit_durability(&trace);
    assert!(audit.is_sound(), "{}", audit.report.render());
    let lint = audit
        .report
        .diagnostics()
        .iter()
        .find(|d| d.code.code() == "AUD408")
        .expect("missed-coalescing lint");
    assert!(lint.message.contains("4 consecutive"), "{}", lint.message);
    assert!(lint.message.contains("9"), "3*(4-1) fsyncs saved: {}", lint.message);
}

// ---------------------------------------------------------------------
// The dynamic oracle.
// ---------------------------------------------------------------------

/// Every crash class of a real traced workload agrees with the MemFs
/// crash oracle: the pruned crash matrix replays the first and last
/// member of each class and holds the recovery to the class's statically
/// predicted record count; its traced baseline audits error-clean.
#[test]
fn crash_classes_agree_with_the_memfs_oracle() {
    let (registry, records) = produce(6);
    let report = crash_matrix(
        &StoreTopology { config: config() },
        &registry,
        &records,
        MatrixOptions::default(),
        |fs, acks| {
            let mut store = DurableStore::create(fs, config())?;
            for (i, record) in records[..3].iter().enumerate() {
                store.append(record)?;
                acks.ack(i as u64 + 1);
            }
            store.append_batch(&records[3..])?;
            acks.ack(records.len() as u64);
            Ok(())
        },
        |_, _| None,
    )
    .expect("static verdicts must match the MemFs oracle");

    // The static pass sees the matrix's traced baseline.
    let audit = audit_durability(&report.trace);
    assert!(audit.is_sound(), "{}", audit.report.render());
    assert!(audit.classes.len() >= 4, "expected several classes, got {}", audit.classes.len());
    assert_eq!(report.classes, audit.classes.len());
    // Every class, both ends, against the real crash machinery.
    assert!(report.replays >= audit.classes.len());
    assert!(
        (report.replays as u64) < report.total_ops,
        "equivalence classing must collapse some crash points"
    );
}
