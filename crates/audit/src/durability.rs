//! Pass 6: the durability-ordering auditor (`AUD401`–`AUD408`).
//!
//! The crash matrix proves the storage protocols correct *dynamically*
//! — by replaying recovery at every injected fault index.
//! This pass proves the same acked-prefix contract *statically*, from a
//! recorded [`TraceEvent`] stream (see `ickp_durable::trace`): it walks
//! the typed op stream under the explicit persistence model, tracking
//! per-node volatile/durable state, and checks that every
//! client-acknowledgement marker rests on a fully durable, fully
//! published commit. It also computes the crash-state equivalence
//! classes ([`crash_classes`]) — the same classes the pruned crash
//! matrix replays the first and last member of.
//!
//! ## The persistence model (normative, see `docs/FORMAT.md`)
//!
//! * Written bytes are **volatile** until a covering fsync on the file.
//! * A rename is atomic but — like creations and removals — **unordered
//!   with respect to a crash** until the parent directory is fsynced.
//! * A batch is acknowledged at its manifest swap: write-temp → fsync →
//!   rename over the manifest → directory fsync. Only the completed
//!   sequence makes the new frontier reachable by recovery.
//! * A replicated batch is client-acknowledged only after it is durable
//!   on **both** nodes and the follower's acknowledgement arrived.
//!
//! ## Error codes
//!
//! | Code | Severity | Finding |
//! |------|----------|---------|
//! | AUD401 | error | un-fsynced write (or no completed manifest publish) reachable from an acked state |
//! | AUD402 | error | rename before the source file's fsync |
//! | AUD403 | error | manifest publish missing its parent-directory fsync |
//! | AUD404 | error | write into a committed region after its swap |
//! | AUD405 | error | replication ack sent before durable-on-both |
//! | AUD406 | error | op outside the shared `OpCounter` space |
//! | AUD407 | perf | redundant fsync (nothing pending) |
//! | AUD408 | perf | consecutive single-record commits group commit would merge |
//!
//! Like [`audit_shards`](crate::audit_shards) and
//! [`audit_barriers`](crate::audit_barriers), the pass is generic over a
//! spec trait ([`OpTraceSpec`]) so injection tests can express broken
//! protocols the sound [`DurableStore`](ickp_durable::DurableStore)
//! cannot produce. The crash matrix (`ickp_durable::crash_matrix`) backs
//! the static verdicts dynamically: it replays the first and last member
//! of every crash class through the real
//! [`MemFs`](ickp_durable::MemFs) crash machinery and holds each replay
//! to its class's `recovers_to`.

use std::collections::BTreeMap;

use ickp_durable::{crash_classes, CrashClass, OpTrace, TraceEvent, TraceNode, TraceOp, MANIFEST};

use crate::diag::{AuditReport, DiagCode, Diagnostic, Location, Severity};

/// The input contract of the durability auditor: a typed op stream plus
/// the size of the `OpCounter` space it was recorded against.
///
/// [`OpTrace`] (what `TraceLog::snapshot` returns) implements this;
/// injection tests implement it by hand to express protocols the sound
/// store cannot produce.
pub trait OpTraceSpec {
    /// The recorded events, in execution order.
    fn events(&self) -> &[TraceEvent];

    /// Operation indices claimed on the shared counter while recording.
    /// A sound trace's op events tile `0..counted_ops()` exactly.
    fn counted_ops(&self) -> u64;

    /// The manifest name whose atomic replacement is the commit point.
    fn manifest_path(&self) -> &str {
        MANIFEST
    }
}

impl OpTraceSpec for OpTrace {
    fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    fn counted_ops(&self) -> u64 {
        self.counted
    }
}

/// Per-file symbolic state: current and durable (fsynced) length.
#[derive(Debug, Clone, Copy, Default)]
struct FileState {
    len: u64,
    synced: u64,
}

/// Per-node symbolic state under the persistence model.
#[derive(Debug, Default)]
struct NodeState {
    files: BTreeMap<String, FileState>,
    /// Committed frontier per path: the durable lengths the manifest
    /// referenced at the last completed commit.
    committed: BTreeMap<String, u64>,
    /// Event position of a rename onto the manifest whose directory
    /// fsync has not happened yet.
    manifest_rename_at: Option<usize>,
    /// Event position of the last *completed* commit (directory fsync
    /// sealing a manifest rename).
    last_commit_pos: Option<usize>,
    /// Whether any namespace mutation (create/rename/remove) happened
    /// since the last directory fsync.
    names_dirty: bool,
    commits: usize,
}

/// What the durability audit established, beyond the diagnostics.
#[derive(Debug)]
pub struct DurabilityAudit {
    /// The findings.
    pub report: AuditReport,
    /// Crash-state equivalence classes of the trace (what the pruned
    /// crash matrix replays the first and last member of).
    pub classes: Vec<CrashClass>,
    /// Completed manifest commits, across all nodes.
    pub commits: usize,
    /// Watermark-advancing client acknowledgements.
    pub acks: usize,
    /// Primary → follower data frames.
    pub wire_sends: usize,
    /// Follower → primary acknowledgement frames.
    pub wire_acks: usize,
    /// The trace's counted op space.
    pub counted_ops: u64,
}

impl DurabilityAudit {
    /// `true` if no error-severity finding was produced.
    pub fn is_sound(&self) -> bool {
        !self.report.has_errors()
    }
}

/// How many diagnostics AUD406 emits for individual bad indices before
/// summarizing the remainder.
const UNCOUNTED_DETAIL_CAP: usize = 8;

/// Statically audits a recorded op trace against the persistence model.
///
/// Walks the event stream once, tracking each node's volatile/durable
/// file state, the pending namespace set, and the committed frontier;
/// every client-acknowledgement marker is checked against the state it
/// rests on. See the module docs for the code table. The sound
/// [`DurableStore`](ickp_durable::DurableStore) and
/// `ReplicaPair` protocols audit error-clean; the perf lints (AUD407,
/// AUD408) may fire on legitimately wasteful workloads (e.g. a stream
/// of single-record commits).
pub fn audit_durability(spec: &impl OpTraceSpec) -> DurabilityAudit {
    let events = spec.events();
    let counted = spec.counted_ops();
    let manifest = spec.manifest_path().to_string();
    let mut report = AuditReport::new();

    let replicated = events
        .iter()
        .any(|e| matches!(e, TraceEvent::Op { op: TraceOp::WireSend | TraceOp::WireAck, .. }));

    let mut nodes: BTreeMap<TraceNode, NodeState> = BTreeMap::new();
    let mut watermark = 0u64;
    let mut prev_ack_pos: Option<usize> = None;
    let mut acks = 0usize;
    let mut wire_sends = 0usize;
    let mut wire_acks = 0usize;
    let mut last_send_pos: Option<usize> = None;
    let mut last_wire_ack_pos: Option<usize> = None;
    let mut last_index: Option<u64> = None;
    let mut ack_deltas: Vec<u64> = Vec::new();
    let mut index_claims: Vec<u32> = vec![0; counted as usize];
    let mut out_of_range = 0usize;

    for (pos, event) in events.iter().enumerate() {
        match event {
            TraceEvent::Op { index, node, op } => {
                if *index < counted {
                    index_claims[*index as usize] += 1;
                } else {
                    out_of_range += 1;
                    if out_of_range <= UNCOUNTED_DETAIL_CAP {
                        report.push(Diagnostic::new(
                            Severity::Error,
                            DiagCode::DurabilityUncountedOp,
                            Location::TraceOp(*index),
                            format!(
                                "op index {index} lies outside the counted space 0..{counted}: \
                                 {op} was never claimable by the shared OpCounter"
                            ),
                        ));
                    }
                }
                last_index = Some(*index);
                let state = nodes.entry(*node).or_default();
                apply_op(
                    state,
                    &mut report,
                    &manifest,
                    pos,
                    *index,
                    *node,
                    op,
                    &mut wire_sends,
                    &mut wire_acks,
                    &mut last_send_pos,
                    &mut last_wire_ack_pos,
                );
            }
            TraceEvent::ClientAck { records } => {
                if *records <= watermark {
                    continue; // retransmitted/no-op marker: nothing new claimed
                }
                ack_deltas.push(records - watermark);
                acks += 1;
                check_ack(
                    &nodes,
                    &mut report,
                    replicated,
                    *records,
                    prev_ack_pos,
                    last_send_pos,
                    last_wire_ack_pos,
                    last_index,
                );
                watermark = *records;
                prev_ack_pos = Some(pos);
            }
        }
    }

    // AUD406: the counted space must be tiled exactly once each.
    let mut bad = 0usize;
    for (index, &claims) in index_claims.iter().enumerate() {
        if claims == 1 {
            continue;
        }
        bad += 1;
        if bad <= UNCOUNTED_DETAIL_CAP {
            let what = if claims == 0 {
                "claimed by the shared OpCounter but never traced: an uncounted op \
                 performed I/O invisible to the crash matrices"
                    .to_string()
            } else {
                format!("traced {claims} times: duplicate claims corrupt the fault space")
            };
            report.push(Diagnostic::new(
                Severity::Error,
                DiagCode::DurabilityUncountedOp,
                Location::TraceOp(index as u64),
                format!("op index {index} {what}"),
            ));
        }
    }
    if bad + out_of_range > UNCOUNTED_DETAIL_CAP {
        report.push(Diagnostic::new(
            Severity::Error,
            DiagCode::DurabilityUncountedOp,
            Location::General,
            format!(
                "{} op indices violate the shared-counter contract in total",
                bad + out_of_range
            ),
        ));
    }

    // AUD408: maximal runs of consecutive single-record commits.
    let mut run = 0usize;
    let mut runs: Vec<usize> = Vec::new();
    for &delta in ack_deltas.iter().chain(std::iter::once(&u64::MAX)) {
        if delta == 1 {
            run += 1;
        } else {
            if run >= 2 {
                runs.push(run);
            }
            run = 0;
        }
    }
    for run in runs {
        let saved = 3 * (run as u64 - 1);
        report.push(
            Diagnostic::new(
                Severity::PerfLint,
                DiagCode::DurabilityMissedCoalescing,
                Location::General,
                format!(
                    "{run} consecutive single-record commits: group commit would merge \
                     them into one manifest swap, saving ~{saved} fsync-class syscalls"
                ),
            )
            .with_suggestion("batch the appends (append_batch / append_records)"),
        );
    }

    let trace = OpTrace { events: events.to_vec(), counted };
    DurabilityAudit {
        report,
        classes: crash_classes(&trace),
        commits: nodes.values().map(|n| n.commits).sum(),
        acks,
        wire_sends,
        wire_acks,
        counted_ops: counted,
    }
}

/// Applies one op to its node's symbolic state, emitting op-anchored
/// diagnostics (AUD402, AUD404, AUD405 at the wire ack, AUD407).
#[allow(clippy::too_many_arguments)]
fn apply_op(
    state: &mut NodeState,
    report: &mut AuditReport,
    manifest: &str,
    pos: usize,
    index: u64,
    node: TraceNode,
    op: &TraceOp,
    wire_sends: &mut usize,
    wire_acks: &mut usize,
    last_send_pos: &mut Option<usize>,
    last_wire_ack_pos: &mut Option<usize>,
) {
    let at = Location::TraceOp(index);
    match op {
        TraceOp::Create { path, len } => {
            if state.committed.contains_key(path) {
                report.push(
                    Diagnostic::new(
                        Severity::Error,
                        DiagCode::DurabilityCommittedOverwrite,
                        at,
                        format!(
                            "write_file over committed {path:?}: replacing acknowledged \
                             history in place, volatile until the next directory fsync"
                        ),
                    )
                    .with_suggestion("write a temp file, fsync it, then rename atomically"),
                );
            }
            state.files.insert(path.clone(), FileState { len: *len, synced: 0 });
            state.names_dirty = true;
        }
        TraceOp::Write { path, offset, len } => {
            if let Some(&frontier) = state.committed.get(path) {
                if *offset < frontier {
                    report.push(Diagnostic::new(
                        Severity::Error,
                        DiagCode::DurabilityCommittedOverwrite,
                        at,
                        format!(
                            "write into {path:?} at offset {offset}, inside the committed \
                             region 0..{frontier} the manifest already references"
                        ),
                    ));
                }
            }
            let file = state.files.entry(path.clone()).or_insert_with(|| {
                state.names_dirty = true; // a fresh name, volatile until dir fsync
                FileState::default()
            });
            file.len = file.len.max(*offset + *len);
        }
        TraceOp::Fsync { path } => {
            let file = state.files.entry(path.clone()).or_default();
            if file.len == file.synced {
                report.push(Diagnostic::new(
                    Severity::PerfLint,
                    DiagCode::DurabilityRedundantFsync,
                    at,
                    format!("fsync of {path:?} with no pending bytes: one wasted syscall"),
                ));
            }
            file.synced = file.len;
        }
        TraceOp::Rename { from, to } => {
            if let Some(file) = state.files.remove(from) {
                if file.len > file.synced {
                    report.push(
                        Diagnostic::new(
                            Severity::Error,
                            DiagCode::DurabilityRenameBeforeSync,
                            at,
                            format!(
                                "rename {from:?} -> {to:?} publishes {} un-fsynced byte(s): \
                                 the name can become durable ahead of the data",
                                file.len - file.synced
                            ),
                        )
                        .with_suggestion("fsync the source file before renaming it"),
                    );
                }
                state.files.insert(to.clone(), file);
            }
            if to == manifest {
                state.manifest_rename_at = Some(pos);
            }
            state.names_dirty = true;
        }
        TraceOp::DirFsync => {
            if !state.names_dirty {
                report.push(Diagnostic::new(
                    Severity::PerfLint,
                    DiagCode::DurabilityRedundantFsync,
                    at,
                    "directory fsync with no namespace changes pending: one wasted syscall"
                        .to_string(),
                ));
            }
            state.names_dirty = false;
            if state.manifest_rename_at.take().is_some() {
                // Commit completes: snapshot the frontier the manifest
                // now durably references.
                state.committed = state.files.iter().map(|(p, f)| (p.clone(), f.synced)).collect();
                state.last_commit_pos = Some(pos);
                state.commits += 1;
            }
        }
        TraceOp::Truncate { path, len } => {
            if let Some(&frontier) = state.committed.get(path) {
                if *len < frontier {
                    report.push(Diagnostic::new(
                        Severity::Error,
                        DiagCode::DurabilityCommittedOverwrite,
                        at,
                        format!(
                            "truncate of {path:?} to {len} cuts into the committed region \
                             0..{frontier} the manifest already references"
                        ),
                    ));
                }
            }
            if let Some(file) = state.files.get_mut(path) {
                file.len = file.len.min(*len);
                file.synced = file.synced.min(*len);
            }
        }
        TraceOp::Remove { path } => {
            // Removing a de-referenced file (retention) is legal; a crash
            // merely resurrects it and recovery ignores unreferenced
            // files. The frontier entry goes with it.
            state.files.remove(path);
            state.committed.remove(path);
            state.names_dirty = true;
        }
        TraceOp::WireSend => {
            *wire_sends += 1;
            *last_send_pos = Some(pos);
        }
        TraceOp::WireAck => {
            *wire_acks += 1;
            *last_wire_ack_pos = Some(pos);
            // The follower's acknowledgement claims its durable state
            // covers the shipped batch: volatile state refutes it.
            if node == TraceNode::Follower {
                if let Some((path, file)) = state.files.iter().find(|(_, f)| f.len > f.synced) {
                    report.push(Diagnostic::new(
                        Severity::Error,
                        DiagCode::DurabilityEarlyReplicationAck,
                        at,
                        format!(
                            "follower acknowledges while {path:?} holds {} un-fsynced \
                             byte(s): the ack outruns the follower's disk",
                            file.len - file.synced
                        ),
                    ));
                } else if state.manifest_rename_at.is_some() {
                    report.push(Diagnostic::new(
                        Severity::Error,
                        DiagCode::DurabilityEarlyReplicationAck,
                        at,
                        "follower acknowledges with its manifest publish still missing the \
                         directory fsync"
                            .to_string(),
                    ));
                }
            }
        }
    }
}

/// Checks one watermark-advancing client acknowledgement against the
/// state it rests on (AUD401, AUD403, AUD405).
#[allow(clippy::too_many_arguments)]
fn check_ack(
    nodes: &BTreeMap<TraceNode, NodeState>,
    report: &mut AuditReport,
    replicated: bool,
    records: u64,
    prev_ack_pos: Option<usize>,
    last_send_pos: Option<usize>,
    last_wire_ack_pos: Option<usize>,
    last_index: Option<u64>,
) {
    let at = || match last_index {
        Some(index) => Location::TraceOp(index),
        None => Location::General,
    };
    let since_prev = |pos: Option<usize>| match (pos, prev_ack_pos) {
        (Some(p), Some(prev)) => p > prev,
        (Some(_), None) => true,
        (None, _) => false,
    };
    let acking = if replicated { TraceNode::Primary } else { TraceNode::Local };
    let Some(state) = nodes.get(&acking) else {
        report.push(Diagnostic::new(
            Severity::Error,
            DiagCode::DurabilityUnsyncedAck,
            at(),
            format!("acknowledgement of {records} record(s) with no I/O performed at all"),
        ));
        return;
    };

    // AUD401a: volatile bytes reachable from the acked state.
    if let Some((path, file)) = state.files.iter().find(|(_, f)| f.len > f.synced) {
        report.push(
            Diagnostic::new(
                Severity::Error,
                DiagCode::DurabilityUnsyncedAck,
                at(),
                format!(
                    "acknowledgement of {records} record(s) while {path:?} holds {} \
                     un-fsynced byte(s): a crash now loses acknowledged data",
                    file.len - file.synced
                ),
            )
            .with_suggestion("fsync every touched file before the manifest swap"),
        );
    }

    // AUD403 / AUD401b: the acknowledgement must be backed by a manifest
    // publish completed since the previous acknowledgement.
    if since_prev(state.manifest_rename_at) {
        report.push(
            Diagnostic::new(
                Severity::Error,
                DiagCode::DurabilityMissingDirFsync,
                at(),
                format!(
                    "acknowledgement of {records} record(s) rests on a manifest rename \
                     with no parent-directory fsync: the publish can vanish at a crash"
                ),
            )
            .with_suggestion("fsync the directory after renaming over the manifest"),
        );
    } else if !since_prev(state.last_commit_pos) {
        report.push(
            Diagnostic::new(
                Severity::Error,
                DiagCode::DurabilityUnsyncedAck,
                at(),
                format!(
                    "acknowledgement of {records} record(s) not backed by any completed \
                     manifest publish: recovery returns the previous frontier"
                ),
            )
            .with_suggestion("swap the manifest (write-temp, fsync, rename, dir-fsync) first"),
        );
    }

    // AUD405: a replicated acknowledgement additionally requires the
    // round trip — data shipped, follower committed, follower ack
    // received — since the previous acknowledgement.
    if replicated {
        let follower_commit = nodes.get(&TraceNode::Follower).and_then(|f| f.last_commit_pos);
        if !since_prev(last_send_pos) {
            report.push(Diagnostic::new(
                Severity::Error,
                DiagCode::DurabilityEarlyReplicationAck,
                at(),
                format!(
                    "acknowledgement of {records} record(s) with no data frame shipped to \
                     the follower since the previous acknowledgement"
                ),
            ));
        } else if !since_prev(last_wire_ack_pos)
            || last_wire_ack_pos < last_send_pos
            || follower_commit < last_send_pos
        {
            report.push(
                Diagnostic::new(
                    Severity::Error,
                    DiagCode::DurabilityEarlyReplicationAck,
                    at(),
                    format!(
                        "acknowledgement of {records} record(s) before the batch was durable \
                         on both nodes (shipped, follower-committed, follower-acked)"
                    ),
                )
                .with_suggestion("absorb the follower's ack before acknowledging the client"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn op(index: u64, op: TraceOp) -> TraceEvent {
        TraceEvent::Op { index, node: TraceNode::Local, op }
    }

    fn codes(audit: &DurabilityAudit) -> Vec<&'static str> {
        audit.report.diagnostics().iter().map(|d| d.code.code()).collect()
    }

    /// The canonical sound commit: append, fsync, write-temp, fsync,
    /// rename, dir-fsync, ack.
    fn sound_commit(base: u64, seg: &str, records: u64) -> Vec<TraceEvent> {
        vec![
            op(base, TraceOp::Write { path: seg.into(), offset: 0, len: 64 }),
            op(base + 1, TraceOp::Fsync { path: seg.into() }),
            op(base + 2, TraceOp::Create { path: "MANIFEST.tmp".into(), len: 32 }),
            op(base + 3, TraceOp::Fsync { path: "MANIFEST.tmp".into() }),
            op(base + 4, TraceOp::Rename { from: "MANIFEST.tmp".into(), to: MANIFEST.into() }),
            op(base + 5, TraceOp::DirFsync),
            TraceEvent::ClientAck { records },
        ]
    }

    #[test]
    fn a_sound_commit_audits_error_clean() {
        let trace = RawTrace { events: sound_commit(0, "seg-000000.ickd", 1), counted: 6 };
        let audit = audit_durability(&trace);
        assert!(audit.is_sound(), "{}", audit.report.render());
        assert_eq!(audit.commits, 1);
        assert_eq!(audit.acks, 1);
    }

    #[test]
    fn an_ack_without_a_manifest_publish_is_aud401() {
        let events = vec![
            op(0, TraceOp::Write { path: "seg".into(), offset: 0, len: 8 }),
            op(1, TraceOp::Fsync { path: "seg".into() }),
            TraceEvent::ClientAck { records: 1 },
        ];
        let audit = audit_durability(&RawTrace { events, counted: 2 });
        assert_eq!(codes(&audit), vec!["AUD401"], "{}", audit.report.render());
    }

    #[test]
    fn a_rename_of_unsynced_data_is_aud402() {
        let events = vec![
            op(0, TraceOp::Create { path: "MANIFEST.tmp".into(), len: 32 }),
            // The fsync lands *after* the publish — the name can become
            // durable ahead of the bytes it points at.
            op(1, TraceOp::Rename { from: "MANIFEST.tmp".into(), to: MANIFEST.into() }),
            op(2, TraceOp::Fsync { path: MANIFEST.into() }),
            op(3, TraceOp::DirFsync),
            TraceEvent::ClientAck { records: 1 },
        ];
        let audit = audit_durability(&RawTrace { events, counted: 4 });
        assert_eq!(codes(&audit), vec!["AUD402"], "{}", audit.report.render());
    }

    #[test]
    fn uncounted_and_duplicate_indices_are_aud406() {
        let events = vec![
            op(0, TraceOp::Write { path: "seg".into(), offset: 0, len: 8 }),
            op(0, TraceOp::Fsync { path: "seg".into() }), // duplicate claim
        ];
        // counted = 3: index 1 and 2 claimed but never traced.
        let audit = audit_durability(&RawTrace { events, counted: 3 });
        assert_eq!(codes(&audit), vec!["AUD406", "AUD406", "AUD406"]);
    }

    #[test]
    fn single_record_commit_runs_are_aud408() {
        let mut events = Vec::new();
        for i in 0..3u64 {
            events.extend(sound_commit(i * 6, &format!("seg-{i}"), i + 1));
        }
        let audit = audit_durability(&RawTrace { events, counted: 18 });
        assert!(audit.is_sound(), "{}", audit.report.render());
        let lints = codes(&audit);
        assert!(lints.contains(&"AUD408"), "{lints:?}");
    }
}
