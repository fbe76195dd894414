//! The crash matrix: prove a storage topology safe at *every* fault point.
//!
//! [`crash_matrix`] runs a deterministic workload once fault-free on a
//! [`Topology`] — a lone [`DurableStore`] ([`StoreTopology`]) or a
//! replica pair (`ickp-replicate`'s `PairTopology`). Every mutating I/O
//! operation of every node, and every wire send, is numbered on one
//! shared [`OpCounter`] and recorded into a [`TraceLog`]. The driver
//! reports each client acknowledgement through [`Acks`], which both
//! counts it and places a [`TraceEvent::ClientAck`] marker in the traced
//! baseline, so every crash-equivalence class ([`crash_classes`]) knows
//! how many records it must recover (`recovers_to`).
//!
//! The harness then kills the run at operation k — every layer armed,
//! whichever owns k fires — reboots every node's disk and checks, in
//! order:
//!
//! 1. the static verdict: the node that carries on (the store, or the
//!    live replica) recovers exactly (a lone store) or at least (a
//!    replica) its class's `recovers_to` records;
//! 2. every rebooted disk holds a byte-identical prefix of the expected
//!    records — never a torn, reordered or phantom record;
//! 3. the node that carries on holds the acknowledged prefix: exactly
//!    for a lone store, at least for a replica (a batch durable on both
//!    nodes whose acknowledgement was still in flight is legitimately
//!    extra, and counted in [`MatrixReport::promoted_extra`]);
//! 4. that prefix restores to the matching program state
//!    (`verify_state`);
//! 5. it finishes the workload, and a clean reopen shows every record.
//!
//! By default the sweep is pruned: it replays the first and last member
//! of each crash class, requires both to reach the same [`Verdict`],
//! and lets every other member inherit it. Equivalent indices provably
//! leave byte-identical durable states, so this loses nothing;
//! [`MatrixOptions::full`] replays every index instead. A topology may
//! add fault scenarios of its own ([`Topology::scenarios`]) — the pair
//! sweeps frame loss, duplication and reordering (which must be masked)
//! and partitions (which must fail cleanly, then promote).
//!
//! Because the fault schedule is a pure function of the operation index,
//! the whole matrix is deterministic: a failure is a unit-test failure
//! with a reproducible op index, not a flake.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::fail::{FailFs, FaultPlan, OpCounter};
use crate::store::{DurableConfig, DurableStore};
use crate::trace::{crash_classes, OpTrace, TraceEvent, TraceLog, TraceNode, TraceOp};
use crate::vfs::MemFs;
use ickp_core::{
    decode, restore, CheckpointRecord, CheckpointStore, CoreError, RestorePolicy, RestoredHeap,
};
use ickp_heap::{ClassRegistry, Heap};

/// What a workload driver returns. Any error ends the run; the harness
/// decides from the nodes' crash flags whether it was the injected fault
/// propagating or a real failure.
pub type DriveResult = Result<(), Box<dyn Error>>;

/// A failed crash-matrix run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// The fault-free baseline failed or diverged from the expected
    /// records.
    Baseline(String),
    /// An invariant broke under one injected fault.
    Invariant {
        /// The injected fault: `"crash"`, or a topology scenario such as
        /// `"partition"`.
        fault: &'static str,
        /// The operation index the fault was injected at.
        at: u64,
        /// For a crash, the representative (smallest index) of its
        /// crash-equivalence class.
        class: Option<u64>,
        /// The operation at that index — node, kind and path (e.g.
        /// `fsync "seg-000001.ickd"`). Empty if unknown.
        op: String,
        /// What went wrong.
        what: String,
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::Baseline(what) => write!(f, "baseline run failed: {what}"),
            MatrixError::Invariant { fault, at, class, op, what } => {
                write!(f, "{fault} at op {at}")?;
                if !op.is_empty() {
                    write!(f, " ({op})")?;
                }
                if let Some(rep) = class {
                    write!(f, ", class at op {rep}")?;
                }
                write!(f, ": {what}")
            }
        }
    }
}

impl Error for MatrixError {}

/// Sweep options for [`crash_matrix`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatrixOptions {
    /// Replay every crash index. By default only the first and last
    /// member of each crash-equivalence class are replayed, and the other
    /// members inherit their verdict.
    pub full: bool,
}

/// The driver's channel for client acknowledgements: one call both
/// counts the acknowledgement and, in the traced baseline, logs it as a
/// [`TraceEvent::ClientAck`] marker at its position in the op stream.
#[derive(Debug, Default)]
pub struct Acks {
    records: u64,
    log: Option<TraceLog>,
}

impl Acks {
    /// Reports that `records` checkpoint records (cumulative) are now
    /// acknowledged to the client. A watermark that does not advance is
    /// ignored.
    pub fn ack(&mut self, records: u64) {
        if records > self.records {
            self.records = records;
            if let Some(log) = &self.log {
                log.client_ack(records);
            }
        }
    }

    /// Records acknowledged so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The log a traced run records every operation into.
    pub fn log(&self) -> Option<&TraceLog> {
        self.log.as_ref()
    }
}

/// One node's disk after a run.
#[derive(Debug)]
pub struct NodeDisk {
    /// Which node.
    pub node: TraceNode,
    /// What the rebooted node finds: volatile state is gone if it died.
    pub disk: MemFs,
    /// Whether the run killed this node.
    pub dead: bool,
}

/// Everything observable after one run of a workload on a topology.
#[derive(Debug)]
pub struct Run {
    /// What the driver returned.
    pub result: Result<(), String>,
    /// Records acknowledged to the client when the run ended.
    pub acked: u64,
    /// The faulted operation — node, kind and path — if a fault fired.
    pub faulted: Option<String>,
    /// Every node's disk, in the topology's node order. The last live
    /// node (or, if none lives, the last node) carries on.
    pub nodes: Vec<NodeDisk>,
}

/// What recovery established after one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Records acknowledged to the client when the fault hit.
    pub acked: u64,
    /// The node the fault killed, if any.
    pub dead: Option<TraceNode>,
    /// Records each node's disk recovered on reboot, in node order.
    pub recovered: Vec<usize>,
    /// Records on the node that carries on.
    pub survivor: usize,
}

/// What a topology's extra fault scenario must do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The fault is invisible: the run completes, every record is
    /// acknowledged, and every node holds them all.
    Masked,
    /// The run fails with an error containing this text, kills no node,
    /// and the last node carries on.
    FailsWith(&'static str),
}

/// One extra fault scenario a topology sweeps after the kill matrix.
#[derive(Debug, Clone)]
pub struct Scenario<P> {
    /// The fault's name, for reports and failures.
    pub fault: &'static str,
    /// The operation index it is aimed at.
    pub at: u64,
    /// The plan that injects it.
    pub plan: P,
    /// What the run must do.
    pub expect: Expect,
}

/// A storage system [`crash_matrix`] can drive: how to run a workload on
/// fresh fault-injectable disks, and what its recovery must promise.
pub trait Topology {
    /// What the driver writes through.
    type Handle<'a>;
    /// A fault schedule for one run.
    type Plan;

    /// The store configuration every node uses.
    fn durable(&self) -> DurableConfig;

    /// `true` if the node that carries on must recover exactly the
    /// acknowledged prefix; `false` if it may hold more.
    fn exact(&self) -> bool;

    /// Records per batch when the node that carries on finishes the
    /// workload.
    fn batch_records(&self) -> usize;

    /// A plan that crashes every layer at operation `k` (whichever owns
    /// it fires), or injects nothing for `None`.
    fn kill(&self, k: Option<u64>) -> Self::Plan;

    /// Extra scenarios to sweep after the kill matrix, aimed at the
    /// operations of the baseline `trace`. None by default.
    fn scenarios(&self, trace: &OpTrace) -> Vec<Scenario<Self::Plan>> {
        let _ = trace;
        Vec::new()
    }

    /// Runs `drive` once on fresh disks under `plan`, numbering every
    /// layer's operations on `counter` and, if `acks` carries a log,
    /// recording them into it.
    fn run<D>(
        &self,
        registry: &ClassRegistry,
        plan: Self::Plan,
        counter: &OpCounter,
        acks: &mut Acks,
        drive: &mut D,
    ) -> Run
    where
        D: for<'a> FnMut(&mut Self::Handle<'a>, &mut Acks) -> DriveResult;
}

/// A lone [`DurableStore`] on a [`FailFs`]: recovery must return exactly
/// the acknowledged prefix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreTopology {
    /// The store's configuration.
    pub config: DurableConfig,
}

impl Topology for StoreTopology {
    type Handle<'a> = FailFs;
    type Plan = FaultPlan;

    fn durable(&self) -> DurableConfig {
        self.config
    }

    fn exact(&self) -> bool {
        true
    }

    fn batch_records(&self) -> usize {
        1
    }

    fn kill(&self, k: Option<u64>) -> FaultPlan {
        k.map_or(FaultPlan::none(), FaultPlan::crash_at)
    }

    fn run<D>(
        &self,
        _registry: &ClassRegistry,
        plan: FaultPlan,
        counter: &OpCounter,
        acks: &mut Acks,
        drive: &mut D,
    ) -> Run
    where
        D: for<'a> FnMut(&mut FailFs, &mut Acks) -> DriveResult,
    {
        let mut fs = FailFs::with_counter(MemFs::new(), plan, counter.clone());
        if let Some(log) = acks.log() {
            fs.set_trace(log.clone(), TraceNode::Local);
        }
        let result = drive(&mut fs, acks).map_err(|e| e.to_string());
        let faulted = fs.faulted_op().map(|(_, op)| op);
        let dead = fs.crashed();
        Run {
            result,
            acked: acks.records(),
            faulted,
            nodes: vec![NodeDisk { node: TraceNode::Local, disk: fs.into_recovered(), dead }],
        }
    }
}

/// What a crash-matrix sweep established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixReport {
    /// Mutating operations in the fault-free run — every node's I/O plus
    /// wire sends — and hence the number of crash points.
    pub total_ops: u64,
    /// Checkpoint records in the workload.
    pub records: usize,
    /// For each crash point, what recovery established. In a pruned
    /// sweep, members of a class inherit the verdict of its replayed
    /// ends.
    pub verdicts: Vec<Verdict>,
    /// Crash-equivalence classes in the baseline trace.
    pub classes: usize,
    /// Crash replays executed.
    pub replays: usize,
    /// Wire sends in the baseline (0 for a lone store).
    pub transport_ops: usize,
    /// Topology scenarios proven invisible.
    pub masked_faults: usize,
    /// Topology scenarios proven to fail cleanly and then carry on.
    pub clean_failures: usize,
    /// Faults after which the node that carried on held records beyond
    /// the acknowledged prefix (an acknowledgement still in flight).
    pub promoted_extra: usize,
    /// The traced fault-free baseline, client-ack markers included.
    pub trace: OpTrace,
}

impl MatrixReport {
    /// The acknowledged record count at each crash point.
    pub fn acked(&self) -> Vec<u64> {
        self.verdicts.iter().map(|v| v.acked).collect()
    }
}

/// Sweeps the crash matrix of a workload on `topology`.
///
/// `drive` must rebuild the identical deterministic workload on every
/// call, writing through the handle it is given and reporting every
/// client acknowledgement through [`Acks::ack`]. `expected` is the
/// record sequence of a fault-free run; the baseline must reproduce it
/// on every node, and every recovery is held to a byte-identical prefix
/// of it. `verify_state(n, restored)` is called after each recovery of
/// `n > 0` records; it should compare `restored` against the caller's
/// snapshot of the program state at checkpoint `n - 1` (e.g. via
/// [`verify_restore`](ickp_core::verify_restore)) and return a mismatch
/// description, or `None` if the states agree.
///
/// # Errors
///
/// [`MatrixError::Baseline`] if the fault-free run fails or diverges;
/// [`MatrixError::Invariant`] naming the fault, its op index and (for a
/// crash) its class if any replay breaks an invariant.
pub fn crash_matrix<T, D, V>(
    topology: &T,
    registry: &ClassRegistry,
    expected: &[CheckpointRecord],
    options: MatrixOptions,
    mut drive: D,
    mut verify_state: V,
) -> Result<MatrixReport, MatrixError>
where
    T: Topology,
    D: for<'a> FnMut(&mut T::Handle<'a>, &mut Acks) -> DriveResult,
    V: FnMut(usize, &RestoredHeap) -> Option<String>,
{
    let check = Check {
        exact: topology.exact(),
        batch: topology.batch_records(),
        config: topology.durable(),
        registry,
        expected,
    };

    // Traced fault-free baseline: size the op space, place the ack
    // markers, and prove every node ends with the whole workload.
    let (counter, log) = (OpCounter::new(), TraceLog::new());
    let mut acks = Acks { records: 0, log: Some(log.clone()) };
    let baseline = topology.run(registry, topology.kill(None), &counter, &mut acks, &mut drive);
    let trace = log.snapshot(&counter);
    check.complete(baseline).map_err(MatrixError::Baseline)?;
    let total_ops = trace.counted;
    let classes = crash_classes(&trace);

    // The kill matrix, one class at a time.
    let mut verdicts: Vec<Option<Verdict>> = vec![None; total_ops as usize];
    let mut replays = 0usize;
    for class in &classes {
        let first = class.representative;
        let last = *class.indices.last().unwrap_or(&first);
        let sweep = if options.full {
            class.indices.clone()
        } else if last == first {
            vec![first]
        } else {
            vec![first, last]
        };
        for k in sweep {
            let run = topology.run(
                registry,
                topology.kill(Some(k)),
                &OpCounter::new(),
                &mut Acks::default(),
                &mut drive,
            );
            let op = run.faulted.clone().unwrap_or_default();
            let fail = |what: String| MatrixError::Invariant {
                fault: "crash",
                at: k,
                class: Some(first),
                op: op.clone(),
                what,
            };
            let dead = run.nodes.iter().filter(|n| n.dead).count();
            match (&run.result, dead) {
                (Ok(()), _) => return Err(fail("crash point was never reached".into())),
                (Err(e), 0) => {
                    return Err(fail(format!("run errored without the crash firing: {e}")))
                }
                (Err(e), 2..) => return Err(fail(format!("{dead} nodes died at one op: {e}"))),
                (Err(_), _) => {}
            }
            let verdict =
                check.settle(run, Some(class.recovers_to), &mut verify_state).map_err(fail)?;
            verdicts[k as usize] = Some(verdict);
            replays += 1;
        }
        if !options.full {
            let verdict = verdicts[first as usize].clone();
            if verdicts[last as usize] != verdict {
                return Err(MatrixError::Invariant {
                    fault: "crash",
                    at: last,
                    class: Some(first),
                    op: String::new(),
                    what: format!(
                        "class members disagree: op {first} gives {verdict:?}, op {last} gives {:?}",
                        verdicts[last as usize]
                    ),
                });
            }
            for &k in &class.indices {
                verdicts[k as usize] = verdict.clone();
            }
        }
    }
    let verdicts = verdicts
        .into_iter()
        .enumerate()
        .map(|(k, v)| v.ok_or_else(|| MatrixError::Baseline(format!("op {k} is not traced"))))
        .collect::<Result<Vec<_>, _>>()?;
    let mut promoted_extra = verdicts.iter().filter(|v| v.survivor as u64 > v.acked).count();

    // The topology's own scenarios.
    let mut masked_faults = 0usize;
    let mut clean_failures = 0usize;
    for scenario in topology.scenarios(&trace) {
        let run = topology.run(
            registry,
            scenario.plan,
            &OpCounter::new(),
            &mut Acks::default(),
            &mut drive,
        );
        let op = run.faulted.clone().unwrap_or_default();
        let fault = scenario.fault;
        let fail =
            |what: String| MatrixError::Invariant { fault, at: scenario.at, class: None, op, what };
        match scenario.expect {
            Expect::Masked => {
                check.complete(run).map_err(|e| fail(format!("fault was not masked: {e}")))?;
                masked_faults += 1;
            }
            Expect::FailsWith(needle) => {
                let outcome = match &run.result {
                    Ok(()) => Err(format!("{fault} was silently masked")),
                    Err(_) if run.nodes.iter().any(|n| n.dead) => {
                        Err(format!("{fault} must not kill a node"))
                    }
                    Err(e) if !e.contains(needle) => {
                        Err(format!("expected a `{needle}` failure, got: {e}"))
                    }
                    Err(_) => check.settle(run, None, &mut verify_state),
                };
                let verdict = outcome.map_err(fail)?;
                promoted_extra += usize::from(verdict.survivor as u64 > verdict.acked);
                clean_failures += 1;
            }
        }
    }

    let transport_ops = trace
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Op { op: TraceOp::WireSend | TraceOp::WireAck, .. }))
        .count();
    Ok(MatrixReport {
        total_ops,
        records: expected.len(),
        verdicts,
        classes: classes.len(),
        replays,
        transport_ops,
        masked_faults,
        clean_failures,
        promoted_extra,
        trace,
    })
}

/// The recovery checks shared by every fault.
struct Check<'r> {
    exact: bool,
    batch: usize,
    config: DurableConfig,
    registry: &'r ClassRegistry,
    expected: &'r [CheckpointRecord],
}

impl Check<'_> {
    /// A run that must have completed: every record acknowledged and on
    /// every node.
    fn complete(&self, mut run: Run) -> Result<(), String> {
        run.result.map_err(|e| format!("run failed: {e}"))?;
        let want = self.expected.len();
        if run.acked != want as u64 {
            return Err(format!("acknowledged {} of {want} records", run.acked));
        }
        for n in &mut run.nodes {
            let recovered = self.reboot(&mut n.disk).map_err(|e| format!("{}: {e}", n.node))?;
            if recovered.len() != want {
                return Err(format!("{} holds {} of {want} records", n.node, recovered.len()));
            }
        }
        Ok(())
    }

    /// Reboots every node after a fault and holds the node that carries
    /// on to `recovers_to`, then to the acknowledged prefix; restores it,
    /// finishes the workload on it and reopens it once more.
    fn settle(
        &self,
        mut run: Run,
        recovers_to: Option<u64>,
        verify_state: &mut dyn FnMut(usize, &RestoredHeap) -> Option<String>,
    ) -> Result<Verdict, String> {
        let mut stores = Vec::with_capacity(run.nodes.len());
        for n in &mut run.nodes {
            let (_, recovered) = DurableStore::open(&mut n.disk, self.config, self.registry)
                .map_err(|e| format!("{} recovery failed: {e}", n.node))?;
            stores.push(recovered);
        }
        let recovered: Vec<usize> = stores.iter().map(CheckpointStore::len).collect();
        let s = run.nodes.iter().rposition(|n| !n.dead).unwrap_or(run.nodes.len() - 1);
        let (node, survivor) = (run.nodes[s].node, recovered[s]);
        let bound = if self.exact { "exactly" } else { "at least" };
        let short = |want: u64| survivor as u64 != want && (self.exact || (survivor as u64) < want);

        if let Some(want) = recovers_to.filter(|&want| short(want)) {
            return Err(format!(
                "{node} recovered {survivor} record(s) where the class's static verdict is \
                 {bound} {want}"
            ));
        }
        for (n, store) in run.nodes.iter().zip(&stores) {
            self.prefix(store).map_err(|e| format!("{}: {e}", n.node))?;
        }
        if short(run.acked) {
            return Err(format!(
                "{node} recovered {survivor} records but {} were acknowledged to the client",
                run.acked
            ));
        }
        if survivor > 0 {
            let rebuilt = restore(&stores[s], self.registry, RestorePolicy::Lenient)
                .map_err(|e| format!("restore of {node} failed: {e}"))?;
            if let Some(mismatch) = verify_state(survivor, &rebuilt) {
                return Err(format!("{node} state diverges: {mismatch}"));
            }
        }

        // Carry on: finish the workload and reopen cleanly.
        let disk = &mut run.nodes[s].disk;
        let (mut store, _) = DurableStore::open(&mut *disk, self.config, self.registry)
            .map_err(|e| format!("{node} reopen failed: {e}"))?;
        for batch in self.expected[survivor..].chunks(self.batch.max(1)) {
            store.append_batch(batch).map_err(|e| format!("post-recovery append failed: {e}"))?;
        }
        drop(store);
        let full = self.reboot(disk).map_err(|e| format!("post-recovery reopen: {e}"))?;
        if full.len() != self.expected.len() {
            return Err(format!(
                "{node} finished with {} of {} records",
                full.len(),
                self.expected.len()
            ));
        }

        let dead = run.nodes.iter().find(|n| n.dead).map(|n| n.node);
        Ok(Verdict { acked: run.acked, dead, recovered, survivor })
    }

    /// Opens `disk` and holds it to a byte-identical prefix of the
    /// expected records.
    fn reboot(&self, disk: &mut MemFs) -> Result<CheckpointStore, String> {
        let (_, recovered) = DurableStore::open(disk, self.config, self.registry)
            .map_err(|e| format!("recovery failed: {e}"))?;
        self.prefix(&recovered)?;
        Ok(recovered)
    }

    fn prefix(&self, recovered: &CheckpointStore) -> Result<(), String> {
        if recovered.len() > self.expected.len() {
            return Err(format!(
                "recovered {} records, the workload has only {}",
                recovered.len(),
                self.expected.len()
            ));
        }
        for (want, got) in self.expected.iter().zip(recovered.records()) {
            if want.seq() != got.seq() {
                return Err(format!(
                    "recovered seq {} where {} was written",
                    got.seq(),
                    want.seq()
                ));
            }
            if want.bytes() != got.bytes() {
                return Err(format!(
                    "record seq {} diverges from the expected workload",
                    got.seq()
                ));
            }
        }
        Ok(())
    }
}

/// Re-marks as modified every object that `record` captured and that is
/// still live in `heap`, returning how many were re-marked.
///
/// This is the journal-repair step after a failed durable append: the
/// in-heap dirty-set journal was cleared when the checkpoint was *taken*,
/// but the checkpoint never reached stable storage. Re-dirtying the
/// captured objects makes the next checkpoint record them again, so the
/// durable log never silently loses an update.
///
/// # Errors
///
/// [`CoreError::Decode`] (and friends) if `record` does not decode
/// against the heap's registry.
pub fn redirty_record(heap: &mut Heap, record: &CheckpointRecord) -> Result<usize, CoreError> {
    let decoded = decode(record.bytes(), heap.registry())?;
    let by_stable: HashMap<_, _> = heap
        .iter_live()
        .map(|id| heap.stable_id(id).map(|stable| (stable, id)))
        .collect::<Result<_, _>>()?;
    let mut remarked = 0;
    for object in &decoded.objects {
        if let Some(&id) = by_stable.get(&object.stable) {
            heap.set_modified(id)?;
            remarked += 1;
        }
    }
    Ok(remarked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ickp_core::{verify_restore, CheckpointConfig, Checkpointer, MethodTable};
    use ickp_heap::{FieldType, ObjectId, Value};

    type HeapSnapshot = (Heap, Vec<ObjectId>);

    /// A tiny workload with per-checkpoint heap snapshots.
    fn workload(n: usize) -> (ClassRegistry, Vec<HeapSnapshot>, Vec<CheckpointRecord>) {
        let mut reg = ClassRegistry::new();
        let node = reg
            .define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])
            .unwrap();
        let mut heap = Heap::new(reg);
        let tail = heap.alloc(node).unwrap();
        let head = heap.alloc(node).unwrap();
        heap.set_field(head, 1, Value::Ref(Some(tail))).unwrap();
        let table = MethodTable::derive(heap.registry());
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
        let registry = heap.registry().clone();
        let mut states = Vec::new();
        let mut records = Vec::new();
        for i in 0..n {
            heap.set_field(tail, 0, Value::Int(i as i32)).unwrap();
            records.push(ckp.checkpoint(&mut heap, &table, &[head]).unwrap());
            states.push((heap.clone(), vec![head]));
        }
        (registry, states, records)
    }

    /// Appends `records` one by one, acknowledging each after its commit.
    fn append_each(
        config: DurableConfig,
        records: &[CheckpointRecord],
    ) -> impl FnMut(&mut FailFs, &mut Acks) -> DriveResult + '_ {
        move |fs, acks| {
            let mut store = DurableStore::create(fs, config)?;
            for (i, record) in records.iter().enumerate() {
                store.append(record)?;
                acks.ack(i as u64 + 1);
            }
            Ok(())
        }
    }

    fn verify(states: &[HeapSnapshot]) -> impl FnMut(usize, &RestoredHeap) -> Option<String> + '_ {
        |acked, restored| {
            let (heap, roots) = &states[acked - 1];
            verify_restore(heap, roots, restored).expect("verify runs")
        }
    }

    #[test]
    fn every_crash_point_recovers_the_acked_prefix() {
        let (registry, states, records) = workload(4);
        let store = StoreTopology { config: DurableConfig { segment_target_bytes: 64 } };
        let report = crash_matrix(
            &store,
            &registry,
            &records,
            MatrixOptions::default(),
            append_each(store.config, &records),
            verify(&states),
        )
        .unwrap();
        assert_eq!(report.records, 4);
        assert!(report.total_ops >= 24, "4 appends are at least 24 ops");
        let acked = report.acked();
        assert_eq!(acked.len(), report.total_ops as usize);
        // Acked counts are monotone in the crash index and span 0..=3.
        assert_eq!(*acked.first().unwrap(), 0);
        assert_eq!(*acked.last().unwrap(), records.len() as u64 - 1);
        assert!(acked.windows(2).all(|w| w[0] <= w[1]));
        assert!(report.verdicts.iter().all(|v| v.dead == Some(TraceNode::Local)));
        assert_eq!(report.transport_ops + report.masked_faults + report.clean_failures, 0);
    }

    /// The store's pruned ≡ full proof: replaying every index gives each
    /// point exactly the verdict the pruned sweep lets it inherit.
    #[test]
    fn pruned_matrix_matches_the_full_matrix() {
        let (registry, states, records) = workload(4);
        let store = StoreTopology { config: DurableConfig { segment_target_bytes: 64 } };
        let sweep = |full| {
            crash_matrix(
                &store,
                &registry,
                &records,
                MatrixOptions { full },
                append_each(store.config, &records),
                verify(&states),
            )
            .unwrap()
        };
        let (full, pruned) = (sweep(true), sweep(false));
        assert_eq!(pruned.verdicts, full.verdicts, "pruned verdicts must equal the full matrix");
        assert_eq!(pruned.total_ops, full.total_ops);
        assert_eq!(pruned.classes, full.classes);
        assert_eq!(full.replays as u64, full.total_ops);
        assert!(pruned.replays <= 2 * pruned.classes);
        assert!((pruned.replays as u64) < pruned.total_ops, "commits have equivalent crash points");
    }

    /// The static-verdict check: a driver that acknowledges a record
    /// before its append commits is caught at a crash inside that append,
    /// and the failure names the crash index and its class.
    #[test]
    fn an_ack_before_the_commit_is_rejected_with_its_class() {
        let (registry, _, records) = workload(3);
        let store = StoreTopology { config: DurableConfig::default() };
        let err = crash_matrix(
            &store,
            &registry,
            &records,
            MatrixOptions::default(),
            |fs, acks| {
                let mut store = DurableStore::create(fs, store.config)?;
                for (i, record) in records.iter().enumerate() {
                    acks.ack(i as u64 + 1);
                    store.append(record)?;
                }
                Ok(())
            },
            |_, _| None,
        )
        .unwrap_err();
        let MatrixError::Invariant { fault, at, class: Some(class), ref what, .. } = err else {
            panic!("expected a crash-point failure, got: {err}");
        };
        assert_eq!(fault, "crash");
        assert!(class <= at, "class {class} must contain op {at}");
        assert!(what.contains("static verdict is exactly 1"), "{what}");
        let shown = err.to_string();
        assert!(
            shown.contains(&format!("crash at op {at}"))
                && shown.contains(&format!("class at op {class}")),
            "failure must name the crash index and the class: {shown}"
        );
    }

    #[test]
    fn invariant_failures_name_the_op_kind_and_path() {
        let (registry, _, records) = workload(2);
        let store = StoreTopology::default();
        let err = crash_matrix(
            &store,
            &registry,
            &records,
            MatrixOptions::default(),
            append_each(store.config, &records),
            |_, _| Some("deliberate mismatch".into()),
        )
        .unwrap_err();
        let MatrixError::Invariant { ref op, ref what, .. } = err else {
            panic!("expected an invariant failure, got: {err}");
        };
        assert!(!op.is_empty(), "faulted op description missing: {err}");
        assert!(what.contains("deliberate"), "unexpected error: {err}");
        let shown = err.to_string();
        // The failing index is a store op: kind and quoted path, not just
        // a bare counter value.
        assert!(shown.contains('(') && shown.contains('"'), "weak failure output: {shown}");
    }

    #[test]
    fn redirty_marks_exactly_the_recorded_live_objects() {
        let (_, states, records) = workload(3);
        let (heap, _) = &states[2];
        let mut heap = heap.clone();
        // After a checkpoint, nothing is modified.
        let dirty_before: Vec<_> =
            heap.iter_live().filter(|&id| heap.is_modified(id).unwrap()).collect();
        assert!(dirty_before.is_empty());
        // Replaying the last record's objects marks them again.
        let remarked = redirty_record(&mut heap, &records[2]).unwrap();
        assert!(remarked > 0);
        let dirty_after = heap.iter_live().filter(|&id| heap.is_modified(id).unwrap()).count();
        assert_eq!(dirty_after, remarked);
    }
}
