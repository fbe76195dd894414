//! The replica-pair topology of the crash matrix.
//!
//! [`PairTopology`] plugs a [`ReplicaPair`] into
//! [`ickp_durable::crash_matrix`]: two [`FailFs`] disks and a
//! [`ChannelTransport`] share one [`OpCounter`], so every mutating I/O
//! operation on either node and every wire send is numbered in one
//! interleaved fault space. The matrix then sweeps:
//!
//! * **Kills** — at every operation k, all three layers are armed with a
//!   crash at k and exactly one (whichever owns k) fires. Both nodes
//!   reboot from their surviving disks and must each hold a
//!   byte-identical prefix of the workload. The survivor must hold **at
//!   least the acknowledged prefix** (an acknowledged record is never
//!   lost), restore cleanly, and finish the workload as the promoted
//!   primary.
//! * **Masked faults** — loss, duplication or reordering at any wire
//!   operation must be invisible: the run completes and both nodes
//!   finish byte-identical to the workload.
//! * **Partitions** — a partition at any wire operation must surface as
//!   [`ReplicateError::NotReplicated`] with neither node dead, and the
//!   follower must still promote and finish.
//!
//! The survivor may legitimately hold *more* than the acknowledged
//! prefix: a batch can be durable on both nodes while the final
//! acknowledgement was still in flight when the fault hit (the
//! two-generals window). The matrix counts these in
//! `MatrixReport::promoted_extra`.
//!
//! Workloads driven through the matrix must be append/tag-shaped
//! (retention generation 0): after promotion the survivor finishes the
//! *record* workload. Rewrite-heavy lifecycle workloads run their own
//! sweeps on [`PairTopology::run_once`] (see the crate's integration
//! tests).
//!
//! [`ReplicateError::NotReplicated`]: crate::pair::ReplicateError::NotReplicated

use ickp_durable::{
    Acks, DriveResult, DurableConfig, Expect, FailFs, FaultPlan, MemFs, NodeDisk, OpCounter,
    OpTrace, Run, Scenario, Topology, TraceEvent, TraceLog, TraceNode, TraceOp,
};
use ickp_heap::ClassRegistry;

use crate::pair::{ReplicaPair, ReplicateConfig};
use crate::transport::{ChannelTransport, Node, TransportFault, TransportPlan};

/// The fault-injectable pair a [`PairTopology`] driver writes through.
pub type MatrixPair<'a> = ReplicaPair<&'a mut FailFs, &'a mut FailFs, &'a mut ChannelTransport>;

/// Fault plans for the three layers of one pair run, all indexed in the
/// shared op space.
#[derive(Debug, Clone, Default)]
pub struct PairFaults {
    /// The primary's filesystem.
    pub primary: FaultPlan,
    /// The follower's filesystem.
    pub follower: FaultPlan,
    /// The link between them.
    pub wire: TransportPlan,
}

impl PairFaults {
    /// Every layer armed to crash at op `k`: whichever owns it fires.
    pub fn kill_at(k: u64) -> PairFaults {
        PairFaults {
            primary: FaultPlan::crash_at(k),
            follower: FaultPlan::crash_at(k),
            wire: TransportPlan::fault_at(k, TransportFault::Crash),
        }
    }

    /// Only the link faulted.
    pub fn wire(plan: TransportPlan) -> PairFaults {
        PairFaults { wire: plan, ..PairFaults::default() }
    }
}

/// A [`ReplicaPair`] over two [`FailFs`] disks and a
/// [`ChannelTransport`] sharing one [`OpCounter`]: the survivor of any
/// fault must hold at least the acknowledged prefix.
#[derive(Debug, Clone, Copy)]
pub struct PairTopology {
    /// The pair's configuration.
    pub config: ReplicateConfig,
}

impl PairTopology {
    /// One run of `drive` over a fresh pair under `faults`, with both
    /// disks and the link numbering their operations on `counter` and,
    /// given a `log`, tracing them into it.
    ///
    /// The returned nodes are the primary's and then the follower's disk,
    /// as a rebooted node finds it: a node killed at the wire (not by its
    /// own disk) still loses its volatile filesystem state — the process
    /// died, not the link. `acked` is the pair's client-acknowledged
    /// record count when the drive returned.
    pub fn run_once<D>(
        &self,
        registry: &ClassRegistry,
        faults: PairFaults,
        counter: &OpCounter,
        log: Option<&TraceLog>,
        drive: D,
    ) -> Run
    where
        D: FnOnce(&mut MatrixPair<'_>) -> DriveResult,
    {
        let mut pfs = FailFs::with_counter(MemFs::new(), faults.primary, counter.clone());
        let mut ffs = FailFs::with_counter(MemFs::new(), faults.follower, counter.clone());
        let mut link = ChannelTransport::with_counter(faults.wire, counter.clone());
        if let Some(log) = log {
            pfs.set_trace(log.clone(), TraceNode::Primary);
            ffs.set_trace(log.clone(), TraceNode::Follower);
            link.set_trace(log.clone());
        }
        let mut acked = 0u64;
        let result = match ReplicaPair::create(&mut pfs, &mut ffs, &mut link, self.config, registry)
        {
            Err(e) => Err(e.to_string()),
            Ok(mut pair) => {
                let r = drive(&mut pair).map_err(|e| e.to_string());
                acked = pair.acked_records();
                r
            }
        };
        // The wire op description already names its direction; disk ops
        // get their node prepended.
        let faulted = pfs
            .faulted_op()
            .map(|(_, op)| format!("primary {op}"))
            .or_else(|| ffs.faulted_op().map(|(_, op)| format!("follower {op}")))
            .or_else(|| link.faulted_op().map(|(_, op)| op));
        let killed_by_wire = link.crashed_node();
        let nodes =
            [(TraceNode::Primary, Node::Primary, pfs), (TraceNode::Follower, Node::Follower, ffs)]
                .map(|(node, wire_node, fs)| {
                    let dead = fs.crashed() || killed_by_wire == Some(wire_node);
                    let mut disk = fs.into_recovered();
                    if killed_by_wire == Some(wire_node) {
                        disk.crash();
                    }
                    NodeDisk { node, disk, dead }
                });
        Run { result, acked, faulted, nodes: nodes.into() }
    }
}

impl Topology for PairTopology {
    type Handle<'a> = MatrixPair<'a>;
    type Plan = PairFaults;

    fn durable(&self) -> DurableConfig {
        self.config.durable
    }

    fn exact(&self) -> bool {
        false
    }

    fn batch_records(&self) -> usize {
        self.config.batch_records
    }

    fn kill(&self, k: Option<u64>) -> PairFaults {
        k.map_or_else(PairFaults::default, PairFaults::kill_at)
    }

    /// Loss, duplication and reordering at every wire op (masked), then
    /// a partition at every wire op (fails with `unacknowledged`).
    fn scenarios(&self, trace: &OpTrace) -> Vec<Scenario<PairFaults>> {
        let wire_ops: Vec<u64> = trace
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Op { index, op: TraceOp::WireSend | TraceOp::WireAck, .. } => {
                    Some(*index)
                }
                _ => None,
            })
            .collect();
        let masked = wire_ops.iter().flat_map(|&at| {
            [
                ("loss", TransportFault::Loss),
                ("duplicate", TransportFault::Duplicate),
                ("reorder", TransportFault::Reorder),
            ]
            .map(|(fault, kind)| Scenario {
                fault,
                at,
                plan: PairFaults::wire(TransportPlan::fault_at(at, kind)),
                expect: Expect::Masked,
            })
        });
        let partitions = wire_ops.iter().map(|&at| Scenario {
            fault: "partition",
            at,
            plan: PairFaults::wire(TransportPlan::fault_at(at, TransportFault::Partition)),
            expect: Expect::FailsWith("unacknowledged"),
        });
        masked.chain(partitions).collect()
    }

    fn run<D>(
        &self,
        registry: &ClassRegistry,
        plan: PairFaults,
        counter: &OpCounter,
        acks: &mut Acks,
        drive: &mut D,
    ) -> Run
    where
        D: for<'a> FnMut(&mut MatrixPair<'a>, &mut Acks) -> DriveResult,
    {
        let log = acks.log().cloned();
        let mut run = self.run_once(registry, plan, counter, log.as_ref(), |pair| {
            let r = drive(pair, acks);
            acks.ack(pair.acked_records());
            r
        });
        run.acked = run.acked.max(acks.records());
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ickp_core::{
        verify_restore, CheckpointConfig, CheckpointRecord, Checkpointer, MethodTable,
    };
    use ickp_durable::{crash_matrix, MatrixError, MatrixOptions};
    use ickp_heap::{FieldType, Heap, ObjectId, Value};

    type HeapSnapshot = (Heap, Vec<ObjectId>);

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

    /// Appends every record, then commits the partial final batch.
    fn append_all(
        records: &[CheckpointRecord],
    ) -> impl FnMut(&mut MatrixPair<'_>, &mut Acks) -> DriveResult + '_ {
        move |pair, acks| {
            for record in records {
                pair.append(record.clone())?;
                acks.ack(pair.acked_records());
            }
            pair.commit()?;
            acks.ack(pair.acked_records());
            Ok(())
        }
    }

    #[test]
    fn failover_matrix_passes_for_a_small_workload() {
        let (registry, states, records) = workload(4);
        let pair = PairTopology {
            config: ReplicateConfig {
                durable: DurableConfig { segment_target_bytes: 64 },
                batch_records: 2,
                ..ReplicateConfig::default()
            },
        };
        let report = crash_matrix(
            &pair,
            &registry,
            &records,
            MatrixOptions::default(),
            append_all(&records),
            |n, restored| {
                let (heap, roots) = &states[n - 1];
                verify_restore(heap, roots, restored).expect("verify runs")
            },
        )
        .unwrap();
        assert_eq!(report.records, 4);
        assert!(report.transport_ops >= 4, "2 batches = at least 2 sends + 2 acks");
        assert_eq!(report.verdicts.len() as u64, report.total_ops);
        assert_eq!(report.masked_faults, report.transport_ops * 3);
        assert_eq!(report.clean_failures, report.transport_ops);
        assert!(
            report.promoted_extra > 0,
            "some kill window must catch a replicated-but-unacked batch"
        );
    }

    #[test]
    fn a_divergent_state_check_names_the_scenario() {
        let (registry, _, records) = workload(2);
        let pair = PairTopology { config: ReplicateConfig::default() };
        let err = crash_matrix(
            &pair,
            &registry,
            &records,
            MatrixOptions::default(),
            append_all(&records),
            |_, _| Some("deliberate mismatch".into()),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                MatrixError::Invariant { ref what, ref op, .. }
                    if what.contains("deliberate") && !op.is_empty()
            ),
            "unexpected error: {err}"
        );
    }
}
