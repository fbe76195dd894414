//! The PR 6 sixteen-step lifecycle workload, replicated: appends, tags,
//! a policy-driven retention merge and a tag reset all flow through a
//! [`ReplicaPair`], and a kill is injected at **every** interleaved
//! fs/wire operation of the two-node system.
//!
//! The invariants extend the single-node lifecycle matrix to the
//! standby:
//!
//! * Each node recovers to the image of an *acknowledged* step (the one
//!   before or the one in flight) — never a torn hybrid.
//! * The follower never observes a dangling tag: every recovered tag on
//!   either node names a recovered checkpoint.
//! * The follower never observes a half-applied rewrite: a retention
//!   merge or reset is entirely present or entirely absent.
//! * Whatever survives still restores.

use ickp_core::{
    merge_records, restore, CheckpointConfig, CheckpointRecord, Checkpointer, MethodTable,
    RestorePolicy,
};
use ickp_durable::{DurableConfig, DurableStore, MemFs, NodeDisk, OpCounter};
use ickp_heap::{ClassRegistry, FieldType, Heap, Value};
use ickp_lifecycle::RetentionPolicy;
use ickp_replicate::{MatrixPair, PairFaults, PairTopology, ReplicateConfig};

fn config() -> ReplicateConfig {
    ReplicateConfig {
        durable: DurableConfig { segment_target_bytes: 256 },
        batch_records: 2,
        max_retries: 3,
        dedup: true,
    }
}

/// The logical content of a store: what must survive a kill exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Image {
    records: Vec<(u64, Vec<u8>)>,
    tags: Vec<(String, u64)>,
}

impl Image {
    fn of_disk(disk: &mut MemFs, registry: &ClassRegistry) -> Option<Image> {
        let (store, recovered) = DurableStore::open(&mut *disk, config().durable, registry).ok()?;
        Some(Image {
            records: recovered.records().iter().map(|r| (r.seq(), r.bytes().to_vec())).collect(),
            tags: store.tags().to_vec(),
        })
    }
}

/// Nine checkpoints over a five-node list, plus the seq-3 record the
/// script appends after resetting to the "alpha" tag (same shape as the
/// single-node lifecycle matrix).
fn workload() -> (ClassRegistry, Vec<CheckpointRecord>, CheckpointRecord) {
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
            ],
        )
        .unwrap();
    let mut heap = Heap::new(reg);
    let nodes: Vec<_> = (0..5).map(|_| heap.alloc(node).unwrap()).collect();
    for w in nodes.windows(2) {
        heap.set_field(w[0], 1, Value::Ref(Some(w[1]))).unwrap();
    }
    let registry = heap.registry().clone();
    let table = MethodTable::derive(heap.registry());
    let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
    let mut records = Vec::new();
    for i in 0..9usize {
        heap.set_field(nodes[i % 5], 0, Value::Int(100 + i as i32)).unwrap();
        if i % 3 == 2 {
            heap.set_field(nodes[(i + 2) % 5], 0, Value::Int(i as i32)).unwrap();
        }
        records.push(ckp.checkpoint(&mut heap, &table, &[nodes[0]]).unwrap());
    }
    ckp.rollback(3);
    heap.set_field(nodes[0], 0, Value::Int(999)).unwrap();
    let post_reset = ckp.checkpoint(&mut heap, &table, &[nodes[0]]).unwrap();
    assert_eq!(post_reset.seq(), 3);
    (registry, records, post_reset)
}

const STEPS: usize = 16;

/// A driver-side mirror of the replicated chain, used to compute the
/// retention merge and the reset exactly as the lifecycle manager does.
struct Mirror {
    chain: Vec<CheckpointRecord>,
    tags: Vec<(String, u64)>,
}

impl Mirror {
    fn image(&self) -> Image {
        Image {
            records: self.chain.iter().map(|r| (r.seq(), r.bytes().to_vec())).collect(),
            tags: self.tags.clone(),
        }
    }

    fn add_tag(&mut self, label: &str, seq: u64) {
        self.tags.push((label.to_string(), seq));
        self.tags.sort_by(|a, b| a.0.cmp(&b.0));
    }
}

/// Applies lifecycle step `step` (1-based; step 0 is pair creation)
/// through the pair, keeping the mirror in lock-step.
fn apply_step(
    pair: &mut MatrixPair<'_>,
    mirror: &mut Mirror,
    step: usize,
    registry: &ClassRegistry,
    records: &[CheckpointRecord],
    post_reset: &CheckpointRecord,
) -> Result<(), String> {
    let err = |e: ickp_replicate::ReplicateError| e.to_string();
    match step {
        1..=3 => {
            let r = &records[step - 1]; // seqs 0,1,2
            pair.append(r.clone()).and_then(|()| pair.commit()).map_err(err)?;
            mirror.chain.push(r.clone());
        }
        4 => {
            pair.tag("alpha", 2).map_err(err)?; // alpha -> 2
            mirror.add_tag("alpha", 2);
        }
        5..=7 => {
            let r = &records[step - 2]; // seqs 3,4,5
            pair.append(r.clone()).and_then(|()| pair.commit()).map_err(err)?;
            mirror.chain.push(r.clone());
        }
        8 => {
            pair.tag("beta", 5).map_err(err)?; // beta -> 5
            mirror.add_tag("beta", 5);
        }
        9 | 10 => {
            let r = &records[step - 3]; // seqs 6,7
            pair.append(r.clone()).and_then(|()| pair.commit()).map_err(err)?;
            mirror.chain.push(r.clone());
        }
        11 => {
            // Retention maintenance: fold to budget 4, pinning the tags.
            let seqs: Vec<u64> = mirror.chain.iter().map(|r| r.seq()).collect();
            let pinned: Vec<u64> = mirror.tags.iter().map(|(_, s)| *s).collect();
            let plan = RetentionPolicy { budget: 4 }.plan(&seqs, &pinned);
            let mut merged = Vec::new();
            for group in &plan.groups {
                if group.len() == 1 {
                    merged.push(mirror.chain[group.start].clone());
                } else {
                    merged.push(
                        merge_records(&mirror.chain[group.clone()], registry)
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
            pair.rewrite(&merged, &mirror.tags).map_err(err)?;
            mirror.chain = merged;
        }
        12 => {
            pair.append(records[8].clone()).and_then(|()| pair.commit()).map_err(err)?; // seq 8
            mirror.chain.push(records[8].clone());
        }
        13 => {
            // reset_to("alpha"): cut the chain back to the tagged seq,
            // dropping tags that point past it.
            let cut: Vec<CheckpointRecord> =
                mirror.chain.iter().filter(|r| r.seq() <= 2).cloned().collect();
            let tags: Vec<(String, u64)> =
                mirror.tags.iter().filter(|(_, s)| *s <= 2).cloned().collect();
            pair.rewrite(&cut, &tags).map_err(err)?;
            mirror.chain = cut;
            mirror.tags = tags;
        }
        14 => {
            pair.append(post_reset.clone()).and_then(|()| pair.commit()).map_err(err)?; // seq 3
            mirror.chain.push(post_reset.clone());
        }
        15 => {
            pair.tag("final", 3).map_err(err)?;
            mirror.add_tag("final", 3);
        }
        _ => unreachable!("no step {step}"),
    }
    Ok(())
}

/// One run of the full script over fault-injectable nodes and link.
/// Returns per-acknowledged-step images and op-count boundaries, plus
/// what was left on both disks.
struct ScriptRun {
    images: Vec<Image>,
    bounds: Vec<u64>,
    primary_disk: MemFs,
    follower_disk: MemFs,
    crashed: bool,
}

fn run_script(
    registry: &ClassRegistry,
    records: &[CheckpointRecord],
    post_reset: &CheckpointRecord,
    faults: PairFaults,
) -> ScriptRun {
    let counter = OpCounter::new();
    let mut images = Vec::new();
    let mut bounds = Vec::new();
    let run =
        PairTopology { config: config() }.run_once(registry, faults, &counter, None, |pair| {
            let mut mirror = Mirror { chain: Vec::new(), tags: Vec::new() };
            images.push(mirror.image());
            bounds.push(counter.count());
            for step in 1..STEPS {
                apply_step(pair, &mut mirror, step, registry, records, post_reset)?;
                images.push(mirror.image());
                bounds.push(counter.count());
            }
            Ok(())
        });
    let crashed = run.nodes.iter().any(|n| n.dead);
    let [primary, follower]: [NodeDisk; 2] = run.nodes.try_into().expect("a pair has two nodes");
    ScriptRun { images, bounds, primary_disk: primary.disk, follower_disk: follower.disk, crashed }
}

#[test]
fn replicated_lifecycle_script_survives_every_kill_point() {
    let (registry, records, post_reset) = workload();

    // Fault-free baseline: every step acknowledges on both nodes and the
    // script has the shape the single-node matrix pinned.
    let mut baseline = run_script(&registry, &records, &post_reset, PairFaults::default());
    assert!(!baseline.crashed);
    assert_eq!(baseline.images.len(), STEPS, "baseline must acknowledge every step");
    let total_ops = *baseline.bounds.last().unwrap();
    assert!(total_ops >= 100, "two-node script too small to be interesting: {total_ops} ops");
    assert!(
        baseline.images[11].records.len() < baseline.images[10].records.len(),
        "maintain must fold records"
    );
    assert_eq!(
        baseline.images[13].records.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
        vec![2],
        "reset must cut the chain back to the tagged seq"
    );
    assert_eq!(baseline.images[13].tags, vec![("alpha".to_string(), 2)]);
    assert_eq!(baseline.images[15].tags, vec![("alpha".to_string(), 2), ("final".to_string(), 3)]);
    // Both baseline disks hold the final image.
    for disk in [&mut baseline.primary_disk, &mut baseline.follower_disk] {
        let image = Image::of_disk(disk, &registry).expect("baseline reopen");
        assert_eq!(&image, baseline.images.last().unwrap());
    }
    let images = baseline.images;
    let bounds = baseline.bounds;

    // The kill matrix: every interleaved fs/wire op of the composed
    // system, all three layers armed; whichever owns op k dies.
    for k in 0..total_ops {
        let out = run_script(&registry, &records, &post_reset, PairFaults::kill_at(k));
        assert!(out.crashed, "op {k} must kill a node");
        // Which lifecycle step was in flight.
        let step = bounds.iter().position(|&b| b > k).expect("k < total_ops");
        for (node, mut disk) in [("primary", out.primary_disk), ("follower", out.follower_disk)] {
            let Some(image) = Image::of_disk(&mut disk, &registry) else {
                // Only a kill before the first commit may leave no store.
                assert_eq!(step, 0, "kill at op {k} ({node}): store unopenable at step {step}");
                continue;
            };
            let pre = step > 0 && image == images[step - 1];
            let post = image == images[step];
            assert!(
                pre || post,
                "kill at op {k} ({node}, step {step}): torn store — \
                 {} records, tags {:?}",
                image.records.len(),
                image.tags
            );
            // No dangling tag on either node, ever.
            for (label, seq) in &image.tags {
                assert!(
                    image.records.iter().any(|(s, _)| s == seq),
                    "kill at op {k} ({node}): tag {label:?} -> {seq} has no record"
                );
            }
            // Whatever survived still restores.
            if !image.records.is_empty() {
                let (_, recovered) =
                    DurableStore::open(&mut disk, config().durable, &registry).unwrap();
                restore(&recovered, &registry, RestorePolicy::Lenient)
                    .unwrap_or_else(|e| panic!("kill at op {k} ({node}): restore failed: {e}"));
            }
        }
    }
}

/// The rewrite steps specifically: a kill anywhere inside the retention
/// merge or the reset must leave the follower at the pre- or
/// post-rewrite image in full — no half-applied rewrite.
#[test]
fn follower_never_observes_a_half_applied_rewrite() {
    let (registry, records, post_reset) = workload();
    let baseline = run_script(&registry, &records, &post_reset, PairFaults::default());
    let images = baseline.images;
    let bounds = baseline.bounds;
    // Ops belonging to step 11 (maintain) and step 13 (reset).
    for step in [11usize, 13] {
        let lo = bounds[step - 1];
        let hi = bounds[step];
        assert!(hi > lo, "step {step} performs I/O");
        for k in lo..hi {
            let out = run_script(&registry, &records, &post_reset, PairFaults::kill_at(k));
            assert!(out.crashed, "op {k} must kill a node");
            let mut disk = out.follower_disk;
            let image = Image::of_disk(&mut disk, &registry)
                .unwrap_or_else(|| panic!("follower unopenable after kill at op {k}"));
            assert!(
                image == images[step - 1] || image == images[step],
                "kill at op {k} (step {step}): follower holds a hybrid rewrite — \
                 {} records, tags {:?}",
                image.records.len(),
                image.tags
            );
        }
    }
}
