//! Crash-point enumeration over the full lifecycle vocabulary (the
//! ISSUE's acceptance bar for the manager): drive a fixed script of
//! appends, tags, a policy-driven `maintain`, and a `reset_to` against
//! the fault-injecting filesystem, crash at **every** mutating I/O
//! operation the script performs, and require that recovery always
//! finds the store at the image of the last acknowledged lifecycle
//! operation or the one in flight — never a torn hybrid, never missing
//! a retained checkpoint, never holding a tag whose checkpoint is gone.

use ickp_core::{CheckpointConfig, CheckpointRecord, Checkpointer, MethodTable};
use ickp_durable::{
    crash_classes, DurableConfig, DurableError, FailFs, FaultPlan, TraceLog, TraceNode, Vfs,
};
use ickp_heap::{ClassRegistry, FieldType, Heap, Value};
use ickp_lifecycle::{CheckpointManager, LifecycleConfig, RetentionPolicy};

/// Small segments so the matrix crosses segment rolls; small budget so
/// `maintain` actually folds; dedup on so rewrites exercise the chunk
/// index.
fn config() -> LifecycleConfig {
    LifecycleConfig {
        durable: DurableConfig { segment_target_bytes: 256 },
        policy: RetentionPolicy { budget: 4 },
        dedup: true,
    }
}

/// The logical content of a store: what must survive a crash exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Image {
    records: Vec<(u64, Vec<u8>)>,
    tags: Vec<(String, u64)>,
}

fn image_of<F: Vfs>(mgr: &CheckpointManager<F>) -> Image {
    Image {
        records: mgr.chain().records().iter().map(|r| (r.seq(), r.bytes().to_vec())).collect(),
        tags: mgr.tags().to_vec(),
    }
}

/// Nine checkpoints over a five-node list, plus the seq-3 record the
/// script appends after rolling back to the "alpha" tag.
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
    // What a program does after `reset_to("alpha")` (tagged at seq 2):
    // roll the checkpointer back and extend the chain from seq 3.
    ckp.rollback(3);
    heap.set_field(nodes[0], 0, Value::Int(999)).unwrap();
    let post_reset = ckp.checkpoint(&mut heap, &table, &[nodes[0]]).unwrap();
    assert_eq!(post_reset.seq(), 3);
    (registry, records, post_reset)
}

/// The script: step 0 is `create`, then fifteen lifecycle operations,
/// each with exactly one durable commit point.
const STEPS: usize = 16;

fn apply_step<F: Vfs>(
    mgr: &mut CheckpointManager<F>,
    step: usize,
    records: &[CheckpointRecord],
    post_reset: &CheckpointRecord,
) -> Result<(), DurableError> {
    match step {
        1..=3 => mgr.append(&records[step - 1]).map(drop), // seqs 0,1,2
        4 => mgr.tag("alpha").map(drop),                   // alpha -> 2
        5..=7 => mgr.append(&records[step - 2]).map(drop), // seqs 3,4,5
        8 => mgr.tag("beta").map(drop),                    // beta -> 5
        9 | 10 => mgr.append(&records[step - 3]).map(drop), // seqs 6,7
        11 => mgr.maintain().map(drop),                    // folds to budget, pins 2 and 5
        12 => mgr.append(&records[8]).map(drop),           // seq 8
        13 => mgr.reset_to("alpha").map(drop),             // back to seq 2, beta dropped
        14 => mgr.append(post_reset).map(drop),            // chain extends from seq 3
        15 => mgr.tag("final").map(drop),                  // final -> 3
        _ => unreachable!("no step {step}"),
    }
}

/// Runs the script until completion or the injected crash, reopening
/// the store between steps (so every step also proves reopen
/// continuity). Returns the image after each acknowledged step and the
/// cumulative mutating-op count at each step boundary.
fn drive(
    fs: &mut FailFs,
    registry: &ClassRegistry,
    records: &[CheckpointRecord],
    post_reset: &CheckpointRecord,
) -> (Vec<Image>, Vec<u64>) {
    let mut images = Vec::new();
    let mut bounds = Vec::new();
    {
        let mgr = match CheckpointManager::create(&mut *fs, config(), registry) {
            Ok(mgr) => mgr,
            Err(_) => return (images, bounds),
        };
        images.push(image_of(&mgr));
    }
    bounds.push(fs.ops());
    for step in 1..STEPS {
        let outcome = (|| {
            let mut mgr = CheckpointManager::open(&mut *fs, config(), registry)?;
            apply_step(&mut mgr, step, records, post_reset)?;
            Ok::<Image, DurableError>(image_of(&mgr))
        })();
        match outcome {
            Ok(image) => {
                images.push(image);
                bounds.push(fs.ops());
            }
            Err(_) => return (images, bounds),
        }
    }
    (images, bounds)
}

#[test]
fn lifecycle_script_survives_every_crash_point() {
    let (registry, records, post_reset) = workload();

    // Fault-free baseline: every step acknowledges, and the script's
    // shape is what the comments above claim.
    let mut fs = FailFs::new(FaultPlan::none());
    let (images, bounds) = drive(&mut fs, &registry, &records, &post_reset);
    assert!(!fs.crashed());
    assert_eq!(images.len(), STEPS, "baseline must acknowledge every step");
    let total_ops = fs.ops();
    assert!(total_ops >= 60, "script too small to be interesting: {total_ops} ops");
    let after_maintain = &images[11];
    assert!(after_maintain.records.len() < images[10].records.len(), "maintain must fold records");
    assert_eq!(
        images[13].records.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
        vec![2],
        "reset_to must cut the chain back to the tagged seq"
    );
    assert_eq!(images[13].tags, vec![("alpha".to_string(), 2)], "beta points past the reset");
    assert_eq!(images[15].tags, vec![("alpha".to_string(), 2), ("final".to_string(), 3)]);

    // The matrix: crash at every mutating I/O op, recover, compare.
    for k in 0..total_ops {
        let mut fs = FailFs::new(FaultPlan::crash_at(k));
        let _ = drive(&mut fs, &registry, &records, &post_reset);
        assert!(fs.crashed(), "op {k} must crash");
        let mut disk = fs.into_recovered();
        // Which lifecycle step was in flight when the machine died.
        let step = bounds.iter().position(|&b| b > k).expect("k < total_ops");
        match CheckpointManager::open(&mut disk, config(), &registry) {
            Ok(mgr) => {
                let image = image_of(&mgr);
                let pre = step > 0 && image == images[step - 1];
                let post = image == images[step];
                assert!(
                    pre || post,
                    "crash at op {k} (step {step}): recovered a torn store\n\
                     recovered {} records, tags {:?}",
                    image.records.len(),
                    image.tags
                );
                // Tags never dangle: every recovered tag names a
                // recovered checkpoint.
                for (label, seq) in &image.tags {
                    assert!(
                        image.records.iter().any(|(s, _)| s == seq),
                        "crash at op {k}: tag {label:?} -> {seq} has no record"
                    );
                }
                // And the recovered chain still restores.
                if !image.records.is_empty() {
                    mgr.restore_latest()
                        .unwrap_or_else(|e| panic!("crash at op {k}: restore failed: {e}"));
                }
            }
            Err(e) => {
                // Only a crash before the very first commit (inside
                // `create`) may leave no store at all.
                assert_eq!(step, 0, "crash at op {k} (step {step}): open failed: {e}");
                assert!(
                    !disk.exists("MANIFEST"),
                    "crash at op {k}: manifest exists yet open failed"
                );
            }
        }
    }
}

/// The pruned crash matrix is provably equivalent to the full one on
/// this 16-step workload: the trace's crash-equivalence classes
/// partition the op space, genuinely collapse it, and replaying *every*
/// member of every class recovers the identical store image — so
/// sweeping only part of each class (the crash matrix's default, pruned
/// sweep) loses nothing.
#[test]
fn pruned_matrix_is_equivalent_to_the_full_matrix_on_the_lifecycle_script() {
    let (registry, records, post_reset) = workload();

    // Traced fault-free baseline: the class structure of the script.
    let log = TraceLog::new();
    let mut baseline = FailFs::new(FaultPlan::none());
    baseline.set_trace(log.clone(), TraceNode::Local);
    let _ = drive(&mut baseline, &registry, &records, &post_reset);
    assert!(!baseline.crashed());
    let total_ops = baseline.ops();
    let trace = log.snapshot(&baseline.counter());
    let classes = crash_classes(&trace);

    let covered: u64 = classes.iter().map(|c| c.indices.len() as u64).sum();
    assert_eq!(covered, total_ops, "classes must partition the crash-point space");
    assert!(
        (classes.len() as u64) < total_ops,
        "pruning must collapse something: {} classes over {total_ops} ops",
        classes.len()
    );

    // The proof obligation behind the pruned sweep: within a class,
    // every crash point recovers to the same image (or uniformly to no
    // store at all, for the pre-first-commit class).
    for class in &classes {
        let mut representative: Option<Option<Image>> = None;
        for &k in &class.indices {
            let mut fs = FailFs::new(FaultPlan::crash_at(k));
            let _ = drive(&mut fs, &registry, &records, &post_reset);
            assert!(fs.crashed(), "op {k} must crash");
            let mut disk = fs.into_recovered();
            let image = CheckpointManager::open(&mut disk, config(), &registry)
                .ok()
                .map(|mgr| image_of(&mgr));
            match &representative {
                None => representative = Some(image),
                Some(rep) => assert_eq!(
                    rep, &image,
                    "class at op {} diverges at member {k}: the pruned matrix would \
                     have missed a distinct crash state",
                    class.representative
                ),
            }
        }
    }
}
