//! The shard-interference pass end to end: in-repo plans audit clean at
//! every worker count, each documented `AUD20x` failure mode is caught on
//! an injected bad plan, the static byte estimate matches measured
//! per-shard stats exactly, and the dynamic cross-validator agrees with
//! the static footprints on randomized heaps.

use ickp_audit::{
    audit_shards, audit_shards_with, cross_validate_shards, shard_footprints, DiagCode, Severity,
    ShardAuditConfig, ShardSpec,
};
use ickp_core::{plan_shards, CheckpointConfig, Checkpointer, CoreError, MethodTable};
use ickp_heap::{
    chunk_roots, first_touch_plan, reachable_from, ClassRegistry, FieldType, Heap, HeapError,
    ObjectId, ShardPlan, Value,
};
use ickp_prng::Prng;
use ickp_synth::{SynthConfig, SynthWorld};

/// The count-balanced first-touch plan: contiguous chunks by root count.
fn counted(heap: &Heap, roots: &[ObjectId], shards: usize) -> ShardPlan {
    first_touch_plan(heap, chunk_roots(roots, shards)).unwrap()
}

/// `n` three-node chains with cross-links every third structure — the
/// same shape the parallel engine's own tests use.
fn world(n: usize) -> (Heap, Vec<ObjectId>) {
    let mut reg = ClassRegistry::new();
    let node =
        reg.define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))]).unwrap();
    let mut heap = Heap::new(reg);
    let mut roots = Vec::new();
    let mut prev_mid = None;
    for i in 0..n {
        let tail = heap.alloc(node).unwrap();
        let mid = heap.alloc(node).unwrap();
        let head = heap.alloc(node).unwrap();
        heap.set_field(head, 0, Value::Int(i as i32)).unwrap();
        heap.set_field(head, 1, Value::Ref(Some(mid))).unwrap();
        heap.set_field(mid, 1, Value::Ref(Some(tail))).unwrap();
        if i % 3 == 0 {
            if let Some(shared) = prev_mid {
                heap.set_field(tail, 1, Value::Ref(Some(shared))).unwrap();
            }
        }
        prev_mid = Some(mid);
        roots.push(head);
    }
    (heap, roots)
}

/// **Acceptance criterion**: the partitioner's own plans prove disjoint,
/// complete, and first-touch deterministic at every worker count 1–8,
/// with zero `AUD20x` errors — on both the shared-chain world and a
/// synthetic paper world.
#[test]
fn in_repo_plans_audit_clean_at_one_through_eight_shards() {
    let (heap, roots) = world(12);
    let synth = SynthWorld::build(SynthConfig::small()).unwrap();
    let heaps: [(&Heap, &[ObjectId]); 2] = [(&heap, &roots), (synth.heap(), synth.roots())];
    for (heap, roots) in heaps {
        for shards in 1..=8usize {
            // Both chunkings must prove out: count-based chunks and the
            // byte-weighted chunks the engine plans with.
            let plans = [
                ("counted", counted(heap, roots, shards)),
                ("planned", plan_shards(heap, roots, shards).unwrap()),
            ];
            for (name, plan) in plans {
                let audit = audit_shards(heap, roots, &plan).unwrap();
                assert!(
                    !audit.report.has_errors(),
                    "{shards} shards ({name}):\n{}",
                    audit.report.render()
                );
                assert_eq!(audit.footprints.len(), plan.num_shards());
                let total: usize = audit.footprints.iter().map(|f| f.objects.len()).sum();
                assert_eq!(total, plan.num_objects());
            }
        }
    }
}

/// A hand-built spec whose `owns` deliberately misbehaves, to exercise
/// failure modes a sound [`ickp_heap::ShardPlan`] cannot even represent.
struct InjectedSpec {
    chunks: Vec<Vec<ObjectId>>,
    /// Objects claimed by *every* shard (the overlap injection).
    shared: Vec<ObjectId>,
    /// Fallback single-owner map.
    owner: std::collections::HashMap<ObjectId, usize>,
}

impl ShardSpec for InjectedSpec {
    fn num_shards(&self) -> usize {
        self.chunks.len()
    }

    fn shard_roots(&self, shard: usize) -> &[ObjectId] {
        &self.chunks[shard]
    }

    fn owns(&self, shard: usize, id: ObjectId) -> bool {
        self.shared.contains(&id) || self.owner.get(&id) == Some(&shard)
    }
}

/// **Acceptance criterion (injected overlap)**: a plan in which two
/// shards both claim a shared object is rejected with `AUD201`.
#[test]
fn an_overlapping_plan_is_rejected_with_aud201() {
    let (heap, roots) = world(6);
    let reference = counted(&heap, &roots, 2);
    let mut owner = std::collections::HashMap::new();
    for &id in &reachable_from(&heap, &roots).unwrap() {
        owner.insert(id, reference.owner_of(id).unwrap() as usize);
    }
    // Claim root 0's whole chain for both shards.
    let shared = reachable_from(&heap, &roots[..1]).unwrap();
    let spec =
        InjectedSpec { chunks: vec![roots[..3].to_vec(), roots[3..].to_vec()], shared, owner };
    // Shard 1 must also *reach* the shared chain for the race to occur.
    let audit = {
        let mut chunks = spec.chunks.clone();
        chunks[1].insert(0, roots[0]);
        let spec = InjectedSpec { chunks, ..spec };
        audit_shards(&heap, &spec.chunks.concat(), &spec).unwrap()
    };
    assert!(audit.report.has_errors());
    assert!(
        audit.report.diagnostics().iter().any(|d| d.code == DiagCode::ShardOverlap),
        "expected AUD201:\n{}",
        audit.report.render()
    );
}

/// **Acceptance criterion (stale root order)**: auditing a plan computed
/// from yesterday's root order against today's is rejected with `AUD204`.
#[test]
fn a_stale_root_order_plan_is_rejected_with_aud204() {
    let (heap, roots) = world(8);
    let plan = counted(&heap, &roots, 4);
    // The program reorders its roots; the cached plan is now stale.
    let mut reordered = roots.clone();
    reordered.swap(0, 7);
    let audit = audit_shards(&heap, &reordered, &plan).unwrap();
    assert!(audit.report.has_errors());
    let staleness: Vec<_> = audit
        .report
        .diagnostics()
        .iter()
        .filter(|d| d.code == DiagCode::ShardOwnershipMismatch)
        .collect();
    assert!(!staleness.is_empty(), "expected AUD204:\n{}", audit.report.render());
    assert!(staleness[0].message.contains("stale"));
}

/// A plan whose owner map predates a structure change claims ownership
/// that first-touch order no longer predicts — also `AUD204`, and the
/// new object surfaces as dropped coverage (`AUD202`).
#[test]
fn a_structurally_stale_plan_is_rejected_with_aud204_and_aud202() {
    let (mut heap, roots) = world(6);
    let node = heap.class_of(roots[0]).unwrap();
    let plan = counted(&heap, &roots, 3);
    // Root 0's chain grows a link into root 3's subtree *after* planning:
    // first-touch order now hands root 3's chain to shard 0, but the
    // stale owner map still assigns it to shard 1 — and the new link
    // object is owned by nobody at all.
    let extra = heap.alloc(node).unwrap();
    heap.set_field(extra, 1, Value::Ref(Some(roots[3]))).unwrap();
    heap.set_field(roots[0], 1, Value::Ref(Some(extra))).unwrap();
    let audit = audit_shards(&heap, &roots, &plan).unwrap();
    assert!(audit.report.has_errors(), "{}", audit.report.render());
    let codes: Vec<DiagCode> = audit.report.diagnostics().iter().map(|d| d.code).collect();
    assert!(codes.contains(&DiagCode::ShardMissingCoverage), "{}", audit.report.render());
    assert!(codes.contains(&DiagCode::ShardOwnershipMismatch), "{}", audit.report.render());
}

/// `AUD205` fires on a statically lopsided plan, and the estimate it is
/// based on equals the *measured* per-shard body bytes of a real full
/// parallel checkpoint, byte for byte.
#[test]
fn imbalance_lint_matches_measured_per_shard_bytes_exactly() {
    let mut reg = ClassRegistry::new();
    let node =
        reg.define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))]).unwrap();
    let mut heap = Heap::new(reg);
    // Root 0 carries a 40-element chain; roots 1..4 are singletons.
    let mut roots = Vec::new();
    let mut next = None;
    for _ in 0..40 {
        let id = heap.alloc(node).unwrap();
        heap.set_field(id, 1, Value::Ref(next)).unwrap();
        next = Some(id);
    }
    roots.push(next.unwrap());
    for _ in 0..3 {
        roots.push(heap.alloc(node).unwrap());
    }

    let plan = counted(&heap, &roots, 4);
    let audit = audit_shards(&heap, &roots, &plan).unwrap();
    assert!(!audit.report.has_errors(), "{}", audit.report.render());
    let lints: Vec<_> =
        audit.report.diagnostics().iter().filter(|d| d.severity == Severity::PerfLint).collect();
    assert_eq!(lints.len(), 1, "{}", audit.report.render());
    assert_eq!(lints[0].code, DiagCode::ShardImbalance);

    // Raising the threshold silences the lint without changing verdicts.
    let relaxed =
        audit_shards_with(&heap, &roots, &plan, ShardAuditConfig { imbalance_threshold: 16.0 })
            .unwrap();
    assert!(relaxed.report.is_clean(), "{}", relaxed.report.render());

    // The estimate is exact: run the real engine and compare per shard.
    let table = MethodTable::derive(heap.registry());
    let mut ckp = Checkpointer::new(CheckpointConfig::full());
    ckp.checkpoint_parallel(&mut heap, &table, &roots, 4).unwrap();
    let measured = ckp.shard_stats();
    assert_eq!(measured.len(), audit.footprints.len());
    for (footprint, stats) in audit.footprints.iter().zip(measured) {
        assert_eq!(
            footprint.est_record_bytes, stats.bytes_written,
            "shard {}: static estimate diverges from measured bytes",
            footprint.shard
        );
        assert_eq!(footprint.objects.len() as u64, stats.objects_recorded);
    }
}

/// **The AUD205 feedback loop closed**: on a heap skewed enough that
/// count-balanced chunking trips the imbalance lint, the byte-weighted
/// chunking the engine plans with audits clean — same byte estimate,
/// fed back into boundary placement — while still proving disjoint,
/// complete, and first-touch deterministic.
#[test]
fn weighted_chunking_silences_the_imbalance_lint_count_chunking_trips() {
    let mut reg = ClassRegistry::new();
    let node =
        reg.define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))]).unwrap();
    let mut heap = Heap::new(reg);
    // Three 12-element chains up front, then nine singletons: a 4-way
    // count split lumps all three chains into shard 0 (36 of 45 objects),
    // while a byte-weighted split gives each chain its own shard.
    let mut chain = |len: usize| {
        let mut next = None;
        for _ in 0..len {
            let id = heap.alloc(node).unwrap();
            heap.set_field(id, 1, Value::Ref(next)).unwrap();
            next = Some(id);
        }
        next.unwrap()
    };
    let mut roots: Vec<ObjectId> = (0..3).map(|_| chain(12)).collect();
    for _ in 0..9 {
        roots.push(chain(1));
    }

    let count_plan = counted(&heap, &roots, 4);
    let weighted = plan_shards(&heap, &roots, 4).unwrap();
    let count_audit = audit_shards(&heap, &roots, &count_plan).unwrap();
    let weighted_audit = audit_shards(&heap, &roots, &weighted).unwrap();

    // Correctness holds either way...
    assert!(!count_audit.report.has_errors(), "{}", count_audit.report.render());
    assert!(!weighted_audit.report.has_errors(), "{}", weighted_audit.report.render());
    // ...but only the count-balanced plan is lopsided enough to lint.
    assert!(
        count_audit.report.diagnostics().iter().any(|d| d.code == DiagCode::ShardImbalance),
        "expected AUD205 on the count-balanced plan:\n{}",
        count_audit.report.render()
    );
    assert!(
        weighted_audit.report.is_clean(),
        "weighted plan should not lint:\n{}",
        weighted_audit.report.render()
    );
    assert!(
        weighted_audit.byte_imbalance() < count_audit.byte_imbalance(),
        "weighted {} vs counted {}",
        weighted_audit.byte_imbalance(),
        count_audit.byte_imbalance()
    );
    // The weighted heaviest shard (the parallel wall-clock bound) shrinks.
    let heaviest = |audit: &ickp_audit::ShardAudit| {
        audit.footprints.iter().map(|f| f.est_record_bytes).max().unwrap()
    };
    assert!(heaviest(&weighted_audit) < heaviest(&count_audit));
}

/// **Acceptance criterion (cross-validation)**: on randomized DAG heaps,
/// the traced engine's observed access sets are contained in the static
/// footprints with zero cross-shard overlaps, for workers 1–8.
#[test]
fn sanitizer_observations_are_contained_in_static_footprints() {
    for case in 0..24u64 {
        let mut rng = Prng::seed_from_u64(0xac3d_0000 + case);
        let mut reg = ClassRegistry::new();
        let node = reg
            .define(
                "D",
                None,
                &[("v", FieldType::Int), ("a", FieldType::Ref(None)), ("b", FieldType::Ref(None))],
            )
            .unwrap();
        let mut heap = Heap::new(reg);
        let n = 3 + rng.index(40);
        let mut objects: Vec<ObjectId> = Vec::new();
        for i in 0..n {
            let id = heap.alloc(node).unwrap();
            for slot in [1, 2] {
                if i > 0 && rng.next_bool() {
                    let target = objects[rng.index(i)];
                    heap.set_field(id, slot, Value::Ref(Some(target))).unwrap();
                }
            }
            objects.push(id);
        }
        let root_count = 1 + rng.index(objects.len().min(9));
        let mut pool = objects.clone();
        let mut roots = Vec::new();
        for _ in 0..root_count {
            roots.push(pool.swap_remove(rng.index(pool.len())));
        }
        for workers in 1..=8usize {
            let oracle = cross_validate_shards(&heap, &roots, workers).unwrap();
            assert!(oracle.is_consistent(), "case {case}, workers {workers}: {oracle:?}");
            // The probe is tight, not merely contained: every footprint
            // object was actually visited. The plan must be the engine's
            // own, or the footprints describe different shards than the
            // trace ran.
            let plan = plan_shards(&heap, &roots, workers).unwrap();
            let footprints = shard_footprints(&heap, &plan).unwrap();
            for (footprint, &observed) in footprints.iter().zip(&oracle.observed) {
                assert_eq!(footprint.objects.len(), observed, "case {case}");
            }
        }
    }
}

/// A root handle allocated in a grown clone lies outside this heap's
/// arena: planning reports it as a dangling object instead of indexing
/// past the owner array.
#[test]
fn a_root_outside_the_arena_is_a_typed_error() {
    let (heap, mut roots) = world(4);
    let foreign = heap.clone().alloc(heap.class_of(roots[0]).unwrap()).unwrap();
    assert_eq!(foreign.index(), heap.arena_size());
    roots.push(foreign);
    for workers in [1, 2, 8] {
        assert!(matches!(
            cross_validate_shards(&heap, &roots, workers),
            Err(CoreError::Heap(HeapError::DanglingObject(id))) if id == foreign
        ));
    }
    assert_eq!(
        first_touch_plan(&heap, chunk_roots(&roots, 2)),
        Err(HeapError::DanglingObject(foreign))
    );
}
