//! The shard-interference pass: a static race detector for the parallel
//! checkpoint engine.
//!
//! The parallel engine (`ickp_core::Checkpointer::checkpoint_parallel`) is
//! byte-identical to the sequential driver only because its shard plan has
//! three properties, which until now were *assumed*, not proved per-plan:
//!
//! * **disjointness** — no object is emitted by two shards (otherwise the
//!   shard workers race on the same record and the stream duplicates it);
//! * **completeness** — the union of shard footprints is exactly the
//!   sequential coverage (otherwise the merged stream drops or invents
//!   records);
//! * **deterministic ownership** — every DAG-shared object resolves to
//!   the first-touch owner predicted from root order, so concatenating
//!   shard bodies in shard order reproduces the sequential pre-order.
//!
//! [`audit_shards`] proves all three by abstract interpretation: it
//! replays each shard's traversal over the live heap — same stack
//! discipline, same pruning rule as the real worker, but recording only a
//! footprint — and reconciles the footprints against the sequential
//! coverage ([`ickp_heap::reachable_from`]) and an independently computed
//! first-touch prediction ([`ickp_heap::first_touch_plan`]). Violations
//! carry the stable codes `AUD201`–`AUD204`; a statically estimated
//! byte-imbalance across shards is the perf lint `AUD205`.
//!
//! [`cross_validate_shards`] backs the static verdicts dynamically: it
//! runs the traced parallel engine on a scratch clone and asserts the
//! observed per-shard access sets are contained in the static footprints
//! with no cross-shard overlap. `repro scaling` runs it after every
//! checkpoint round at every worker count.

use crate::diag::{AuditReport, DiagCode, Diagnostic, Location, Severity};
use crate::soundness::RECORD_HEADER_BYTES;
use ickp_core::{plan_shards, CheckpointConfig, Checkpointer, CoreError, MethodTable};
use ickp_heap::{
    first_touch_plan, preorder, reachable_from, Heap, HeapError, ObjectId, ShardPlan, Visited,
};
use std::collections::{HashMap, HashSet};

/// At most this many per-object diagnostics are emitted per code; the
/// remainder collapse into one summary diagnostic so a badly stale plan
/// over a large heap stays readable.
const MAX_PER_CODE: usize = 8;

/// A shard decomposition as the audit sees it: who starts where, and who
/// claims what.
///
/// [`ShardPlan`] implements this with its dense owner map. The trait
/// exists because a *sound* plan cannot even represent the failure modes
/// the audit must detect — an overlapping claim, a stale owner — so
/// injection tests (and any alternative partitioner) provide their own
/// implementation.
pub trait ShardSpec {
    /// Number of shards in the decomposition.
    fn num_shards(&self) -> usize;
    /// The roots shard `shard` starts its traversal from.
    fn shard_roots(&self, shard: usize) -> &[ObjectId];
    /// Whether `shard` claims `id`: the worker's pruning predicate.
    fn owns(&self, shard: usize, id: ObjectId) -> bool;
}

impl ShardSpec for ShardPlan {
    fn num_shards(&self) -> usize {
        ShardPlan::num_shards(self)
    }

    fn shard_roots(&self, shard: usize) -> &[ObjectId] {
        self.roots(shard)
    }

    fn owns(&self, shard: usize, id: ObjectId) -> bool {
        ShardPlan::owns(self, shard, id)
    }
}

/// The static footprint of one shard: everything its worker may emit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFootprint {
    /// The shard index.
    pub shard: usize,
    /// Objects the shard emits, in emit (depth-first pre-) order.
    pub objects: Vec<ObjectId>,
    /// Total field slots across the emitted objects.
    pub fields: u64,
    /// Statically estimated record bytes for a *full* checkpoint of this
    /// shard: per object, the fixed record header plus the class's
    /// encoded state size. For full checkpoints this estimate is exact
    /// (see the byte-equality test against measured per-shard stats).
    pub est_record_bytes: u64,
}

/// Tunables for [`audit_shards_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardAuditConfig {
    /// `AUD205` fires when the heaviest shard's estimated bytes exceed
    /// this multiple of the mean (with at least two shards in play).
    pub imbalance_threshold: f64,
}

impl Default for ShardAuditConfig {
    fn default() -> ShardAuditConfig {
        ShardAuditConfig { imbalance_threshold: 2.0 }
    }
}

/// What [`audit_shards`] established: the per-shard footprints plus the
/// findings of the interference checks.
#[derive(Debug, Clone)]
pub struct ShardAudit {
    /// One footprint per shard, in shard order.
    pub footprints: Vec<ShardFootprint>,
    /// Interference findings; [`AuditReport::has_errors`] is the gate.
    pub report: AuditReport,
}

impl ShardAudit {
    /// Heaviest-to-lightest ratio of the statically estimated per-shard
    /// record bytes — the load-balance figure the `repro shards`
    /// imbalance gate thresholds on. `1.0` with fewer than two shards;
    /// infinite when some shard's estimate is zero while another's is
    /// not (a degenerate split no threshold should accept).
    pub fn byte_imbalance(&self) -> f64 {
        if self.footprints.len() < 2 {
            return 1.0;
        }
        let heaviest = self.footprints.iter().map(|f| f.est_record_bytes).max().unwrap_or(0);
        let lightest = self.footprints.iter().map(|f| f.est_record_bytes).min().unwrap_or(0);
        if lightest == 0 {
            if heaviest == 0 {
                return 1.0;
            }
            return f64::INFINITY;
        }
        heaviest as f64 / lightest as f64
    }
}

/// Computes the static footprint of every shard of `spec` by abstract
/// interpretation over the live heap.
///
/// Each shard is replayed with exactly the worker's traversal: a
/// depth-first walk from the shard's roots that prunes at any object the
/// shard does not own and at revisits. What remains is the set of objects
/// the worker will emit, in the order it will emit them.
///
/// # Errors
///
/// Propagates [`HeapError`] for dangling roots or references.
pub fn shard_footprints<S: ShardSpec + ?Sized>(
    heap: &Heap,
    spec: &S,
) -> Result<Vec<ShardFootprint>, HeapError> {
    let mut footprints = Vec::with_capacity(spec.num_shards());
    for shard in 0..spec.num_shards() {
        let mut objects = Vec::new();
        let mut fields = 0u64;
        let mut est_record_bytes = 0u64;
        let mut seen = Visited::new(heap);
        let enter = |id| spec.owns(shard, id) && seen.insert(id);
        preorder(heap, spec.shard_roots(shard), enter, |id, object| {
            objects.push(id);
            let def = heap.class(object.class())?;
            fields += def.num_slots() as u64;
            est_record_bytes += (RECORD_HEADER_BYTES + def.encoded_state_size()) as u64;
            Ok::<(), HeapError>(())
        })?;
        footprints.push(ShardFootprint { shard, objects, fields, est_record_bytes });
    }
    Ok(footprints)
}

/// Audits a shard decomposition against the sequential engine it must be
/// byte-identical to, with the default [`ShardAuditConfig`].
///
/// `roots` is the authoritative root order the checkpoint will be taken
/// over — the audit detects a `spec` whose chunks are stale relative to
/// it (`AUD204`), which is exactly the "trusted declaration gone stale"
/// failure the paper warns about, transplanted to the parallel engine.
///
/// # Errors
///
/// Propagates [`HeapError`] for dangling roots or references.
pub fn audit_shards<S: ShardSpec + ?Sized>(
    heap: &Heap,
    roots: &[ObjectId],
    spec: &S,
) -> Result<ShardAudit, HeapError> {
    audit_shards_with(heap, roots, spec, ShardAuditConfig::default())
}

/// [`audit_shards`] with explicit tunables.
///
/// # Errors
///
/// Propagates [`HeapError`] for dangling roots or references.
pub fn audit_shards_with<S: ShardSpec + ?Sized>(
    heap: &Heap,
    roots: &[ObjectId],
    spec: &S,
    config: ShardAuditConfig,
) -> Result<ShardAudit, HeapError> {
    let footprints = shard_footprints(heap, spec)?;
    let mut report = AuditReport::new();

    // (a) Pairwise disjointness: no object in two shards' emit sets.
    let mut emitted_by: HashMap<ObjectId, usize> = HashMap::new();
    let mut overlaps = 0usize;
    for footprint in &footprints {
        for &id in &footprint.objects {
            if let Some(&first) = emitted_by.get(&id) {
                overlaps += 1;
                if overlaps <= MAX_PER_CODE {
                    report.push(Diagnostic::new(
                        Severity::Error,
                        DiagCode::ShardOverlap,
                        Location::Shard(footprint.shard),
                        format!(
                            "object {} is emitted by both shard {first} and shard {}: \
                             a data race under parallel execution",
                            fmt_obj(heap, id),
                            footprint.shard
                        ),
                    ));
                }
            } else {
                emitted_by.insert(id, footprint.shard);
            }
        }
    }
    push_summary(&mut report, overlaps, DiagCode::ShardOverlap, "overlapping object(s)");

    // (b) Completeness: union of footprints == sequential coverage.
    let sequential = reachable_from(heap, roots)?;
    let coverage: HashSet<ObjectId> = sequential.iter().copied().collect();
    let mut missing = 0usize;
    for &id in &sequential {
        if !emitted_by.contains_key(&id) {
            missing += 1;
            if missing <= MAX_PER_CODE {
                report.push(Diagnostic::new(
                    Severity::Error,
                    DiagCode::ShardMissingCoverage,
                    Location::General,
                    format!(
                        "object {} is sequentially reachable but no shard emits it: \
                         the merged stream drops its record",
                        fmt_obj(heap, id)
                    ),
                ));
            }
        }
    }
    push_summary(&mut report, missing, DiagCode::ShardMissingCoverage, "dropped object(s)");
    let mut extra = 0usize;
    for footprint in &footprints {
        for &id in &footprint.objects {
            if !coverage.contains(&id) {
                extra += 1;
                if extra <= MAX_PER_CODE {
                    report.push(Diagnostic::new(
                        Severity::Error,
                        DiagCode::ShardDoubleEmit,
                        Location::Shard(footprint.shard),
                        format!(
                            "shard {} emits object {} which the sequential coverage \
                             never records",
                            footprint.shard,
                            fmt_obj(heap, id)
                        ),
                    ));
                }
            }
        }
    }
    push_summary(&mut report, extra, DiagCode::ShardDoubleEmit, "extra object(s)");

    // (c) Deterministic ownership. A spec can fail this three ways, each
    // breaking the byte-identical merge: its chunks are stale relative to
    // the authoritative root order; an object's emitting shard is not the
    // first-touch owner the root order predicts; or a shard emits its
    // objects out of pre-order.
    let chunks: Vec<Vec<ObjectId>> =
        (0..spec.num_shards()).map(|s| spec.shard_roots(s).to_vec()).collect();
    if chunks.concat() != roots {
        report.push(
            Diagnostic::new(
                Severity::Error,
                DiagCode::ShardOwnershipMismatch,
                Location::General,
                "the plan's root chunks are stale: concatenated in shard order they \
                 differ from the checkpoint's root order",
            )
            .with_suggestion("recompute the shard plan from the current root set"),
        );
    } else {
        let predicted = first_touch_plan(heap, chunks)?;
        let mut disagreements = 0usize;
        for footprint in &footprints {
            for &id in &footprint.objects {
                let want = predicted.owner_of(id);
                if want != Some(footprint.shard as u32) {
                    disagreements += 1;
                    if disagreements <= MAX_PER_CODE {
                        report.push(Diagnostic::new(
                            Severity::Error,
                            DiagCode::ShardOwnershipMismatch,
                            Location::Shard(footprint.shard),
                            match want {
                                Some(owner) => format!(
                                    "object {} is emitted by shard {} but first-touch \
                                     order makes shard {owner} its owner",
                                    fmt_obj(heap, id),
                                    footprint.shard
                                ),
                                None => format!(
                                    "object {} is emitted by shard {} but is not \
                                     first-touch reachable from the plan's roots",
                                    fmt_obj(heap, id),
                                    footprint.shard
                                ),
                            },
                        ));
                    }
                }
            }
        }
        push_summary(
            &mut report,
            disagreements,
            DiagCode::ShardOwnershipMismatch,
            "ownership disagreement(s)",
        );
        // With disjoint, complete, owner-consistent footprints the merge
        // is byte-identical iff the concatenation is the sequential
        // pre-order. Only worth stating when nothing above fired.
        if !report.has_errors() {
            let merged: Vec<ObjectId> =
                footprints.iter().flat_map(|f| f.objects.iter().copied()).collect();
            if merged != sequential {
                report.push(Diagnostic::new(
                    Severity::Error,
                    DiagCode::ShardOwnershipMismatch,
                    Location::General,
                    "concatenated shard emit orders diverge from the sequential \
                     pre-order: the merged stream is not byte-identical",
                ));
            }
        }
    }

    // Perf lint: estimated byte imbalance across shards.
    if footprints.len() > 1 {
        let total: u64 = footprints.iter().map(|f| f.est_record_bytes).sum();
        let mean = total as f64 / footprints.len() as f64;
        if let Some(heaviest) = footprints.iter().max_by_key(|f| f.est_record_bytes) {
            if mean > 0.0 && heaviest.est_record_bytes as f64 > config.imbalance_threshold * mean {
                report.push(
                    Diagnostic::new(
                        Severity::PerfLint,
                        DiagCode::ShardImbalance,
                        Location::Shard(heaviest.shard),
                        format!(
                            "shard {} carries an estimated {} record bytes, more than \
                             {}x the {:.0}-byte mean: the parallel speedup is bounded \
                             by this straggler",
                            heaviest.shard,
                            heaviest.est_record_bytes,
                            config.imbalance_threshold,
                            mean
                        ),
                    )
                    .with_suggestion("re-chunk the roots so subtree sizes even out"),
                );
            }
        }
    }

    Ok(ShardAudit { footprints, report })
}

/// What the dynamic shard cross-validator observed.
#[derive(Debug, Clone, Default)]
pub struct ShardOracleReport {
    /// Shards in the static plan.
    pub static_shards: usize,
    /// Shards the traced engine actually ran.
    pub observed_shards: usize,
    /// Objects each shard was observed to visit, in shard order.
    pub observed: Vec<usize>,
    /// `(shard, object)` pairs visited outside the shard's static
    /// footprint (bugs: the trace saw an access the analysis missed).
    pub escapes: Vec<(usize, ObjectId)>,
    /// Objects visited by more than one shard (races).
    pub overlaps: Vec<ObjectId>,
}

impl ShardOracleReport {
    /// `true` when observation and analysis agree: every shard ran, every
    /// access fell inside its static footprint, and no object was touched
    /// twice.
    pub fn is_consistent(&self) -> bool {
        self.static_shards == self.observed_shards
            && self.escapes.is_empty()
            && self.overlaps.is_empty()
    }
}

/// Runs the traced parallel engine on a scratch clone of `heap` and
/// asserts the observed per-shard access sets are contained in the static
/// footprints of the same plan, with no cross-shard overlap.
///
/// This is the debug cross-validator backing [`audit_shards`]: the static
/// pass claims each shard *may* touch exactly its footprint; the trace
/// shows what it *did* touch. `heap` itself is untouched (the full-kind
/// checkpoint runs on a clone).
///
/// # Errors
///
/// Propagates [`CoreError`] from planning or the traced checkpoint.
pub fn cross_validate_shards(
    heap: &Heap,
    roots: &[ObjectId],
    workers: usize,
) -> Result<ShardOracleReport, CoreError> {
    // Plan exactly as the engine will, so the static footprints describe
    // the very shards the traced run executes.
    let plan = plan_shards(heap, roots, workers)?;
    let footprints = shard_footprints(heap, &plan)?;

    let mut scratch = heap.clone();
    let table = MethodTable::derive(heap.registry());
    let mut ckp = Checkpointer::new(CheckpointConfig::full());
    let (_, trace) = ckp.checkpoint_parallel_traced(&mut scratch, &table, roots, workers)?;

    let mut report = ShardOracleReport {
        static_shards: footprints.len(),
        observed_shards: trace.shards.len(),
        ..ShardOracleReport::default()
    };
    let mut touched: HashMap<ObjectId, usize> = HashMap::new();
    for (shard, access) in trace.shards.iter().enumerate() {
        report.observed.push(access.visited.len());
        let footprint: HashSet<ObjectId> =
            footprints.get(shard).map(|f| f.objects.iter().copied().collect()).unwrap_or_default();
        for &id in &access.visited {
            if !footprint.contains(&id) {
                report.escapes.push((shard, id));
            }
            if let Some(&other) = touched.get(&id) {
                if other != shard {
                    report.overlaps.push(id);
                }
            } else {
                touched.insert(id, shard);
            }
        }
    }
    Ok(report)
}

/// Names an object by its stable id (what the checkpoint stream carries);
/// falls back to the arena handle for dangling ids.
fn fmt_obj(heap: &Heap, id: ObjectId) -> String {
    match heap.stable_id(id) {
        Ok(stable) => format!("#{}", stable.0),
        Err(_) => format!("{id:?}"),
    }
}

/// Collapses findings beyond the per-code cap into one summary line.
fn push_summary(report: &mut AuditReport, total: usize, code: DiagCode, noun: &str) {
    if total > MAX_PER_CODE {
        report.push(Diagnostic::new(
            Severity::Error,
            code,
            Location::General,
            format!("...and {} further {noun} suppressed", total - MAX_PER_CODE),
        ));
    }
}
