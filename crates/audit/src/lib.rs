//! # ickp-audit — static soundness verifier for checkpoint specialization
//!
//! The specializer in `ickp-spec` is only as good as what it is told: the
//! paper's contract is that declarations of structure and per-phase
//! modification patterns are *trusted*, and a wrong declaration silently
//! produces checkpoints that miss modifications. This crate closes that
//! gap with six cooperating passes:
//!
//! 1. **Plan verifier** ([`verify_plan`]) — an abstract interpreter over
//!    compiled [`Plan`](ickp_spec::Plan) ops that, given the
//!    [`SpecShape`](ickp_spec::SpecShape) the plan was compiled from,
//!    proves register well-formedness (no use-before-def on any path, no
//!    clobbered live register), class-guard consistency, and **coverage
//!    equivalence**: every object and field the generic traversal would
//!    visit under the declared pattern is emitted exactly once, in
//!    pre-order. Any divergence is a structured [`Diagnostic`].
//! 2. **Pattern soundness checker** ([`audit_phase_patterns`]) — lowers
//!    the write-set inference of `ickp-analysis` into per-phase
//!    [`PhaseFootprint`]s and cross-checks them against declared
//!    [`PhasePlans`](ickp_spec::PhasePlans): under-declarations are
//!    errors (`AUD101`), over-declarations are perf lints quantified in
//!    statically skippable record bytes (`AUD102`).
//! 3. **Dynamic cross-validator** ([`cross_validate`]) — a debug-only
//!    oracle that executes the audited plan on a scratch heap and
//!    reconciles the stream against the journal's dirty set, backing the
//!    static verdicts in tests.
//! 4. **Shard-interference pass** ([`audit_shards`]) — a static race
//!    detector for the parallel engine: per-shard object/field footprints
//!    by abstract interpretation, proved pairwise disjoint (`AUD201`),
//!    complete against the sequential coverage (`AUD202`/`AUD203`), and
//!    first-touch deterministic (`AUD204`), plus a byte-imbalance perf
//!    lint (`AUD205`); [`cross_validate_shards`] backs the verdicts by
//!    tracing the real engine.
//! 5. **Barrier-coverage pass** ([`audit_barriers`]) — proves the dirty-set
//!    journal itself sound: every mutator in the heap's
//!    [`MutationCatalog`](ickp_heap::MutationCatalog) is abstract-interpreted
//!    (declaration consistency) and probed (observed footprint) against the
//!    journal/epoch/version protocol. Unjournaled byte changes (`AUD301`),
//!    missed `structure_version` bumps (`AUD302`), and epoch tampering
//!    (`AUD304`) are errors, as is a public mutator missing from the
//!    catalog (`AUD306`); over-journaling (`AUD303`) and over-declared
//!    effects (`AUD305`) are quantified lints.
//!    [`cross_validate_barriers`] backs the verdicts dynamically with
//!    randomized mutation sequences diffed against ground-truth snapshots;
//!    `repro barriers` and `ickp-backend`'s `barrier_restore` tests restore
//!    real checkpoint rounds and compare them with the live heap
//!    (`ickp_core::verify_restore`).
//! 6. **Durability-ordering pass** ([`audit_durability`]) — a static
//!    crash-consistency prover over recorded `Vfs`/wire op traces
//!    (`ickp-durable`'s `TraceVfs`): walks the typed op stream under the
//!    explicit persistence model, proves every client acknowledgement
//!    rests on a fully fsynced, fully published manifest commit
//!    (`AUD401`–`AUD406` are ordering errors, `AUD407`/`AUD408` perf
//!    lints), and computes the crash-state equivalence classes the
//!    pruned crash matrix replays. `ickp_durable::crash_matrix` backs the
//!    verdicts by replaying the first and last member of every class
//!    through the real `MemFs` crash machinery.
//!
//! Diagnostics carry stable `AUDnnn` codes, severities, locations, and
//! suggestions; [`AuditReport::render`] prints them one per line and
//! [`AuditReport::has_errors`] is the CI gate (`repro audit`).
//!
//! ## Example
//!
//! ```
//! use ickp_audit::audit_plan;
//! use ickp_heap::{ClassRegistry, FieldType};
//! use ickp_spec::{ListPattern, NodePattern, SpecShape, Specializer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut reg = ClassRegistry::new();
//! let elem = reg.define("Elem", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])?;
//! let holder = reg.define("Holder", None, &[("head", FieldType::Ref(Some(elem)))])?;
//! let shape = SpecShape::object(
//!     holder,
//!     NodePattern::FrozenHere,
//!     vec![(0, SpecShape::list(elem, 1, 3, ListPattern::LastOnly))],
//! );
//! let plan = Specializer::new(&reg).compile(&shape)?;
//!
//! // A freshly compiled plan audits clean against its own declaration…
//! assert!(audit_plan(&plan, &shape, &reg).is_clean());
//!
//! // …but not against a declaration it was not compiled from.
//! let stale = SpecShape::object(
//!     holder,
//!     NodePattern::FrozenHere,
//!     vec![(0, SpecShape::list(elem, 1, 4, ListPattern::MayModify))],
//! );
//! assert!(audit_plan(&plan, &stale, &reg).has_errors());
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod barriers;
mod coverage;
mod diag;
mod durability;
mod oracle;
mod shards;
mod soundness;
mod verify;

pub use barriers::{
    audit_barriers, audit_barriers_with, cross_validate_barriers, BarrierAudit,
    BarrierOracleReport, BarrierProbe, MutatorSpec,
};
pub use coverage::{expected_events, fmt_path, Event, Path, Step};
pub use diag::{AuditReport, DiagCode, Diagnostic, Location, Severity};
pub use durability::{audit_durability, DurabilityAudit, OpTraceSpec};
pub use oracle::{cross_validate, OracleReport};
pub use shards::{
    audit_shards, audit_shards_with, cross_validate_shards, shard_footprints, ShardAudit,
    ShardAuditConfig, ShardFootprint, ShardOracleReport, ShardSpec,
};
pub use soundness::{
    audit_phase_patterns, engine_footprints, recordable_bytes, PhaseFootprint, RECORD_HEADER_BYTES,
};
pub use verify::verify_plan;

/// Convenience alias for [`verify_plan`]: audits one compiled plan against
/// the declaration it claims to implement.
pub fn audit_plan(
    plan: &ickp_spec::Plan,
    shape: &ickp_spec::SpecShape,
    registry: &ickp_heap::ClassRegistry,
) -> AuditReport {
    verify_plan(plan, shape, registry)
}
