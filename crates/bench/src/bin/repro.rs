//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p ickp-bench --release --bin repro -- all
//! cargo run -p ickp-bench --release --bin repro -- fig10 --structures 5000 --rounds 3
//! ```
//!
//! Experiments: `table1`, `fig7`, `fig8`, `fig9`, `fig10`, `fig11`,
//! `table2`, `recovery`, `journal`, or `all` (every experiment, in that
//! order). `recovery` and `journal` extend the paper: restore cost
//! against store length with compaction, and the dirty-set journal's
//! fast path. Absolute numbers are machine-dependent; the *shape* (who
//! wins, by what factor, where the crossovers are) is the reproduction
//! target. See EXPERIMENTS.md. The `audit`, `crashes`, `shards`,
//! `barriers`, `lifecycle`, `scaling`, `replicate`, and `durability`
//! subcommands are correctness gates whose exit codes feed CI; they run
//! alone, not under `all`. `shards --max-imbalance R` additionally gates
//! on the heaviest/lightest per-shard byte ratio; `scaling` measures the
//! parallel engine's phase breakdown and proves byte-identity at every
//! worker count. [`COMMANDS`] is the one list of subcommands: parsing,
//! the usage line and `all` are read from it.

use ickp_analysis::{AnalysisEngine, Division, Phase};
use ickp_audit::{
    audit_barriers, audit_barriers_with, audit_durability, audit_phase_patterns, audit_shards,
    cross_validate_barriers, cross_validate_shards, engine_footprints, verify_plan, AuditReport,
    DiagCode, MutatorSpec, Severity,
};
use ickp_backend::{Engine, GenericBackend, ParallelBackend};
use ickp_bench::history::{parallel, sequential};
use ickp_bench::timing::{fmt_bytes, fmt_duration, median_time, speedup};
use ickp_bench::{record_history, run_table1, History, Strategy, SynthRunner, Variant};
use ickp_core::{
    compact, object_slices, plan_shards, restore, verify_restore, CheckpointConfig,
    CheckpointRecord, CheckpointStore, Checkpointer, CoreError, MethodTable, RestorePolicy,
    RestoredHeap,
};
use ickp_durable::{
    crash_matrix, DurableConfig, DurableStore, MatrixOptions, MatrixReport, MemFs, OpCounter,
    StoreTopology, TraceEvent, TraceLog, TraceNode, TraceOp, TraceVfs, MANIFEST,
};
use ickp_heap::{
    chunk_roots, first_touch_plan, ClassRegistry, DeclaredEffect, DirtyScope, FieldType, Heap,
    HeapError, MutationCatalog, MutationProbe, ObjectId, Value,
};
use ickp_lifecycle::{CheckpointManager, LifecycleConfig, RetentionPolicy};
use ickp_minic::programs::{image_program, DEFAULT_FILTERS};
use ickp_minic::Program;
use ickp_spec::Specializer;
use ickp_synth::{ModificationSpec, SynthConfig, SynthWorld};
use std::time::{Duration, Instant};

struct Options {
    structures: usize,
    rounds: usize,
    filters: usize,
    max_imbalance: Option<f64>,
}

/// What a subcommand runs.
enum Run {
    /// A paper experiment: prints its table. `all` runs every one.
    Experiment(fn(&Options)),
    /// A correctness gate: runs alone, never under `all`, and returns the
    /// process exit code, which feeds CI.
    Gate(fn(&Options) -> i32),
}

/// Every subcommand, in the usage line's order; `all` runs the
/// experiments in this order.
const COMMANDS: [(&str, Run); 17] = [
    ("table1", Run::Experiment(table1)),
    ("fig7", Run::Experiment(fig7)),
    ("fig8", Run::Experiment(fig8)),
    ("fig9", Run::Experiment(fig9)),
    ("fig10", Run::Experiment(fig10)),
    ("fig11", Run::Experiment(fig11)),
    ("table2", Run::Experiment(table2)),
    ("recovery", Run::Experiment(recovery)),
    ("journal", Run::Experiment(journal)),
    // The auditor is a static gate, not a benchmark.
    ("audit", Run::Gate(audit)),
    // Likewise the crash matrix: a deterministic correctness gate (every
    // I/O operation of two workloads crashed and recovered), not a
    // benchmark.
    ("crashes", Run::Gate(crashes)),
    // The shard-interference audit: proves every in-repo shard plan
    // disjoint, complete, and deterministic, then cross-validates the
    // static footprints against the traced engine.
    ("shards", Run::Gate(shards)),
    // The barrier-coverage gate: statically proves the dirty-set journal
    // sound over the heap's mutator catalog, pins every injected breakage
    // to its AUD30x code, and cross-validates with randomized mutation
    // sequences, then restores real checkpoint rounds and compares them
    // with the live heap.
    ("barriers", Run::Gate(barriers)),
    // The lifecycle gate: tags, binomial retention, and content-hash
    // dedup over the checkpoint manager, with every restored heap
    // verified. Deterministic apart from latencies.
    ("lifecycle", Run::Gate(lifecycle)),
    // The measured-scaling harness: byte-identity of the parallel engine
    // at every worker count plus its wall-clock phase breakdown, at paper
    // scale. The printed table is the CI artifact.
    ("scaling", Run::Gate(scaling)),
    // The replication gate: the two-node failover crash matrix (kill
    // either node at every interleaved I/O or wire operation, mask every
    // transport fault, survive every partition) plus the group-commit
    // fsync amortization check. Deterministic.
    ("replicate", Run::Gate(replicate)),
    // The durability-ordering gate: the static crash-consistency prover
    // (`audit_durability`) over traced store, lifecycle, and replicated
    // workloads, six injected violations pinned to their exact AUD4xx
    // codes, and the crash-class verdicts cross-validated against the
    // MemFs crash oracle. Deterministic.
    ("durability", Run::Gate(durability)),
];

fn main() {
    let mut command = None; // `all`
    let mut opts =
        Options { structures: 20_000, rounds: 3, filters: DEFAULT_FILTERS, max_imbalance: None };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--structures" => opts.structures = value(args.next(), "--structures needs a number"),
            "--rounds" => opts.rounds = value(args.next(), "--rounds needs a number"),
            "--filters" => opts.filters = value(args.next(), "--filters needs a number"),
            "--max-imbalance" => {
                let what = "--max-imbalance needs a ratio >= 1.0";
                let ratio: f64 = value(args.next(), what);
                opts.max_imbalance = Some(ratio).filter(|r| *r >= 1.0).or_else(|| usage(what));
            }
            "all" => command = None,
            name => match COMMANDS.iter().find(|(known, _)| *known == name) {
                Some(entry) => command = Some(entry),
                None => usage(&format!("unknown argument `{name}`")),
            },
        }
    }

    if let Some((_, Run::Gate(gate))) = command {
        std::process::exit(gate(&opts));
    }
    let chosen = command.map_or("all", |(name, _)| *name);
    println!("# ickp reproduction — {chosen}");
    println!("# structures={} rounds={} filters={}\n", opts.structures, opts.rounds, opts.filters);
    for (name, run) in &COMMANDS {
        if let Run::Experiment(experiment) = run {
            if chosen == "all" || chosen == *name {
                experiment(&opts);
            }
        }
    }
}

/// Parses an option's value, or exits with `what` as the usage error.
fn value<T: std::str::FromStr>(arg: Option<String>, what: &str) -> T {
    arg.and_then(|v| v.parse().ok()).unwrap_or_else(|| usage(what))
}

fn usage(msg: &str) -> ! {
    let names: Vec<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
    eprintln!("error: {msg}");
    eprintln!(
        "usage: repro [{}|all] [--structures N] [--rounds R] [--filters F] [--max-imbalance RATIO]",
        names.join("|")
    );
    std::process::exit(2);
}

/// A gate's last line and exit code: `pass` and 0 if nothing failed,
/// else `fail` and 1.
fn verdict(failures: usize, pass: &str, fail: &str) -> i32 {
    println!("{}", if failures == 0 { pass } else { fail });
    i32::from(failures > 0)
}

// ------------------------------------------------------- shared subjects

/// The small three-phase program the gates analyse, with its division.
fn sample_program() -> (Program, Division) {
    let program = ickp_minic::parse("int d; int s; void main() { s = d + 1; }").expect("parses");
    (program, Division { dynamic_globals: vec!["d".to_string()] })
}

/// The analysis engine over [`sample_program`].
fn sample_engine() -> AnalysisEngine {
    let (program, division) = sample_program();
    AnalysisEngine::new(program, division).expect("engine builds")
}

/// The sample engine's attribute heap and roots as its binding-time
/// phase's last iteration sees them.
fn sample_binding_time_heap() -> (Heap, Vec<ObjectId>) {
    let mut engine = sample_engine();
    let mut captured = None;
    engine
        .run_phase(Phase::BindingTime, |heap, attrs, _| {
            captured = Some((heap.clone(), attrs.to_vec()));
            Ok(())
        })
        .expect("phase runs");
    captured.expect("the phase iterates at least once")
}

/// The paper's synthetic shape (5 lists of 5 elements of 10 ints) at
/// `structures` structures.
fn paper_scale(structures: usize) -> SynthConfig {
    SynthConfig {
        structures,
        lists_per_structure: 5,
        list_len: 5,
        ints_per_element: 10,
        seed: 0x5ca1e,
    }
}

/// The crash matrices' state check: a recovery that kept `acked`
/// checkpoints must restore the heap the last of them captured.
fn acked_state(
    states: &[(Heap, Vec<ObjectId>)],
) -> impl FnMut(usize, &RestoredHeap) -> Option<String> + '_ {
    |acked, restored| {
        let (heap, roots) = &states[acked - 1];
        verify_restore(heap, roots, restored).expect("verify_restore runs")
    }
}

/// The codes of `report`'s error-severity findings, in report order.
fn error_codes(report: &AuditReport) -> Vec<DiagCode> {
    report.diagnostics().iter().filter(|d| d.severity == Severity::Error).map(|d| d.code).collect()
}

/// The first `int` slot of `id`'s class, if it has one.
fn int_slot(heap: &Heap, id: ObjectId) -> Result<Option<usize>, HeapError> {
    let class = heap.class(heap.class_of(id)?)?;
    Ok(class.layout().iter().position(|f| matches!(f.ty(), FieldType::Int)))
}

fn mods(pct: u8, lists: usize, last_only: bool) -> ModificationSpec {
    ModificationSpec { pct_modified: pct, modified_lists: lists, last_only }
}

// ------------------------------------------------------------------ audit

/// Statically audits every specialization declaration the repo ships:
/// the analysis engine's phase plans (for a small program and the paper's
/// image workload) and the synthetic benchmark's shape family, each
/// compiled plain and register-compacted. Prints one report per subject
/// and returns the process exit code (1 if any error-severity finding).
fn audit(_: &Options) -> i32 {
    println!("# ickp audit — static soundness of in-repo declarations\n");
    let mut errors = 0usize;
    let mut report_on = |subject: &str, report: &AuditReport| {
        let verdict =
            if report.is_clean() { "clean".to_string() } else { format!("\n{}", report.render()) };
        println!("{subject}: {verdict}");
        if report.has_errors() {
            errors += 1;
        }
    };

    // 1. The analysis engine's own phase declarations, over both a small
    //    three-phase program and the paper's image workload.
    let image = Division { dynamic_globals: vec!["image".to_string(), "work".to_string()] };
    for (name, (program, div)) in
        [("sample", sample_program()), ("image", (image_program(), image))]
    {
        let engine = AnalysisEngine::new(program, div.clone()).expect("engine builds");
        let plans = engine.compile_phase_plans().expect("plans compile");
        let mut phases: Vec<&str> = plans.phases().collect();
        phases.sort_unstable();
        for phase in phases {
            let plan = plans.plan(phase).expect("listed");
            let shape = plans.shape(phase).expect("engine registers shapes");
            report_on(
                &format!("engine[{name}] plan `{phase}`"),
                &verify_plan(plan, shape, engine.heap().registry()),
            );
        }
        let footprints = engine_footprints(engine.program(), &div).expect("inference runs");
        report_on(
            &format!("engine[{name}] phase patterns"),
            &audit_phase_patterns(&plans, &footprints, engine.heap().registry()),
        );
    }

    // 2. The synthetic benchmark's declared shape family.
    let world = SynthWorld::build(SynthConfig::small()).expect("world builds");
    let spec = Specializer::new(world.heap().registry());
    let shapes = [
        ("structure-only", world.shape_structure_only()),
        ("modified-lists k=3", world.shape_modified_lists(3)),
        ("last-only k=3", world.shape_last_only(3)),
    ];
    for (name, shape) in shapes {
        let plan = spec.compile(&shape).expect("compiles");
        report_on(&format!("synth `{name}`"), &verify_plan(&plan, &shape, world.heap().registry()));
        let optimized = spec.compile_optimized(&shape).expect("compiles");
        report_on(
            &format!("synth `{name}` (compacted)"),
            &verify_plan(&optimized, &shape, world.heap().registry()),
        );
    }

    verdict(
        errors,
        "\naudit passed: no error-severity findings",
        &format!("\naudit FAILED: {errors} subject(s) with error-severity findings"),
    )
}

// --------------------------------------------------------------- crashes

/// Enumerates every crash point of two real workloads against the
/// durable store (see `ickp_durable::crash_matrix`, run with
/// `MatrixOptions { full: true }`): for each mutating I/O operation,
/// crash there, recover, and require exactly the acknowledged
/// checkpoints back — byte-identical and restorable to the matching
/// program state. Deterministic (no timing dependence); returns the
/// process exit code.
fn crashes(_: &Options) -> i32 {
    type Workload = (ClassRegistry, Vec<(Heap, Vec<ObjectId>)>, Vec<CheckpointRecord>);

    println!("# ickp crashes — crash-point enumeration over the durable store\n");

    let synthetic: Workload = {
        let config = SynthConfig {
            structures: 10,
            lists_per_structure: 3,
            list_len: 4,
            ints_per_element: 1,
            seed: 23,
        };
        let history = record_history(config, 5, &mods(40, 3, false), true, |world| {
            parallel(2, world.heap().registry())
        });
        (history.world.heap().registry().clone(), history.states, history.records)
    };

    let analysis: Workload = {
        let mut engine = sample_engine();
        let registry = engine.heap().registry().clone();
        let mut backend = GenericBackend::new(Engine::Jdk12, &registry);
        let mut states = Vec::new();
        let mut records = Vec::new();
        for phase in [Phase::SideEffect, Phase::BindingTime, Phase::EvalTime] {
            engine
                .run_phase(phase, |heap, attrs, _| {
                    records.push(backend.checkpoint(heap, attrs)?);
                    states.push((heap.clone(), attrs.to_vec()));
                    Ok(())
                })
                .expect("phase runs");
        }
        (registry, states, records)
    };

    let mut failures = 0usize;
    for (name, (registry, states, records)) in
        [("synthetic", synthetic), ("analysis-engine", analysis)]
    {
        // Small segment target so the matrix also crosses segment rolls.
        let store = StoreTopology { config: DurableConfig { segment_target_bytes: 512 } };
        let outcome = crash_matrix(
            &store,
            &registry,
            &records,
            MatrixOptions { full: true },
            |fs, acks| {
                let mut durable = DurableStore::create(fs, store.config)?;
                for (i, record) in records.iter().enumerate() {
                    durable.append(record)?;
                    acks.ack(i as u64 + 1);
                }
                Ok(())
            },
            acked_state(&states),
        );
        match outcome {
            Ok(MatrixReport { total_ops, records, .. }) => {
                println!(
                    "{name}: {records} checkpoints, {total_ops} I/O ops — every crash point \
                     recovered exactly the acknowledged prefix"
                );
            }
            Err(e) => {
                println!("{name}: FAILED — {e}");
                failures += 1;
            }
        }
    }

    verdict(
        failures,
        "\ncrash matrix passed",
        &format!("\ncrash matrix FAILED: {failures} workload(s)"),
    )
}

// ------------------------------------------------------------- replicate

/// The replication gate. Three deterministic checks, one exit code:
///
/// 1. **Failover matrix** — the full `crash_matrix` (`MatrixOptions {
///    full: true }`) over a `PairTopology` running a parallel-backend
///    workload: kill the primary, the follower, or the
///    wire at every interleaved operation, inject loss / duplication /
///    reordering / partition at every frame, and require the survivor's
///    disk to hold a byte-identical, restorable, promotable prefix of
///    the acknowledged records every single time.
/// 2. **Byte identity** — a fault-free two-node run must leave both
///    stores byte-identical after recovery.
/// 3. **Fsync amortization** — group commit must push fsyncs/record
///    below 1.0 from batch size 4 up (3 fsyncs acknowledge a whole
///    single-segment batch), measured exactly via `IoStats`.
fn replicate(_: &Options) -> i32 {
    use ickp_replicate::{PairFaults, PairTopology, ReplicateConfig};

    println!("# ickp replicate — two-node failover matrix and group-commit gate\n");
    let mut failures = 0usize;

    // A workload small enough that the O(ops²) matrix stays fast but
    // wide enough to cross batch boundaries and segment rolls.
    let workload = SynthConfig {
        structures: 6,
        lists_per_structure: 2,
        list_len: 3,
        ints_per_element: 1,
        seed: 29,
    };
    let History { world, records, states, .. } =
        record_history(workload, 5, &ModificationSpec::uniform(35), true, |world| {
            parallel(2, world.heap().registry())
        });
    let registry = world.heap().registry();

    let config = ReplicateConfig {
        durable: DurableConfig { segment_target_bytes: 512 },
        batch_records: 2,
        max_retries: 3,
        dedup: true,
    };
    let topology = PairTopology { config };
    let matrix = crash_matrix(
        &topology,
        registry,
        &records,
        MatrixOptions { full: true },
        |pair, acks| {
            for record in &records {
                pair.append(record.clone())?;
                acks.ack(pair.acked_records());
            }
            pair.commit()?;
            acks.ack(pair.acked_records());
            Ok(())
        },
        acked_state(&states),
    );
    match matrix {
        Ok(report) => {
            println!(
                "failover matrix: {} checkpoints, {} interleaved ops ({} on the wire)",
                report.records, report.total_ops, report.transport_ops
            );
            println!(
                "  {} kill points survived ({} with the survivor ahead of the ack), \
                 {} masked faults, {} partitions",
                report.replays, report.promoted_extra, report.masked_faults, report.clean_failures
            );
        }
        Err(e) => {
            println!("failover matrix: FAILED — {e}");
            failures += 1;
        }
    }

    // Byte identity over a perfect link.
    let run = topology.run_once(registry, PairFaults::default(), &OpCounter::new(), None, |pair| {
        for r in &records {
            pair.append(r.clone())?;
        }
        pair.commit()?;
        Ok(())
    });
    run.result.expect("fault-free run");
    if run.acked != records.len() as u64 {
        println!("byte identity: FAILED — not every record was acknowledged");
        failures += 1;
    }
    let recovered = |mut fs: MemFs| {
        let (_, store) = DurableStore::open(&mut fs, config.durable, registry).expect("reopen");
        store
    };
    let [p, f] =
        <[_; 2]>::try_from(run.nodes).expect("a pair has two nodes").map(|n| recovered(n.disk));
    let identical = p.len() == records.len()
        && f.len() == records.len()
        && p.records().iter().zip(f.records()).all(|(a, b)| a.bytes() == b.bytes());
    if identical {
        println!("byte identity: primary ≡ follower across {} records", records.len());
    } else {
        println!("byte identity: FAILED — stores diverge after a fault-free run");
        failures += 1;
    }

    // Fsync amortization, measured exactly.
    println!("\n{:>6} {:>8} {:>14}  verdict", "batch", "fsyncs", "fsyncs/record");
    for batch in [1usize, 2, 4, 8, 16] {
        let stream: Vec<CheckpointRecord> = records
            .iter()
            .cloned()
            .cycle()
            .take(16)
            .enumerate()
            .map(|(i, r)| {
                let (_, kind, roots, bytes, stats) = r.into_parts();
                CheckpointRecord::from_parts(i as u64, kind, roots, bytes, stats)
            })
            .collect();
        let mut fs = MemFs::new();
        let mut store =
            DurableStore::create(&mut fs, DurableConfig { segment_target_bytes: 4 << 20 })
                .expect("create");
        let before = store.io_stats();
        for chunk in stream.chunks(batch) {
            store.append_batch(chunk).expect("append");
        }
        let ratio = (store.io_stats().fsyncs() - before.fsyncs()) as f64 / stream.len() as f64;
        let ok = batch < 4 || ratio < 1.0;
        println!(
            "{batch:>6} {:>8} {ratio:>14.3}  {}",
            store.io_stats().fsyncs() - before.fsyncs(),
            if ok { "ok" } else { "FAILED (>= 1 fsync/record at batch >= 4)" }
        );
        if !ok {
            failures += 1;
        }
    }

    verdict(
        failures,
        "\nreplication gate passed",
        &format!("\nreplication gate FAILED: {failures} check(s)"),
    )
}

// ---------------------------------------------------------------- shards

/// Audits the first-touch shard decomposition of every in-repo heap at
/// 1/2/4/8 shards (`ickp_audit::audit_shards`: disjointness, coverage,
/// deterministic ownership, imbalance), then cross-validates the static
/// footprints against the traced parallel engine
/// (`ickp_audit::cross_validate_shards`). Plans are the engine's own
/// (`ickp_core::plan_shards`). Deterministic; returns the process exit code
/// (1 if any AUD20x error or dynamic inconsistency — or, when
/// `--max-imbalance` is given, any finite heaviest/lightest per-shard byte
/// ratio above it; the infinite ratio of an empty shard means more
/// workers than roots, which no balancing can fix, and is not gated).
fn shards(opts: &Options) -> i32 {
    println!("# ickp shards — shard-interference audit + dynamic cross-validation\n");
    if let Some(max) = opts.max_imbalance {
        println!("# gating on per-shard byte imbalance <= {max:.2}\n");
    }

    // Subjects: the synthetic benchmark world and the analysis engine's
    // attribute heap as its binding-time phase sees it.
    let world = SynthWorld::build(SynthConfig::small()).expect("world builds");
    let (engine_heap, engine_roots) = sample_binding_time_heap();
    let subjects: [(&str, &Heap, &[ObjectId]); 2] = [
        ("synth[small]", world.heap(), world.roots()),
        ("engine[sample]", &engine_heap, &engine_roots),
    ];

    let mut failures = 0usize;
    for (name, heap, roots) in subjects {
        for workers in [1usize, 2, 4, 8] {
            let plan = match plan_shards(heap, roots, workers) {
                Ok(plan) => plan,
                Err(e) => {
                    println!("{name} @ {workers} shard(s): planning FAILED — {e}");
                    failures += 1;
                    continue;
                }
            };
            let audit = match audit_shards(heap, roots, &plan) {
                Ok(audit) => audit,
                Err(e) => {
                    println!("{name} @ {workers} shard(s): audit FAILED — {e}");
                    failures += 1;
                    continue;
                }
            };
            let objects: Vec<usize> = audit.footprints.iter().map(|f| f.objects.len()).collect();
            let ratio = audit.byte_imbalance();
            let balance_verdict = match opts.max_imbalance {
                Some(max) if ratio.is_finite() && ratio > max => {
                    failures += 1;
                    format!("byte imbalance {ratio:.2} EXCEEDS {max:.2}")
                }
                _ if ratio.is_finite() => format!("byte imbalance {ratio:.2}"),
                _ => "byte imbalance inf (empty shard: more workers than roots)".to_string(),
            };
            let static_verdict = if audit.report.is_clean() {
                "clean".to_string()
            } else if audit.report.has_errors() {
                failures += 1;
                format!("INTERFERENCE\n{}", audit.report.render())
            } else {
                // Perf lints (AUD205) report, but do not gate.
                format!("lint\n{}", audit.report.render())
            };
            let dynamic_verdict = match cross_validate_shards(heap, roots, workers) {
                Ok(oracle) if oracle.is_consistent() => "observation ⊆ analysis".to_string(),
                Ok(oracle) => {
                    failures += 1;
                    format!(
                        "INCONSISTENT ({} escape(s), {} overlap(s))",
                        oracle.escapes.len(),
                        oracle.overlaps.len()
                    )
                }
                Err(e) => {
                    failures += 1;
                    format!("FAILED — {e}")
                }
            };
            println!(
                "{name} @ {workers} shard(s): static {static_verdict}; per-shard objects \
                 {objects:?}; {balance_verdict}; dynamic {dynamic_verdict}"
            );
        }
        println!();
    }

    verdict(
        failures,
        "shard audit passed: every plan disjoint, complete, and deterministic",
        &format!("shard audit FAILED: {failures} subject(s)"),
    )
}

// -------------------------------------------------------------- barriers

/// Statically proves the dirty-set journal sound: audits the heap's full
/// mutator catalog against the journal/epoch/version protocol
/// (`AUD301`–`AUD306`) on the synthetic paper world and the analysis
/// engine's attribute heap, pins each injected barrier breakage (missed
/// barrier, missed version bump, premature epoch clear, uncataloged
/// mutator) to its exact diagnostic code, and backs the static verdict
/// with 50+ randomized mutation sequences through the dynamic oracle.
/// It then restores every real checkpoint round on both backends from
/// the emitted records and compares the result with the live heap
/// (`verify_restore`), and demonstrates detection of an unbarriered
/// write. Deterministic; returns the process exit code (1 on any error or
/// inconsistency).
fn barriers(opts: &Options) -> i32 {
    println!("# ickp barriers — write-barrier coverage audit + restore-checked rounds\n");

    let mut failures = 0usize;
    let catalog = MutationCatalog::of_heap();
    let specs: Vec<&dyn MutatorSpec> =
        catalog.entries().iter().map(|e| e as &dyn MutatorSpec).collect();

    // ---- Static pass over real heaps -----------------------------------
    // The paper-scale world (probes clone the heap, so this is also a
    // scale test of the auditor itself) and the analysis engine's heap.
    let paper = SynthWorld::build(paper_scale(opts.structures)).expect("world builds");
    let paper_name = format!("synth[{}]", opts.structures);
    let (engine_heap, engine_roots) = sample_binding_time_heap();
    let subjects: [(&str, &Heap, &[ObjectId]); 2] = [
        (&paper_name, paper.heap(), paper.roots()),
        ("engine[sample]", &engine_heap, &engine_roots),
    ];
    for (name, heap, roots) in subjects {
        match audit_barriers(heap, roots, &catalog) {
            Ok(audit) if !audit.report.has_errors() => {
                println!(
                    "{name}: catalog sound — {} mutator(s) probed, {} over-journaling lint(s)",
                    audit.probes.len(),
                    audit.report.count(Severity::PerfLint),
                );
                for d in audit.report.diagnostics() {
                    println!("  {d}");
                }
            }
            Ok(audit) => {
                failures += 1;
                println!("{name}: catalog UNSOUND\n{}", audit.report.render());
            }
            Err(e) => {
                failures += 1;
                println!("{name}: audit FAILED — {e}");
            }
        }
    }
    println!();

    // ---- Injection pins ------------------------------------------------
    // Each documented failure mode, expressed as a broken spec the sound
    // heap API cannot, must land on exactly its own diagnostic code.
    struct Injected {
        name: &'static str,
        effect: DeclaredEffect,
        apply: fn(&mut Heap, &MutationProbe<'_>) -> Result<(), HeapError>,
    }
    impl MutatorSpec for Injected {
        fn name(&self) -> &str {
            self.name
        }
        fn effect(&self) -> DeclaredEffect {
            self.effect
        }
        fn apply(&self, heap: &mut Heap, probe: &MutationProbe<'_>) -> Result<(), HeapError> {
            (self.apply)(heap, probe)
        }
    }
    let rogue_store = Injected {
        name: "rogue_store",
        effect: DeclaredEffect {
            dirties: DirtyScope::Target,
            bytes_may_change: true,
            journals_dirty: true,
            ..DeclaredEffect::default()
        },
        apply: |heap, probe| {
            // First non-seed target with a scalar slot, so no structure
            // bump muddies the verdict.
            for &target in probe.targets.iter().filter(|&&t| Some(t) != probe.seed) {
                if let Some(slot) = int_slot(heap, target)? {
                    return heap.set_field_unbarriered(
                        target,
                        slot,
                        Value::Int(probe.salt as i32 | 1),
                    );
                }
            }
            Ok(())
        },
    };
    let silent_rewire = Injected {
        name: "silent_rewire",
        effect: DeclaredEffect {
            dirties: DirtyScope::Target,
            bytes_may_change: true,
            structure_may_change: true,
            journals_dirty: true,
            bumps_structure_version: false,
            ..DeclaredEffect::default()
        },
        apply: |_, _| Ok(()),
    };
    let eager_reset = Injected {
        name: "eager_reset",
        effect: DeclaredEffect::default(),
        apply: |heap, probe| {
            if let Some(seed) = probe.seed {
                heap.reset_modified(seed)?;
            }
            heap.finish_journal_epoch();
            Ok(())
        },
    };
    let injections: [(&Injected, DiagCode); 3] = [
        (&rogue_store, DiagCode::BarrierUnjournaledWrite),
        (&silent_rewire, DiagCode::BarrierMissedVersionBump),
        (&eager_reset, DiagCode::BarrierEpochTamper),
    ];
    for (broken, expected) in injections {
        let mut armed = specs.clone();
        armed.push(broken);
        match audit_barriers_with(&engine_heap, &engine_roots, &armed) {
            Ok(audit) => {
                let codes = error_codes(&audit.report);
                if codes == [expected] {
                    println!("injection `{}`: pinned to {}", broken.name, expected.code());
                } else {
                    failures += 1;
                    println!(
                        "injection `{}`: expected exactly [{}], got {:?}\n{}",
                        broken.name,
                        expected.code(),
                        codes,
                        audit.report.render()
                    );
                }
            }
            Err(e) => {
                failures += 1;
                println!("injection `{}`: audit FAILED — {e}", broken.name);
            }
        }
    }
    match audit_barriers(&engine_heap, &engine_roots, &catalog.without("set_modified")) {
        Ok(audit) => {
            let codes = error_codes(&audit.report);
            if codes == [DiagCode::BarrierUncataloged] {
                println!("injection `uncataloged`: pinned to AUD306");
            } else {
                failures += 1;
                println!("injection `uncataloged`: expected exactly [AUD306], got {codes:?}");
            }
        }
        Err(e) => {
            failures += 1;
            println!("injection `uncataloged`: audit FAILED — {e}");
        }
    }
    println!();

    // ---- Dynamic cross-validation --------------------------------------
    // 50+ randomized workloads per run: every seed must report the real
    // catalog consistent with the ground-truth state diff.
    let small = SynthWorld::build(SynthConfig::small()).expect("world builds");
    let dyn_subjects: [(&str, &Heap, &[ObjectId]); 2] = [
        ("synth[small]", small.heap(), small.roots()),
        ("engine[sample]", &engine_heap, &engine_roots),
    ];
    for (name, heap, roots) in dyn_subjects {
        let mut consistent = 0usize;
        let seeds = 28u64;
        for seed in 0..seeds {
            match cross_validate_barriers(heap, roots, &specs, 40, seed) {
                Ok(report) if report.is_consistent() => consistent += 1,
                Ok(report) => {
                    failures += 1;
                    println!("{name} seed {seed}: {}", report.render());
                    for v in &report.violations {
                        println!("  {v}");
                    }
                }
                Err(e) => {
                    failures += 1;
                    println!("{name} seed {seed}: oracle FAILED — {e}");
                }
            }
        }
        println!("{name}: {consistent}/{seeds} randomized workloads consistent");
    }
    println!();

    // ---- Restore-checked checkpoint rounds ------------------------------
    // Real checkpoint rounds on both backends, each applying `spec` before
    // its first checkpoint too: after every round the records emitted so
    // far are restored and compared with the heap that round captured.
    // `Lenient`: each backend's first record is an all-dirty incremental,
    // complete because `mark_all_modified` runs before it.
    let check = |store: &mut CheckpointStore,
                 record: CheckpointRecord,
                 live: &Heap,
                 roots: &[ObjectId]|
     -> Result<Option<String>, CoreError> {
        store.push(record)?;
        verify_restore(live, roots, &restore(store, live.registry(), RestorePolicy::Lenient)?)
    };
    let spec = mods(20, 2, false);
    let rounds = opts.rounds.max(6);
    let mut generic = record_history(SynthConfig::small(), rounds, &spec, true, |world| {
        world.apply_modifications(&spec);
        let mut backend = GenericBackend::new(Engine::Harissa, world.heap().registry());
        move |heap: &mut Heap, roots: &[ObjectId]| backend.checkpoint(heap, roots)
    });
    let sharded = record_history(SynthConfig::small(), rounds, &spec, true, |world| {
        world.apply_modifications(&spec);
        parallel(4, world.heap().registry())
    });
    let mut exact_rounds = 0usize;
    let mut restore_rounds =
        |label: &str, records: Vec<CheckpointRecord>, states: &[(Heap, Vec<ObjectId>)]| {
            let mut store = CheckpointStore::new();
            for (record, (heap, roots)) in records.into_iter().zip(states) {
                match check(&mut store, record, heap, roots) {
                    Ok(None) => exact_rounds += 1,
                    Ok(Some(diff)) => {
                        failures += 1;
                        println!("{label} restore: {diff}");
                    }
                    Err(e) => {
                        failures += 1;
                        println!("{label} restore FAILED — {e}");
                    }
                }
            }
            store
        };
    let mut store =
        restore_rounds("generic", std::mem::take(&mut generic.records), &generic.states);
    restore_rounds("parallel", sharded.records, &sharded.states);
    println!("restore check: {exact_rounds}/{} checkpoint round(s) exact", 2 * rounds);

    // Detection demo: one write smuggled past the barrier must be
    // caught on the very next checkpoint.
    let History { mut world, roots, engine: mut checkpoint, .. } = generic;
    let heap = world.heap();
    let scalar_target = heap.iter_live().find_map(|id| Some((id, int_slot(heap, id).ok()??)));
    match scalar_target {
        Some((id, slot)) => {
            world.heap_mut().set_field_unbarriered(id, slot, Value::Int(0x5EED)).expect("store");
            let record = checkpoint(world.heap_mut(), &roots).expect("checkpoint");
            let seq = record.seq();
            match check(&mut store, record, world.heap(), &roots) {
                Ok(Some(diff)) => {
                    println!("detection demo: unbarriered write caught — seq {seq}: {diff}");
                }
                Ok(None) => {
                    failures += 1;
                    println!("detection demo: unbarriered write NOT caught at seq {seq}");
                }
                Err(e) => {
                    failures += 1;
                    println!("detection demo: restore FAILED — {e}");
                }
            }
        }
        None => {
            failures += 1;
            println!("detection demo: no scalar slot found in the synth world");
        }
    }

    verdict(
        failures,
        "\nbarrier audit passed: journal protocol proven sound, statically and dynamically",
        &format!("\nbarrier audit FAILED: {failures} check(s)"),
    )
}

// --------------------------------------------------------------- scaling

/// Measured end-to-end scaling of the parallel engine at paper scale:
/// proves every worker count's stream byte-identical to the sequential
/// reference and cross-validates every round's shard accesses against
/// their static footprints (`ickp_audit::cross_validate_shards`), then
/// prints the pre-pass cost (sequential oracle vs the
/// parallel min-CAS plan) and the wall-clock phase breakdown
/// (plan / traverse / merge) with serial fraction and speedup over the
/// 1-worker engine. The journal is pinned off so every round runs the
/// shard workers. Identity gates the exit code; timing is informational.
fn scaling(opts: &Options) -> i32 {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("# ickp scaling — parallel engine, measured end to end\n");
    println!("# structures={} rounds={} cpus={}", opts.structures, opts.rounds, cpus);
    println!("# shards: every round's access sets cross-validated against static footprints");
    println!();

    let config = paper_scale(opts.structures);
    let no_journal = CheckpointConfig::incremental().without_journal();
    let mut failures = 0usize;

    // Byte-identity: mirrored worlds (same config, same construction,
    // same modification script) checkpointed by the parallel backend and
    // a journal-free sequential reference, every round, at every worker
    // count.
    let spec = mods(100, 5, false);
    for workers in [1usize, 2, 4, 8] {
        let mut world = SynthWorld::build(config).expect("world builds");
        let mut ref_world = SynthWorld::build(config).expect("world builds");
        let roots = world.roots().to_vec();
        let table = MethodTable::derive(ref_world.heap().registry());
        let mut backend =
            ParallelBackend::with_config(workers, world.heap().registry(), no_journal);
        let mut reference = Checkpointer::new(no_journal);
        let mut identical = true;
        for _ in 0..opts.rounds.max(2) {
            world.apply_modifications(&spec);
            ref_world.apply_modifications(&spec);
            let a = backend.checkpoint(world.heap_mut(), &roots).expect("checkpoint");
            let b = reference.checkpoint(ref_world.heap_mut(), &table, &roots).expect("checkpoint");
            identical &= a.bytes() == b.bytes();
            match cross_validate_shards(world.heap(), &roots, workers) {
                Ok(report) if report.is_consistent() => {}
                Ok(report) => {
                    failures += 1;
                    println!(
                        "{workers} workers: shard access INCONSISTENT — {} overlap(s), {} \
                         escape(s), {}/{} shard(s) ran",
                        report.overlaps.len(),
                        report.escapes.len(),
                        report.observed_shards,
                        report.static_shards
                    );
                }
                Err(e) => {
                    failures += 1;
                    println!("{workers} workers: shard cross-validation FAILED — {e}");
                }
            }
        }
        if identical {
            println!("{workers} workers: byte-identical to the sequential stream");
        } else {
            failures += 1;
            println!("{workers} workers: stream DIVERGED from the sequential reference");
        }
    }

    // The ownership pre-pass on its own: the sequential oracle against
    // the one planner the engine runs when its plan is not cached.
    let world = SynthWorld::build(config).expect("world builds");
    let roots = world.roots().to_vec();
    let heap = world.heap();
    let samples = opts.rounds.max(5);
    let (seq_pre, _) =
        median_time(samples, || first_touch_plan(heap, chunk_roots(&roots, 8)).expect("plan"));
    println!("\npre-pass (8 shards): sequential oracle {}", fmt_duration(seq_pre));
    for workers in [1usize, 2, 4, 8] {
        let (par_pre, _) =
            median_time(samples, || plan_shards(heap, &roots, workers).expect("plan"));
        println!("pre-pass ({workers} shard(s), planner): {}", fmt_duration(par_pre));
    }

    // Steady-state phase breakdown and end-to-end speedup over the
    // 1-worker engine (plan served from cache in steady state, so the
    // plan column is zero; the uncached cost is the pre-pass line above).
    let mut runner = SynthRunner::new(opts.structures, 5, 10);
    let rounds = (2 * opts.rounds + 3).max(9);
    // Discarded warm-up measurement: the first parallel run pays one-off
    // process-heap growth that would otherwise bias the 1-worker row.
    runner.measure(Variant::ParallelNoJournal(8), &spec, 2);
    let seq = runner.measure(Variant::IncrementalNoJournal, &spec, rounds).time;
    println!("\nsequential checkpoint (no journal): {}", fmt_duration(seq));
    println!(
        "{:>7}  {:>12} {:>12} {:>12} {:>12}  {:>8} {:>8}",
        "workers", "total", "plan", "traverse", "merge", "serial%", "speedup"
    );
    let mut one_worker: Option<Duration> = None;
    for workers in [1usize, 2, 4, 8] {
        let m = runner.measure(Variant::ParallelNoJournal(workers), &spec, rounds);
        let p = m.phases.expect("parallel variants report phases");
        let base = *one_worker.get_or_insert(m.time);
        println!(
            "{:>7}  {:>12} {:>12} {:>12} {:>12}  {:>7.1}% {:>7.2}x",
            workers,
            fmt_duration(m.time),
            fmt_duration(p.plan),
            fmt_duration(p.traverse),
            fmt_duration(p.merge),
            p.serial_fraction() * 100.0,
            base.as_secs_f64() / m.time.as_secs_f64().max(f64::EPSILON),
        );
    }
    if cpus == 1 {
        println!("\nnote: single-CPU host — traverse cannot shrink with workers here;");
        println!("multi-core numbers come from the CI parallel-scaling job.");
    }

    verdict(
        failures,
        "\nscaling gate passed: all parallel streams byte-identical",
        &format!("\nscaling gate FAILED: {failures} check(s)"),
    )
}

// ------------------------------------------------------------- lifecycle

/// Drives the checkpoint manager through a tagged, retained, deduped
/// history and gates on the ISSUE's acceptance criteria: the chain never
/// exceeds the retention budget, tags survive retention and resolve by
/// rollback to the exact tagged heap, and content-hash dedup measurably
/// shrinks the store versus the same history stored plain. Returns the
/// process exit code.
fn lifecycle(opts: &Options) -> i32 {
    println!("# ickp lifecycle — tags, binomial retention, content-hash dedup\n");
    let structures = (opts.structures / 40).max(50);
    let rounds = 48usize;
    let budget = 10usize;
    println!("# structures={structures} rounds={rounds} budget={budget}\n");

    let mut failures = 0usize;
    let mut fail = |cond: bool, what: &str| {
        if !cond {
            println!("FAILED: {what}");
            failures += 1;
        }
    };

    // The same history twice: once deduped, once plain, so the space
    // comparison is exact. Periodic full checkpoints (every 16 rounds)
    // model the operational full-plus-increments cadence and are where
    // recurring subtrees pay off.
    let mut committed = [0u64; 2];
    for (which, dedup) in [(0usize, true), (1usize, false)] {
        let mut world = SynthWorld::build(SynthConfig {
            structures,
            lists_per_structure: 5,
            list_len: 5,
            ints_per_element: 10,
            seed: 41,
        })
        .expect("world builds");
        let roots = world.roots().to_vec();
        let registry = world.heap().registry().clone();
        let mut checkpoint = sequential(&registry);
        let config = LifecycleConfig {
            durable: DurableConfig { segment_target_bytes: 256 * 1024 },
            policy: RetentionPolicy { budget },
            dedup,
        };
        let mut mgr = CheckpointManager::create(MemFs::new(), config, &registry).expect("create");

        let mut tagged: Option<(u64, Heap)> = None;
        for round in 0..rounds {
            if round % 16 == 0 {
                world.heap_mut().mark_all_modified();
            } else {
                // One hot list per structure: the other four are stable
                // subtrees that every periodic full re-encodes
                // byte-identically — the dedup target.
                world.apply_modifications(&mods(20, 1, false));
            }
            let record = checkpoint(world.heap_mut(), &roots).expect("checkpoint");
            mgr.append(&record).expect("append");
            if round == rounds / 2 {
                let seq = mgr.tag("midpoint").expect("tag");
                tagged = Some((seq, world.heap().clone()));
            }
        }
        let (tag_seq, tag_heap) = tagged.expect("midpoint tagged");
        // Size the full history here, before retention rewrites it: both
        // configurations hold byte-identical records at this point, so
        // the dedup-vs-plain comparison is exact.
        committed[which] = mgr.store().committed_bytes();

        // Retention: fold to the budget, keeping the tag pinned.
        let report = mgr.maintain().expect("maintain");
        let kept: Vec<u64> = mgr.chain().records().iter().map(|r| r.seq()).collect();
        fail(!report.noop, "maintain must fold a 48-record chain");
        fail(
            kept.len() <= budget,
            &format!("chain over budget after maintain: {} > {budget}", kept.len()),
        );
        fail(kept.contains(&tag_seq), "the tagged checkpoint was folded away");
        fail(
            report.bytes_after < report.bytes_before,
            &format!("maintain did not shrink the store: {report:?}"),
        );

        // The folded tip still restores the live heap, and rolling back
        // to the tag reproduces the tagged heap exactly.
        let (restore_tip, tip) =
            median_time(opts.rounds.max(2), || mgr.restore_latest().expect("restore"));
        fail(
            verify_restore(world.heap(), &roots, &tip).expect("verify").is_none(),
            "restore after maintain diverged from the live heap",
        );
        let start = Instant::now();
        let rolled = mgr.reset_to("midpoint").expect("reset_to");
        let reset_latency = start.elapsed();
        fail(
            verify_restore(&tag_heap, &roots, &rolled).expect("verify").is_none(),
            "reset_to(midpoint) diverged from the tagged heap",
        );
        fail(mgr.next_seq() == tag_seq + 1, "next_seq must resume at the restore point");

        println!(
            "dedup={dedup:<5} history {:>10}  append-saved {:>10}  fold-saved {:>10}  chain {:>2} \
             records (kept seqs {kept:?})",
            fmt_bytes(committed[which] as usize),
            fmt_bytes(mgr.stats().dedup.bytes_saved() as usize),
            fmt_bytes(report.dedup.bytes_saved() as usize),
            kept.len(),
        );
        println!(
            "             restore(tip) {}  reset_to(midpoint) {}",
            fmt_duration(restore_tip),
            fmt_duration(reset_latency),
        );
        if dedup {
            fail(
                mgr.stats().dedup.bytes_saved() > 0,
                "dedup saved zero bytes on a history with recurring subtrees",
            );
        }
    }
    fail(
        committed[0] < committed[1],
        &format!(
            "deduped store ({}) must be smaller than plain ({})",
            fmt_bytes(committed[0] as usize),
            fmt_bytes(committed[1] as usize)
        ),
    );
    println!(
        "\ndedup stores the same history in {:.1}% of the plain bytes",
        100.0 * committed[0] as f64 / committed[1].max(1) as f64
    );

    verdict(
        failures,
        "\nlifecycle gate passed",
        &format!("\nlifecycle gate FAILED: {failures} check(s)"),
    )
}

const PCTS: [u8; 3] = [100, 50, 25];
const LENS: [usize; 2] = [1, 5];
const INTS: [usize; 2] = [1, 10];
const KS: [usize; 3] = [1, 3, 5];

// ---------------------------------------------------------------- table 1

fn table1(opts: &Options) {
    println!("## Table 1 — program analysis engine (image program, {} filters)", opts.filters);
    let t = run_table1(opts.filters);
    println!("attributes structures: {}\n", t.attributes);
    println!(
        "{:<28} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "strategy/phase", "iters", "min size", "max size", "total time", "mean time", "traversal"
    );
    for phase in [Phase::BindingTime, Phase::EvalTime] {
        for strategy in Strategy::ALL {
            let r = t.run(strategy, phase).expect("cell exists");
            let mean = r.total_time() / r.iterations.max(1) as u32;
            println!(
                "{:<28} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12}",
                format!("{} {}", phase.key(), strategy.label()),
                r.iterations,
                fmt_bytes(r.min_size()),
                fmt_bytes(r.max_size()),
                fmt_duration(r.total_time()),
                fmt_duration(mean),
                fmt_duration(r.traversal),
            );
        }
        // Paper headline ratios for this phase.
        let full = t.run(Strategy::Full, phase).expect("cell");
        let incr = t.run(Strategy::Incremental, phase).expect("cell");
        let spec = t.run(Strategy::SpecializedIncremental, phase).expect("cell");
        let m = |r: &ickp_bench::PhaseRun| r.total_time() / r.iterations.max(1) as u32;
        println!(
            "  -> {}: incr-vs-full size reduction {:.1}x..{:.1}x | spec-vs-incr time speedup {:.2}x | traversal speedup {:.2}x\n",
            phase.key(),
            full.min_size() as f64 / incr.max_size().max(1) as f64,
            full.max_size() as f64 / incr.min_size().max(1) as f64,
            speedup(m(incr), m(spec)),
            speedup(incr.traversal, spec.traversal),
        );
    }
}

// ---------------------------------------------------------------- figures

struct Grid {
    title: String,
    header: String,
    rows: Vec<String>,
}

impl Grid {
    fn print(&self) {
        println!("## {}", self.title);
        println!("{}", self.header);
        for r in &self.rows {
            println!("{r}");
        }
        println!();
    }
}

fn fig7(opts: &Options) {
    let mut grid = Grid {
        title: "Figure 7 — incremental vs full checkpointing".into(),
        header: format!(
            "{:<22} {:>12} {:>12} {:>12} {:>9}",
            "ints/len/%mod", "full", "incremental", "incr size", "speedup"
        ),
        rows: Vec::new(),
    };
    for ints in INTS {
        for len in LENS {
            let mut runner = SynthRunner::new(opts.structures, len, ints);
            for pct in PCTS {
                let m = mods(pct, 5, false);
                let full = runner.measure(Variant::FullGeneric, &m, opts.rounds);
                let incr = runner.measure(Variant::IncrementalNoJournal, &m, opts.rounds);
                grid.rows.push(format!(
                    "{:<22} {:>12} {:>12} {:>12} {:>8.2}x",
                    format!("{ints} int / len {len} / {pct}%"),
                    fmt_duration(full.time),
                    fmt_duration(incr.time),
                    fmt_bytes(incr.bytes),
                    speedup(full.time, incr.time),
                ));
            }
        }
    }
    grid.print();
}

fn spec_figure(
    opts: &Options,
    title: &str,
    variant: Variant,
    ks: &[usize],
    lens: &[usize],
    last_only: bool,
) {
    let mut grid = Grid {
        title: title.into(),
        header: format!(
            "{:<30} {:>12} {:>12} {:>9}",
            "ints/len/lists/%mod", "incremental", "specialized", "speedup"
        ),
        rows: Vec::new(),
    };
    for ints in INTS {
        for &len in lens {
            let mut runner = SynthRunner::new(opts.structures, len, ints);
            for &k in ks {
                for pct in PCTS {
                    let m = mods(pct, k, last_only);
                    let incr = runner.measure(Variant::IncrementalNoJournal, &m, opts.rounds);
                    let spec = runner.measure(variant, &m, opts.rounds);
                    grid.rows.push(format!(
                        "{:<30} {:>12} {:>12} {:>8.2}x",
                        format!("{ints} int / len {len} / {k} lists / {pct}%"),
                        fmt_duration(incr.time),
                        fmt_duration(spec.time),
                        speedup(incr.time, spec.time),
                    ));
                }
            }
        }
    }
    grid.print();
}

fn fig8(opts: &Options) {
    spec_figure(
        opts,
        "Figure 8 — specialization w.r.t. structure (vs incremental)",
        Variant::SpecStructure,
        &[5],
        &LENS,
        false,
    );
}

fn fig9(opts: &Options) {
    spec_figure(
        opts,
        "Figure 9 — structure + set of possibly-modified lists",
        Variant::SpecModifiedLists,
        &KS,
        &LENS,
        false,
    );
}

fn fig10(opts: &Options) {
    spec_figure(
        opts,
        "Figure 10 — structure + last-element-only positions",
        Variant::SpecLastOnly,
        &KS,
        &LENS,
        true,
    );
}

fn fig11(opts: &Options) {
    let mut grid = Grid {
        title: "Figure 11 — last-element specialization under JDK 1.2 and HotSpot (len 5)".into(),
        header: format!(
            "{:<34} {:>12} {:>12} {:>9}",
            "engine/ints/lists/%mod", "unspec", "spec", "speedup"
        ),
        rows: Vec::new(),
    };
    for engine in [Engine::Jdk12, Engine::HotSpot] {
        for ints in INTS {
            let mut runner = SynthRunner::new(opts.structures, 5, ints);
            for k in KS {
                for pct in PCTS {
                    let m = mods(pct, k, true);
                    let unspec = runner.measure(Variant::EngineGeneric(engine), &m, opts.rounds);
                    let spec = runner.measure(Variant::EngineSpecLastOnly(engine), &m, opts.rounds);
                    grid.rows.push(format!(
                        "{:<34} {:>12} {:>12} {:>8.2}x",
                        format!("{engine} / {ints} int / {k} lists / {pct}%"),
                        fmt_duration(unspec.time),
                        fmt_duration(spec.time),
                        speedup(unspec.time, spec.time),
                    ));
                }
            }
        }
    }
    grid.print();
}

/// Extension experiment (not in the paper): recovery cost as the store
/// grows, and the effect of compaction.
fn recovery(opts: &Options) {
    println!("## Recovery (extension) — restore time vs store length, and compaction");
    let structures = (opts.structures / 4).max(100);
    println!(
        "{:<14} {:>12} {:>12} {:>14} {:>14}",
        "increments", "store bytes", "compacted", "restore", "restore-compacted"
    );
    for increments in [1usize, 8, 32] {
        let config = SynthConfig {
            structures,
            lists_per_structure: 5,
            list_len: 5,
            ints_per_element: 1,
            seed: 5,
        };
        // A base checkpoint, then `increments` modified rounds.
        let History { world, roots, records, .. } =
            record_history(config, increments + 1, &mods(25, 5, false), false, |world| {
                sequential(world.heap().registry())
            });
        let mut store = CheckpointStore::new();
        store.extend(records);
        let compacted = compact(&store, world.heap().registry()).expect("compaction");

        let time_restore = |s: &CheckpointStore| {
            let (time, rebuilt) = median_time(opts.rounds.max(2), || {
                restore(s, world.heap().registry(), RestorePolicy::Lenient).expect("restore")
            });
            assert_eq!(verify_restore(world.heap(), &roots, &rebuilt).expect("verify"), None);
            time
        };
        println!(
            "{:<14} {:>12} {:>12} {:>14} {:>14}",
            increments,
            fmt_bytes(store.total_bytes()),
            fmt_bytes(compacted.total_bytes()),
            fmt_duration(time_restore(&store)),
            fmt_duration(time_restore(&compacted)),
        );
    }
    println!();
}

fn table2(opts: &Options) {
    println!("## Table 2 — absolute times, unspecialized vs specialized × engine (10 ints, len 5)");
    println!(
        "{:<26} {:>10} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14}",
        "lists/%mod",
        "",
        "JDK unspec",
        "JDK spec",
        "HotSpot unspec",
        "HotSpot spec",
        "Harissa unspec",
        "Harissa spec"
    );
    for k in [1usize, 5] {
        let mut runner = SynthRunner::new(opts.structures, 5, 10);
        for pct in PCTS {
            let m = mods(pct, k, true);
            let mut cells: Vec<Duration> = Vec::new();
            for engine in Engine::ALL {
                cells.push(runner.measure(Variant::EngineGeneric(engine), &m, opts.rounds).time);
                cells.push(
                    runner.measure(Variant::EngineSpecLastOnly(engine), &m, opts.rounds).time,
                );
            }
            println!(
                "{:<26} {:>10} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14}",
                format!("{k} lists / {pct}%"),
                "",
                fmt_duration(cells[0]),
                fmt_duration(cells[1]),
                fmt_duration(cells[2]),
                fmt_duration(cells[3]),
                fmt_duration(cells[4]),
                fmt_duration(cells[5]),
            );
        }
    }
    println!();
}

// ----------------------------------------------------- dirty-set journal

fn journal(opts: &Options) {
    let mut grid = Grid {
        title: "Dirty-set journal — flag-testing traversal vs journal fast path".into(),
        header: format!(
            "{:<10} {:>12} {:>12} {:>9} {:>12} {:>12} {:>14}",
            "% dirty", "traversal", "journal", "speedup", "hits", "pruned", "bytes reused"
        ),
        rows: Vec::new(),
    };
    for pct in [0u8, 1, 10, 50, 100] {
        let m = ModificationSpec::uniform(pct);
        // One runner per variant: same config, same seed, same per-round
        // modification script, so the two columns are directly comparable.
        let mut runner = SynthRunner::new(opts.structures, 5, 1);
        let trav = runner.measure(Variant::IncrementalNoJournal, &m, opts.rounds);
        let mut runner = SynthRunner::new(opts.structures, 5, 1);
        let fast = runner.measure(Variant::Incremental, &m, opts.rounds);
        grid.rows.push(format!(
            "{:<10} {:>12} {:>12} {:>8.2}x {:>12} {:>12} {:>14}",
            format!("{pct}%"),
            fmt_duration(trav.time),
            fmt_duration(fast.time),
            speedup(trav.time, fast.time),
            fast.stats.journal_hits,
            fast.stats.subtrees_pruned,
            fmt_bytes(fast.stats.bytes_reused as usize),
        ));
    }
    grid.print();
}

// ------------------------------------------------------------ durability

/// The durability-ordering gate. Four deterministic checks, one exit
/// code:
///
/// 1. **Store protocol** — the full single-node `DurableStore`
///    vocabulary (singles, a group commit, a tag, a dedup rewrite)
///    recorded through `TraceVfs` and statically proven crash-consistent
///    by `audit_durability` (zero error-severity findings).
/// 2. **Lifecycle protocol** — the `CheckpointManager` vocabulary
///    (appends, tags, policy-driven `maintain`, `reset_to`) under the
///    same prover.
/// 3. **Replicated protocol** — a two-node `ReplicaPair` run with both
///    filesystems and the wire in one shared `OpCounter` space; the
///    prover additionally checks every client acknowledgement waited
///    for durable-on-both.
/// 4. **Injections + oracle** — six hand-built ordering violations must
///    land on exactly their own AUD4xx code, and the store workload's
///    pruned crash matrix (whose traced baseline the static pass audits)
///    replays the first and last member of every crash class through the
///    real `MemFs` crash machinery, held to the class's static verdict.
fn durability(_: &Options) -> i32 {
    use ickp_replicate::{PairFaults, PairTopology, ReplicateConfig};

    println!("# ickp durability — static crash-consistency proofs over op traces\n");
    let mut failures = 0usize;

    // A record stream wide enough to cross segment rolls and batch
    // boundaries on every workload below.
    let workload = SynthConfig {
        structures: 48,
        lists_per_structure: 3,
        list_len: 4,
        ints_per_element: 2,
        seed: 0xd04a,
    };
    let History { world, records, .. } =
        record_history(workload, 8, &ModificationSpec::uniform(30), false, |world| {
            parallel(2, world.heap().registry())
        });
    let registry = world.heap().registry();
    let config = DurableConfig { segment_target_bytes: 512 };

    let mut report_subject = |name: &str, audit: &ickp_audit::DurabilityAudit| {
        let pruned: u64 = audit.classes.iter().map(|c| c.indices.len() as u64 - 1).sum();
        if audit.is_sound() {
            println!(
                "{name}: sound — {} ops, {} commit(s), {} ack(s), {} crash class(es) \
                 ({} crash point(s) pruned), {} perf lint(s)",
                audit.counted_ops,
                audit.commits,
                audit.acks,
                audit.classes.len(),
                pruned,
                audit.report.count(Severity::PerfLint),
            );
        } else {
            failures += 1;
            println!("{name}: UNSOUND\n{}", audit.report.render());
        }
    };

    // ---- 1. The single-node store protocol -----------------------------
    // The crash matrix traces its fault-free baseline for the static
    // pass; its replays are the oracle reported in 4b.
    let matrix = crash_matrix(
        &StoreTopology { config },
        registry,
        &records,
        MatrixOptions::default(),
        |fs, acks| {
            let mut store = DurableStore::create(fs, config)?;
            for (i, record) in records[..4].iter().enumerate() {
                store.append(record)?;
                acks.ack(i as u64 + 1);
            }
            store.append_batch(&records[4..])?;
            acks.ack(records.len() as u64);
            store.tag("stable", records[3].seq())?;
            let layouts = records
                .iter()
                .map(|r| object_slices(r.bytes(), registry))
                .collect::<Result<Vec<_>, _>>()?;
            let tags = store.tags().to_vec();
            store.rewrite(&records, &layouts, &tags)?;
            Ok(())
        },
        |_, _| None,
    );
    match &matrix {
        Ok(report) => report_subject("store", &audit_durability(&report.trace)),
        Err(_) => println!("store: not audited — its crash matrix failed (see the oracle)"),
    }

    // ---- 2. The lifecycle protocol -------------------------------------
    {
        let lc =
            LifecycleConfig { durable: config, policy: RetentionPolicy { budget: 3 }, dedup: true };
        let log = TraceLog::new();
        let mut fs = TraceVfs::new(MemFs::new(), log.clone());
        let mut mgr = CheckpointManager::create(&mut fs, lc, registry).expect("manager creates");
        let mut appended = 0u64;
        for (i, record) in records.iter().enumerate() {
            mgr.append(record).expect("append");
            appended += 1;
            log.client_ack(appended);
            if i == 3 {
                mgr.tag("alpha").expect("tag");
            }
        }
        mgr.maintain().expect("maintain");
        mgr.reset_to("alpha").expect("reset");
        drop(mgr);
        let trace = log.snapshot(&fs.counter());
        let audit = audit_durability(&trace);
        report_subject("lifecycle", &audit);
    }

    // ---- 3. The replicated protocol ------------------------------------
    {
        let log = TraceLog::new();
        let counter = OpCounter::new();
        let topology = PairTopology {
            config: ReplicateConfig {
                durable: config,
                batch_records: 2,
                max_retries: 3,
                dedup: true,
            },
        };
        let faults = PairFaults::default();
        let run = topology.run_once(registry, faults, &counter, Some(&log), |pair| {
            for record in &records {
                pair.append(record.clone())?;
                if pair.acked_records() > 0 {
                    log.client_ack(pair.acked_records());
                }
            }
            pair.commit()?;
            log.client_ack(pair.acked_records());
            Ok(())
        });
        run.result.expect("fault-free replicated drive");
        let trace = log.snapshot(&counter);
        let audit = audit_durability(&trace);
        let name = format!(
            "replicated ({} wire send(s), {} wire ack(s))",
            audit.wire_sends, audit.wire_acks
        );
        report_subject(&name, &audit);
    }
    println!();

    // ---- 4a. Injection pins --------------------------------------------
    struct RawTrace {
        events: Vec<TraceEvent>,
        counted: u64,
    }
    impl ickp_audit::OpTraceSpec for RawTrace {
        fn events(&self) -> &[TraceEvent] {
            &self.events
        }
        fn counted_ops(&self) -> u64 {
            self.counted
        }
    }
    let op = |index: u64, node: TraceNode, op: TraceOp| TraceEvent::Op { index, node, op };
    let local = TraceNode::Local;
    let sound_commit = |base: u64, node: TraceNode, seg: &str, records: u64| {
        vec![
            op(base, node, TraceOp::Write { path: seg.into(), offset: 0, len: 64 }),
            op(base + 1, node, TraceOp::Fsync { path: seg.into() }),
            op(base + 2, node, TraceOp::Create { path: "MANIFEST.tmp".into(), len: 32 }),
            op(base + 3, node, TraceOp::Fsync { path: "MANIFEST.tmp".into() }),
            op(
                base + 4,
                node,
                TraceOp::Rename { from: "MANIFEST.tmp".into(), to: MANIFEST.into() },
            ),
            op(base + 5, node, TraceOp::DirFsync),
            TraceEvent::ClientAck { records },
        ]
    };
    let injections: Vec<(&str, &str, RawTrace)> = vec![
        (
            "ack without a manifest publish",
            "AUD401",
            RawTrace {
                events: vec![
                    op(0, local, TraceOp::Write { path: "seg".into(), offset: 0, len: 64 }),
                    op(1, local, TraceOp::Fsync { path: "seg".into() }),
                    TraceEvent::ClientAck { records: 1 },
                ],
                counted: 2,
            },
        ),
        (
            "rename before the source fsync",
            "AUD402",
            RawTrace {
                events: vec![
                    op(0, local, TraceOp::Create { path: "MANIFEST.tmp".into(), len: 32 }),
                    op(
                        1,
                        local,
                        TraceOp::Rename { from: "MANIFEST.tmp".into(), to: MANIFEST.into() },
                    ),
                    op(2, local, TraceOp::Fsync { path: MANIFEST.into() }),
                    op(3, local, TraceOp::DirFsync),
                    TraceEvent::ClientAck { records: 1 },
                ],
                counted: 4,
            },
        ),
        (
            "publish without the directory fsync",
            "AUD403",
            RawTrace {
                events: vec![
                    op(0, local, TraceOp::Create { path: "MANIFEST.tmp".into(), len: 32 }),
                    op(1, local, TraceOp::Fsync { path: "MANIFEST.tmp".into() }),
                    op(
                        2,
                        local,
                        TraceOp::Rename { from: "MANIFEST.tmp".into(), to: MANIFEST.into() },
                    ),
                    TraceEvent::ClientAck { records: 1 },
                ],
                counted: 3,
            },
        ),
        (
            "write into a committed region",
            "AUD404",
            RawTrace {
                events: {
                    let mut events = sound_commit(0, local, "seg", 1);
                    events.push(op(
                        6,
                        local,
                        TraceOp::Write { path: "seg".into(), offset: 8, len: 8 },
                    ));
                    events
                },
                counted: 7,
            },
        ),
        (
            "client ack before the follower ack",
            "AUD405",
            RawTrace {
                events: {
                    let mut events = sound_commit(0, TraceNode::Primary, "seg", 1);
                    events.pop();
                    events.push(op(6, TraceNode::Primary, TraceOp::WireSend));
                    events.push(TraceEvent::ClientAck { records: 1 });
                    events
                },
                counted: 7,
            },
        ),
        (
            "I/O outside the shared op counter",
            "AUD406",
            RawTrace { events: sound_commit(0, local, "seg", 1), counted: 7 },
        ),
    ];
    println!("{:<40} {:>8}  verdict", "injected violation", "expected");
    for (name, expected, trace) in &injections {
        let audit = audit_durability(trace);
        let codes: Vec<&str> = error_codes(&audit.report).into_iter().map(DiagCode::code).collect();
        if codes == vec![*expected] {
            println!("{name:<40} {expected:>8}  pinned");
        } else {
            failures += 1;
            println!("{name:<40} {expected:>8}  MISSED: got {codes:?}");
        }
    }

    // ---- 4b. The MemFs crash oracle ------------------------------------
    match matrix {
        Ok(report) => {
            println!(
                "\noracle: {} class(es), {} sampled, {} crash replay(s) — static verdicts \
                 match the MemFs crash machinery",
                report.classes, report.classes, report.replays
            );
        }
        Err(e) => {
            failures += 1;
            println!("\noracle: DISAGREES — {e}");
        }
    }

    verdict(
        failures,
        "\ndurability audit passed",
        &format!("\ndurability audit FAILED: {failures} check(s)"),
    )
}
