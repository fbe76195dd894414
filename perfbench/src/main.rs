//! End-to-end checkpoint pipeline benchmark.
//!
//! One *episode* drives an application heap through the whole path an
//! application pays for:
//!
//! 1. **mutate** — barriered field writes (write barrier + dirty journal):
//!    random element writes into a synthetic heap (the paper's structures
//!    of linked lists), or one fixpoint iteration of the program-analysis
//!    engine (the paper's §4 application);
//! 2. **capture** — one incremental checkpoint, by the sequential driver
//!    (journal fast path when it applies) or the sharded parallel engine
//!    (plan, traverse, merge);
//! 3. **commit** — group commit into the primary's durable store (frame,
//!    CRC, optional dedup, segment write, fsync, manifest swap);
//! 4. **replicate** — the batch ships to the follower, which applies it
//!    durably and acknowledges; only then is it acknowledged to the caller;
//! 5. **recover** — after a power cut on the follower its directory is
//!    opened and the heap restored, then compared with the live heap.
//!
//! Both nodes use the in-memory `MemFs` and the in-process
//! `ChannelTransport`, and the process pins itself to one CPU, so every
//! figure is the single-core CPU cost of the protocol on the host that
//! runs it, not device or network latency and not parallel speed-up: the
//! 2-worker sharded engine's workers take turns on that CPU.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fastpath --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Episodes repeat, each with the same amount of work, until `--seconds`
//! have passed; the first is a discarded warm-up. Every reported value is
//! the median over the run's episodes of a per-episode figure (a mean per
//! checkpoint, one recovery, or one set-up). The last line on standard
//! output is one JSON object with the keys `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! ones with `--trace 1`, where the filesystem and transport calls are
//! timed too.
//!
//! ## Reference-relative latency
//!
//! On a shared host the speed of a CPU drifts by up to 2x over minutes,
//! for every kind of work alike if not by the same factor, so raw times of
//! runs minutes apart spread far more than any change worth detecting.
//! Right before its set-up, before its timed checkpoints and before its
//! recovery, each episode therefore times [`reference_kernel`] — a fixed
//! computation that uses only the standard library, never this
//! repository's code — and the end-to-end latencies are reported relative
//! to the reference time taken right before them: checkpoint and recovery
//! as multiples of it (unit `ref`), set-up as the seconds it would take on
//! a host where the reference takes [`NOMINAL_REFERENCE_S`]. The raw
//! milliseconds and the reference time are per-layer metrics.
//!
//! Across ten runs on a 2-vCPU VM the quartile distance of the raw times
//! was 0.2 to 0.45 of their median; for the ratios it was 0.03 to 0.14,
//! and 0.10 to 0.17 for the scaled set-up time (0.18 to 0.37 raw). The
//! ratios do not cancel all of the drift: a workload whose data fits in
//! cache slows less than the reference when neighbours load memory, so the
//! `analysis` ratios still moved by a tenth between runs half an hour
//! apart.

use std::collections::HashMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ickp_analysis::{AnalysisEngine, Division, Phase};
use ickp_core::{
    restore, state_digest, CheckpointConfig, CheckpointRecord, Checkpointer, CoreError,
    MethodTable, RestorePolicy,
};
use ickp_durable::{DurableConfig, FsError, MemFs, Vfs};
use ickp_heap::{Heap, ObjectId, Value};
use ickp_minic::parse;
use ickp_minic::programs::{image_program_source, DEFAULT_FILTERS};
use ickp_prng::Prng;
use ickp_replicate::{
    promote, ChannelTransport, ReplicaPair, ReplicateConfig, Transport, TransportError,
    TransportPlan,
};
use ickp_synth::{SynthConfig, SynthWorld};

/// Which engine takes the checkpoints.
#[derive(Debug, Clone, Copy)]
enum Engine {
    /// `Checkpointer::checkpoint` on the calling thread.
    Sequential,
    /// `Checkpointer::checkpoint_parallel` over this many shard workers.
    Sharded(usize),
}

/// Synthetic structures, each [`LISTS`] lists of [`LIST_LEN`] one-int
/// elements; every round the benchmark writes random elements.
#[derive(Debug, Clone, Copy)]
struct Synth {
    structures: usize,
    /// Element writes per round, per mille of all elements (drawn with
    /// replacement, so slightly fewer distinct objects get dirty).
    writes_per_mille: usize,
    /// `Some(n)`: written values are drawn from `0..n`, so object records
    /// recur, and content-hash dedup is on in both stores and on the wire.
    /// `None`: any `i32`, dedup off.
    alphabet: Option<u32>,
    /// Incremental checkpoints per episode, after the base checkpoint.
    rounds: usize,
}

/// The application whose heap is checkpointed.
#[derive(Debug, Clone, Copy)]
enum App {
    Synth(Synth),
    /// The program-analysis engine on the generated image program with
    /// this many filter stages: the side-effect, binding-time and
    /// evaluation-time phases run to fixpoint, with one checkpoint after
    /// every iteration (the paper's Table 1 protocol).
    Analysis {
        filters: usize,
    },
}

/// One benchmark workload. Every episode of a workload does the same
/// amount of work.
#[derive(Debug, Clone, Copy)]
struct Workload {
    name: &'static str,
    app: App,
    engine: Engine,
    /// The dirty journal (O(modified) fast path) on or off.
    journal: bool,
}

impl Workload {
    /// Content-hash dedup is on exactly when written values recur.
    fn dedup(&self) -> bool {
        matches!(self.app, App::Synth(Synth { alphabet: Some(_), .. }))
    }
}

/// Records per group commit.
const BATCH: usize = 4;

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fastpath",
        app: App::Synth(Synth {
            structures: 4000,
            writes_per_mille: 10,
            alphabet: None,
            rounds: 64,
        }),
        engine: Engine::Sequential,
        journal: true,
    },
    Workload {
        name: "traverse",
        app: App::Synth(Synth {
            structures: 4000,
            writes_per_mille: 10,
            alphabet: None,
            rounds: 32,
        }),
        engine: Engine::Sharded(2),
        journal: false,
    },
    Workload {
        name: "dedup",
        app: App::Synth(Synth {
            structures: 250,
            writes_per_mille: 100,
            alphabet: Some(4),
            rounds: 64,
        }),
        engine: Engine::Sequential,
        journal: true,
    },
    Workload {
        name: "analysis",
        app: App::Analysis { filters: DEFAULT_FILTERS },
        engine: Engine::Sequential,
        journal: true,
    },
];

/// A fixed piece of CPU and memory work, independent of the code under
/// test: hash-map inserts, buffer appends, byte hashing and a sort — the
/// kinds of work the checkpoint path does. Its time tracks the host's
/// current speed.
fn reference_kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut map = HashMap::new();
    let mut buf = Vec::new();
    for i in 0..50_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x & 0xf_ffff, i);
        buf.extend_from_slice(&x.to_le_bytes());
    }
    let hash = buf
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    let mut keys: Vec<u64> = map.into_keys().collect();
    keys.sort_unstable();
    hash ^ keys[keys.len() / 2]
}

/// The fastest of three runs of [`reference_kernel`]: interruptions only
/// ever add time.
fn reference_time(seed: u64) -> Duration {
    (0..3)
        .map(|i| {
            let start = Instant::now();
            black_box(reference_kernel(black_box(seed.wrapping_add(i))));
            start.elapsed()
        })
        .min()
        .expect("three runs")
}

/// The reference time `setup_s` is scaled to, in seconds: about what
/// [`reference_time`] measured (2.9 to 4.2 ms) on the 2-vCPU VM the
/// bounds were set on.
const NOMINAL_REFERENCE_S: f64 = 0.004;

const LISTS: usize = 5;
const LIST_LEN: usize = 5;

// ------------------------------------------------------------ layer clocks

/// Accumulates nanoseconds spent inside one layer's calls. Disabled (and
/// free apart from a branch) unless the run traces layers.
#[derive(Debug, Clone, Default)]
struct Clock(Option<Arc<AtomicU64>>);

impl Clock {
    fn new(enabled: bool) -> Clock {
        Clock(enabled.then(|| Arc::new(AtomicU64::new(0))))
    }

    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.0 {
            None => f(),
            Some(ns) => {
                let start = Instant::now();
                let out = f();
                ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                out
            }
        }
    }

    /// Time accumulated since the last call.
    fn take(&self) -> Duration {
        self.0
            .as_ref()
            .map_or(Duration::ZERO, |ns| Duration::from_nanos(ns.swap(0, Ordering::Relaxed)))
    }
}

/// A node's filesystem with the time spent in it measured.
#[derive(Debug)]
struct TimedFs {
    inner: MemFs,
    clock: Clock,
}

impl Vfs for TimedFs {
    fn write_file(&mut self, name: &str, data: &[u8]) -> Result<(), FsError> {
        self.clock.time(|| self.inner.write_file(name, data))
    }
    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), FsError> {
        self.clock.time(|| self.inner.append(name, data))
    }
    fn sync(&mut self, name: &str) -> Result<(), FsError> {
        self.clock.time(|| self.inner.sync(name))
    }
    fn rename(&mut self, from: &str, to: &str) -> Result<(), FsError> {
        self.clock.time(|| self.inner.rename(from, to))
    }
    fn sync_dir(&mut self) -> Result<(), FsError> {
        self.clock.time(|| self.inner.sync_dir())
    }
    fn truncate(&mut self, name: &str, len: u64) -> Result<(), FsError> {
        self.clock.time(|| self.inner.truncate(name, len))
    }
    fn remove(&mut self, name: &str) -> Result<(), FsError> {
        self.clock.time(|| self.inner.remove(name))
    }
    fn read(&self, name: &str) -> Result<Vec<u8>, FsError> {
        self.clock.time(|| self.inner.read(name))
    }
    fn exists(&self, name: &str) -> bool {
        self.clock.time(|| self.inner.exists(name))
    }
    fn list(&self) -> Result<Vec<String>, FsError> {
        self.clock.time(|| self.inner.list())
    }
}

/// The replication link with the time spent in it measured.
#[derive(Debug)]
struct TimedLink {
    inner: ChannelTransport,
    clock: Clock,
}

impl Transport for TimedLink {
    fn send_to_follower(&mut self, frame: Vec<u8>) -> Result<(), TransportError> {
        self.clock.time(|| self.inner.send_to_follower(frame))
    }
    fn recv_at_follower(&mut self) -> Option<Vec<u8>> {
        self.clock.time(|| self.inner.recv_at_follower())
    }
    fn send_to_primary(&mut self, frame: Vec<u8>) -> Result<(), TransportError> {
        self.clock.time(|| self.inner.send_to_primary(frame))
    }
    fn recv_at_primary(&mut self) -> Option<Vec<u8>> {
        self.clock.time(|| self.inner.recv_at_primary())
    }
}

// ------------------------------------------------------------ the pipeline

/// Time spent per layer, summed over an episode's incremental checkpoints.
#[derive(Debug, Clone, Copy, Default)]
struct LayerTimes {
    /// Mutate through acknowledgement: what the application waits for.
    total: Duration,
    mutate: Duration,
    capture: Duration,
    /// Group commit + replication, as the caller sees it; includes the
    /// three below.
    commit: Duration,
    primary_io: Duration,
    follower_io: Duration,
    wire: Duration,
}

/// Everything one episode measured.
#[derive(Debug, Default)]
struct Episode {
    /// [`reference_time`] just before the set-up.
    setup_reference: Duration,
    /// [`reference_time`] just before the timed checkpoints.
    reference: Duration,
    /// [`reference_time`] just before the recovery.
    recover_reference: Duration,
    setup: Duration,
    times: LayerTimes,
    open: Duration,
    restore: Duration,
    /// Incremental checkpoints taken (the base checkpoint is set-up).
    checkpoints: u64,
    objects_recorded: u64,
    record_bytes: u64,
    journal_hits: u64,
    fsyncs: u64,
    wire_bytes: u64,
    stored_bytes: u64,
    /// Operations (checkpoints and recoveries) attempted.
    attempted: u64,
}

impl Episode {
    /// Milliseconds per incremental checkpoint.
    fn per_ckpt_ms(&self, d: Duration) -> f64 {
        ms(d) / self.checkpoints as f64
    }

    /// A count per incremental checkpoint.
    fn per_ckpt(&self, n: u64) -> f64 {
        n as f64 / self.checkpoints as f64
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The application state an episode checkpoints.
enum Live {
    Synth { world: SynthWorld, elements: Vec<ObjectId>, synth: Synth },
    Analysis(AnalysisEngine),
}

impl Live {
    fn build(app: App, seed: u64) -> Result<Live, String> {
        Ok(match app {
            App::Synth(synth) => {
                let structures = synth.structures;
                let world = SynthWorld::build(SynthConfig {
                    structures,
                    lists_per_structure: LISTS,
                    list_len: LIST_LEN,
                    ints_per_element: 1,
                    seed,
                })
                .map_err(|e| format!("build: {e}"))?;
                let elements = (0..structures)
                    .flat_map(|s| {
                        (0..LISTS).flat_map(move |l| (0..LIST_LEN).map(move |p| (s, l, p)))
                    })
                    .map(|(s, l, p)| world.element(s, l, p))
                    .collect();
                Live::Synth { world, elements, synth }
            }
            App::Analysis { filters } => {
                let program =
                    parse(&image_program_source(filters)).map_err(|e| format!("parse: {e}"))?;
                let division = Division { dynamic_globals: vec!["image".into(), "work".into()] };
                let engine =
                    AnalysisEngine::new(program, division).map_err(|e| format!("engine: {e}"))?;
                Live::Analysis(engine)
            }
        })
    }

    fn heap(&self) -> &Heap {
        match self {
            Live::Synth { world, .. } => world.heap(),
            Live::Analysis(engine) => engine.heap(),
        }
    }

    fn roots(&self) -> &[ObjectId] {
        match self {
            Live::Synth { world, .. } => world.roots(),
            Live::Analysis(engine) => engine.roots(),
        }
    }
}

/// Capture, commit and replication of one episode; each incremental
/// checkpoint adds its per-layer times and counts to the [`Episode`].
struct Pipeline {
    driver: Checkpointer,
    table: MethodTable,
    engine: Engine,
    pair: ReplicaPair<TimedFs, TimedFs, TimedLink>,
}

impl Pipeline {
    fn capture(
        &mut self,
        heap: &mut Heap,
        roots: &[ObjectId],
    ) -> Result<CheckpointRecord, CoreError> {
        match self.engine {
            Engine::Sequential => self.driver.checkpoint(heap, &self.table, roots),
            Engine::Sharded(workers) => {
                self.driver.checkpoint_parallel(heap, &self.table, roots, workers)
            }
        }
    }

    /// Takes one timed incremental checkpoint of `heap`, whose mutation
    /// began at `start`, and hands it to group commit. Returns the number
    /// of objects it recorded.
    fn checkpoint(
        &mut self,
        out: &mut Episode,
        heap: &mut Heap,
        roots: &[ObjectId],
        start: Instant,
    ) -> Result<u64, String> {
        let mutated = Instant::now();
        let record = self.capture(heap, roots).map_err(|e| format!("capture: {e}"))?;
        let captured = Instant::now();
        let stats = record.stats();
        out.attempted += 1;
        self.pair.append(record).map_err(|e| format!("commit: {e}"))?;
        let done = Instant::now();

        let t = &mut out.times;
        t.total += done - start;
        t.mutate += mutated - start;
        t.capture += captured - mutated;
        t.commit += done - captured;
        out.checkpoints += 1;
        out.objects_recorded += stats.objects_recorded;
        out.record_bytes += stats.bytes_written;
        out.journal_hits += stats.journal_hits;
        Ok(stats.objects_recorded)
    }

    /// Commits a partly filled last batch, timed as commit.
    fn flush(&mut self, out: &mut Episode) -> Result<(), String> {
        let start = Instant::now();
        self.pair.commit().map_err(|e| format!("commit: {e}"))?;
        let took = start.elapsed();
        out.times.total += took;
        out.times.commit += took;
        Ok(())
    }
}

/// `rounds` rounds of random element writes, each followed by a
/// checkpoint that must record exactly the written objects.
fn run_synth(
    pipe: &mut Pipeline,
    out: &mut Episode,
    world: &mut SynthWorld,
    elements: &[ObjectId],
    &Synth { writes_per_mille, alphabet, rounds, .. }: &Synth,
    seed: u64,
) -> Result<(), String> {
    let roots = world.roots().to_vec();
    let heap = world.heap_mut();
    let mut rng = Prng::seed_from_u64(seed ^ 0x5eed_c0de_0bad_cafe);
    let writes = (elements.len() * writes_per_mille / 1000).max(1);
    let mut dirty = vec![false; elements.len()];
    let mut targets: Vec<(ObjectId, i32)> = Vec::with_capacity(writes);
    for _ in 0..rounds {
        // Draw the round's writes before the clock starts.
        targets.clear();
        dirty.fill(false);
        let mut distinct = 0u64;
        for _ in 0..writes {
            let i = rng.index(elements.len());
            let value = match alphabet {
                Some(n) => rng.below(u64::from(n)) as i32,
                None => rng.next_i32(),
            };
            distinct += u64::from(!std::mem::replace(&mut dirty[i], true));
            targets.push((elements[i], value));
        }

        let start = Instant::now();
        for &(id, value) in &targets {
            heap.set_field(id, 0, Value::Int(value)).map_err(|e| format!("mutate: {e}"))?;
        }
        let recorded = pipe.checkpoint(out, heap, &roots, start)?;
        if recorded != distinct {
            return Err(format!("capture recorded {recorded} objects, {distinct} were written"));
        }
    }
    Ok(())
}

/// The three analysis phases, a checkpoint after every fixpoint iteration;
/// an iteration's analysis work is its mutate time.
fn run_analysis(
    pipe: &mut Pipeline,
    out: &mut Episode,
    engine: &mut AnalysisEngine,
) -> Result<(), String> {
    for phase in [Phase::SideEffect, Phase::BindingTime, Phase::EvalTime] {
        let mut start = Instant::now();
        engine
            .run_phase(phase, |heap, roots, _| {
                pipe.checkpoint(out, heap, roots, start)
                    .map_err(|what| CoreError::Storage { what })?;
                start = Instant::now();
                Ok(())
            })
            .map_err(|e| format!("{phase:?} phase: {e}"))?;
    }
    Ok(())
}

/// Runs one episode: set-up (application heap, both stores, replicated
/// base checkpoint), the workload's timed incremental checkpoints, then a
/// timed recovery of the follower, checked against the live heap.
fn episode(w: &Workload, seed: u64, trace: bool) -> Result<Episode, String> {
    let mut out = Episode::default();
    let io_primary = Clock::new(trace);
    let io_follower = Clock::new(trace);
    let wire = Clock::new(trace);

    // ---------------------------------------------------------- set-up
    out.setup_reference = reference_time(seed);
    let setup_start = Instant::now();
    let mut live = Live::build(w.app, seed)?;
    let registry = live.heap().registry().clone();
    let config = ReplicateConfig {
        durable: DurableConfig::default(),
        batch_records: BATCH,
        dedup: w.dedup(),
        ..ReplicateConfig::default()
    };
    let mut pipe = Pipeline {
        driver: Checkpointer::new(if w.journal {
            CheckpointConfig::incremental()
        } else {
            CheckpointConfig::incremental().without_journal()
        }),
        table: MethodTable::derive(&registry),
        engine: w.engine,
        pair: ReplicaPair::create(
            TimedFs { inner: MemFs::new(), clock: io_primary.clone() },
            TimedFs { inner: MemFs::new(), clock: io_follower.clone() },
            TimedLink { inner: ChannelTransport::new(TransportPlan::none()), clock: wire.clone() },
            config,
            &registry,
        )
        .map_err(|e| format!("create pair: {e}"))?,
    };
    let roots = live.roots().to_vec();
    let heap = match &mut live {
        Live::Synth { world, .. } => world.heap_mut(),
        Live::Analysis(engine) => engine.heap_mut(),
    };
    heap.mark_all_modified();
    let base = pipe.capture(heap, &roots).map_err(|e| format!("base capture: {e}"))?;
    pipe.pair
        .append(base)
        .and_then(|()| pipe.pair.commit())
        .map_err(|e| format!("base commit: {e}"))?;
    out.setup = setup_start.elapsed();
    out.attempted += 1;
    for clock in [&io_primary, &io_follower, &wire] {
        clock.take();
    }
    let io_base = pipe.pair.primary_store().io_stats();
    let wire_base = pipe.pair.stats().wire_bytes;
    let stored_base = pipe.pair.primary_store().committed_bytes();

    // ---------------------------------------- mutate → capture → commit
    out.reference = reference_time(seed);
    match &mut live {
        Live::Synth { world, elements, synth } => {
            run_synth(&mut pipe, &mut out, world, elements, synth, seed)?
        }
        Live::Analysis(engine) => run_analysis(&mut pipe, &mut out, engine)?,
    }
    pipe.flush(&mut out)?;
    out.times.primary_io = io_primary.take();
    out.times.follower_io = io_follower.take();
    out.times.wire = wire.take();
    let pair = pipe.pair;
    out.fsyncs = pair.primary_store().io_stats().fsyncs() - io_base.fsyncs();
    out.wire_bytes = pair.stats().wire_bytes - wire_base;
    out.stored_bytes = pair.primary_store().committed_bytes() - stored_base;
    let acked = pair.acked_records();
    let expected = out.checkpoints + 1;
    if out.checkpoints == 0 {
        return Err("no incremental checkpoint was taken".into());
    }
    if acked != expected || pair.primary_store().record_count() != expected {
        return Err(format!("{acked} records acknowledged, {expected} expected"));
    }

    // ------------------------------------------------------------ recover
    let (_, follower, _) = pair.into_parts();
    let mut disk = follower.inner;
    disk.crash(); // power cut: only what the follower fsynced survives
    out.recover_reference = reference_time(seed);
    out.attempted += 1;
    let start = Instant::now();
    let (_store, recovered) =
        promote(&mut disk, config.durable, &registry).map_err(|e| format!("open: {e}"))?;
    let opened = Instant::now();
    let rebuilt = restore(&recovered, &registry, RestorePolicy::Lenient)
        .map_err(|e| format!("restore: {e}"))?;
    let restored = Instant::now();
    out.open = opened - start;
    out.restore = restored - opened;
    if recovered.len() as u64 != acked {
        return Err(format!("recovered {} records, {acked} acknowledged", recovered.len()));
    }
    // Digests agree exactly when the recovered heap holds the live
    // heap's logical state (see `ickp_core::state_digest`).
    let digest = |heap: &Heap, roots: &[ObjectId]| {
        state_digest(heap, roots).map_err(|e| format!("digest: {e}"))
    };
    if digest(live.heap(), live.roots())? != digest(rebuilt.heap(), rebuilt.roots())? {
        return Err("recovered heap differs from the live heap".into());
    }
    Ok(out)
}

// ------------------------------------------------------------ reporting

fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// A metric's value: the median over episodes of `f`.
fn metric(
    episodes: &[Episode],
    name: &'static str,
    unit: &'static str,
    f: impl Fn(&Episode) -> f64,
) -> Metric {
    Metric { name, value: median(episodes.iter().map(f).collect()), unit }
}

fn end_to_end(episodes: &[Episode]) -> Vec<Metric> {
    vec![
        metric(episodes, "ckpt_rel", "ref", |e| e.per_ckpt_ms(e.times.total) / ms(e.reference)),
        metric(episodes, "recover_rel", "ref", |e| {
            (e.open + e.restore).as_secs_f64() / e.recover_reference.as_secs_f64()
        }),
        metric(episodes, "stored_bytes_per_ckpt", "B", |e| e.per_ckpt(e.stored_bytes)),
        metric(episodes, "setup_s", "s", |e| {
            e.setup.as_secs_f64() / e.setup_reference.as_secs_f64() * NOMINAL_REFERENCE_S
        }),
    ]
}

fn per_layer(episodes: &[Episode]) -> Vec<Metric> {
    vec![
        metric(episodes, "ckpt_ms", "ms", |e| e.per_ckpt_ms(e.times.total)),
        metric(episodes, "recover_ms", "ms", |e| ms(e.open + e.restore)),
        metric(episodes, "setup_ms", "ms", |e| ms(e.setup)),
        metric(episodes, "ref_ms", "ms", |e| ms(e.reference)),
        metric(episodes, "mutate_ms", "ms", |e| e.per_ckpt_ms(e.times.mutate)),
        metric(episodes, "capture_ms", "ms", |e| e.per_ckpt_ms(e.times.capture)),
        metric(episodes, "commit_ms", "ms", |e| e.per_ckpt_ms(e.times.commit)),
        metric(episodes, "commit_cpu_ms", "ms", |e| {
            let t = e.times;
            e.per_ckpt_ms(t.commit.saturating_sub(t.primary_io + t.follower_io + t.wire))
        }),
        metric(episodes, "primary_io_ms", "ms", |e| e.per_ckpt_ms(e.times.primary_io)),
        metric(episodes, "follower_io_ms", "ms", |e| e.per_ckpt_ms(e.times.follower_io)),
        metric(episodes, "wire_ms", "ms", |e| e.per_ckpt_ms(e.times.wire)),
        metric(episodes, "open_ms", "ms", |e| ms(e.open)),
        metric(episodes, "restore_ms", "ms", |e| ms(e.restore)),
        metric(episodes, "objects_per_ckpt", "count", |e| e.per_ckpt(e.objects_recorded)),
        metric(episodes, "record_bytes_per_ckpt", "B", |e| e.per_ckpt(e.record_bytes)),
        metric(episodes, "journal_hits_per_ckpt", "count", |e| e.per_ckpt(e.journal_hits)),
        metric(episodes, "fsyncs_per_ckpt", "count", |e| e.per_ckpt(e.fsyncs)),
        metric(episodes, "wire_bytes_per_ckpt", "B", |e| e.per_ckpt(e.wire_bytes)),
    ]
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

// ------------------------------------------------------------ driver

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|&s| s > 0).ok_or("--seconds must be a positive integer")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Episodes measured at least, however short `--seconds` is.
const MIN_EPISODES: usize = 3;

/// Pins the process to the CPU it is running on, so the threads it
/// starts later (the group-commit encoder, shard workers) share that one
/// CPU. On a shared host the other CPUs come and go with the neighbours'
/// load; pinned, a thread hand-off costs a context switch instead of a
/// cross-CPU wake-up whose latency depends on them (unpinned, the `dedup`
/// spread doubled; pinned to two CPUs, the 2-worker `traverse` checkpoint
/// time spread 0.22 of its median over five runs, against 0.03 on one).
/// Returns the CPU.
#[cfg(target_os = "linux")]
fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reports which
    // CPU the calling thread runs on.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16]; // a `cpu_set_t`: 1024 bits
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed, and the
    // call only reads it; pid 0 names the calling thread, whose mask the
    // threads it spawns afterwards inherit.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_current_cpu() -> Option<usize> {
    None
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let pinned = pin_to_current_cpu();
    let budget = Duration::from_secs(args.seconds);
    let episode_seed = |i: u64| args.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i;

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut episodes = Vec::new();
    let mut failure = None;
    // Warm-up: fills allocator and caches; its figures are discarded.
    match episode(&w, episode_seed(0), args.trace) {
        Ok(e) => attempted += e.attempted,
        Err(e) => failure = Some(e),
    }
    let start = Instant::now();
    let mut i = 1;
    while failure.is_none() && (start.elapsed() < budget || episodes.len() < MIN_EPISODES) {
        match episode(&w, episode_seed(i), args.trace) {
            Ok(e) => {
                attempted += e.attempted;
                episodes.push(e);
            }
            Err(e) => failure = Some(e),
        }
        i += 1;
    }
    if let Some(e) = failure {
        eprintln!("error: workload {}: {e}", w.name);
        failed += 1;
        attempted += 1;
        println!("{}", result_line(false, attempted, failed, &[]));
        return ExitCode::SUCCESS;
    }

    eprintln!(
        "workload {}: {:?}, {:?} engine, journal {}, batch {BATCH}, dedup {}; {} episodes of {} \
         checkpoints; {}",
        w.name,
        w.app,
        w.engine,
        w.journal,
        w.dedup(),
        episodes.len(),
        episodes[0].checkpoints,
        match pinned {
            Some(cpu) => format!("pinned to CPU {cpu}"),
            None => format!(
                "unpinned, {} CPUs",
                std::thread::available_parallelism().map_or(1, |n| n.get())
            ),
        },
    );
    let metrics = if args.trace { per_layer(&episodes) } else { end_to_end(&episodes) };
    println!("{}", result_line(true, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
