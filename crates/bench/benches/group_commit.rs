//! Group-commit amortization: how many fsyncs does a checkpoint cost
//! once the durable store batches records per manifest swap?
//!
//! Appends the same pre-built record stream at batch sizes 1, 2, 4, 8
//! and 16 through three sinks:
//!
//! * `memfs/batch-N` — the durable store over the deterministic
//!   in-memory filesystem: protocol cost only, plus the exact fsync
//!   count from [`DurableStore::io_stats`];
//! * `stdfs/batch-N` — a real temp directory with genuine fsyncs: the
//!   latency a deployment sees;
//! * `replicated/batch-N` — a two-node [`ReplicaPair`] over a perfect
//!   in-process link, so the shipping + follower-apply overhead is
//!   visible against the single-node numbers.
//!
//! The printed `fsyncs/record` column is deterministic (the same
//! arithmetic the `repro replicate` CI gate checks): one batch is one
//! segment sync + one manifest sync + one directory sync, so the ratio
//! falls from 3.0 at batch 1 to below 1.0 from batch 4 up.

use ickp_bench::history::sequential;
use ickp_bench::{record_history, BenchGroup};
use ickp_core::CheckpointRecord;
use ickp_durable::{DurableConfig, DurableStore, MemFs, StdFs};
use ickp_replicate::{ChannelTransport, ReplicaPair, ReplicateConfig, TransportPlan};
use ickp_synth::{ModificationSpec, SynthConfig};
use std::time::{Duration, Instant};

const BATCH_SIZES: [usize; 5] = [1, 2, 4, 8, 16];

fn main() {
    // A realistic record stream: one full base plus incremental rounds,
    // numbered from 0, so every iteration appends it to a fresh store.
    let config = SynthConfig {
        structures: 400,
        lists_per_structure: 5,
        list_len: 5,
        ints_per_element: 2,
        seed: 43,
    };
    let history = record_history(config, 16, &ModificationSpec::uniform(20), false, |world| {
        sequential(world.heap().registry())
    });
    let (registry, records) = (history.world.heap().registry(), history.records);
    let payload: usize = records.iter().map(CheckpointRecord::len_bytes).sum();
    println!("group_commit: {} records, {} payload bytes per iteration", records.len(), payload);

    // Deterministic fsync accounting first — the table EXPERIMENTS.md
    // cites and the ratio the `repro replicate` gate enforces.
    println!("\n{:>6} {:>8} {:>8} {:>14}", "batch", "fsyncs", "swaps", "fsyncs/record");
    for batch in BATCH_SIZES {
        let config = DurableConfig { segment_target_bytes: 4 * 1024 * 1024 };
        let mut fs = MemFs::new();
        let mut store = DurableStore::create(&mut fs, config).expect("create");
        let before = store.io_stats();
        for chunk in records.chunks(batch) {
            store.append_batch(chunk).expect("append");
        }
        let after = store.io_stats();
        let fsyncs = after.fsyncs() - before.fsyncs();
        let swaps = after.manifest_swaps - before.manifest_swaps;
        let ratio = fsyncs as f64 / records.len() as f64;
        println!("{batch:>6} {fsyncs:>8} {swaps:>8} {ratio:>14.3}");
    }

    let mut group = BenchGroup::new("group_commit");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));

    for batch in BATCH_SIZES {
        group.bench_custom(&format!("memfs/batch-{batch}"), |iters| {
            let config = DurableConfig { segment_target_bytes: 4 * 1024 * 1024 };
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let mut fs = MemFs::new();
                let mut store = DurableStore::create(&mut fs, config).expect("create");
                let start = Instant::now();
                for chunk in records.chunks(batch) {
                    store.append_batch(chunk).expect("append");
                }
                total += start.elapsed();
            }
            total
        });
    }

    let dir = std::env::temp_dir().join(format!("ickp-group-commit-{}", std::process::id()));
    for batch in BATCH_SIZES {
        group.bench_custom(&format!("stdfs/batch-{batch}"), |iters| {
            let config = DurableConfig { segment_target_bytes: 4 * 1024 * 1024 };
            let mut total = Duration::ZERO;
            for i in 0..iters {
                let sub = dir.join(format!("b{batch}-{i}"));
                let fs = StdFs::new(&sub).expect("temp dir");
                let mut store = DurableStore::create(fs, config).expect("create");
                let start = Instant::now();
                for chunk in records.chunks(batch) {
                    store.append_batch(chunk).expect("append");
                }
                total += start.elapsed();
                let _ = std::fs::remove_dir_all(&sub);
            }
            total
        });
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Two-node replication over a perfect link: the same stream, every
    // batch group-committed on the primary, shipped, applied, acked.
    for batch in BATCH_SIZES {
        group.bench_custom(&format!("replicated/batch-{batch}"), |iters| {
            let config = ReplicateConfig {
                durable: DurableConfig { segment_target_bytes: 4 * 1024 * 1024 },
                batch_records: batch,
                ..ReplicateConfig::default()
            };
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let stream = records.clone();
                let mut pair = ReplicaPair::create(
                    MemFs::new(),
                    MemFs::new(),
                    ChannelTransport::new(TransportPlan::none()),
                    config,
                    registry,
                )
                .expect("pair");
                let start = Instant::now();
                for r in stream {
                    pair.append(r).expect("append");
                }
                pair.commit().expect("commit");
                total += start.elapsed();
                assert_eq!(pair.acked_records(), records.len() as u64);
            }
            total
        });
    }

    group.finish();
}
