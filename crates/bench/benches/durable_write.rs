//! Durable-write throughput: what does crash safety cost per checkpoint?
//!
//! Appends a pre-built stream of incremental checkpoint records through
//! three sinks:
//!
//! * `memory/store-push` — the in-memory `CheckpointStore` (the floor:
//!   no framing, no I/O);
//! * `memfs/...` — the durable store over the deterministic in-memory
//!   filesystem, isolating the protocol cost (CRC framing, manifest
//!   encode, namespace bookkeeping) from device speed;
//! * `stdfs/...` — the durable store over a real temp directory,
//!   including genuine fsyncs; this is the number a deployment sees.
//!
//! Segment targets of 64 KiB and 4 MiB bracket the roll frequency. The
//! interesting ratio is memfs vs memory (protocol overhead) and stdfs vs
//! memfs (the price of real fsyncs).

use ickp_bench::history::sequential;
use ickp_bench::{record_history, BenchGroup};
use ickp_core::{CheckpointRecord, CheckpointStore};
use ickp_durable::{DurableConfig, DurableStore, MemFs, StdFs};
use ickp_synth::{ModificationSpec, SynthConfig};
use std::time::{Duration, Instant};

fn main() {
    // A realistic record stream: one full base plus incremental rounds,
    // numbered from 0, so every iteration appends it to a fresh store.
    let config = SynthConfig {
        structures: 400,
        lists_per_structure: 5,
        list_len: 5,
        ints_per_element: 2,
        seed: 41,
    };
    let records = record_history(config, 16, &ModificationSpec::uniform(20), false, |world| {
        sequential(world.heap().registry())
    })
    .records;
    let payload: usize = records.iter().map(CheckpointRecord::len_bytes).sum();
    println!("durable_write: {} records, {} payload bytes per iteration", records.len(), payload);

    let mut group = BenchGroup::new("durable_write");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));

    group.bench_custom("memory/store-push", |iters| {
        let mut total = Duration::ZERO;
        for _ in 0..iters {
            let batch = records.clone();
            let mut store = CheckpointStore::new();
            let start = Instant::now();
            for r in batch {
                store.push(r).expect("push");
            }
            total += start.elapsed();
        }
        total
    });

    for (label, target) in [("64k", 64 * 1024u64), ("4m", 4 * 1024 * 1024)] {
        group.bench_custom(&format!("memfs/seg-{label}"), |iters| {
            let config = DurableConfig { segment_target_bytes: target };
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let mut fs = MemFs::new();
                let mut store = DurableStore::create(&mut fs, config).expect("create");
                let start = Instant::now();
                for r in &records {
                    store.append(r).expect("append");
                }
                total += start.elapsed();
            }
            total
        });
    }

    let dir = std::env::temp_dir().join(format!("ickp-durable-bench-{}", std::process::id()));
    for (label, target) in [("64k", 64 * 1024u64), ("4m", 4 * 1024 * 1024)] {
        group.bench_custom(&format!("stdfs/seg-{label}"), |iters| {
            let config = DurableConfig { segment_target_bytes: target };
            let mut total = Duration::ZERO;
            for i in 0..iters {
                let sub = dir.join(format!("{label}-{i}"));
                let fs = StdFs::new(&sub).expect("temp dir");
                let mut store = DurableStore::create(fs, config).expect("create");
                let start = Instant::now();
                for r in &records {
                    store.append(r).expect("append");
                }
                total += start.elapsed();
                let _ = std::fs::remove_dir_all(&sub);
            }
            total
        });
    }
    let _ = std::fs::remove_dir_all(&dir);

    group.finish();
}
