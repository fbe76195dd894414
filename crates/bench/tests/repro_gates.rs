//! Golden output of the `repro` correctness gates: each gate's stdout is
//! pinned byte for byte to a fixture under `tests/fixtures/`, and each
//! must exit 0. The gates are deterministic (no timings in their output),
//! so any change to a gate's verdict lines, ordering or exit code shows
//! up here as a diff. An unknown argument must exit 2 with the usage text.

use std::path::Path;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro runs")
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Runs one gate and requires exit 0 and stdout equal to its fixture.
fn gate(fixture_name: &str, args: &[&str]) {
    let out = repro(args);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert_eq!(
        stdout,
        fixture(&format!("{fixture_name}.stdout")),
        "`repro {}` output changed",
        args.join(" ")
    );
    assert_eq!(out.status.code(), Some(0), "`repro {}` exit code", args.join(" "));
}

#[test]
fn audit_output_is_pinned() {
    gate("audit", &["audit"]);
}

#[test]
fn crashes_output_is_pinned() {
    gate("crashes", &["crashes"]);
}

#[test]
fn replicate_output_is_pinned() {
    gate("replicate", &["replicate"]);
}

#[test]
fn shards_output_is_pinned() {
    gate("shards", &["shards", "--max-imbalance", "2.0"]);
}

#[test]
fn durability_output_is_pinned() {
    gate("durability", &["durability"]);
}

#[test]
fn barriers_output_is_pinned() {
    gate("barriers", &["barriers", "--structures", "200"]);
}

#[test]
fn unknown_argument_prints_usage_and_exits_2() {
    let out = repro(&["bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert_eq!(String::from_utf8(out.stderr).expect("utf-8 stderr"), fixture("usage.stderr"));
}
