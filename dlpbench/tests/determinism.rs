//! Seed and determinism self-tests of the benchmark, each running the
//! built binary as separate processes.
//!
//! Run with `cargo test --release --manifest-path dlpbench/Cargo.toml`.

use std::process::Command;

const WORKLOADS: [&str; 4] = ["scalar-grid", "dsa-grid", "forge-campaign", "serve-steady"];

/// Runs `dlpbench` with `args` and returns its last stdout line.
fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dlpbench"))
        .args(args)
        .output()
        .expect("spawns");
    assert!(
        out.status.success(),
        "dlpbench {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf-8")
        .lines()
        .last()
        .expect("a result line")
        .to_string()
}

fn describe(workload: &str, seed: u64) -> String {
    run(&[
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        "10",
        "--describe",
    ])
}

#[test]
fn the_same_seed_gives_the_same_ops_in_two_processes() {
    for w in WORKLOADS {
        assert_eq!(describe(w, 5), describe(w, 5), "{w}");
    }
}

#[test]
fn another_seed_changes_the_serve_stream_and_the_forge_corpus() {
    for w in ["forge-campaign", "serve-steady"] {
        assert_ne!(describe(w, 1), describe(w, 7919), "{w}");
    }
}

#[test]
fn the_grids_ignore_the_seed() {
    for w in ["scalar-grid", "dsa-grid"] {
        assert_eq!(describe(w, 1), describe(w, 7919), "{w}");
    }
}

#[test]
fn model_counts_repeat_exactly_across_processes_and_seeds() {
    let model = |seed: &str| run(&["--workload", "scalar-grid", "--seed", seed, "--model"]);
    let first = model("1");
    assert!(
        first.contains("\"model.cycles\"") && first.contains("\"failed\": 0"),
        "{first}"
    );
    assert_eq!(first, model("1"));
    assert_eq!(
        first,
        model("7919"),
        "grids ignore the seed, so the counts do too"
    );
}

#[test]
fn a_failed_setup_exits_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_dlpbench"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("spawns");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
