//! The strict command line and the worker mode, driven through the
//! built binary.

use std::process::{Command, Output};

fn nn_benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nn-benchmark"))
        .args(args)
        .output()
        .expect("runs")
}

fn assert_usage(args: &[&str]) {
    let out = nn_benchmark(args);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    assert!(out.stdout.is_empty(), "{args:?} printed a result");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
}

#[test]
fn bad_runs_exit_2_with_usage_and_no_result() {
    assert_usage(&[]);
    assert_usage(&["--workload", "nope", "--seed", "1"]);
    assert_usage(&["--workload", "paper-keys"]);
    assert_usage(&["--workload", "paper-keys", "--seed", "1", "--bogus", "1"]);
    assert_usage(&["--workload", "paper-keys", "--seed", "1", "--seed", "2"]);
    for seed in [
        "",
        "x",
        "-1",
        "1.5",
        "+1",
        "4294967296",
        "99999999999999999999",
    ] {
        assert_usage(&["--workload", "paper-keys", "--seed", seed]);
    }
    assert_usage(&["--workload", "paper-keys", "--seed", "1", "--trace", "2"]);
    assert_usage(&["--workload", "paper-keys", "--seed", "1", "--seconds", "0"]);
    assert_usage(&[
        "--workload",
        "paper-keys",
        "--seed",
        "1",
        "--spans",
        "x.json",
    ]);
    assert_usage(&["--workload", "paper-keys", "--seed"]);
}

#[test]
fn worker_rejects_names_it_cannot_decode() {
    for name in ["full", "paper-keys-s1-m126", "paper-keys-s01-m0", "x-s1-m0"] {
        assert_usage(&["--worker", "--shard", "0/2", "--matrix", name]);
    }
    assert_usage(&["--worker", "--shard", "2/2", "--matrix", "paper-keys-s1-m0"]);
    assert_usage(&["--worker", "--matrix", "paper-keys-s1-m0"]);
    assert_usage(&[
        "--worker",
        "--shard",
        "0/2",
        "--matrix",
        "paper-keys-s1-m0",
        "--progress",
    ]);
}

#[test]
fn worker_stdout_is_exactly_one_shard_report() {
    // Shard 0 of 16 of a 16-cell matrix is a single cell.
    let out = nn_benchmark(&[
        "--worker",
        "--shard",
        "0/16",
        "--matrix",
        "paper-keys-s1-m0",
        "--threads",
        "1",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8");
    assert_eq!(
        stdout.lines().count(),
        1,
        "one line of JSON and nothing else"
    );
    let report = nn_lab::ShardReport::from_json(stdout.trim_end()).expect("a shard report");
    assert_eq!(report.matrix, "paper-keys-s1-m0");
    assert_eq!(
        (report.shard, report.shards, report.total_cells),
        (0, 16, 16)
    );
    assert_eq!(report.cells.len(), 1);
}

#[test]
fn setup_child_prints_nothing_and_checks_its_cell() {
    let setup = |cell: &str| {
        nn_benchmark(&[
            "--setup",
            "--workload",
            "paper-keys",
            "--seed",
            "1",
            "--cell",
            cell,
        ])
    };
    let out = setup("19");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty(), "a set-up prints nothing");
    for bad in ["20", "-1", "x"] {
        assert_eq!(setup(bad).status.code(), Some(2), "--cell {bad}");
    }
    assert_usage(&["--setup", "--workload", "paper-keys", "--seed", "1"]);
}

#[test]
fn compare_needs_two_files_and_known_flags() {
    assert_usage(&["compare"]);
    assert_usage(&["compare", "base.json"]);
    assert_usage(&["compare", "base.json", "new.json", "--bounds", "b.json"]);
}
