//! Shells the real `nn-bench` binary: the gate is declared once, in
//! `nn_bench::suites::GATE`, so every flag that used to restate a part
//! of it is refused, and `--list` prints all of it.

use nn_bench::suites::{GATE, SUITES};
use std::process::{Command, Output};

fn nn_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nn-bench"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("nn-bench binary runs")
}

#[test]
fn gate_flags_are_refused_and_list_prints_the_gate() {
    // Every one of these must be refused at the parser, before any suite
    // runs: exit code 2 and the usage text on stderr.
    let cases: &[&[&str]] = &[
        &["--tolerance", "5"],
        &["--calibrate", "key_setup/rsa512_crt_decrypt_source"],
        &["--gate", "data_path"],
        &["--require", "data_path/sim_dpi_drop_2router_1kframes"],
        // The gate needs every suite.
        &["--suites", "data_path", "--check", "BENCH_perf.json"],
        &["--suites", "nope"],
    ];
    for args in cases {
        let out = nn_bench(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {stderr}");
        assert!(
            stderr.contains("usage:"),
            "{args:?} must print usage: {stderr}"
        );
    }

    let out = nn_bench(&["--list"]);
    assert!(out.status.success(), "--list runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<Vec<&str>> = stdout
        .lines()
        .map(|l| l.split_whitespace().collect())
        .collect();
    for s in &SUITES {
        let role = if s.gated { "gated" } else { "recorded" };
        assert!(
            lines.iter().any(|l| l.starts_with(&[s.name, role])),
            "--list prints {} as {role}: {stdout}",
            s.name
        );
    }
    for row in GATE.required {
        assert!(
            lines.contains(&vec!["require", row]),
            "--list prints required row {row}: {stdout}"
        );
    }
    assert!(
        lines.contains(&vec!["calibrate", GATE.calibrate]),
        "--list prints the calibration row: {stdout}"
    );
}
