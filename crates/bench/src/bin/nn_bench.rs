//! `nn-bench` — run benchmark suites and record `BENCH_perf.json`.
//!
//! ```text
//! nn-bench [--json FILE] [--suites a,b,c | --check BASELINE] [--list]
//! ```
//!
//! Run it with `cargo run --release -p nn-bench --bin nn-bench -- ARGS`.
//! With no arguments every suite runs and prints its table; `--suites`
//! runs the named ones. `--json` also writes a machine-readable report
//! (per suite, per bench ns/iter), so the repo keeps a perf trajectory
//! across PRs. `--check` runs every suite and applies the regression
//! gate, `nn_bench::suites::GATE`, against a committed baseline report:
//! it fails (exit 1) if a gated bench regressed past the tolerance once
//! the baseline is rescaled by the calibration bench, or if a required
//! bench is missing from the run or the baseline. `--list` prints every
//! suite with its role, and the gate.

use nn_bench::suites::{Suite, GATE, SUITES};
use nn_bench::{take_results, BenchResult};
use nn_lab::json::Json;

fn usage() -> ! {
    eprintln!(
        "usage: nn-bench [--json FILE] [--suites a,b,c | --check BASELINE] [--list]\nsuites: {}",
        SUITES.map(|s| s.name).join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut selected: Option<Vec<String>> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let next_value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--json" => json_path = Some(next_value(&mut i)),
            "--check" => check_path = Some(next_value(&mut i)),
            "--suites" => {
                selected = Some(next_value(&mut i).split(',').map(str::to_string).collect());
            }
            "--list" => {
                print_list();
                return;
            }
            _ => usage(),
        }
        i += 1;
    }

    if check_path.is_some() && selected.is_some() {
        eprintln!("--check gates every suite, so it cannot run with --suites");
        usage();
    }
    for name in selected.iter().flatten() {
        if !SUITES.iter().any(|s| s.name == name) {
            eprintln!("unknown suite {name:?}");
            usage();
        }
    }

    // Run the suites, attributing each drained batch of results to the
    // suite that produced it.
    let mut report: Vec<(&Suite, Vec<BenchResult>)> = Vec::new();
    take_results(); // drop anything a previous harness left behind
    for suite in &SUITES {
        if selected
            .as_ref()
            .is_some_and(|s| !s.iter().any(|n| n == suite.name))
        {
            continue;
        }
        (suite.run)();
        report.push((suite, take_results()));
    }

    if let Some(path) = &json_path {
        let json = render_report(&report);
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        // Certify: what was written parses back to the same bench count.
        let reread =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("re-reading {path}: {e}"));
        let parsed = Json::parse(&reread).unwrap_or_else(|e| panic!("{path} is not JSON: {e}"));
        let written: usize = flatten(&parsed).len();
        let measured: usize = report.iter().map(|(_, r)| r.len()).sum();
        assert_eq!(written, measured, "written report lost benches");
        println!(
            "wrote {path} ({measured} benches in {} suites).",
            report.len()
        );
    }

    if let Some(path) = &check_path {
        let baseline = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("reading baseline {path}: {e}"));
        let baseline = Json::parse(&baseline).unwrap_or_else(|e| panic!("{path} is not JSON: {e}"));
        let scale = calibration_scale(&report, &baseline);
        if !require_present(&report, &baseline) || !check_against(&report, &baseline, scale) {
            std::process::exit(1);
        }
    }
}

/// Prints every suite with its role, then the gate `--check` applies.
fn print_list() {
    for s in &SUITES {
        let role = if s.gated { "gated" } else { "recorded" };
        println!("{:<20} {role:<9} {}", s.name, s.what);
    }
    println!("tolerance {}%", GATE.tolerance_pct);
    println!("calibrate {}", GATE.calibrate);
    for row in GATE.required {
        println!("require {row}");
    }
}

/// Finds `suite/bench`'s ns/iter in the run.
fn ns_in_run(report: &[(&Suite, Vec<BenchResult>)], suite: &str, name: &str) -> Option<f64> {
    report
        .iter()
        .find(|(s, _)| s.name == suite)
        .and_then(|(_, rs)| rs.iter().find(|r| r.name == name))
        .map(|r| r.ns_per_iter)
}

/// Verifies every required SUITE/BENCH exists in both the current run
/// and the baseline, so the gate cannot silently lose coverage of a
/// pinned hot-path bench.
fn require_present(report: &[(&Suite, Vec<BenchResult>)], baseline: &Json) -> bool {
    let base = flatten(baseline);
    let mut ok = true;
    for spec in GATE.required {
        let (suite, name) = spec.split_once('/').expect("a gate row is SUITE/BENCH");
        let in_run = ns_in_run(report, suite, name).is_some();
        let in_base = base.iter().any(|(s, n, _)| s == suite && n == name);
        if !in_run || !in_base {
            eprintln!(
                "require {spec}: missing from {}",
                match (in_run, in_base) {
                    (false, false) => "the run and the baseline",
                    (false, true) => "the run",
                    _ => "the baseline",
                }
            );
            ok = false;
        }
    }
    ok
}

/// The machine-speed correction factor: current ÷ baseline ns/iter of
/// the gate's calibration bench, which must exist in both.
fn calibration_scale(report: &[(&Suite, Vec<BenchResult>)], baseline: &Json) -> f64 {
    let spec = GATE.calibrate;
    let (suite, name) = spec.split_once('/').expect("a gate row is SUITE/BENCH");
    let base = flatten(baseline)
        .into_iter()
        .find(|(s, n, _)| s == suite && n == name)
        .map(|(_, _, ns)| ns);
    match (ns_in_run(report, suite, name), base) {
        (Some(c), Some(b)) if b > 0.0 && c > 0.0 => {
            let scale = c / b;
            println!("calibrate {spec}: {c:.1} vs {b:.1} ns/iter -> scale {scale:.3}");
            scale
        }
        _ => {
            eprintln!("calibrate {spec}: bench missing from the run or the baseline");
            std::process::exit(1);
        }
    }
}

/// Renders the per-suite results as the `BENCH_perf.json` schema.
fn render_report(report: &[(&Suite, Vec<BenchResult>)]) -> String {
    let suites: Vec<Json> = report
        .iter()
        .map(|(suite, results)| {
            let benches: Vec<Json> = results
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("name", Json::Str(r.name.clone())),
                        ("iters", Json::UInt(r.iters)),
                        ("ns_per_iter", Json::Num(r.ns_per_iter)),
                    ])
                })
                .collect();
            Json::obj(vec![
                ("suite", Json::Str(suite.name.to_string())),
                ("benches", Json::Arr(benches)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::Str("nn-bench-perf-v1".to_string())),
        ("suites", Json::Arr(suites)),
    ])
    .render()
}

/// Flattens a parsed report into `(suite, bench, ns_per_iter)` rows.
fn flatten(parsed: &Json) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    let Some(suites) = parsed.get("suites").and_then(Json::as_arr) else {
        return out;
    };
    for s in suites {
        let suite = s.get("suite").and_then(Json::as_str).unwrap_or("");
        let Some(benches) = s.get("benches").and_then(Json::as_arr) else {
            continue;
        };
        for b in benches {
            let (Some(name), Some(ns)) = (
                b.get("name").and_then(Json::as_str),
                b.get("ns_per_iter").and_then(Json::as_f64),
            ) else {
                continue;
            };
            out.push((suite.to_string(), name.to_string(), ns));
        }
    }
    out
}

/// Compares the gated suites of the current run against a baseline
/// report; returns false if any bench present in both regressed past
/// the gate's tolerance against the baseline's numbers scaled by the
/// machine-speed correction `scale`.
fn check_against(report: &[(&Suite, Vec<BenchResult>)], baseline: &Json, scale: f64) -> bool {
    let base = flatten(baseline);
    let limit = 1.0 + GATE.tolerance_pct / 100.0;
    let mut compared = 0usize;
    let mut ok = true;
    for (suite, results) in report.iter().filter(|(s, _)| s.gated) {
        let suite = suite.name;
        for r in results {
            let Some(&(_, _, raw_ns)) = base.iter().find(|(s, n, _)| s == suite && n == &r.name)
            else {
                continue;
            };
            let base_ns = raw_ns * scale;
            compared += 1;
            let ratio = if base_ns > 0.0 {
                r.ns_per_iter / base_ns
            } else {
                1.0
            };
            let verdict = if ratio > limit {
                ok = false;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "check {suite}/{:<40} {:>12.1} vs {:>12.1} ns/iter ({:>6.2}x) {verdict}",
                r.name, r.ns_per_iter, base_ns, ratio
            );
        }
    }
    if compared == 0 {
        eprintln!("check: no benches shared with the baseline — failing");
        return false;
    }
    if !ok {
        eprintln!(
            "check: at least one bench regressed more than {}% over baseline",
            GATE.tolerance_pct
        );
    }
    ok
}
