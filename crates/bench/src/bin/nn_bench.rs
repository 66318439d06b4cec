//! `nn-bench` — run benchmark suites and record `BENCH_perf.json`.
//!
//! ```text
//! nn-bench [--json FILE] [--suites a,b,c] [--check BASELINE]
//!          [--tolerance PCT] [--list]
//! ```
//!
//! With no arguments every suite runs and prints its table, exactly like
//! `cargo bench -p nn-bench`. `--json` additionally writes a machine
//! readable report (per-suite, per-bench ns/iter) so the repo keeps a
//! perf trajectory across PRs. `--check` re-reads a committed baseline
//! report and fails (exit 1) if any bench shared with the current run
//! regressed by more than `--tolerance` percent (default 25) — the CI
//! regression gate for the allocation-free data path.
//!
//! `--require SUITE/BENCH[,SUITE/BENCH…]` hardens the gate: each named
//! bench must be present in both the current run and the baseline, so a
//! renamed or silently dropped hot-path bench fails the check instead
//! of being skipped.
//!
//! Raw numbers are machine-dependent, so `--check` on different
//! hardware than the baseline's needs `--calibrate SUITE/BENCH`: the
//! named bench (a stable, CPU-bound one like
//! `key_setup/rsa512_crt_decrypt_source`) must appear in both the
//! current run and the baseline, and every baseline number is scaled by
//! the current/baseline ratio of it before comparison — cross-machine
//! speed differences cancel, leaving genuine per-frame regressions
//! visible. Calibrate on a bench whose code path is the same on every
//! CPU: the AES benches are not, since AES runs on AES-NI where the CPU
//! has it and on T-tables elsewhere. Without `--calibrate`, compare
//! files only against baselines recorded on the same machine.

use nn_bench::{suites::SUITES, take_results, BenchResult};
use nn_lab::json::Json;

fn usage() -> ! {
    eprintln!(
        "usage: nn-bench [--json FILE] [--suites a,b,c] [--check BASELINE] \
         [--tolerance PCT] [--calibrate SUITE/BENCH] [--gate a,b] \
         [--require SUITE/BENCH,...] [--list]\nsuites: {}",
        SUITES
            .iter()
            .map(|(n, _, _)| *n)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut tolerance_pct: f64 = 25.0;
    let mut selected: Option<Vec<String>> = None;
    let mut calibrate: Option<String> = None;
    let mut gated: Option<Vec<String>> = None;
    let mut required: Vec<String> = Vec::new();

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
            "--tolerance" => {
                tolerance_pct = next_value(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--calibrate" => calibrate = Some(next_value(&mut i)),
            "--gate" => {
                gated = Some(next_value(&mut i).split(',').map(str::to_string).collect());
            }
            "--require" => {
                required.extend(next_value(&mut i).split(',').map(str::to_string));
            }
            "--suites" => {
                selected = Some(next_value(&mut i).split(',').map(str::to_string).collect());
            }
            "--list" => {
                for (name, what, _) in SUITES {
                    println!("{name:<20} {what}");
                }
                return;
            }
            _ => usage(),
        }
        i += 1;
    }

    if calibrate.is_some() && check_path.is_none() {
        eprintln!("--calibrate only applies to --check; nothing to compare against");
        usage();
    }
    if gated.is_some() && check_path.is_none() {
        eprintln!("--gate only applies to --check; nothing to compare against");
        usage();
    }
    if !required.is_empty() && check_path.is_none() {
        eprintln!("--require only applies to --check; nothing to compare against");
        usage();
    }
    // Validate every suite name up front: a typo'd --gate would
    // otherwise silently drop a suite from the regression gate.
    let known = |name: &str| SUITES.iter().any(|(n, _, _)| *n == name);
    for name in [&selected, &gated].into_iter().flatten().flatten() {
        if !known(name) {
            eprintln!("unknown suite {name:?}");
            usage();
        }
    }
    for spec in calibrate.iter().chain(&required) {
        let suite = spec.split_once('/').map(|(s, _)| s);
        if !suite.is_some_and(known) {
            eprintln!("--calibrate/--require want KNOWN_SUITE/BENCH, got {spec:?}");
            usage();
        }
    }

    // Run the suites, attributing each drained batch of results to the
    // suite that produced it.
    let mut report: Vec<(&str, Vec<BenchResult>)> = Vec::new();
    take_results(); // drop anything a previous harness left behind
    for (name, _, run) in SUITES {
        if selected
            .as_ref()
            .is_some_and(|s| !s.iter().any(|n| n == name))
        {
            continue;
        }
        run();
        report.push((name, take_results()));
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
        let scale = match &calibrate {
            None => 1.0,
            Some(spec) => calibration_scale(&report, &baseline, spec),
        };
        // Only the suites named by --gate (default: every suite that
        // ran) are held to the tolerance — a calibration suite can ride
        // along in the run without being gated itself.
        let gate_filter: Vec<(&str, Vec<BenchResult>)> = match &gated {
            None => report.clone(),
            Some(names) => report
                .iter()
                .filter(|(s, _)| names.iter().any(|n| n == s))
                .cloned()
                .collect(),
        };
        if !require_present(&report, &baseline, &required) {
            std::process::exit(1);
        }
        if !check_against(&gate_filter, &baseline, tolerance_pct, scale) {
            std::process::exit(1);
        }
    }
}

/// Verifies every `--require`d SUITE/BENCH exists in both the current
/// run and the baseline, so the gate cannot silently lose coverage of a
/// pinned hot-path bench.
fn require_present(
    report: &[(&str, Vec<BenchResult>)],
    baseline: &Json,
    required: &[String],
) -> bool {
    let base = flatten(baseline);
    let mut ok = true;
    for spec in required {
        let Some((suite, name)) = spec.split_once('/') else {
            eprintln!("--require wants SUITE/BENCH, got {spec:?}");
            return false;
        };
        let in_run = report
            .iter()
            .any(|(s, rs)| *s == suite && rs.iter().any(|r| r.name == name));
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
/// the `suite/bench` calibration measurement, which must exist in both.
fn calibration_scale(report: &[(&str, Vec<BenchResult>)], baseline: &Json, spec: &str) -> f64 {
    let Some((suite, name)) = spec.split_once('/') else {
        eprintln!("--calibrate wants SUITE/BENCH, got {spec:?}");
        std::process::exit(2);
    };
    let current = report
        .iter()
        .find(|(s, _)| *s == suite)
        .and_then(|(_, rs)| rs.iter().find(|r| r.name == name))
        .map(|r| r.ns_per_iter);
    let base = flatten(baseline)
        .into_iter()
        .find(|(s, n, _)| s == suite && n == name)
        .map(|(_, _, ns)| ns);
    match (current, base) {
        (Some(c), Some(b)) if b > 0.0 && c > 0.0 => {
            let scale = c / b;
            println!("calibrate {spec}: {c:.1} vs {b:.1} ns/iter -> scale {scale:.3}");
            scale
        }
        _ => {
            eprintln!("--calibrate {spec}: bench missing from the run or the baseline");
            std::process::exit(2);
        }
    }
}

/// Renders the per-suite results as the `BENCH_perf.json` schema.
fn render_report(report: &[(&str, Vec<BenchResult>)]) -> String {
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
                ("suite", Json::Str(suite.to_string())),
                ("benches", Json::Arr(benches)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::Str("nn-bench-perf-v1".to_string())),
        (
            "iters_env",
            match std::env::var("NN_BENCH_ITERS") {
                Ok(v) => Json::Str(v),
                Err(_) => Json::Null,
            },
        ),
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

/// Compares the current run against a baseline report; returns false if
/// any bench present in both regressed by more than `tolerance_pct`
/// against the baseline's numbers scaled by the machine-speed
/// correction `scale` (1.0 for same-machine comparisons).
fn check_against(
    report: &[(&str, Vec<BenchResult>)],
    baseline: &Json,
    tolerance_pct: f64,
    scale: f64,
) -> bool {
    let base = flatten(baseline);
    let limit = 1.0 + tolerance_pct / 100.0;
    let mut compared = 0usize;
    let mut ok = true;
    for (suite, results) in report {
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
        eprintln!("check: at least one bench regressed more than {tolerance_pct}% over baseline");
    }
    ok
}
