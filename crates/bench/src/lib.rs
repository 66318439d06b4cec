//! # nn-bench — a tiny custom benchmark harness
//!
//! The workspace builds offline (no criterion), so the suites in
//! [`suites`] use this harness: warm up, run a measured loop around
//! [`std::hint::black_box`], report nanoseconds per iteration. Results
//! are indicative, not statistically rigorous — good enough to compare
//! the paper's cost model (§4) against this implementation and to catch
//! order-of-magnitude regressions.
//!
//! The `nn-bench` binary runs them, one suite or all:
//! `cargo run --release -p nn-bench --bin nn-bench -- --suites NAME`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Iterations measured.
    pub iters: u64,
    /// Mean nanoseconds per iteration.
    pub ns_per_iter: f64,
}

impl BenchResult {
    /// Iterations per second implied by the measurement.
    pub fn ops_per_sec(&self) -> f64 {
        if self.ns_per_iter > 0.0 {
            1e9 / self.ns_per_iter
        } else {
            f64::INFINITY
        }
    }
}

/// The shared result sink [`bench`] and [`report_result`] feed, so a
/// driver (the `nn-bench` binary's `--json` mode) can collect every
/// measurement of a suite run without threading a collector through all
/// the suite functions.
fn registry() -> &'static Mutex<Vec<BenchResult>> {
    static REGISTRY: OnceLock<Mutex<Vec<BenchResult>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Drains every result recorded since the last call (or process start).
/// The `nn-bench` binary calls this after each suite to attribute
/// results to it.
pub fn take_results() -> Vec<BenchResult> {
    std::mem::take(&mut *registry().lock().expect("bench registry"))
}

/// Times `f` over `iters` iterations (after `iters/10 + 1` warm-up runs)
/// and prints one result line.
pub fn bench<F: FnMut()>(name: &str, iters: u64, mut f: F) -> BenchResult {
    let iters = iters.max(1);
    for _ in 0..(iters / 10 + 1) {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let elapsed = start.elapsed();
    let result = BenchResult {
        name: name.to_string(),
        iters,
        ns_per_iter: elapsed.as_nanos() as f64 / iters as f64,
    };
    print_result(&result);
    registry()
        .lock()
        .expect("bench registry")
        .push(result.clone());
    result
}

/// Prints one aligned result line and records it in the registry — for
/// suites that time a loop by hand instead of going through [`bench()`].
pub fn report_result(r: &BenchResult) {
    print_result(r);
    registry().lock().expect("bench registry").push(r.clone());
}

/// Prints one aligned result line.
pub fn print_result(r: &BenchResult) {
    println!(
        "{:<40} {:>12.1} ns/iter {:>14.0} ops/s ({} iters)",
        r.name,
        r.ns_per_iter,
        r.ops_per_sec(),
        r.iters
    );
}

/// Prints a bench-group header.
pub fn header(group: &str) {
    println!("== {group} ==");
}

pub mod suites;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_and_counts() {
        let mut calls = 0u64;
        let r = bench("noop", 100, || calls += 1);
        assert_eq!(r.iters, 100);
        assert!(calls >= 100, "measured loop ran (plus warmup): {calls}");
        assert!(r.ns_per_iter >= 0.0);
    }

    #[test]
    fn suite_table_is_well_formed() {
        let names: std::collections::HashSet<&str> =
            crate::suites::SUITES.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), crate::suites::SUITES.len(), "names unique");
        assert!(names.iter().all(|n| !n.is_empty()));
    }

    #[test]
    fn gate_names_gated_suites() {
        use crate::suites::{GATE, SUITES};
        for row in GATE.required.iter().chain([&GATE.calibrate]) {
            let (suite, bench) = row.split_once('/').expect("a row is SUITE/BENCH");
            assert!(!bench.is_empty(), "{row} names a bench");
            assert!(
                SUITES.iter().any(|s| s.name == suite && s.gated),
                "{row} names a gated suite"
            );
        }
    }
}
