//! `nn-benchmark` — the seeded end-to-end benchmark of `nn-lab` sweeps.
//!
//! ```text
//! nn-benchmark --workload NAME --seed N [--seconds S] [--trace 0|1] [--spans FILE]
//! nn-benchmark --worker --shard I/N --matrix NAME [--threads T]
//! nn-benchmark --setup --workload NAME --seed N --cell I
//! nn-benchmark record OUT.json --set NAME --seed N [--runs K] [--trace 0|1]
//! nn-benchmark compare BASE.json NEW.json [--base-set NAME] [--new-set NAME]
//! ```
//!
//! A run prints each matrix's report digest, every metric as
//! `name value unit`, and, as its last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones.
//!
//! `--worker` is the child `sharded-sweep` spawns through
//! `nn_lab::ProcessExecutor`: it rebuilds the matrix from its name and
//! writes only the `ShardReport` JSON to stdout. `--setup` is the child a
//! run spawns to time one set-up: it sets the workload up, warming up with
//! its `I`-th neutralized cell, and exits.
//!
//! `record` runs every workload `--runs` times, each run in its own
//! process, and appends the results to a result file; `compare`
//! judges two result files against the bounds in `BENCHMARK.json`, read
//! from the working directory (the repository root).

mod bench;
mod checks;
mod config;
mod pipeline;
mod procfs;
mod results;
mod stats;
mod trace;
mod workloads;

use nn_lab::json::Json;
use nn_lab::CellAssignment;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use workloads::{Workload, MAX_SEED, WORKLOADS};

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
    eprintln!(
        "nn-benchmark: {problem}\n\
         usage: nn-benchmark --workload NAME --seed N [--seconds S] [--trace 0|1] [--spans FILE]\n\
         \x20      nn-benchmark --worker --shard I/N --matrix NAME [--threads T]\n\
         \x20      nn-benchmark --setup --workload NAME --seed N --cell I\n\
         \x20      nn-benchmark record OUT.json --set NAME --seed N [--runs K] [--trace 0|1]\n\
         \x20      nn-benchmark compare BASE.json NEW.json [--base-set NAME] [--new-set NAME]\n\
         workloads: {}",
        names.join(", ")
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("nn-benchmark: {msg}");
    std::process::exit(1);
}

/// Flags and their values; every flag takes exactly one value.
struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Splits `args` into `--flag value` pairs, refusing flags outside
    /// `known`.
    fn parse(args: &[String], known: &[&str]) -> Flags {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            if !known.contains(&flag) {
                usage(&format!("unknown argument {flag:?}"));
            }
            let value = args
                .get(i + 1)
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
            pairs.push((flag.to_string(), value.clone()));
            i += 2;
        }
        Flags { pairs }
    }

    /// The value of a flag given at most once.
    fn one(&self, flag: &str) -> Option<&str> {
        let mut found = self.pairs.iter().filter(|(f, _)| f == flag);
        let first = found.next().map(|(_, v)| v.as_str());
        if found.next().is_some() {
            usage(&format!("{flag} given twice"));
        }
        first
    }

    fn required(&self, flag: &str) -> &str {
        self.one(flag)
            .unwrap_or_else(|| usage(&format!("{flag} is required")))
    }
}

/// A decimal integer in `min..=max`, or exit 2.
fn number(flag: &str, text: &str, min: u64, max: u64) -> u64 {
    match text.parse::<u64>() {
        Ok(n) if text.bytes().all(|b| b.is_ascii_digit()) && (min..=max).contains(&n) => n,
        _ => usage(&format!(
            "{flag} needs an integer in {min}..={max}, got {text:?}"
        )),
    }
}

fn trace_flag(flags: &Flags) -> bool {
    match flags.one("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => usage(&format!("--trace takes 0 or 1, got {other:?}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        Some("record") => record(&args[1..]),
        Some("--worker") => worker(&args[1..]),
        Some("--setup") => setup(&args[1..]),
        Some(_) => run(&args),
        None => usage("no arguments"),
    }
}

/// `--workload NAME --seed N …`: one measured run.
fn workload(flags: &Flags) -> Workload {
    let name = flags.required("--workload");
    Workload::from_name(name).unwrap_or_else(|| usage(&format!("unknown workload {name:?}")))
}

fn seed(flags: &Flags) -> u64 {
    number("--seed", flags.required("--seed"), 0, MAX_SEED)
}

fn run(args: &[String]) {
    let flags = Flags::parse(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--spans"],
    );
    let opts = bench::Options {
        workload: workload(&flags),
        seed: seed(&flags),
        seconds: flags
            .one("--seconds")
            .map_or(config::DEFAULT_SECONDS, |s| number("--seconds", s, 1, 3600)),
        trace: trace_flag(&flags),
        spans: flags.one("--spans").map(PathBuf::from),
    };
    if opts.spans.is_some() && !opts.trace {
        usage("--spans needs --trace 1");
    }
    let outcome = bench::run(&opts).unwrap_or_else(|e| fail(&e));
    for (name, digest) in &outcome.digests {
        match digest {
            Some(d) => println!("digest {name} {d:016x}"),
            None => println!("digest {name} none"),
        }
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name} {value} {unit}");
    }
    println!(
        "fail_ratio {} ratio",
        outcome.failed as f64 / outcome.attempted as f64
    );
    let metrics = outcome
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name.to_string(),
                Json::obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    let result = Json::obj(vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::UInt(outcome.attempted as u64)),
        ("failed", Json::UInt(outcome.failed as u64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
}

/// `--worker --shard I/N --matrix NAME [--threads T]`: run one shard of a
/// benchmark matrix; stdout carries only the shard report.
fn worker(args: &[String]) {
    let flags = Flags::parse(args, &["--shard", "--matrix", "--threads"]);
    let shard = CellAssignment::parse(flags.required("--shard"))
        .unwrap_or_else(|e| usage(&format!("--shard: {e}")));
    let name = flags.required("--matrix");
    let spec = workloads::spec_from_name(name)
        .unwrap_or_else(|| usage(&format!("--matrix {name:?} is not a benchmark matrix")));
    let threads = flags
        .one("--threads")
        .map_or(1, |t| number("--threads", t, 1, 256) as usize);
    let report = nn_lab::run_shard(&spec, &shard, threads);
    println!("{}", report.to_json());
}

/// `--setup --workload NAME --seed N --cell I`: one set-up, for the parent
/// run to time; prints nothing.
fn setup(args: &[String]) {
    let flags = Flags::parse(args, &["--workload", "--seed", "--cell"]);
    let warm = number(
        "--cell",
        flags.required("--cell"),
        0,
        bench::SETUPS as u64 - 1,
    );
    bench::set_up(workload(&flags), seed(&flags), warm as usize);
}

/// `record OUT.json --set NAME --seed N …`: run each workload in its own
/// process and append the results to `OUT.json`.
fn record(args: &[String]) {
    let Some((out, rest)) = args.split_first() else {
        usage("record needs an output file");
    };
    let flags = Flags::parse(rest, &["--set", "--seed", "--runs", "--trace"]);
    let set = flags.required("--set").to_string();
    let seed = seed(&flags);
    let runs = flags
        .one("--runs")
        .map_or(1, |r| number("--runs", r, 1, 1000));
    let trace = trace_flag(&flags);
    let mut file = match std::fs::read_to_string(out) {
        Ok(text) => results::ResultFile::parse(&text)
            .unwrap_or_else(|e| fail(&format!("{out} is not a result file: {e}"))),
        Err(_) => results::ResultFile {
            machine: results::machine(),
            runs: Vec::new(),
        },
    };
    let program = std::env::current_exe().unwrap_or_else(|e| fail(&format!("own binary: {e}")));
    for _ in 0..runs {
        for w in WORKLOADS {
            let output = Command::new(&program)
                .args(["--workload", w.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .unwrap_or_else(|e| fail(&format!("running {}: {e}", w.name())));
            let stdout = String::from_utf8_lossy(&output.stdout);
            if !output.status.success() {
                fail(&format!("{} exited with {}", w.name(), output.status));
            }
            let last = stdout.lines().last().unwrap_or("");
            let result = results::parse_result_line(last)
                .unwrap_or_else(|e| fail(&format!("{} printed no result: {e}", w.name())));
            eprintln!("recorded {set} {} seed {seed}: {last}", w.name());
            file.runs.push(results::Run {
                set: set.clone(),
                workload: w.name().to_string(),
                seed,
                trace,
                result,
            });
            std::fs::write(out, file.render())
                .unwrap_or_else(|e| fail(&format!("writing {out}: {e}")));
        }
    }
}

/// `compare BASE.json NEW.json …`: one row per workload and end-to-end
/// metric, plus one for failed cells; exits 1 when any row regressed.
fn compare(args: &[String]) {
    if args.len() < 2 {
        usage("compare needs two result files");
    }
    let flags = Flags::parse(&args[2..], &["--base-set", "--new-set"]);
    let load = |path: &str| {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("reading {path}: {e}")));
        results::ResultFile::parse(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
    };
    let bounds_text = std::fs::read_to_string("BENCHMARK.json")
        .unwrap_or_else(|e| fail(&format!("reading BENCHMARK.json: {e}")));
    let rules =
        config::bounds(&bounds_text).unwrap_or_else(|e| fail(&format!("BENCHMARK.json: {e}")));
    let (table, regressed) = results::compare(
        &load(&args[0]),
        flags.one("--base-set"),
        &load(&args[1]),
        flags.one("--new-set"),
        &rules,
    )
    .unwrap_or_else(|e| fail(&e));
    print!("{table}");
    if regressed {
        std::process::exit(1);
    }
}
