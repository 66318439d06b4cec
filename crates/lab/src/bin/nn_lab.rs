//! `nn-lab` — run an experiment matrix and write its reports.
//!
//! ```text
//! nn-lab [--matrix NAME] [--out FILE] [--csv FILE] [--threads N] [--list]
//!        [--shards N]                 multi-process run: N worker children
//!        --worker --shard I/N         run one shard, emit ShardReport JSON
//!        --merge FILE...              merge ShardReport files + finalize
//! ```
//!
//! With no arguments the `default` matrix (48 cells) runs on every CPU
//! and writes `BENCH_matrix.json`. The written JSON is re-read and
//! re-parsed before the process exits, so a zero exit status certifies a
//! well-formed report.
//!
//! The three sharding modes compose: `--shards N` is exactly `N`
//! `--worker` children plus an in-process merge, and a worker's output
//! file is exactly what `--merge` consumes — so shards can also be
//! produced on different hosts and merged later. Every path yields
//! byte-identical JSON and CSV to the single-process run.

use nn_lab::json::Json;
use nn_lab::matrix::{named_matrix, MatrixReport, NAMED_MATRICES};
use nn_lab::{
    finalize_report, merge_shards, run_shard, verify_merged_against_spec, CellAssignment,
    CellExecutor, ExecutionPlan, ProcessExecutor, ShardReport, ThreadExecutor,
};

fn usage() -> ! {
    eprintln!(
        "usage: nn-lab [--matrix NAME] [--out FILE] [--csv FILE] [--threads N] [--list]\n\
         \x20      [--shards N] | [--worker --shard I/N] | [--merge FILE...]\n\
         matrices: {}\n\
         --shards N   run the matrix as N worker child processes and merge\n\
         --worker     run one shard (requires --shard I/N); the ShardReport\n\
         \x20            JSON goes to --out or stdout\n\
         --merge      merge ShardReport files into the finalized report",
        NAMED_MATRICES.join(", ")
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("nn-lab: {msg}");
    std::process::exit(1);
}

struct Args {
    matrix: Option<String>,
    out_path: Option<String>,
    csv_path: Option<String>,
    threads: Option<usize>,
    shards: Option<usize>,
    worker: bool,
    shard: Option<CellAssignment>,
    merge: Vec<String>,
}

/// Strict argument parsing: unknown flags, missing values, zero counts
/// and malformed `--shard I/N` all exit 2 with the usage message.
fn parse_args() -> Args {
    let mut parsed = Args {
        matrix: None,
        out_path: None,
        csv_path: None,
        threads: None,
        shards: None,
        worker: false,
        shard: None,
        merge: Vec::new(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let next_value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| {
                eprintln!("nn-lab: {} needs a value", args[*i - 1]);
                usage()
            })
        };
        let positive = |flag: &str, text: String| -> usize {
            match text.parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => {
                    eprintln!("nn-lab: {flag} needs a positive integer, got {text:?}");
                    usage()
                }
            }
        };
        match args[i].as_str() {
            "--matrix" => parsed.matrix = Some(next_value(&mut i)),
            "--out" => parsed.out_path = Some(next_value(&mut i)),
            "--csv" => parsed.csv_path = Some(next_value(&mut i)),
            "--threads" => {
                let v = next_value(&mut i);
                parsed.threads = Some(positive("--threads", v));
            }
            "--shards" => {
                let v = next_value(&mut i);
                parsed.shards = Some(positive("--shards", v));
            }
            "--worker" => parsed.worker = true,
            "--shard" => {
                let v = next_value(&mut i);
                parsed.shard = Some(CellAssignment::parse(&v).unwrap_or_else(|e| {
                    eprintln!("nn-lab: {e}");
                    usage()
                }));
            }
            "--merge" => {
                while let Some(path) = args.get(i + 1) {
                    if path.starts_with("--") {
                        break;
                    }
                    parsed.merge.push(path.clone());
                    i += 1;
                }
                if parsed.merge.is_empty() {
                    eprintln!("nn-lab: --merge needs at least one ShardReport file");
                    usage()
                }
            }
            "--list" => {
                for name in NAMED_MATRICES {
                    let spec = named_matrix(name).expect("table entry resolves");
                    println!("{name:<10} {} cells", spec.cell_count());
                }
                std::process::exit(0);
            }
            unknown => {
                eprintln!("nn-lab: unknown argument {unknown:?}");
                usage()
            }
        }
        i += 1;
    }
    // Mode flags are mutually exclusive, and --worker/--shard come in a
    // pair.
    let modes = usize::from(parsed.worker)
        + usize::from(parsed.shards.is_some())
        + usize::from(!parsed.merge.is_empty());
    if modes > 1 {
        eprintln!("nn-lab: --worker, --shards and --merge are mutually exclusive");
        usage()
    }
    if parsed.worker != parsed.shard.is_some() {
        eprintln!("nn-lab: --worker and --shard I/N must be given together");
        usage()
    }
    // Flags a mode cannot honor are refused, not silently dropped.
    if parsed.worker && parsed.csv_path.is_some() {
        eprintln!("nn-lab: --csv is not valid with --worker (shard reports are JSON only)");
        usage()
    }
    if !parsed.merge.is_empty() {
        if parsed.matrix.is_some() {
            eprintln!("nn-lab: --matrix is not valid with --merge (the shard files name the spec)");
            usage()
        }
        if parsed.threads.is_some() {
            eprintln!("nn-lab: --threads is not valid with --merge (nothing runs)");
            usage()
        }
    }
    parsed
}

/// The matrix to run: `--matrix` or the classic `default`.
fn matrix_name(args: &Args) -> &str {
    args.matrix.as_deref().unwrap_or("default")
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn main() {
    let args = parse_args();

    if args.worker {
        run_worker(&args);
        return;
    }
    let report = if !args.merge.is_empty() {
        merge_mode(&args)
    } else if let Some(shards) = args.shards {
        sharded_mode(&args, shards)
    } else {
        single_process_mode(&args)
    };
    write_reports(&args, &report);
}

/// `--worker --shard I/N`: run one shard and emit its ShardReport JSON
/// on stdout (or `--out`). Diagnostics go to stderr only, so stdout is
/// exactly the wire format the parent (or a later `--merge`) parses.
fn run_worker(args: &Args) {
    let assignment = args.shard.expect("checked in parse_args");
    let name = matrix_name(args);
    let spec = named_matrix(name).unwrap_or_else(|| fail(&format!("unknown matrix {name:?}")));
    let threads = args.threads.unwrap_or_else(default_threads);
    eprintln!(
        "worker shard {}/{} of matrix {:?}: {} of {} cells on {threads} threads",
        assignment.shard,
        assignment.shards,
        name,
        assignment.cell_count(spec.cell_count()),
        spec.cell_count(),
    );
    let report = run_shard(&spec, &assignment, threads);
    let json = report.to_json();
    match &args.out_path {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| fail(&format!("writing {path}: {e}")));
            eprintln!("wrote shard report {path} ({} cells)", report.cells.len());
        }
        None => println!("{json}"),
    }
}

/// `--shards N`: spawn N `--worker` children of this same binary, merge
/// their reports and finalize.
fn sharded_mode(args: &Args, shards: usize) -> MatrixReport {
    let name = matrix_name(args);
    let spec = named_matrix(name).unwrap_or_else(|| fail(&format!("unknown matrix {name:?}")));
    let plan = ExecutionPlan::new(&spec, shards);
    // Split the machine across the children unless --threads pins a
    // per-worker count explicitly.
    let child_threads = args
        .threads
        .unwrap_or_else(|| (default_threads() / plan.shard_count()).max(1));
    let program = std::env::current_exe()
        .unwrap_or_else(|e| fail(&format!("resolving own binary for workers: {e}")));
    eprintln!(
        "running matrix {:?}: {} cells across {} worker processes ({child_threads} threads each)",
        name,
        plan.cell_count(),
        plan.shard_count(),
    );
    let mut executor = ProcessExecutor::new(program, name);
    executor.threads = Some(child_threads);
    let shard_reports = executor
        .execute(&plan)
        .unwrap_or_else(|e| fail(&format!("sharded run failed: {e}")));
    let merged =
        merge_shards(shard_reports).unwrap_or_else(|e| fail(&format!("merge failed: {e}")));
    verify_merged_against_spec(&merged, &spec)
        .unwrap_or_else(|e| fail(&format!("merged cells do not match the spec: {e}")));
    finalize_report(merged, &spec)
}

/// `--merge a.json b.json …`: reassemble shard files (produced by any
/// worker, anywhere) and finalize against the named spec they declare.
fn merge_mode(args: &Args) -> MatrixReport {
    let shard_reports: Vec<ShardReport> = args
        .merge
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("reading {path}: {e}")));
            ShardReport::from_json(text.trim_end())
                .unwrap_or_else(|e| fail(&format!("{path} is not a shard report: {e}")))
        })
        .collect();
    let merged =
        merge_shards(shard_reports).unwrap_or_else(|e| fail(&format!("merge failed: {e}")));
    let spec = named_matrix(&merged.name).unwrap_or_else(|| {
        fail(&format!(
            "shard reports name matrix {:?}, which is not a named matrix \
             (baseline finalization needs the spec)",
            merged.name
        ))
    });
    verify_merged_against_spec(&merged, &spec)
        .unwrap_or_else(|e| fail(&format!("merged cells do not match the spec: {e}")));
    eprintln!(
        "merged {} shard files into matrix {:?} ({} cells)",
        args.merge.len(),
        merged.name,
        merged.cells.len()
    );
    finalize_report(merged, &spec)
}

/// The classic single-process run: a one-shard plan on the thread
/// executor.
fn single_process_mode(args: &Args) -> MatrixReport {
    let name = matrix_name(args);
    let spec = named_matrix(name).unwrap_or_else(|| fail(&format!("unknown matrix {name:?}")));
    let threads = args.threads.unwrap_or_else(default_threads);
    eprintln!(
        "running matrix {:?}: {} cells on {threads} threads",
        name,
        spec.cell_count()
    );
    let plan = ExecutionPlan::new(&spec, 1);
    let shards = ThreadExecutor::new(threads)
        .execute(&plan)
        .expect("in-process execution is infallible");
    let merged = merge_shards(shards).expect("a single in-process shard always merges");
    finalize_report(merged, &spec)
}

/// Writes JSON (+ optional CSV), prints the summary, and certifies the
/// artifact by re-reading and re-parsing what was written.
fn write_reports(args: &Args, report: &MatrixReport) {
    print_summary(report);
    let out_path = args
        .out_path
        .clone()
        .unwrap_or_else(|| "BENCH_matrix.json".to_string());
    let json = report.to_json();
    std::fs::write(&out_path, &json).unwrap_or_else(|e| fail(&format!("writing {out_path}: {e}")));
    if let Some(path) = &args.csv_path {
        std::fs::write(path, report.to_csv())
            .unwrap_or_else(|e| fail(&format!("writing {path}: {e}")));
    }

    let reread = std::fs::read_to_string(&out_path)
        .unwrap_or_else(|e| fail(&format!("re-reading {out_path}: {e}")));
    let parsed = Json::parse(&reread)
        .unwrap_or_else(|e| fail(&format!("{out_path} is not valid JSON: {e}")));
    let parsed_cells = parsed
        .get("cells")
        .and_then(|c| c.as_arr())
        .map(|c| c.len())
        .unwrap_or(0);
    assert_eq!(
        parsed_cells,
        report.cells.len(),
        "written report lost cells"
    );
    println!(
        "wrote {out_path} ({} cells{}).",
        report.cells.len(),
        args.csv_path
            .as_ref()
            .map(|p| format!(", CSV {p}"))
            .unwrap_or_default()
    );
}

/// One aligned line per cell, grouped by topology/workload.
fn print_summary(report: &MatrixReport) {
    println!("matrix: {} ({} cells)", report.name, report.cells.len());
    println!(
        "  {:<19} {:<23} {:<8} {:<16} {:<12} {:<14} {:>6} {:>12} {:>9} {:>8}",
        "topology",
        "link",
        "workload",
        "adversary",
        "stack",
        "events",
        "seed",
        "goodput",
        "vs-base",
        "drops"
    );
    for c in &report.cells {
        let rel = c
            .relative
            .map(|r| format!("{:>8.1}%", r.goodput_ratio * 100.0))
            .unwrap_or_else(|| "       -".to_string());
        println!(
            "  {:<19} {:<23} {:<8} {:<16} {:<12} {:<14} {:>6} {:>9.1} kb {} {:>8}",
            c.topology,
            c.link,
            c.workload,
            c.adversary,
            c.stack,
            c.events,
            c.seed_axis,
            c.report.goodput_bps() / 1e3,
            rel,
            c.report.policy_drops,
        );
    }
    println!(
        "  pool: {} allocs, {} recycled",
        report.pool_allocs, report.pool_recycled
    );
    if let Some(d) = report.detection_summary() {
        println!(
            "  detection: {} cells scored, {} tp / {} fp / {} fn, \
             precision {:.2}, recall {:.2}",
            d.scored, d.true_positives, d.false_positives, d.false_negatives, d.precision, d.recall,
        );
    }
}
