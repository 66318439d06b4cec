//! One measured run of a workload.
//!
//! 1. Set-up: build the batch's specs and plans and run one warm-up cell
//!    (which also fills the lazy AES and small-prime tables). `setup_s` is
//!    the median of [`SETUPS`] set-ups, each in a fresh `--setup` process
//!    timed from spawn to exit, so lazy work a change moves to first use
//!    shows in every sample. Half run before the window and half after it,
//!    so a burst of contention from other tenants of the host cannot set
//!    the median alone. The run's own set-up, before the window, is not
//!    timed.
//! 2. The window: whole rounds of the batch through the pipeline until
//!    `--seconds` have passed. Every round runs the same batch, so every
//!    round must produce byte-identical reports. `cells_per_s` is the
//!    median over the window's matrices of cells ÷ pipeline wall time.
//! 3. Traced runs alternate untraced and traced rounds in the window,
//!    then run every cell of the batch once more on one thread with one
//!    warm pool, and time [`KEYGENS`] one-time keypair generations.

use crate::checks;
use crate::config::{END_TO_END, PER_LAYER};
use crate::pipeline::{self, STAGES};
use crate::procfs;
use crate::stats::{fnv64, median, percentile};
use crate::trace::{self, SpanId, Tracer};
use crate::workloads::{Executor, Workload};
use nn_lab::json::Json;
use nn_lab::{ExecutionPlan, ExperimentSpec, MatrixCell, MatrixReport, ShardReport, StackKind};
use rand::SeedableRng;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Timed set-ups per untraced run; each warms up with a different
/// neutralized cell, so the median does not rest on one cell's keygens.
pub const SETUPS: usize = 20;
/// One-time keypairs timed for `crypto.keygen_ms`.
pub const KEYGENS: usize = 50;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub spans: Option<PathBuf>,
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// Cells run.
    pub attempted: usize,
    /// Cells that failed a check.
    pub failed: usize,
    /// `(name, value, unit)`, in the order of the metric table.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Each matrix's report digest from the first round.
    pub digests: Vec<(String, Option<u64>)>,
    /// Human-readable lines about the run (the traced breakdown).
    pub notes: Vec<String>,
}

/// Reports are written here and removed when the run ends.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> Result<RunDir, String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".scratch")
            .join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(RunDir(path))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One round of the batch.
struct Round {
    traced: bool,
    cells: usize,
    /// Σ of the matrices' pipeline wall times.
    wall_s: f64,
    /// Each matrix's cells ÷ its pipeline wall time.
    rates: Vec<f64>,
    failed_per_matrix: Vec<usize>,
    digests: Vec<Option<u64>>,
    json_bytes: usize,
    /// Bytes of the re-rendered shard reports (traced, multi-shard only).
    wire_bytes: usize,
    /// Finalized reports, kept when asked for.
    reports: Vec<Option<MatrixReport>>,
}

/// Runs the batch once through the pipeline, recording spans into `tr`
/// when it is enabled.
fn run_round(
    specs: &[ExperimentSpec],
    executor: Executor,
    program: &Path,
    dir: &Path,
    tr: &mut Tracer,
    keep_reports: bool,
) -> Round {
    let root = tr.begin("round", None, "");
    let mut round = Round {
        traced: tr.enabled(),
        cells: 0,
        wall_s: 0.0,
        rates: Vec::with_capacity(specs.len()),
        failed_per_matrix: Vec::with_capacity(specs.len()),
        digests: Vec::with_capacity(specs.len()),
        json_bytes: 0,
        wire_bytes: 0,
        reports: Vec::new(),
    };
    for spec in specs {
        let count = spec.cell_count();
        round.cells += count;
        let start = Instant::now();
        let result = pipeline::run_matrix(spec, executor, program, dir, tr, root);
        let wall_s = start.elapsed().as_secs_f64();
        round.wall_s += wall_s;
        round.rates.push(count as f64 / wall_s);
        let finished = match result {
            Ok(f) => f,
            Err(e) => {
                eprintln!("nn-benchmark: {}: {e}", spec.name);
                round.failed_per_matrix.push(count);
                round.digests.push(None);
                round.reports.push(None);
                continue;
            }
        };
        let bad = checks::cell_failures(&finished.report);
        for msg in bad.iter().take(3) {
            eprintln!("nn-benchmark: {}: {msg}", spec.name);
        }
        let mut failed = bad.len();
        if let Err(e) = checks::check_written(&finished.report, &finished.json, &finished.parsed) {
            eprintln!("nn-benchmark: {}: {e}", spec.name);
            failed = count;
        }
        if round.traced && executor.shards() > 1 {
            match time_shard_wire(&finished.report, executor.shards(), tr, root) {
                Ok(bytes) => round.wire_bytes += bytes,
                Err(e) => {
                    eprintln!("nn-benchmark: {}: shard wire: {e}", spec.name);
                    failed = count;
                }
            }
        }
        round.failed_per_matrix.push(failed);
        round.digests.push(Some(fnv64(finished.json.as_bytes())));
        round.json_bytes += finished.json.len();
        round.reports.push(keep_reports.then_some(finished.report));
    }
    tr.end(root);
    round
}

/// Re-renders and re-parses the shard reports of a `shards`-way run,
/// outside the timed pipeline. The reports are rebuilt from the finalized
/// cells, which are exactly what the workers sent. Returns the wire bytes.
fn time_shard_wire(
    report: &MatrixReport,
    shards: usize,
    tr: &mut Tracer,
    root: Option<SpanId>,
) -> Result<usize, String> {
    let name = report.name.as_str();
    let wire: Vec<ShardReport> = (0..shards)
        .map(|shard| ShardReport {
            matrix: report.name.clone(),
            shard,
            shards,
            total_cells: report.cells.len(),
            pool_allocs: if shard == 0 { report.pool_allocs } else { 0 },
            pool_recycled: if shard == 0 { report.pool_recycled } else { 0 },
            cells: report
                .cells
                .iter()
                .filter(|c| c.index % shards == shard)
                .cloned()
                .collect(),
        })
        .collect();
    let texts: Vec<String> = tr.time("shard.render", root, name, || {
        wire.iter().map(ShardReport::to_json).collect()
    });
    let parsed = tr.time("shard.parse", root, name, || {
        texts
            .iter()
            .map(|t| ShardReport::from_json(t))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let sent: Vec<usize> = wire.iter().map(|s| s.cells.len()).collect();
    let got: Vec<usize> = parsed.iter().map(|s| s.cells.len()).collect();
    if sent != got {
        return Err(format!(
            "re-parsed shard cell counts {got:?}, sent {sent:?}"
        ));
    }
    Ok(texts.iter().map(String::len).sum())
}

/// One set-up: the batch's specs and plans, then one run of the batch's
/// `warm`-th neutralized cell (`warm` < [`SETUPS`]). Returns the specs.
pub fn set_up(workload: Workload, seed: u64, warm: usize) -> Vec<ExperimentSpec> {
    let shards = workload.executor(procfs::nproc()).shards();
    let specs = workload.specs(seed);
    let plans: Vec<ExecutionPlan> = specs
        .iter()
        .map(|s| ExecutionPlan::new(s, shards))
        .collect();
    std::hint::black_box(&plans);
    let (spec, mc) = specs
        .iter()
        .flat_map(|s| {
            s.iter_cells()
                .filter(|mc| mc.cell.stack == StackKind::Neutralized)
                .map(move |mc| (s, mc))
        })
        .nth(warm)
        .expect("every workload batch has SETUPS neutralized cells");
    std::hint::black_box(nn_lab::run_cell(&mc.cell, &spec.tuning));
    specs
}

/// Seconds of each `--setup` child in `warm`, timed from spawn to exit.
fn time_set_ups(program: &Path, opts: &Options, warm: Range<usize>) -> Result<Vec<f64>, String> {
    warm.map(|i| {
        let start = Instant::now();
        let status = Command::new(program)
            .args(["--setup", "--workload", opts.workload.name()])
            .args(["--seed", &opts.seed.to_string(), "--cell", &i.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("spawning a set-up: {e}"))?;
        let elapsed = start.elapsed().as_secs_f64();
        if !status.success() {
            return Err(format!("set-up {i} exited with {status}"));
        }
        Ok(elapsed)
    })
    .collect()
}

/// One cell of the per-cell pass.
struct CellSample {
    ns: f64,
    neutralized: bool,
    events: u64,
    wire_frames: u64,
}

fn counter(cell: &MatrixCell, name: &str) -> u64 {
    cell.report
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |&(_, v)| v)
}

/// Runs every cell of the batch on this thread with one warm pool, in a
/// `cell` span each, and checks each report against `reports` (the same
/// cells from a pipeline round). Returns the samples and the mismatches.
fn per_cell_pass(
    specs: &[ExperimentSpec],
    reports: &[Option<MatrixReport>],
    tr: &mut Tracer,
) -> (Vec<CellSample>, usize) {
    let mut pool = nn_netsim::FramePool::new();
    let mut samples = Vec::new();
    let mut mismatched = 0;
    let root = tr.begin("cells", None, "");
    for (spec, report) in specs.iter().zip(reports) {
        for mc in spec.iter_cells() {
            let id = tr.begin("cell", root, &spec.name);
            tr.set_cell(id, mc.index);
            let start = Instant::now();
            let cell_report = nn_lab::run_cell_with_pool(&mc.cell, &spec.tuning, &mut pool);
            let ns = start.elapsed().as_nanos() as f64;
            tr.end(id);
            let expected = report.as_ref().map(|r| &r.cells[mc.index]);
            let fresh = expected.map(|e| MatrixCell {
                report: cell_report,
                ..e.clone()
            });
            match (expected, &fresh) {
                (Some(e), Some(f)) if e.to_json(false).render() == f.to_json(false).render() => {}
                _ => {
                    eprintln!(
                        "nn-benchmark: {} cell {}: report differs from the pipeline's",
                        spec.name, mc.index
                    );
                    mismatched += 1;
                }
            }
            let (events, wire_frames) = fresh.as_ref().map_or((0, 0), |f| {
                (f.report.events, counter(f, "population.wire_tx"))
            });
            samples.push(CellSample {
                ns,
                neutralized: mc.cell.stack == StackKind::Neutralized,
                events,
                wire_frames,
            });
        }
    }
    tr.end(root);
    (samples, mismatched)
}

/// Median milliseconds of [`KEYGENS`] one-time keypairs at `bits`.
fn keygen_ms(seed: u64, bits: usize) -> f64 {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let times: Vec<f64> = (0..KEYGENS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(nn_crypto::generate_keypair(&mut rng, bits));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Runs one workload.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let executor = opts.workload.executor(procfs::nproc());
    let program = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let mut setup = Vec::new();
    if !opts.trace {
        setup = time_set_ups(&program, opts, 0..SETUPS / 2)?;
    }
    let specs = set_up(opts.workload, opts.seed, 0);

    let dir = RunDir::create()?;
    let (mut tracer, mut off) = (Tracer::new(opts.trace), Tracer::new(false));
    let cpu_before = procfs::cpu_seconds()?;
    let window = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let traced = opts.trace && rounds.len() % 2 == 1;
        let tr = if traced { &mut tracer } else { &mut off };
        // The first traced round's reports are what the per-cell pass
        // checks its cells against.
        let keep = traced && rounds.len() == 1;
        rounds.push(run_round(&specs, executor, &program, &dir.0, tr, keep));
        let enough = !opts.trace || rounds.len() >= 2;
        if enough && window.elapsed().as_secs_f64() >= opts.seconds as f64 {
            break;
        }
    }
    let cpu_s = procfs::cpu_seconds()? - cpu_before;

    // Every round ran the same batch: a report that differs from the
    // first round's fails all its cells.
    let first = rounds[0].digests.clone();
    for round in &mut rounds[1..] {
        for (i, digest) in round.digests.iter().enumerate() {
            if *digest != first[i] && round.failed_per_matrix[i] == 0 {
                eprintln!(
                    "nn-benchmark: {}: report differs between rounds",
                    specs[i].name
                );
                round.failed_per_matrix[i] = specs[i].cell_count();
            }
        }
    }
    let mut attempted: usize = rounds.iter().map(|r| r.cells).sum();
    let mut failed: usize = rounds.iter().flat_map(|r| &r.failed_per_matrix).sum();
    let digests = specs.iter().map(|s| s.name.clone()).zip(first).collect();

    let mut notes = Vec::new();
    let values: Vec<f64> = if opts.trace {
        let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
        let reports = &traced[0].reports;
        let (samples, mismatched) = per_cell_pass(&specs, reports, &mut tracer);
        attempted += samples.len();
        failed += mismatched;
        let keygen = keygen_ms(opts.seed, specs[0].tuning.onetime_rsa_bits);
        let layers = per_layer(&rounds, reports, &samples, keygen, executor, &tracer);
        trace::check_nesting(tracer.spans())?;
        notes = breakdown(&tracer, traced.len());
        if let Some(path) = &opts.spans {
            let doc = Json::obj(vec![
                ("workload", Json::Str(opts.workload.name().to_string())),
                ("seed", Json::UInt(opts.seed)),
                ("spans", trace::to_json(tracer.spans())),
            ]);
            std::fs::write(path, doc.render())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        layers
    } else {
        setup.extend(time_set_ups(&program, opts, SETUPS / 2..SETUPS)?);
        let cells: usize = rounds.iter().map(|r| r.cells).sum();
        let rates: Vec<f64> = rounds.iter().flat_map(|r| r.rates.clone()).collect();
        vec![
            median(&rates),
            cpu_s * 1e3 / cells as f64,
            median(&setup),
            procfs::peak_rss_mb()?,
        ]
    };
    let table: &[(&'static str, &'static str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    assert_eq!(values.len(), table.len(), "one value per metric");
    Ok(Outcome {
        attempted,
        failed,
        metrics: table
            .iter()
            .zip(values)
            // `+ 0.0` turns an empty sum's -0.0 into 0.
            .map(|(&(name, unit), v)| (name, if v.is_finite() { v + 0.0 } else { 0.0 }, unit))
            .collect(),
        digests,
        notes,
    })
}

/// Σ duration of the spans named `name`, in seconds.
fn total_s(tr: &Tracer, name: &str) -> f64 {
    tr.spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum()
}

/// The per-layer values, in [`PER_LAYER`] order.
fn per_layer(
    rounds: &[Round],
    reports: &[Option<MatrixReport>],
    samples: &[CellSample],
    keygen_ms: f64,
    executor: Executor,
    tr: &Tracer,
) -> Vec<f64> {
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let n = traced.len() as f64;
    let per_round = |name: &str| total_s(tr, name) / n;
    let traced_cells: f64 = traced.iter().map(|r| r.cells as f64).sum();

    let cells: Vec<&MatrixCell> = reports.iter().flatten().flat_map(|r| &r.cells).collect();
    let cell_count = cells.len().max(1) as f64;
    let per_cell = |f: &dyn Fn(&MatrixCell) -> u64| -> f64 {
        cells.iter().map(|c| f(c) as f64).sum::<f64>() / cell_count
    };
    let pool_per_cell = |f: &dyn Fn(&MatrixReport) -> u64| -> f64 {
        reports.iter().flatten().map(|r| f(r) as f64).sum::<f64>() / cell_count
    };
    // A neutralized cell mints the destination keypair plus the
    // source's one-time keypairs; a plain cell mints none.
    let keygens_per_cell = per_cell(&|c| {
        if c.stack == "neutralized" {
            1 + counter(c, "source.keygens")
        } else {
            0
        }
    });
    let neutralized = cells.iter().filter(|c| c.stack == "neutralized").count();
    let keygens_per_neutralized_cell = keygens_per_cell * cell_count / neutralized.max(1) as f64;

    let ms: Vec<f64> = samples.iter().map(|s| s.ns / 1e6).collect();
    let ms_where = |neutralized: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.neutralized == neutralized)
            .map(|s| s.ns / 1e6)
            .collect()
    };
    let neutralized_mean_ms = mean(&ms_where(true));
    let cell_s: f64 = samples.iter().map(|s| s.ns / 1e9).sum();
    let events: f64 = samples.iter().map(|s| s.events as f64).sum();
    let population: Vec<&CellSample> = samples.iter().filter(|s| s.wire_frames > 0).collect();
    let wire_frames: f64 = population.iter().map(|s| s.wire_frames as f64).sum();
    let population_ns: f64 = population.iter().map(|s| s.ns).sum();

    let execute_s = per_round("execute");
    let over =
        |rs: &[&Round], f: fn(&Round) -> f64| mean(&rs.iter().map(|r| f(r)).collect::<Vec<_>>());
    let json_bytes = over(&traced, |r| r.json_bytes as f64);
    let parse_s = per_round("parse");
    // Everything after `execute` returns: merge … parse.
    let tail_s: f64 = STAGES[2..].iter().map(|s| per_round(s)).sum();

    vec![
        total_s(tr, "plan") * 1e9 / traced_cells,
        execute_s,
        cell_s / (executor.parallelism() as f64 * execute_s),
        percentile(&ms, 50.0),
        percentile(&ms, 99.0),
        mean(&ms_where(false)),
        neutralized_mean_ms,
        events / samples.len() as f64,
        cell_s * 1e9 / events,
        pool_per_cell(&|r| r.pool_allocs),
        pool_per_cell(&|r| r.pool_recycled),
        per_cell(&|c| counter(c, "population.endpoints")),
        per_cell(&|c| counter(c, "population.wire_tx")),
        if wire_frames > 0.0 {
            population_ns / wire_frames
        } else {
            0.0
        },
        keygen_ms,
        keygens_per_cell,
        keygens_per_neutralized_cell * keygen_ms / neutralized_mean_ms,
        per_cell(&|c| {
            [
                "neutralizer.data_forwarded",
                "neutralizer.return_anonymized",
                "neutralizer-b.data_forwarded",
                "neutralizer-b.return_anonymized",
            ]
            .iter()
            .map(|name| counter(c, name))
            .sum()
        }),
        over(&traced, |r| r.wire_bytes as f64),
        per_round("shard.render"),
        per_round("shard.parse"),
        per_round("merge") + per_round("verify"),
        per_round("finalize"),
        json_bytes,
        per_round("render"),
        parse_s,
        json_bytes / (1024.0 * 1024.0) / parse_s,
        tail_s,
        over(&traced, |r| r.wall_s) / over(&untraced, |r| r.wall_s) - 1.0,
    ]
}

/// Self time per pipeline layer across the traced rounds, as lines of
/// `breakdown NAME SECONDS_PER_ROUND SHARE`, plus the share of the matrix
/// spans the named stages cover.
fn breakdown(tr: &Tracer, traced_rounds: usize) -> Vec<String> {
    let spans = tr.spans();
    let self_ns = trace::self_times_ns(spans);
    let matrix_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "matrix")
        .map(|s| s.dur_ns())
        .sum();
    let self_of = |name: &str| -> u64 {
        spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &own)| own)
            .sum()
    };
    let mut lines: Vec<String> = STAGES
        .iter()
        .chain(&["matrix"])
        .map(|&name| {
            let own = self_of(name);
            format!(
                "breakdown {name:<9} {:>10.6} s/round {:>6.2}%",
                own as f64 / 1e9 / traced_rounds as f64,
                own as f64 * 100.0 / matrix_ns.max(1) as f64
            )
        })
        .collect();
    lines.push(format!(
        "trace.coverage {:.4} (named stages / traced pipeline wall)",
        trace::coverage(spans, "matrix")
    ));
    lines
}
