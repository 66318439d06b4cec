//! The execution layer: turning a planned shard into raw results.
//!
//! [`CellExecutor`] is the seam between planning and running. Two
//! implementations ship:
//!
//! * [`ThreadExecutor`] — the in-process pool: `std::thread::scope`
//!   workers pull cells off a shared lazy iterator, and each worker
//!   carries one warm [`nn_netsim::FramePool`] from cell to cell
//!   ([`crate::cell::run_cell_with_pool`]), so consecutive simulations
//!   reuse each other's recycled buffers.
//! * [`ProcessExecutor`] — the multi-process fan-out: one
//!   `nn-lab --worker --shard I/N` child per assignment, each emitting a
//!   [`ShardReport`] on stdout that the parent collects and validates.
//!
//! Either way the results are byte-identical: cells are independent
//! simulations keyed only by their hashed seeds, so *where* a cell runs
//! can never leak into *what* it reports.

use crate::cell::run_cell_with_pool;
use crate::matrix::{ExperimentSpec, MatrixCell, MatrixCellSpec};
use crate::plan::{CellAssignment, ExecutionPlan};
use crate::shard::ShardReport;
use std::io::Read as _;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Something that can run every shard of a plan and hand back the raw
/// shard reports, in shard order.
pub trait CellExecutor {
    /// Executes all of `plan`'s assignments.
    fn execute(&mut self, plan: &ExecutionPlan<'_>) -> Result<Vec<ShardReport>, String>;
}

/// Builds the finished [`MatrixCell`] for one run cell (no relative
/// metrics — that is finalization's job).
pub(crate) fn to_matrix_cell(mc: &MatrixCellSpec, report: crate::cell::CellReport) -> MatrixCell {
    MatrixCell {
        index: mc.index,
        topology: mc.cell.topology.name(),
        link: mc.cell.link.name(),
        workload: mc.cell.workload.name().to_string(),
        adversary: mc.cell.adversary.name().to_string(),
        stack: mc.cell.stack.name().to_string(),
        events: mc.cell.events.name().to_string(),
        seed_axis: mc.seed_axis,
        sim_seed: mc.cell.seed,
        report,
        relative: None,
        verdict: None,
    }
}

/// Runs one assignment on `threads` in-process workers (the calling
/// thread plus `threads − 1` scoped threads) and returns its raw shard
/// report. Cells are materialized lazily off a shared iterator — the
/// full expansion never exists in memory — and each worker's frame pool
/// stays warm across the cells it happens to pull.
pub fn run_shard(
    spec: &ExperimentSpec,
    assignment: &CellAssignment,
    threads: usize,
) -> ShardReport {
    run_shard_with_progress(spec, assignment, threads, false)
}

/// [`run_shard`] with an optional stderr heartbeat: after every finished
/// cell the completing worker prints `shard S/N worker W: done/count
/// cells (worker: k)`. Progress goes to stderr only — stdout stays the
/// shard-report channel — and never touches the results, which remain
/// byte-identical with the heartbeat on or off.
pub fn run_shard_with_progress(
    spec: &ExperimentSpec,
    assignment: &CellAssignment,
    threads: usize,
    progress: bool,
) -> ShardReport {
    let total = spec.cell_count();
    let count = assignment.cell_count(total);
    let threads = threads.clamp(1, count.max(1));
    // Shard-local positions ride along so results land in order without
    // materializing the index list.
    let queue = Mutex::new(assignment.cells(spec).enumerate());
    let results: Mutex<Vec<Option<MatrixCell>>> = Mutex::new((0..count).map(|_| None).collect());
    let (pool_allocs, pool_recycled) = (AtomicU64::new(0), AtomicU64::new(0));
    let done = AtomicU64::new(0);

    let work = |worker: usize| {
        // One frame pool per worker: consecutive cells reuse each other's
        // recycled buffers (purely an allocator handoff — reports are
        // byte-identical with or without it).
        let mut pool = nn_netsim::FramePool::new();
        let mut mine = 0u64;
        loop {
            let next = queue.lock().expect("cell queue").next();
            let Some((pos, mc)) = next else { break };
            let report = run_cell_with_pool(&mc.cell, &spec.tuning, &mut pool);
            results.lock().expect("result slots")[pos] = Some(to_matrix_cell(&mc, report));
            mine += 1;
            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
            if progress {
                eprintln!(
                    "nn-lab: shard {}/{} worker {}: {}/{} cells (worker: {})",
                    assignment.shard, assignment.shards, worker, finished, count, mine
                );
            }
        }
        // Alloc/recycle totals are per-cell-deterministic (pool warmth
        // changes where an alloc is served from, never whether it
        // happens), so the sums are invariant across thread and shard
        // counts.
        pool_allocs.fetch_add(pool.allocations(), Ordering::Relaxed);
        pool_recycled.fetch_add(pool.recycle_count(), Ordering::Relaxed);
    };
    // Worker 0 runs on the calling thread, and the others are joined
    // explicitly. Every thread that allocates holds a glibc malloc arena
    // until it exits, and a sweep calls this once per matrix. The
    // scope's implicit join returns once the closures finish, before the
    // threads have exited and handed their arenas back, so the next
    // matrix's workers could each open a fresh arena and peak RSS would
    // climb as matrices go by faster.
    std::thread::scope(|scope| {
        let work = &work;
        let helpers: Vec<_> = (1..threads)
            .map(|worker| scope.spawn(move || work(worker)))
            .collect();
        work(0);
        for helper in helpers {
            if let Err(panic) = helper.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });

    let cells = results
        .into_inner()
        .expect("result slots")
        .into_iter()
        .map(|slot| slot.expect("every assigned cell ran"))
        .collect();
    ShardReport {
        matrix: spec.name.clone(),
        shard: assignment.shard,
        shards: assignment.shards,
        total_cells: total,
        pool_allocs: pool_allocs.into_inner(),
        pool_recycled: pool_recycled.into_inner(),
        cells,
    }
}

/// The in-process executor: a `std::thread::scope` pool per shard.
#[derive(Debug, Clone, Copy)]
pub struct ThreadExecutor {
    /// Worker threads per shard.
    pub threads: usize,
    /// Print a per-cell heartbeat to stderr while running.
    pub progress: bool,
}

impl ThreadExecutor {
    /// An executor running `threads` workers per shard.
    pub fn new(threads: usize) -> ThreadExecutor {
        ThreadExecutor {
            threads,
            progress: false,
        }
    }

    /// Enables the stderr heartbeat.
    pub fn with_progress(mut self, progress: bool) -> ThreadExecutor {
        self.progress = progress;
        self
    }
}

impl CellExecutor for ThreadExecutor {
    fn execute(&mut self, plan: &ExecutionPlan<'_>) -> Result<Vec<ShardReport>, String> {
        Ok(plan
            .assignments()
            .iter()
            .map(|a| run_shard_with_progress(plan.spec(), a, self.threads, self.progress))
            .collect())
    }
}

/// The multi-process executor: spawns one `nn-lab --worker --shard I/N`
/// child per assignment and collects the [`ShardReport`] each emits on
/// stdout. The children run concurrently; stderr is inherited so worker
/// diagnostics stay visible.
#[derive(Debug, Clone)]
pub struct ProcessExecutor {
    /// The worker binary (normally [`std::env::current_exe`]).
    pub program: PathBuf,
    /// Named matrix the workers run — it must resolve, in the worker
    /// process, to the same spec the plan was built from.
    pub matrix: String,
    /// Worker threads per child (`None`: each child picks its own
    /// default).
    pub threads: Option<usize>,
    /// Forward `--progress` to every child; their heartbeats surface on
    /// the inherited stderr.
    pub progress: bool,
}

impl ProcessExecutor {
    /// An executor spawning `program --worker` children for `matrix`.
    pub fn new(program: PathBuf, matrix: impl Into<String>) -> ProcessExecutor {
        ProcessExecutor {
            program,
            matrix: matrix.into(),
            threads: None,
            progress: false,
        }
    }

    fn spawn_worker(&self, assignment: &CellAssignment) -> Result<Child, String> {
        let mut cmd = Command::new(&self.program);
        cmd.arg("--worker")
            .arg("--shard")
            .arg(format!("{}/{}", assignment.shard, assignment.shards))
            .arg("--matrix")
            .arg(&self.matrix)
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        if let Some(threads) = self.threads {
            cmd.arg("--threads").arg(threads.to_string());
        }
        if self.progress {
            cmd.arg("--progress");
        }
        cmd.spawn()
            .map_err(|e| format!("spawning worker {:?}: {e}", self.program))
    }
}

/// Worker children that are killed and reaped when dropped, so every
/// early `Err` out of [`ProcessExecutor::execute`] — a failed spawn, a
/// failed worker, a bad report — leaves no worker running behind it.
/// Children already waited on are untouched: `kill` on a reaped child is
/// a no-op and `wait` returns its recorded status.
struct Workers(Vec<Child>);

impl Drop for Workers {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl CellExecutor for ProcessExecutor {
    fn execute(&mut self, plan: &ExecutionPlan<'_>) -> Result<Vec<ShardReport>, String> {
        // Spawn everything first so the shards genuinely run in
        // parallel, then collect in shard order.
        let assignments = plan.assignments();
        let mut workers = Workers(Vec::with_capacity(assignments.len()));
        for assignment in &assignments {
            workers.0.push(self.spawn_worker(assignment)?);
        }
        let mut reports = Vec::with_capacity(assignments.len());
        for (assignment, child) in assignments.iter().zip(&mut workers.0) {
            let mut stdout = String::new();
            child
                .stdout
                .take()
                .expect("worker stdout is piped")
                .read_to_string(&mut stdout)
                .map_err(|e| format!("reading worker {} stdout: {e}", assignment.shard))?;
            let status = child
                .wait()
                .map_err(|e| format!("waiting for worker {}: {e}", assignment.shard))?;
            if !status.success() {
                return Err(format!("worker {} exited with {status}", assignment.shard));
            }
            let report = ShardReport::from_json(stdout.trim_end()).map_err(|e| {
                format!(
                    "worker {} emitted a bad shard report: {e}",
                    assignment.shard
                )
            })?;
            if report.shard != assignment.shard
                || report.shards != assignment.shards
                || report.matrix != plan.spec().name
                || report.total_cells != plan.cell_count()
            {
                return Err(format!(
                    "worker {} answered for ({:?}, shard {}/{}, {} cells), expected \
                     ({:?}, shard {}/{}, {} cells)",
                    assignment.shard,
                    report.matrix,
                    report.shard,
                    report.shards,
                    report.total_cells,
                    plan.spec().name,
                    assignment.shard,
                    assignment.shards,
                    plan.cell_count(),
                ));
            }
            reports.push(report);
        }
        Ok(reports)
    }
}
