//! The experiment-matrix engine.
//!
//! An [`ExperimentSpec`] names the axes — topologies × links ×
//! workloads × adversaries × host stacks × seeds — and expands into the
//! full cross product of [`crate::cell::CellSpec`]s. Every cell gets a
//! deterministic simulator seed (an FNV-1a hash of the spec identity and
//! the cell index — no wall clock anywhere), so the same spec reproduces
//! byte-identical reports on any machine.
//!
//! Cells are independent simulations, so running a matrix is a pipeline
//! of four explicit layers: [`crate::plan`] expands the spec lazily and
//! partitions it into shards, [`crate::executor`] runs each shard (an
//! in-process thread pool or `nn-lab --worker` child processes),
//! [`crate::shard::merge_shards`] reassembles the raw [`ShardReport`]s
//! in expansion order, and [`crate::finalize`] computes the
//! baseline-relative goodput/delay/jitter per cell — the baseline being
//! the `(adversary = none, stack = plain)` cell of the same topology,
//! link, workload and seed. [`MatrixReport`] renders to JSON and CSV
//! from the field lists of [`crate::schema`] and one CSV column table.

use crate::adversary::AdversarySpec;
use crate::cell::{CellFlow, CellReport, CellSpec, CellTuning, StackKind};
use crate::events::EventTimelineSpec;
use crate::executor::{CellExecutor, ThreadExecutor};
use crate::finalize::{DetectionSummary, Verdict};
use crate::json::Json;
use crate::link::LinkProfileSpec;
use crate::plan::ExecutionPlan;
use crate::schema::{fields, Encode};
use crate::shard::{merge_shards, pool_json, MergedMatrix};
use crate::topology::TopologySpec;
use crate::workload::WorkloadSpec;
use std::fmt::Write as _;

/// The declarative description of a whole experiment matrix.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Matrix name (report header, part of every cell's seed hash).
    pub name: String,
    /// Topology axis.
    pub topologies: Vec<TopologySpec>,
    /// Link axis: bottleneck impairment profiles.
    pub links: Vec<LinkProfileSpec>,
    /// Workload axis.
    pub workloads: Vec<WorkloadSpec>,
    /// Adversary axis.
    pub adversaries: Vec<AdversarySpec>,
    /// Host-stack axis.
    pub stacks: Vec<StackKind>,
    /// Dynamic-events axis: timeline presets the network suffers.
    pub events: Vec<EventTimelineSpec>,
    /// Replication axis: one full cross product per entry.
    pub seeds: Vec<u64>,
    /// Attach the edge measurement plane (active prober + responder) to
    /// every cell. Deliberately *not* hashed into cell seeds, so turning
    /// probes on re-measures exactly the cells a probe-less spec ran.
    pub probes: bool,
    /// Shared non-axis knobs.
    pub tuning: CellTuning,
}

/// One expanded cell with its axis coordinates.
#[derive(Debug, Clone)]
pub struct MatrixCellSpec {
    /// Position in expansion order (also the seed-hash input).
    pub index: usize,
    /// The seed-axis value this cell replicates.
    pub seed_axis: u64,
    /// The runnable cell (its `seed` is the hashed simulator seed).
    pub cell: CellSpec,
}

impl ExperimentSpec {
    /// Expands the axes into the full cross product, topology-major
    /// (then link-major: the environment axes vary slowest). This is the
    /// eager convenience over [`ExperimentSpec::iter_cells`]; the run
    /// path never materializes the expansion.
    pub fn cells(&self) -> Vec<MatrixCellSpec> {
        self.iter_cells().collect()
    }

    /// The deterministic simulator seed for one cell: FNV-1a over the
    /// spec name, every axis name, the seed-axis value and the cell
    /// index. No wall-clock input, so a spec reproduces exactly.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn cell_seed(
        &self,
        index: usize,
        topology: &TopologySpec,
        link: &LinkProfileSpec,
        workload: &WorkloadSpec,
        adversary: &AdversarySpec,
        stack: StackKind,
        events: EventTimelineSpec,
        seed_axis: u64,
    ) -> u64 {
        let mut h = Fnv1a::new();
        h.write(self.name.as_bytes());
        h.write(topology.name().as_bytes());
        h.write(link.name().as_bytes());
        h.write(workload.name().as_bytes());
        h.write(adversary.name().as_bytes());
        h.write(stack.name().as_bytes());
        h.write(events.name().as_bytes());
        h.write(&seed_axis.to_be_bytes());
        h.write(&(index as u64).to_be_bytes());
        h.finish()
    }
}

/// FNV-1a, 64-bit.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A finished cell: coordinates, outcome, and baseline-relative metrics.
#[derive(Debug, Clone, Default)]
pub struct MatrixCell {
    /// Position in expansion order.
    pub index: usize,
    /// Topology axis name.
    pub topology: String,
    /// Link axis name.
    pub link: String,
    /// Workload axis name.
    pub workload: String,
    /// Adversary axis name.
    pub adversary: String,
    /// Stack axis name.
    pub stack: String,
    /// Events axis name.
    pub events: String,
    /// Seed-axis value.
    pub seed_axis: u64,
    /// Hashed simulator seed actually used.
    pub sim_seed: u64,
    /// The simulation outcome.
    pub report: CellReport,
    /// Metrics relative to the matching baseline cell, when the matrix
    /// contains one.
    pub relative: Option<RelativeMetrics>,
    /// The discrimination-inference verdict, when the cell carried
    /// probe evidence. Owned by the finalize pass, like `relative`.
    pub verdict: Option<Verdict>,
}

// The raw cell, as a worker measured it and the shard wire carries it;
// `MatrixCell::to_json` appends the finalize-owned context.
fields! {
    impl Encode + Decode for MatrixCell {
        index,
        topology,
        link,
        workload,
        adversary,
        stack,
        events,
        seed_axis,
        sim_seed,
        flows = report.flows,
        replies = report.replies,
        verified_return_blocks = report.verified_return_blocks,
        policy_drops = report.policy_drops,
        counters = report.counters,
        // "events" is the axis name above; the simulator's processed
        // event count keeps its own key.
        sim_events = report.events,
        probe = report.probe,
    }
}

fields! {
    /// A cell's headline metrics divided by its baseline cell's.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct RelativeMetrics: Encode {
        /// Goodput ÷ baseline goodput (1.0 = unharmed, 0 = dead).
        pub goodput_ratio: f64,
        /// Mean delay ÷ baseline mean delay.
        pub mean_delay_ratio: f64,
        /// Jitter ÷ baseline jitter.
        pub jitter_ratio: f64,
    }
}

/// The aggregated outcome of a matrix run.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// Spec name.
    pub name: String,
    /// Frame-pool allocations summed over every worker (thread- and
    /// shard-count invariant: pool warmth changes where an allocation is
    /// served from, never whether it happens).
    pub pool_allocs: u64,
    /// Frame-pool buffers recycled, summed over every worker.
    pub pool_recycled: u64,
    /// Every cell, in expansion order.
    pub cells: Vec<MatrixCell>,
}

/// Runs the matrix with one worker thread per available CPU (capped at
/// the cell count).
pub fn run_matrix(spec: &ExperimentSpec) -> MatrixReport {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    run_matrix_with_threads(spec, threads)
}

/// Runs the matrix on exactly `threads` in-process workers. Results are
/// identical for any thread count: cells are independent simulations
/// keyed only by their hashed seeds, and the report is assembled in
/// expansion order. This is the plan → execute → merge → finalize
/// pipeline with a single-shard plan and the thread executor.
pub fn run_matrix_with_threads(spec: &ExperimentSpec, threads: usize) -> MatrixReport {
    let plan = ExecutionPlan::new(spec, 1);
    let shards = ThreadExecutor::new(threads)
        .execute(&plan)
        .expect("in-process execution is infallible");
    let merged = merge_shards(shards).expect("a single in-process shard always merges");
    finalize_report(merged, spec)
}

/// The finalization step shared by every execution path: attaches
/// baseline-relative metrics to a merged cell set and assembles the
/// [`MatrixReport`]. The merged set must be `spec`'s complete expansion
/// (checks the cheap invariants; run [`verify_merged_against_spec`]
/// first when the cells crossed a process or file boundary).
pub fn finalize_report(merged: MergedMatrix, spec: &ExperimentSpec) -> MatrixReport {
    let MergedMatrix {
        name,
        pool_allocs,
        pool_recycled,
        mut cells,
    } = merged;
    crate::finalize::finalize_relative(&mut cells, spec);
    MatrixReport {
        name,
        pool_allocs,
        pool_recycled,
        cells,
    }
}

/// Checks that a merged cell set really is `spec`'s expansion: same
/// name, same cell count, and every cell's simulator seed and axis names
/// match the lazily re-expanded plan. This is the determinism contract
/// that makes shard files portable — a merged set that passes was
/// produced from this exact spec, wherever its shards actually ran.
pub fn verify_merged_against_spec(
    merged: &MergedMatrix,
    spec: &ExperimentSpec,
) -> Result<(), String> {
    if merged.name != spec.name {
        return Err(format!(
            "merged matrix {:?} does not match spec {:?}",
            merged.name, spec.name
        ));
    }
    if merged.cells.len() != spec.cell_count() {
        return Err(format!(
            "merged matrix has {} cells, spec expands to {}",
            merged.cells.len(),
            spec.cell_count()
        ));
    }
    for (cell, mc) in merged.cells.iter().zip(spec.iter_cells()) {
        if cell.index != mc.index || cell.sim_seed != mc.cell.seed {
            return Err(format!(
                "cell {} (seed {}) does not match the spec's expansion \
                 (index {}, seed {}): the shards were produced from a \
                 different spec",
                cell.index, cell.sim_seed, mc.index, mc.cell.seed
            ));
        }
        if cell.topology != mc.cell.topology.name()
            || cell.link != mc.cell.link.name()
            || cell.workload != mc.cell.workload.name()
            || cell.adversary != mc.cell.adversary.name()
            || cell.stack != mc.cell.stack.name()
            || cell.events != mc.cell.events.name()
            || cell.seed_axis != mc.seed_axis
        {
            return Err(format!(
                "cell {}'s axis names do not match the spec's expansion",
                cell.index
            ));
        }
    }
    Ok(())
}

impl MatrixCell {
    /// The canonical JSON object for one finished cell. Shard reports
    /// set `include_relative` to `false` — raw metrics only; relatives
    /// and verdicts are cross-shard context the finalize pass owns.
    pub fn to_json(&self, include_relative: bool) -> Json {
        let mut json = self.encode();
        if let (true, Json::Obj(pairs)) = (include_relative, &mut json) {
            pairs.push(("relative".to_string(), self.relative.encode()));
            pairs.push(("verdict".to_string(), self.verdict.encode()));
        }
        json
    }
}

/// One CSV row: a cell and one of its flows. The finalize-owned
/// context describes the workload flow, so cohort rows carry none.
#[derive(Clone, Copy)]
struct CsvRow<'a> {
    cell: &'a MatrixCell,
    flow: &'a CellFlow,
    relative: Option<&'a RelativeMetrics>,
    verdict: Option<(&'a Verdict, &'a DetectionSummary)>,
}

/// A CSV column: its header, and its value in a row (printed as in
/// [`csv_value`]).
type CsvColumn = (&'static str, fn(&CsvRow) -> Json);

/// The CSV layout, one column per line.
#[rustfmt::skip] // a table: one column per line, however long
const CSV_COLUMNS: &[CsvColumn] = &[
    ("index", |r| r.cell.index.encode()),
    ("topology", |r| r.cell.topology.encode()),
    ("link", |r| r.cell.link.encode()),
    ("workload", |r| r.cell.workload.encode()),
    ("adversary", |r| r.cell.adversary.encode()),
    ("stack", |r| r.cell.stack.encode()),
    ("events", |r| r.cell.events.encode()),
    ("seed_axis", |r| r.cell.seed_axis.encode()),
    ("sim_seed", |r| r.cell.sim_seed.encode()),
    ("flow", |r| r.flow.flow.encode()),
    ("tx_packets", |r| r.flow.tx_packets.encode()),
    ("rx_packets", |r| r.flow.rx_packets.encode()),
    ("delivery_ratio", |r| r.flow.delivery_ratio.encode()),
    ("goodput_bps", |r| r.flow.goodput_bps.encode()),
    ("mean_delay_ms", |r| r.flow.mean_delay_ms.encode()),
    ("p50_delay_ms", |r| r.flow.p50_delay_ms.encode()),
    ("p95_delay_ms", |r| r.flow.p95_delay_ms.encode()),
    ("p99_delay_ms", |r| r.flow.p99_delay_ms.encode()),
    ("jitter_ms", |r| r.flow.jitter_ms.encode()),
    ("ce_marks", |r| r.flow.ce_marks.encode()),
    ("replies", |r| r.cell.report.replies.encode()),
    ("verified_return_blocks", |r| r.cell.report.verified_return_blocks.encode()),
    ("policy_drops", |r| r.cell.report.policy_drops.encode()),
    ("sim_events", |r| r.cell.report.events.encode()),
    ("goodput_ratio", |r| r.relative.map(|m| m.goodput_ratio).encode()),
    ("mean_delay_ratio", |r| r.relative.map(|m| m.mean_delay_ratio).encode()),
    ("jitter_ratio", |r| r.relative.map(|m| m.jitter_ratio).encode()),
    ("verdict", |r| r.verdict.map(|(v, _)| verdict_word(v)).encode()),
    ("mechanism", |r| r.verdict.map(|(v, _)| v.mechanism.clone()).encode()),
    ("confidence", |r| r.verdict.map(|(v, _)| v.confidence).encode()),
    ("truth", |r| r.verdict.map(|(v, _)| v.truth.clone()).encode()),
    // Matrix-level scores, repeated on every verdict-carrying row so a
    // flat-file consumer keeps them.
    ("precision", |r| r.verdict.map(|(_, d)| d.precision).encode()),
    ("recall", |r| r.verdict.map(|(_, d)| d.recall).encode()),
];

/// The CSV's word for a verdict's `detected` flag.
fn verdict_word(v: &Verdict) -> String {
    let word = if v.detected { "detected" } else { "undetected" };
    word.to_string()
}

/// Appends one CSV value: `null` (a `None`) as an empty field, floats
/// with `Display` (`NaN` as is, unlike JSON), strings unquoted.
fn csv_value(out: &mut String, v: &Json) {
    let _ = match v {
        Json::Null => Ok(()),
        Json::UInt(u) => write!(out, "{u}"),
        Json::Num(n) => write!(out, "{n}"),
        Json::Str(s) => write!(out, "{s}"),
        other => write!(out, "{}", other.render()),
    };
}

impl MatrixReport {
    /// Scores every probed cell's verdict against ground truth; `None`
    /// when the matrix ran without probes.
    pub fn detection_summary(&self) -> Option<DetectionSummary> {
        crate::finalize::score_verdicts(&self.cells)
    }

    /// Renders the full report as JSON.
    pub fn to_json(&self) -> String {
        let cells: Vec<Json> = self.cells.iter().map(|c| c.to_json(true)).collect();
        Json::obj(vec![
            ("matrix", self.name.encode()),
            ("cell_count", self.cells.len().encode()),
            ("pool", pool_json(self.pool_allocs, self.pool_recycled)),
            ("detection", self.detection_summary().encode()),
            ("cells", Json::Arr(cells)),
        ])
        .render()
    }

    /// Renders CSV rows (columns: `CSV_COLUMNS`): one per cell keyed to its
    /// first (workload) flow, plus one row per extra flow — population
    /// cohort rows — with the cell columns repeated and the
    /// finalize-owned relative/verdict columns empty. Those columns are
    /// also empty when the cell has no baseline / no probes.
    pub fn to_csv(&self) -> String {
        let detection = self.detection_summary();
        let header: Vec<&str> = CSV_COLUMNS.iter().map(|&(name, _)| name).collect();
        let mut out = header.join(",") + "\n";
        let no_flow = CellFlow::default();
        for cell in &self.cells {
            let workload = CsvRow {
                cell,
                flow: cell.report.flows.first().unwrap_or(&no_flow),
                relative: cell.relative.as_ref(),
                verdict: cell.verdict.as_ref().zip(detection.as_ref()),
            };
            let cohorts = cell.report.flows.iter().skip(1).map(|flow| CsvRow {
                flow,
                relative: None,
                verdict: None,
                ..workload
            });
            for row in std::iter::once(workload).chain(cohorts) {
                for (i, (_, value)) in CSV_COLUMNS.iter().enumerate() {
                    out.push_str(if i == 0 { "" } else { "," });
                    csv_value(&mut out, &value(&row));
                }
                out.push('\n');
            }
        }
        out
    }
}

/// Named matrices the `nn-lab` binary can run.
pub fn named_matrix(name: &str) -> Option<ExperimentSpec> {
    let spec = match name {
        // The paper's A/B/C comparison (§3.2) at its own 512-bit keys and
        // 2 s schedule: the baseline, the DPI-throttled plain flow and the
        // DPI-throttled neutralized flow, plus the neutralized baseline —
        // 4 cells.
        "paper" => ExperimentSpec {
            name: "paper".to_string(),
            topologies: vec![TopologySpec::chain()],
            links: vec![LinkProfileSpec::Clean],
            workloads: vec![WorkloadSpec::voip_default()],
            adversaries: vec![AdversarySpec::None, AdversarySpec::content_dpi_default()],
            stacks: vec![StackKind::Plain, StackKind::Neutralized],
            events: vec![EventTimelineSpec::Static],
            seeds: vec![42],
            probes: false,
            tuning: CellTuning::default(),
        },
        // The CI smoke matrix: 2 topologies × 3 links × 2 adversaries ×
        // 2 seeds — one lossy-burst and one ecn-red cell ride in every
        // smoke run so the link axis cannot silently rot.
        "smoke" => ExperimentSpec {
            name: "smoke".to_string(),
            topologies: vec![TopologySpec::chain(), TopologySpec::star_default()],
            links: vec![
                LinkProfileSpec::Clean,
                LinkProfileSpec::lossy_burst_default(),
                LinkProfileSpec::ecn_red_default(),
            ],
            workloads: vec![WorkloadSpec::voip_default()],
            adversaries: vec![AdversarySpec::None, AdversarySpec::content_dpi_default()],
            stacks: vec![StackKind::Plain],
            events: vec![EventTimelineSpec::Static, EventTimelineSpec::Flap],
            seeds: vec![1, 2],
            probes: false,
            tuning: CellTuning::fast(),
        },
        // The headline matrix: every combination the paper's claim needs,
        // 48 cells.
        "default" => ExperimentSpec {
            name: "default".to_string(),
            topologies: vec![TopologySpec::chain(), TopologySpec::dumbbell_default()],
            links: vec![LinkProfileSpec::Clean],
            workloads: vec![
                WorkloadSpec::voip_default(),
                WorkloadSpec::bulk_default(),
                WorkloadSpec::web_default(),
            ],
            adversaries: vec![AdversarySpec::None, AdversarySpec::content_dpi_default()],
            stacks: vec![StackKind::Plain, StackKind::Neutralized],
            events: vec![EventTimelineSpec::Static],
            seeds: vec![1, 2],
            probes: false,
            tuning: CellTuning::fast(),
        },
        // The congestion story the flat link API could not tell: a
        // cross-traffic dumbbell under clean vs ECN-RED bottlenecks.
        // Content DPI collapses the plain stack and neutralization
        // recovers it *under congestion*, while tiered priority degrades
        // both stacks alike — 36 cells.
        "congested" => ExperimentSpec {
            name: "congested".to_string(),
            topologies: vec![TopologySpec::dumbbell_crossed()],
            links: vec![
                LinkProfileSpec::Clean,
                LinkProfileSpec::ecn_red_default(),
                LinkProfileSpec::congested_default(),
            ],
            workloads: vec![WorkloadSpec::voip_default()],
            adversaries: vec![
                AdversarySpec::None,
                AdversarySpec::content_dpi_default(),
                AdversarySpec::tiered_default(),
            ],
            stacks: vec![StackKind::Plain, StackKind::Neutralized],
            events: vec![EventTimelineSpec::Static],
            seeds: vec![1, 2],
            probes: false,
            tuning: CellTuning::fast(),
        },
        // Everything: 4 topologies × 3 links × 4 workloads ×
        // 6 adversaries × 2 stacks × 2 seeds = 1152 cells.
        "full" => ExperimentSpec {
            name: "full".to_string(),
            topologies: vec![
                TopologySpec::chain(),
                TopologySpec::dumbbell_crossed(),
                TopologySpec::star_default(),
                TopologySpec::multi_as_default(),
            ],
            links: vec![
                LinkProfileSpec::Clean,
                LinkProfileSpec::lossy_burst_default(),
                LinkProfileSpec::ecn_red_default(),
            ],
            workloads: vec![
                WorkloadSpec::voip_default(),
                WorkloadSpec::bulk_default(),
                WorkloadSpec::web_default(),
                WorkloadSpec::stream_default(),
            ],
            adversaries: vec![
                AdversarySpec::None,
                AdversarySpec::content_dpi_default(),
                AdversarySpec::PortBlock,
                AdversarySpec::address_drop_default(),
                AdversarySpec::delay_jitter_default(),
                AdversarySpec::tiered_default(),
            ],
            stacks: vec![StackKind::Plain, StackKind::Neutralized],
            events: vec![EventTimelineSpec::Static],
            seeds: vec![1, 2],
            probes: false,
            tuning: CellTuning::fast(),
        },
        // The flaky-ISP recovery matrix: a multihomed destination under
        // a mid-run partition of the primary provider. Static cells are
        // the calm control; partition-heal cells must show multihome
        // failover + neutralization recovering goodput — 16 cells.
        "flaky" => ExperimentSpec {
            name: "flaky".to_string(),
            topologies: vec![TopologySpec::Multihomed],
            links: vec![LinkProfileSpec::Clean],
            workloads: vec![WorkloadSpec::voip_default()],
            adversaries: vec![AdversarySpec::None, AdversarySpec::content_dpi_default()],
            stacks: vec![StackKind::Plain, StackKind::Neutralized],
            events: vec![EventTimelineSpec::Static, EventTimelineSpec::PartitionHeal],
            seeds: vec![1, 2],
            probes: false,
            tuning: CellTuning::fast(),
        },
        // The measurement-plane matrix: probes on, one detectable
        // discriminator per mechanism plus the tiered-priority evasion.
        // Content DPI and the port block show up in differential-pair
        // delivery, injected jitter in the differential RTT ratio, while
        // tiered priority throttles both probe twins identically and
        // stays invisible to naive differential probing — 10 cells.
        "detection" => ExperimentSpec {
            name: "detection".to_string(),
            topologies: vec![TopologySpec::chain()],
            links: vec![LinkProfileSpec::Clean],
            workloads: vec![WorkloadSpec::voip_default()],
            adversaries: vec![
                AdversarySpec::None,
                AdversarySpec::content_dpi_default(),
                AdversarySpec::PortBlock,
                AdversarySpec::delay_jitter_default(),
                AdversarySpec::tiered_default(),
            ],
            stacks: vec![StackKind::Plain],
            events: vec![EventTimelineSpec::Static],
            seeds: vec![1, 2],
            probes: true,
            tuning: CellTuning::fast(),
        },
        // The population matrix: the metro eyeball star carries a
        // flyweight population (a DPI-classifiable VoIP cohort next to a
        // large fluid neutralized cohort) into the discriminator
        // bottleneck. Content DPI must collapse the marked cohort while
        // the neutral one rides through; tiered priority bites both —
        // 12 cells, each with per-cohort flow rows.
        "metro" => ExperimentSpec {
            name: "metro".to_string(),
            topologies: vec![TopologySpec::metro_default()],
            links: vec![LinkProfileSpec::Clean, LinkProfileSpec::ecn_red_default()],
            workloads: vec![WorkloadSpec::voip_default()],
            adversaries: vec![
                AdversarySpec::None,
                AdversarySpec::content_dpi_default(),
                AdversarySpec::tiered_default(),
            ],
            stacks: vec![StackKind::Plain, StackKind::Neutralized],
            events: vec![EventTimelineSpec::Static],
            seeds: vec![1],
            probes: false,
            tuning: CellTuning::fast(),
        },
        _ => return None,
    };
    Some(spec)
}

/// Names [`named_matrix`] accepts, in documentation order.
pub const NAMED_MATRICES: [&str; 8] = [
    "paper",
    "smoke",
    "default",
    "congested",
    "full",
    "flaky",
    "detection",
    "metro",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::time::Duration;

    /// A 4-cell matrix small enough for debug-build tests.
    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec {
            name: "tiny".to_string(),
            topologies: vec![TopologySpec::chain()],
            links: vec![LinkProfileSpec::Clean],
            workloads: vec![WorkloadSpec::voip_default()],
            adversaries: vec![AdversarySpec::None, AdversarySpec::content_dpi_default()],
            stacks: vec![StackKind::Plain],
            events: vec![EventTimelineSpec::Static],
            seeds: vec![1, 2],
            probes: false,
            tuning: CellTuning {
                duration: Duration::from_millis(200),
                ..CellTuning::fast()
            },
        }
    }

    #[test]
    fn expansion_is_the_full_cross_product() {
        let spec = named_matrix("default").unwrap();
        let cells = spec.cells();
        // 2 topologies × 1 link × 3 workloads × 2 adversaries ×
        // 2 stacks × 2 seeds.
        assert_eq!(cells.len(), 48);
        assert!(cells.len() >= 24, "acceptance floor");
        // Indexes are positional and seeds all distinct (hash mixing).
        let seeds: std::collections::HashSet<u64> = cells.iter().map(|c| c.cell.seed).collect();
        assert_eq!(seeds.len(), cells.len(), "per-cell seeds collide");
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn cell_seeds_are_stable_across_expansions() {
        let a = tiny_spec().cells();
        let b = tiny_spec().cells();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.cell.seed, y.cell.seed);
        }
    }

    #[test]
    fn parallel_run_is_deterministic_and_thread_count_invariant() {
        let spec = tiny_spec();
        let one = run_matrix_with_threads(&spec, 1);
        let four = run_matrix_with_threads(&spec, 4);
        assert_eq!(one.to_json(), four.to_json());
        assert_eq!(one.to_csv(), four.to_csv());
    }

    #[test]
    fn baseline_relative_metrics_show_the_throttle() {
        let report = run_matrix_with_threads(&tiny_spec(), 2);
        assert_eq!(report.cells.len(), 4);
        for c in &report.cells {
            let rel = c.relative.expect("baseline exists in this matrix");
            if c.adversary == "none" {
                assert!((rel.goodput_ratio - 1.0).abs() < 1e-9, "self-relative");
            } else {
                assert!(
                    rel.goodput_ratio < 0.6,
                    "DPI throttle must show up relative to baseline: {}",
                    rel.goodput_ratio
                );
            }
        }
    }

    /// Two same-kind topologies with different parameters must keep
    /// separate baselines — grouping is by spec, not display name.
    #[test]
    fn parameterized_axes_do_not_share_baselines() {
        let spec = ExperimentSpec {
            name: "dumbbells".to_string(),
            topologies: vec![
                TopologySpec::Dumbbell {
                    bottleneck_bps: 5_000_000,
                    background_flows: 0,
                },
                TopologySpec::Dumbbell {
                    bottleneck_bps: 300_000,
                    background_flows: 0,
                },
            ],
            links: vec![LinkProfileSpec::Clean],
            workloads: vec![WorkloadSpec::voip_default()],
            adversaries: vec![AdversarySpec::None],
            stacks: vec![StackKind::Plain],
            events: vec![EventTimelineSpec::Static],
            seeds: vec![1],
            probes: false,
            tuning: CellTuning {
                duration: Duration::from_millis(200),
                ..CellTuning::fast()
            },
        };
        let report = run_matrix_with_threads(&spec, 2);
        assert_eq!(report.cells.len(), 2);
        // The 300 kbit/s bottleneck delays the same CBR flow more than
        // the 5 Mbit/s one, so the two baselines genuinely differ...
        assert!(report.cells[1].report.mean_delay_ms() > report.cells[0].report.mean_delay_ms());
        // ...and each cell is its own baseline (ratio exactly 1), which
        // name-based grouping would get wrong for the second dumbbell.
        for c in &report.cells {
            let rel = c.relative.expect("self-baseline");
            assert!((rel.goodput_ratio - 1.0).abs() < 1e-9, "{}", c.topology);
            assert!((rel.mean_delay_ratio - 1.0).abs() < 1e-9, "{}", c.topology);
        }
        // Labels are distinguishable too.
        assert_ne!(report.cells[0].topology, report.cells[1].topology);
    }

    #[test]
    fn json_report_parses_and_carries_the_cells() {
        let report = run_matrix_with_threads(&tiny_spec(), 2);
        let parsed = Json::parse(&report.to_json()).expect("valid JSON");
        assert_eq!(parsed.get("matrix").unwrap().as_str(), Some("tiny"));
        let cells = parsed.get("cells").unwrap().as_arr().unwrap();
        assert_eq!(cells.len(), 4);
        assert_eq!(
            parsed.get("cell_count").unwrap().as_u64(),
            Some(cells.len() as u64)
        );
        for c in cells {
            assert!(c.get("sim_seed").unwrap().as_u64().is_some());
            assert!(!c.get("flows").unwrap().as_arr().unwrap().is_empty());
        }
    }

    #[test]
    fn csv_has_one_row_per_cell_plus_header() {
        let report = run_matrix_with_threads(&tiny_spec(), 2);
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 1 + report.cells.len());
        let header_cols = csv.lines().next().unwrap().split(',').count();
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), header_cols);
        }
    }

    #[test]
    fn named_matrices_all_resolve() {
        for name in NAMED_MATRICES {
            let spec = named_matrix(name).unwrap();
            assert!(!spec.cells().is_empty(), "{name} expands");
        }
        assert!(named_matrix("nope").is_none());
        assert_eq!(named_matrix("paper").unwrap().cells().len(), 4);
        // The full matrix carries the whole link axis.
        let full = named_matrix("full").unwrap();
        assert_eq!(full.cells().len(), 4 * 3 * 4 * 6 * 2 * 2);
    }

    /// Link profiles group baselines like topologies do: a lossy cell is
    /// judged against the lossy baseline, never the clean one.
    #[test]
    fn link_axis_cells_keep_separate_baselines() {
        let spec = ExperimentSpec {
            name: "links".to_string(),
            topologies: vec![TopologySpec::chain()],
            links: vec![
                LinkProfileSpec::Clean,
                LinkProfileSpec::LossyBurst {
                    p_enter_bad: 0.05,
                    p_exit_bad: 0.15,
                    loss_bad: 0.9,
                },
            ],
            workloads: vec![WorkloadSpec::voip_default()],
            adversaries: vec![AdversarySpec::None],
            stacks: vec![StackKind::Plain],
            events: vec![EventTimelineSpec::Static],
            seeds: vec![1],
            probes: false,
            tuning: CellTuning {
                duration: Duration::from_millis(200),
                ..CellTuning::fast()
            },
        };
        let report = run_matrix_with_threads(&spec, 2);
        assert_eq!(report.cells.len(), 2);
        assert_ne!(report.cells[0].link, report.cells[1].link);
        // The burst link genuinely degrades delivery...
        let ratio = |c: &MatrixCell| c.report.flows[0].delivery_ratio;
        assert!(ratio(&report.cells[1]) < ratio(&report.cells[0]));
        // ...yet each cell is its own baseline (ratio exactly 1), which
        // clean-baseline grouping would get wrong for the lossy cell.
        for c in &report.cells {
            let rel = c.relative.expect("self-baseline");
            assert!((rel.goodput_ratio - 1.0).abs() < 1e-9, "{}", c.link);
        }
    }

    /// The acceptance story the flat API could not tell: under a
    /// congested ECN-RED bottleneck with live cross-traffic, content DPI
    /// still collapses the plain stack and neutralization still recovers
    /// it (relative to the equally-congested baseline), while tiered
    /// priority degrades both stacks alike — and the whole matrix is
    /// byte-identical across thread counts for a fixed seed.
    #[test]
    fn congested_ecn_red_story_holds_and_is_thread_invariant() {
        let spec = ExperimentSpec {
            name: "congested-story".to_string(),
            topologies: vec![TopologySpec::dumbbell_crossed()],
            links: vec![LinkProfileSpec::ecn_red_default()],
            workloads: vec![WorkloadSpec::voip_default()],
            adversaries: vec![
                AdversarySpec::None,
                AdversarySpec::content_dpi_default(),
                AdversarySpec::tiered_default(),
            ],
            stacks: vec![StackKind::Plain, StackKind::Neutralized],
            events: vec![EventTimelineSpec::Static],
            seeds: vec![1],
            probes: false,
            tuning: CellTuning::fast(),
        };
        let report = run_matrix_with_threads(&spec, 4);
        let single = run_matrix_with_threads(&spec, 1);
        assert_eq!(
            report.to_json(),
            single.to_json(),
            "thread count must not leak into results"
        );

        let find = |adversary: &str, stack: &str| {
            report
                .cells
                .iter()
                .find(|c| c.adversary == adversary && c.stack == stack)
                .unwrap_or_else(|| panic!("cell ({adversary}, {stack}) exists"))
        };
        // The bottleneck is genuinely congested and ECN is live: the
        // baseline cell loses frames or carries CE marks.
        let baseline = find("none", "plain");
        let ce = baseline
            .report
            .counters
            .iter()
            .find(|(n, _)| n == "bottleneck.ce_marks")
            .map(|&(_, v)| v)
            .unwrap_or(0);
        assert!(ce > 0, "ECN-RED must mark under cross-traffic");
        assert!(baseline.report.flows[0].ce_marks > 0);
        // CE marks survive the neutralizer's rewrite too (it preserves
        // the whole ToS byte, not just the DSCP), so the neutralized
        // destination observes congestion signals as well.
        let baseline_neut = find("none", "neutralized");
        assert!(
            baseline_neut.report.flows[0].ce_marks > 0,
            "CE must survive the neutralizer rewrite: {:?}",
            baseline_neut.report.flows[0]
        );

        // Content DPI: collapse on plain, recovery on neutralized —
        // measured against the *equally congested* baseline.
        let dpi_plain = find("content-dpi", "plain");
        assert!(dpi_plain.report.policy_drops > 0);
        assert!(
            dpi_plain.relative.unwrap().goodput_ratio < 0.5,
            "DPI must collapse plain goodput under congestion: {:?}",
            dpi_plain.relative
        );
        let dpi_neut = find("content-dpi", "neutralized");
        assert_eq!(dpi_neut.report.policy_drops, 0, "nothing left to match");
        assert!(
            dpi_neut.relative.unwrap().goodput_ratio > 0.7,
            "neutralization must recover goodput under congestion: {:?}",
            dpi_neut.relative
        );
        // Tiered priority needs no classification signal, so
        // neutralization cannot repair it: where DPI recovery multiplies
        // goodput, the neutralized stack gains nothing under tiering —
        // it does strictly worse than plain (encryption cannot earn the
        // premium DSCP, and the policer bites both).
        let tiered_plain = find("tiered-priority", "plain");
        let tiered_neut = find("tiered-priority", "neutralized");
        assert!(tiered_plain.report.policy_drops > 0);
        assert!(tiered_neut.report.policy_drops > 0, "still classified");
        assert!(
            dpi_neut.report.goodput_bps() > 2.0 * dpi_plain.report.goodput_bps(),
            "neutralization multiplies goodput against DPI"
        );
        assert!(
            tiered_neut.report.goodput_bps() < tiered_plain.report.goodput_bps(),
            "but buys nothing against tiering: {} vs {}",
            tiered_neut.report.goodput_bps(),
            tiered_plain.report.goodput_bps()
        );
    }
}
