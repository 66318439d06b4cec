//! # nn-lab — declarative experiment-matrix engine
//!
//! The paper's evaluation is one A/B/C comparison; the lab generalizes
//! it into a declarative matrix of (topology × link × workload ×
//! adversary × host stack × seed) cells run in parallel across OS
//! threads:
//!
//! * [`topology`] — chain (the legacy shape), dumbbell, eyeball-ISP
//!   star, and multi-AS path generators with the discriminator at a
//!   configurable hop, built on [`nn_netsim::Simulator::connect`];
//!   dumbbell and star can attach background cross-traffic customers so
//!   the bottleneck actually congests.
//! * [`link`] — the bottleneck impairment axis: clean, Gilbert–Elliott
//!   burst loss, a congested ECN-marking RED bottleneck, and a plain
//!   congested drop-tail bottleneck, lowered onto
//!   [`nn_netsim::LinkProfile`] pipelines.
//! * [`workload`] — VoIP (the legacy victim), bulk transfer, web-style
//!   request/response and constant-rate streaming, each a deterministic
//!   schedule pluggable into either host stack.
//! * [`adversary`] — named [`nn_netsim::PolicyEngine`] presets: content
//!   DPI throttling, port blocking, address-based drops, delay/jitter
//!   injection and tiered prioritization.
//! * [`hosts`] — the plain and neutralized (§3.2) endpoint stacks every
//!   workload runs over.
//! * [`events`] — the dynamic-events axis: named timeline presets
//!   (static, flap, partition-heal, neut-outage) lowered onto
//!   [`nn_netsim::EventTimeline`]s against the built topology.
//! * [`probe`] — the edge measurement plane: an active prober emitting
//!   hop-by-hop TTL sweeps, plain-vs-neutralized differential pairs and
//!   size/reorder trains, folded into per-cell [`probe::ProbeSummary`]
//!   evidence for the discrimination-inference pass.
//! * [`population`] — the flyweight-population axis:
//!   [`population::PopulationSpec`] cohorts (seeded statistical traffic
//!   classes, packet-accurate or fluid) lowered onto
//!   [`nn_netsim::PopulationNode`] by the `metro` topology, with
//!   per-cohort aggregate rows in every report.
//! * [`cell`] — one deterministic simulation of one axis combination.
//! * [`matrix`] — the spec, hashed per-cell seeds, named matrices, and
//!   JSON/CSV reports.
//! * [`json`] — minimal hand-rolled JSON (the workspace builds offline).
//! * [`schema`] — the `Encode`/`Decode` traits and one field list per
//!   report type, from which the JSON report and the shard wire derive.
//!
//! Running a matrix is a pipeline of four explicit layers, so a sweep
//! can be split across processes — or hosts — and reassembled later:
//!
//! * [`plan`] — lazy expansion of a spec into indexed cells and their
//!   strided partitioning into [`plan::CellAssignment`] shards.
//! * [`executor`] — [`executor::CellExecutor`] implementations: the
//!   in-process thread pool and the `nn-lab --worker` process fan-out.
//! * [`shard`] — raw per-shard results ([`shard::ShardReport`], plain
//!   JSON files) and their strict reassembly ([`shard::merge_shards`]).
//! * [`finalize`] — the post-merge baseline-relative metrics pass.
//!
//! The `nn-lab` binary runs a named matrix (optionally sharded across
//! worker processes) and writes `BENCH_matrix.json`; its `paper`
//! matrix is the paper's baseline / DPI-throttled / neutralized
//! comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod cell;
pub mod events;
pub mod executor;
pub mod finalize;
pub mod hosts;
pub mod json;
pub mod link;
pub mod matrix;
pub mod plan;
pub mod population;
pub mod probe;
mod scenario;
pub mod schema;
pub mod shard;
pub mod topology;
pub mod workload;

pub use adversary::AdversarySpec;
pub use cell::{
    run_cell, run_cell_with_pool, CellFlow, CellReport, CellSpec, CellTuning, StackKind,
};
pub use events::EventTimelineSpec;
pub use executor::{
    run_shard, run_shard_with_progress, CellExecutor, ProcessExecutor, ThreadExecutor,
};
pub use finalize::{finalize_relative, score_verdicts, DetectionSummary, Verdict};
pub use hosts::{
    Bootstrap, NeutralizedServerNode, NeutralizedSourceNode, PlainServerNode, PlainSourceNode,
};
pub use link::LinkProfileSpec;
pub use matrix::{
    finalize_report, named_matrix, run_matrix, run_matrix_with_threads, verify_merged_against_spec,
    ExperimentSpec, MatrixCell, MatrixReport, RelativeMetrics, NAMED_MATRICES,
};
pub use plan::{CellAssignment, CellIter, ExecutionPlan};
pub use population::{CohortApp, CohortDef, CohortKind, PopulationSpec};
pub use probe::{HopReport, ProbeNode, ProbeResponderNode, ProbeSummary};
pub use shard::{merge_shards, MergeError, MergedMatrix, ShardReport};
pub use topology::{TopologySpec, ANYCAST_ADDR, DST_ADDR, PROBER_ADDR, PROBE_SINK_ADDR, SRC_ADDR};
pub use workload::WorkloadSpec;
