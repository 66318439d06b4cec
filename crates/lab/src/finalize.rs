//! The finalization layer: baseline-relative metrics over the complete
//! cell set.
//!
//! [`RelativeMetrics`] compare a cell
//! against the `(adversary = none, stack = plain)` cell of the same
//! topology, link, workload, events and seed-axis group — context that spans
//! shards (a shard rarely holds both a cell and its baseline). Keeping
//! this pass out of the run loop is what makes sharding possible at all:
//! workers emit raw metrics only, and relatives are computed here, once,
//! after [`crate::shard::merge_shards`] has reassembled every cell.
//!
//! Grouping compares the actual axis *specs* re-expanded from the
//! [`ExperimentSpec`] (not display names, which may drop parameters —
//! two dumbbells with different bottlenecks must not share a baseline),
//! so finalization needs the spec the cells were planned from.
//!
//! When a cell carries probe evidence, finalization also runs the
//! discrimination-inference pass: compare the differential-pair and
//! path-histogram evidence against the cell's baseline and emit a
//! [`Verdict`], scored against adversary-axis ground truth into a
//! matrix-level [`DetectionSummary`].

use crate::adversary::AdversarySpec;
use crate::cell::StackKind;
use crate::events::EventTimelineSpec;
use crate::link::LinkProfileSpec;
use crate::matrix::{ExperimentSpec, MatrixCell, RelativeMetrics};
use crate::probe::ProbeSummary;
use crate::schema::fields;
use crate::topology::TopologySpec;
use crate::workload::WorkloadSpec;

/// One baseline cell's group identity and headline metrics.
struct Baseline {
    topology: TopologySpec,
    link: LinkProfileSpec,
    workload: WorkloadSpec,
    events: EventTimelineSpec,
    seed_axis: u64,
    goodput: f64,
    delay: f64,
    jitter: f64,
    p99_delay: f64,
}

fields! {
    /// The discrimination-inference verdict for one probed cell.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Verdict: Encode {
        /// Did the inference pass conclude the path discriminates?
        pub detected: bool,
        /// Suspected mechanism (`"blocking"`, `"content-throttle"`,
        /// `"delay-injection"`); `"none"` when undetected.
        pub mechanism: String,
        /// Confidence in the stated verdict, 0–1.
        pub confidence: f64,
        /// Adversary-axis ground truth: `"negative"` (no discrimination),
        /// `"positive"` (discriminating and visible to differential
        /// probing), or `"evades"` (discriminating, but treating both probe
        /// twins identically — excluded from precision/recall scoring).
        pub truth: String,
        /// Did the flow's delay-histogram p99 corroborate the verdict by
        /// inflating more than 3× over the baseline cell's?
        pub corroborated: bool,
    }
}

fields! {
    /// Matrix-level scoring of every verdict against ground truth.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct DetectionSummary: Encode {
        /// Cells carrying a verdict (including `"evades"` ground truth).
        pub scored: u64,
        /// Detected cells whose ground truth is `"positive"`.
        pub true_positives: u64,
        /// Detected cells whose ground truth is `"negative"`.
        pub false_positives: u64,
        /// Undetected cells whose ground truth is `"positive"`.
        pub false_negatives: u64,
        /// `tp / (tp + fp)`; `NaN` (JSON `null`) when nothing was detected.
        pub precision: f64,
        /// `tp / (tp + fn)`; `"evades"` cells are excluded from the
        /// denominator — a mechanism invisible to differential probing is a
        /// documented limitation, not an inference miss.
        pub recall: f64,
    }
}

/// Scores every verdict-carrying cell against its adversary-axis ground
/// truth. `None` when no cell was probed.
pub fn score_verdicts(cells: &[MatrixCell]) -> Option<DetectionSummary> {
    let (mut scored, mut tp, mut fp, mut fne) = (0u64, 0u64, 0u64, 0u64);
    for c in cells {
        let Some(v) = &c.verdict else { continue };
        scored += 1;
        match (v.detected, v.truth.as_str()) {
            (true, "positive") => tp += 1,
            (true, "negative") => fp += 1,
            (false, "positive") => fne += 1,
            _ => {}
        }
    }
    if scored == 0 {
        return None;
    }
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            f64::NAN
        } else {
            num as f64 / den as f64
        }
    };
    Some(DetectionSummary {
        scored,
        true_positives: tp,
        false_positives: fp,
        false_negatives: fne,
        precision: ratio(tp, tp + fp),
        recall: ratio(tp, tp + fne),
    })
}

/// Adversary-axis ground truth for the inference pass.
fn ground_truth(adversary: &AdversarySpec) -> &'static str {
    match adversary {
        AdversarySpec::None => "negative",
        // Classification-keyed mechanisms treat the application-lookalike
        // probe differently from its unclassifiable twin — visible.
        AdversarySpec::ContentDpi | AdversarySpec::PortBlock | AdversarySpec::DelayJitter => {
            "positive"
        }
        // Tiered priority throttles everything below the premium DSCP
        // band — both twins alike, indistinguishable from congestion.
        // Address drops target the application's destination prefix, not
        // the probe sink, so probes never see them either.
        AdversarySpec::TieredPriority | AdversarySpec::AddressDrop => "evades",
    }
}

/// The inference pass for one probed cell: weigh the differential-pair
/// delivery and RTT evidence, corroborate against the baseline's delay
/// histogram, and name the most likely mechanism.
fn infer_verdict(
    adversary: &AdversarySpec,
    probe: &ProbeSummary,
    p99_ms: f64,
    baseline_p99_ms: f64,
) -> Verdict {
    let neut = probe.neut_delivery();
    let plain = probe.plain_delivery();
    // Delivery differential only means something when the neutral twin
    // actually got through — a path dropping everything is congestion
    // (or an outage), not discrimination.
    let delivery_ratio = if neut > 0.0 { plain / neut } else { 1.0 };
    let rtt_ratio = if probe.plain_rtt_ms.is_finite()
        && probe.neut_rtt_ms.is_finite()
        && probe.neut_rtt_ms > 0.0
    {
        probe.plain_rtt_ms / probe.neut_rtt_ms
    } else {
        1.0
    };
    let corroborated = baseline_p99_ms > 0.0 && p99_ms > 3.0 * baseline_p99_ms;
    let (detected, mechanism, confidence) = if neut >= 0.5 && delivery_ratio < 0.1 {
        (true, "blocking", 1.0 - delivery_ratio)
    } else if neut >= 0.5 && delivery_ratio < 0.65 {
        (true, "content-throttle", 1.0 - delivery_ratio)
    } else if rtt_ratio > 2.0 {
        (
            true,
            "delay-injection",
            (1.0 - 2.0 / rtt_ratio).clamp(0.0, 1.0),
        )
    } else {
        // No differential: whatever the twins suffered, they suffered
        // equally. Tiered priority lands here by design — the documented
        // evasion of naive differential probing.
        (false, "none", delivery_ratio.clamp(0.0, 1.0))
    };
    Verdict {
        detected,
        mechanism: mechanism.to_string(),
        confidence,
        truth: ground_truth(adversary).to_string(),
        corroborated,
    }
}

/// Computes baseline-relative metrics in place over the complete,
/// expansion-ordered cell set of `spec`.
///
/// # Panics
///
/// Panics if `cells` is not exactly `spec`'s expansion (length or index
/// mismatch) — merged shard sets must be validated before finalization.
pub fn finalize_relative(cells: &mut [MatrixCell], spec: &ExperimentSpec) {
    assert_eq!(
        cells.len(),
        spec.cell_count(),
        "finalize needs the complete cell set"
    );
    // Pass 1: collect every baseline cell's group identity and metrics.
    // Expansion is lazy both times — the spec's cross product is never
    // materialized.
    let mut baselines: Vec<Baseline> = Vec::new();
    for mc in spec.iter_cells() {
        let c = &cells[mc.index];
        assert_eq!(c.index, mc.index, "cells must be in expansion order");
        if mc.cell.adversary == AdversarySpec::None && mc.cell.stack == StackKind::Plain {
            baselines.push(Baseline {
                topology: mc.cell.topology,
                link: mc.cell.link,
                workload: mc.cell.workload,
                events: mc.cell.events,
                seed_axis: mc.seed_axis,
                goodput: c.report.goodput_bps(),
                delay: c.report.mean_delay_ms(),
                jitter: c.report.jitter_ms(),
                p99_delay: c.report.p99_delay_ms(),
            });
        }
    }
    // Pass 2: match each cell to the first baseline of its group, when
    // the matrix has one. The assignment is unconditional — this pass
    // *owns* the field, so a stray `relative` smuggled in through an
    // edited shard file can never survive into the finalized report.
    for mc in spec.iter_cells() {
        let base = baselines.iter().find(|b| {
            b.topology == mc.cell.topology
                && b.link == mc.cell.link
                && b.workload == mc.cell.workload
                && b.events == mc.cell.events
                && b.seed_axis == mc.seed_axis
        });
        let cell = &mut cells[mc.index];
        cell.relative = base.filter(|b| b.goodput > 0.0).map(|b| {
            let ratio = |v: f64, base: f64| if base > 0.0 { v / base } else { 0.0 };
            RelativeMetrics {
                goodput_ratio: cell.report.goodput_bps() / b.goodput,
                mean_delay_ratio: ratio(cell.report.mean_delay_ms(), b.delay),
                jitter_ratio: ratio(cell.report.jitter_ms(), b.jitter),
            }
        });
        // This pass owns the verdict too — recomputed unconditionally,
        // so an edited shard file can never smuggle one in.
        cell.verdict = cell.report.probe.as_ref().map(|p| {
            let base_p99 = base.map(|b| b.p99_delay).unwrap_or(0.0);
            infer_verdict(&mc.cell.adversary, p, cell.report.p99_delay_ms(), base_p99)
        });
    }
}
