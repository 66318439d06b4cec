//! Property tests for the plan → execute → merge → finalize pipeline.
//!
//! The load-bearing claim of the sharded runner is *exact* equivalence:
//! for any shard count, running each shard independently (through the
//! ShardReport JSON wire format, as worker processes would) and merging
//! must reproduce `run_matrix_with_threads` byte-for-byte — cell order,
//! sim seeds, metrics, baseline-relative values, pool counters, JSON and
//! CSV. And `merge_shards` must reject every malformed shard set loudly
//! rather than produce a silently short report.

use nn_lab::{
    finalize_report, merge_shards, run_matrix_with_threads, run_shard, verify_merged_against_spec,
    AdversarySpec, CellReport, CellTuning, EventTimelineSpec, ExecutionPlan, ExperimentSpec,
    LinkProfileSpec, MatrixCell, MergeError, ProbeSummary, ShardReport, StackKind, TopologySpec,
    WorkloadSpec,
};
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::Duration;

/// A 4-cell matrix small enough to re-run per proptest case in debug
/// builds, with both a baseline and a throttled cell so the
/// finalization pass has real work to do.
fn tiny_spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "shard-prop".to_string(),
        topologies: vec![TopologySpec::Chain],
        links: vec![LinkProfileSpec::Clean],
        workloads: vec![WorkloadSpec::Voip],
        adversaries: vec![AdversarySpec::None, AdversarySpec::ContentDpi],
        stacks: vec![StackKind::Plain],
        events: vec![EventTimelineSpec::Static],
        seeds: vec![1, 2],
        probes: false,
        tuning: CellTuning {
            duration: Duration::from_millis(150),
            ..CellTuning::fast()
        },
    }
}

/// The single-process reference, computed once per test binary.
fn reference() -> &'static (String, String) {
    static REF: OnceLock<(String, String)> = OnceLock::new();
    REF.get_or_init(|| {
        let report = run_matrix_with_threads(&tiny_spec(), 2);
        (report.to_json(), report.to_csv())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For arbitrary shard counts `1..=cells` (and arbitrary per-shard
    /// thread counts), merge(run each shard) equals the single-process
    /// run exactly.
    #[test]
    fn sharded_equals_single_process(shards in 1usize..5, threads in 1usize..4) {
        let spec = tiny_spec();
        prop_assert_eq!(spec.cell_count(), 4);
        let plan = ExecutionPlan::new(&spec, shards);
        let shard_reports: Vec<ShardReport> = plan
            .assignments()
            .iter()
            .map(|a| {
                // Round-trip through the JSON wire format, exactly as a
                // worker process boundary would.
                let wire = run_shard(&spec, a, threads).to_json();
                ShardReport::from_json(&wire).expect("wire format round-trips")
            })
            .collect();
        let merged = merge_shards(shard_reports).expect("complete shard set merges");
        verify_merged_against_spec(&merged, &spec).expect("shards came from this spec");
        let report = finalize_report(merged, &spec);
        let (ref_json, ref_csv) = reference();
        prop_assert!(
            report.to_json() == *ref_json,
            "JSON must be byte-identical at {shards} shards x {threads} threads"
        );
        prop_assert!(
            report.to_csv() == *ref_csv,
            "CSV must be byte-identical at {shards} shards x {threads} threads"
        );
    }
}

/// A synthetic finished cell — merge validation never looks at metrics,
/// so empty flows suffice.
fn fake_cell(index: usize) -> MatrixCell {
    MatrixCell {
        index,
        topology: "chain".to_string(),
        link: "clean".to_string(),
        workload: "voip".to_string(),
        adversary: "none".to_string(),
        stack: "plain".to_string(),
        events: "static".to_string(),
        seed_axis: 1,
        sim_seed: index as u64,
        report: CellReport {
            flows: Vec::new(),
            replies: 0,
            verified_return_blocks: 0,
            policy_drops: 0,
            counters: Vec::new(),
            events: 0,
            probe: None,
        },
        relative: None,
        verdict: None,
    }
}

/// A synthetic shard report holding exactly the strided cells for
/// `shard`/`shards` out of `total`.
fn fake_shard(shard: usize, shards: usize, total: usize) -> ShardReport {
    ShardReport {
        matrix: "fake".to_string(),
        shard,
        shards,
        total_cells: total,
        pool_allocs: 10,
        pool_recycled: 7,
        cells: (shard..total).step_by(shards).map(fake_cell).collect(),
    }
}

#[test]
fn merge_accepts_a_complete_strided_set_in_any_order() {
    // Shards given out of order still merge into expansion order, and
    // pool counters sum.
    let merged = merge_shards(vec![
        fake_shard(2, 3, 7),
        fake_shard(0, 3, 7),
        fake_shard(1, 3, 7),
    ])
    .expect("complete set merges");
    assert_eq!(merged.cells.len(), 7);
    for (i, c) in merged.cells.iter().enumerate() {
        assert_eq!(c.index, i, "cells reassemble in expansion order");
    }
    assert_eq!(merged.pool_allocs, 30);
    assert_eq!(merged.pool_recycled, 21);
}

#[test]
fn merge_rejects_an_empty_set() {
    assert_eq!(merge_shards(vec![]).unwrap_err(), MergeError::NoShards);
}

#[test]
fn merge_rejects_duplicate_shards() {
    let err = merge_shards(vec![
        fake_shard(0, 2, 4),
        fake_shard(1, 2, 4),
        fake_shard(1, 2, 4),
    ])
    .unwrap_err();
    assert_eq!(err, MergeError::DuplicateShard(1));
}

#[test]
fn merge_rejects_missing_shards() {
    let err = merge_shards(vec![fake_shard(0, 3, 7), fake_shard(2, 3, 7)]).unwrap_err();
    assert_eq!(err, MergeError::MissingShard(1));
}

#[test]
fn merge_rejects_duplicate_cell_indices() {
    let mut bad = fake_shard(0, 1, 3);
    bad.cells.push(fake_cell(1));
    assert_eq!(
        merge_shards(vec![bad]).unwrap_err(),
        MergeError::DuplicateCell(1)
    );
}

#[test]
fn merge_rejects_missing_cell_indices() {
    let mut bad = fake_shard(0, 1, 3);
    bad.cells.remove(1);
    assert_eq!(
        merge_shards(vec![bad]).unwrap_err(),
        MergeError::MissingCell(1)
    );
}

#[test]
fn merge_rejects_cells_outside_their_strided_shard() {
    let mut bad = fake_shard(0, 2, 4);
    // Cell 1 belongs to shard 1, not shard 0.
    bad.cells.push(fake_cell(1));
    assert_eq!(
        merge_shards(vec![bad, fake_shard(1, 2, 4)]).unwrap_err(),
        MergeError::MisassignedCell { index: 1, shard: 0 }
    );
}

#[test]
fn merge_rejects_out_of_range_cells_and_shards() {
    let mut bad = fake_shard(0, 1, 3);
    bad.cells.push(fake_cell(9));
    assert_eq!(
        merge_shards(vec![bad]).unwrap_err(),
        MergeError::CellOutOfRange { index: 9, total: 3 }
    );
    let mut bad = fake_shard(0, 2, 4);
    bad.shard = 5;
    assert_eq!(
        merge_shards(vec![bad, fake_shard(1, 2, 4)]).unwrap_err(),
        MergeError::ShardOutOfRange {
            shard: 5,
            shards: 2
        }
    );
}

/// Parses a one-shard wire file whose header field `from` was edited to
/// `to` — a shard file as hostile as `--merge` may be handed.
fn tampered_one_shard(from: &str, to: &str) -> ShardReport {
    let wire = fake_shard(0, 1, 2).to_json();
    let tampered = wire.replace(from, to);
    assert_ne!(tampered, wire, "{from} is in the header");
    ShardReport::from_json(&tampered).expect("the header still parses")
}

#[test]
fn merge_rejects_a_huge_cell_count_before_allocating() {
    // Two cells received can never complete a trillion-cell expansion.
    let report = tampered_one_shard("\"total_cells\":2,", "\"total_cells\":1000000000000,");
    assert_eq!(
        merge_shards(vec![report]).unwrap_err(),
        MergeError::MissingCell(2)
    );
}

#[test]
fn merge_rejects_a_huge_shard_count_before_allocating() {
    // One report can never complete a u64::MAX-shard set.
    let report = tampered_one_shard("\"shards\":1,", "\"shards\":18446744073709551615,");
    assert_eq!(
        merge_shards(vec![report]).unwrap_err(),
        MergeError::MissingShard(1)
    );
}

#[test]
fn merge_rejects_pool_counts_that_overflow() {
    // Each count fits a u64; their sum over the set does not.
    for (from, counter) in [("\"allocs\":10", "allocs"), ("\"recycled\":7", "recycled")] {
        let wire = fake_shard(1, 2, 4).to_json();
        let tampered = wire.replace(from, &format!("\"{counter}\":{}", u64::MAX));
        assert_ne!(tampered, wire, "{from} is in the pool header");
        let hostile = ShardReport::from_json(&tampered).expect("the header still parses");
        assert_eq!(
            merge_shards(vec![fake_shard(0, 2, 4), hostile]).unwrap_err(),
            MergeError::PoolCountOverflow(counter)
        );
    }
}

#[test]
fn shard_wire_format_rejects_relative_metrics() {
    let wire = fake_shard(0, 1, 2).to_json();
    ShardReport::from_json(&wire).expect("raw cells parse");
    // A shard cell carrying relative metrics cannot be a worker's output
    // — baselines are cross-shard context only finalization may compute.
    let tampered = wire.replace(
        "\"sim_events\":0",
        "\"sim_events\":0,\"relative\":{\"goodput_ratio\":2.0,\"mean_delay_ratio\":1.0,\
         \"jitter_ratio\":1.0}",
    );
    assert_ne!(tampered, wire);
    let err = ShardReport::from_json(&tampered).unwrap_err();
    assert!(err.contains("relative"), "{err}");
    // An explicit null is the raw format's own idiom and stays legal.
    let nulled = wire.replace("\"sim_events\":0", "\"sim_events\":0,\"relative\":null");
    ShardReport::from_json(&nulled).expect("null relative is still raw");
}

/// The shard wire refuses an integer its field cannot hold: a negative,
/// fractional or past-`u64::MAX` count is an error naming the key, never
/// a value rounded or wrapped into range.
#[test]
fn shard_wire_rejects_integers_it_cannot_hold() {
    let mut shard = fake_shard(0, 1, 2);
    shard.cells[0].report.probe = Some(ProbeSummary {
        plain_tx: 4,
        plain_rx: 4,
        plain_rtt_ms: 1.5,
        neut_tx: 4,
        neut_rx: 4,
        neut_rtt_ms: 1.5,
    });
    let wire = shard.to_json();
    ShardReport::from_json(&wire).expect("the probe-carrying wire parses");
    for count in ["-1", "4.5", "18446744073709551616"] {
        let tampered = wire.replace("\"plain_tx\":4,", &format!("\"plain_tx\":{count},"));
        assert_ne!(tampered, wire, "the probe carries plain_tx");
        let err = ShardReport::from_json(&tampered).expect_err(count);
        assert!(err.contains("\"plain_tx\""), "{count}: {err}");
    }
}

#[test]
fn merge_rejects_header_disagreements() {
    for tamper in [
        |s: &mut ShardReport| s.matrix = "other".to_string(),
        |s: &mut ShardReport| s.shards = 3,
        |s: &mut ShardReport| s.total_cells = 5,
    ] {
        let mut second = fake_shard(1, 2, 4);
        tamper(&mut second);
        let err = merge_shards(vec![fake_shard(0, 2, 4), second]).unwrap_err();
        assert!(
            matches!(err, MergeError::HeaderMismatch(_)),
            "expected header mismatch, got {err:?}"
        );
    }
}

#[test]
fn verify_rejects_shards_from_a_different_spec() {
    // Run the tiny spec but claim the cells belong to a renamed spec —
    // the re-expansion check must notice the seed mismatch even though
    // the shapes agree.
    let spec = tiny_spec();
    let plan = ExecutionPlan::new(&spec, 2);
    let reports: Vec<ShardReport> = plan
        .assignments()
        .iter()
        .map(|a| run_shard(&spec, a, 1))
        .collect();
    let mut renamed = spec.clone();
    renamed.name = "shard-prop-other".to_string();
    let mut mislabeled = reports.clone();
    for r in &mut mislabeled {
        r.matrix = renamed.name.clone();
    }
    let merged = merge_shards(mislabeled).expect("shape is still consistent");
    let err = verify_merged_against_spec(&merged, &renamed).unwrap_err();
    assert!(err.contains("different spec"), "{err}");
    // The honest pairing passes.
    let merged = merge_shards(reports).expect("shape is consistent");
    verify_merged_against_spec(&merged, &spec).expect("honest shards verify");
}
