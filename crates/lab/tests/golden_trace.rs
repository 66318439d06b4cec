//! Golden-trace determinism tests for the data-path refactors.
//!
//! Data-path work (the frame pool, the event queue) is only allowed to
//! change *performance*, never *results*: the engine's documented
//! ordering contract — events fire by (time, submission order) with all
//! randomness from the one seeded RNG — must survive any scheduler or
//! buffer-management swap. These tests pin that contract byte-for-byte:
//! the full JSON and CSV reports of fixed-seed matrices are compared
//! against committed goldens, at two different thread counts.
//!
//! To regenerate after an *intentional* result change (new axes, new
//! report columns):
//!
//! ```text
//! NN_UPDATE_GOLDENS=1 cargo test -p nn-lab --test golden_trace
//! ```

use nn_lab::json::Json;
use nn_lab::matrix::{named_matrix, run_matrix_with_threads, ExperimentSpec};
use nn_lab::{
    finalize_report, merge_shards, run_shard, verify_merged_against_spec, AdversarySpec,
    CellTuning, EventTimelineSpec, ExecutionPlan, LinkProfileSpec, MatrixCell, MatrixReport,
    ShardReport, StackKind, TopologySpec, WorkloadSpec,
};
use nn_packet::shim::{ShimPacket, ShimType, BASE_HEADER_LEN, SHIM_VERSION};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name)
}

/// Compares `actual` against the committed golden, or rewrites the
/// golden when `NN_UPDATE_GOLDENS` is set. A JSON report must also
/// survive the parser: `parse(actual).render()` gives back the same
/// bytes, finalized-only keys (`relative`, `verdict`, `detection`)
/// included.
fn assert_golden(name: &str, actual: &str) {
    if name.ends_with(".json") {
        let reparsed = Json::parse(actual).unwrap_or_else(|e| panic!("{name} is not JSON: {e}"));
        assert!(
            reparsed.render() == actual,
            "{name} does not re-render byte-identically after parsing"
        );
    }
    let path = golden_path(name);
    if std::env::var_os("NN_UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("writing {path:?}: {e}"));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {path:?} ({e}); run with NN_UPDATE_GOLDENS=1 to capture it")
    });
    assert!(
        expected == actual,
        "{name} drifted from its pre-refactor golden: the engine's \
         deterministic trace contract is broken (or the report schema \
         changed intentionally — then regenerate with NN_UPDATE_GOLDENS=1)"
    );
}

/// The congested story the acceptance gate names: cross-traffic dumbbell
/// under the congested bottleneck preset, all three adversaries, both
/// stacks — 6 cells, the same shape as the `congested` named matrix with
/// its redundant link rows trimmed for debug-build test time.
fn congested_story_spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "congested-golden".to_string(),
        topologies: vec![TopologySpec::dumbbell_crossed()],
        links: vec![LinkProfileSpec::congested_default()],
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
    }
}

/// Runs the named matrix at one and at three threads and pins both
/// renderings against `{name}_matrix.{json,csv}`.
fn assert_named_matrix_golden(name: &str) {
    let spec = named_matrix(name).unwrap_or_else(|| panic!("{name} matrix exists"));
    let one = run_matrix_with_threads(&spec, 1);
    let three = run_matrix_with_threads(&spec, 3);
    assert_eq!(
        one.to_json(),
        three.to_json(),
        "thread count must not leak into the report"
    );
    assert_golden(&format!("{name}_matrix.json"), &one.to_json());
    assert_golden(&format!("{name}_matrix.csv"), &one.to_csv());
}

#[test]
fn smoke_matrix_json_matches_golden_at_any_thread_count() {
    assert_named_matrix_golden("smoke");
}

/// The paper's own comparison: every record the neutralized host stacks
/// seal and open runs in these four cells.
#[test]
fn paper_matrix_json_matches_golden_at_any_thread_count() {
    assert_named_matrix_golden("paper");
}

#[test]
fn default_matrix_json_matches_golden_at_any_thread_count() {
    assert_named_matrix_golden("default");
}

#[test]
fn congested_matrix_json_matches_golden_at_any_thread_count() {
    let spec = congested_story_spec();
    let one = run_matrix_with_threads(&spec, 1);
    let three = run_matrix_with_threads(&spec, 3);
    assert_eq!(
        one.to_json(),
        three.to_json(),
        "thread count must not leak into the report"
    );
    assert_golden("congested_matrix.json", &one.to_json());
    assert_golden("congested_matrix.csv", &one.to_csv());
}

/// Runs `spec` as `shards` independent shards, round-trips every
/// [`ShardReport`] through its JSON wire format (exactly what worker
/// processes emit), then merges and finalizes — the full sharded
/// pipeline minus the process boundary.
fn run_sharded_via_wire(spec: &ExperimentSpec, shards: usize) -> MatrixReport {
    let plan = ExecutionPlan::new(spec, shards);
    let shard_reports: Vec<ShardReport> = plan
        .assignments()
        .iter()
        .map(|a| {
            let wire = run_shard(spec, a, 2).to_json();
            ShardReport::from_json(&wire).expect("shard wire format round-trips")
        })
        .collect();
    let merged = merge_shards(shard_reports).expect("complete shard set merges");
    verify_merged_against_spec(&merged, spec).expect("shards came from this spec");
    finalize_report(merged, spec)
}

/// The acceptance gate: the sharded pipeline — strided plan, per-shard
/// execution, ShardReport JSON round-trip, merge, post-merge
/// finalization — must be byte-identical to the single-process golden
/// for both pinned matrices.
#[test]
fn sharded_runs_match_the_single_process_goldens() {
    let smoke = named_matrix("smoke").expect("smoke matrix exists");
    let sharded = run_sharded_via_wire(&smoke, 3);
    assert_golden("smoke_matrix.json", &sharded.to_json());
    assert_golden("smoke_matrix.csv", &sharded.to_csv());

    let congested = congested_story_spec();
    let sharded = run_sharded_via_wire(&congested, 4);
    assert_golden("congested_matrix.json", &sharded.to_json());
    assert_golden("congested_matrix.csv", &sharded.to_csv());
}

/// The dynamic-event battery: the `flaky` matrix (multihomed topology,
/// partition-heal timelines, failover in flight) must be byte-identical
/// across thread counts and against its committed golden. Timeline
/// events share one event queue with traffic, so any ordering leak between
/// event application and frame delivery shows up here first. And the
/// failover story must hold: every neutralized partition-heal cell
/// fails over and keeps its goodput.
#[test]
fn flaky_matrix_json_matches_golden_at_any_thread_count() {
    let spec = named_matrix("flaky").expect("flaky matrix exists");
    let one = run_matrix_with_threads(&spec, 1);
    let three = run_matrix_with_threads(&spec, 3);
    assert_eq!(
        one.to_json(),
        three.to_json(),
        "thread count must not leak into the report"
    );
    assert_golden("flaky_matrix.json", &one.to_json());
    assert_golden("flaky_matrix.csv", &one.to_csv());

    // §3.5: the partition kills the primary provider mid-run, the
    // multihomed source steers to the fallback neutralizer, and goodput
    // stays at 80% of the undisturbed static twin, with the DPI still
    // blind on the fallback path.
    let counter = |c: &MatrixCell, name: &str| {
        c.report
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    };
    let flaky: Vec<&MatrixCell> = one
        .cells
        .iter()
        .filter(|c| c.stack == "neutralized" && c.events == "partition-heal")
        .collect();
    assert!(!flaky.is_empty());
    for c in flaky {
        let twin = one
            .cells
            .iter()
            .find(|t| {
                t.events == "static"
                    && t.adversary == c.adversary
                    && t.stack == c.stack
                    && t.seed_axis == c.seed_axis
            })
            .expect("static twin exists");
        assert!(
            counter(c, "source.failovers") >= 1,
            "cell {}: the partition must trigger a failover",
            c.index
        );
        assert!(
            counter(c, "neutralizer-b.data_forwarded") > 0,
            "cell {}: traffic must flow through the fallback provider",
            c.index
        );
        assert_eq!(c.report.policy_drops, 0, "cell {}", c.index);
        assert!(
            c.report.goodput_bps() >= 0.8 * twin.report.goodput_bps(),
            "cell {}: failover must keep goodput: {} vs static {}",
            c.index,
            c.report.goodput_bps(),
            twin.report.goodput_bps()
        );
    }
}

/// The sharded pipeline over the event-driven matrix: three strided
/// shards, wire round-trip, merge, finalize — byte-identical to the
/// single-process golden.
#[test]
fn sharded_flaky_run_matches_the_single_process_golden() {
    let spec = named_matrix("flaky").expect("flaky matrix exists");
    let sharded = run_sharded_via_wire(&spec, 3);
    assert_golden("flaky_matrix.json", &sharded.to_json());
    assert_golden("flaky_matrix.csv", &sharded.to_csv());
}

/// The measurement-plane battery: the `detection` matrix — probes on,
/// one discriminator per mechanism — must be byte-identical across
/// thread counts, across the sharded wire, and against its committed
/// golden. And the verdicts must tell the documented story: the
/// classification-keyed mechanisms (content DPI, port block, injected
/// jitter) show up in the differential-pair evidence, while tiered
/// priority throttles both probe twins identically and evades naive
/// differential probing.
#[test]
fn detection_matrix_matches_golden_and_tells_the_story() {
    let spec = named_matrix("detection").expect("detection matrix exists");
    let one = run_matrix_with_threads(&spec, 1);
    let three = run_matrix_with_threads(&spec, 3);
    assert_eq!(
        one.to_json(),
        three.to_json(),
        "thread count must not leak into the report"
    );
    let sharded = run_sharded_via_wire(&spec, 3);
    assert_eq!(
        one.to_json(),
        sharded.to_json(),
        "the sharded wire must not leak into the report"
    );
    assert_golden("detection_matrix.json", &one.to_json());
    assert_golden("detection_matrix.csv", &one.to_csv());

    let verdicts = |adversary: &str| -> Vec<_> {
        one.cells
            .iter()
            .filter(|c| c.adversary == adversary)
            .map(|c| c.verdict.as_ref().expect("probed cells carry verdicts"))
            .collect()
    };
    assert!(
        verdicts("none").iter().all(|v| !v.detected),
        "no false alarms"
    );
    assert!(verdicts("content-dpi")
        .iter()
        .all(|v| v.detected && v.truth == "positive"));
    assert!(verdicts("port-block")
        .iter()
        .all(|v| v.detected && v.mechanism == "blocking"));
    assert!(verdicts("delay-jitter")
        .iter()
        .all(|v| v.detected && v.mechanism == "delay-injection"));
    assert!(
        verdicts("tiered-priority")
            .iter()
            .any(|v| !v.detected && v.truth == "evades"),
        "tiered priority must evade naive differential probing"
    );
    let d = one.detection_summary().expect("probed matrix is scored");
    assert!(
        d.precision >= 0.9 && d.recall >= 0.9,
        "precision {} recall {}",
        d.precision,
        d.recall
    );
}

/// The population battery: the `metro` matrix (flyweight cohorts, one
/// packet-accurate and one fluid, feeding the hub bottleneck) must be
/// byte-identical across thread counts and against its committed
/// golden — and the per-cohort flow rows must actually be there, in
/// both JSON and CSV.
#[test]
fn metro_matrix_json_matches_golden_at_any_thread_count() {
    let spec = named_matrix("metro").expect("metro matrix exists");
    let one = run_matrix_with_threads(&spec, 1);
    let three = run_matrix_with_threads(&spec, 3);
    assert_eq!(
        one.to_json(),
        three.to_json(),
        "thread count must not leak into the report"
    );
    assert_golden("metro_matrix.json", &one.to_json());
    assert_golden("metro_matrix.csv", &one.to_csv());

    // Every cell carries the workload flow first, then both cohorts.
    for c in &one.cells {
        let names: Vec<&str> = c.report.flows.iter().map(|f| f.flow.as_str()).collect();
        assert_eq!(
            names,
            ["voip", "pop0-voip", "pop1-neutral"],
            "cell {}",
            c.index
        );
    }
    // And the CSV has one extra row per cohort.
    assert_eq!(
        one.to_csv().lines().count(),
        1 + 3 * one.cells.len(),
        "per-cohort CSV rows"
    );

    // The population story: content DPI collapses the marked VoIP
    // cohort while the unmarked neutral cohort rides through unharmed.
    let row = |adversary: &str, stack: &str, flow: &str| -> &nn_lab::CellFlow {
        one.cells
            .iter()
            .find(|c| c.adversary == adversary && c.stack == stack && c.link == "clean")
            .expect("cell exists")
            .report
            .flows
            .iter()
            .find(|f| f.flow == flow)
            .expect("flow row exists")
    };
    let cohort = |adversary: &str, flow: &str| row(adversary, "plain", flow);
    let voip_base = cohort("none", "pop0-voip").goodput_bps;
    let voip_dpi = cohort("content-dpi", "pop0-voip").goodput_bps;
    assert!(
        voip_dpi < 0.5 * voip_base,
        "DPI must collapse the marked cohort: {voip_dpi} vs {voip_base}"
    );
    let neutral_base = cohort("none", "pop1-neutral").goodput_bps;
    let neutral_dpi = cohort("content-dpi", "pop1-neutral").goodput_bps;
    assert!(
        neutral_dpi > 0.9 * neutral_base,
        "the unmarked cohort must ride through DPI: {neutral_dpi} vs {neutral_base}"
    );
    // And §3.2 still holds at metro scale: the neutralized workload
    // recovers from the same DPI that crushes the plain one.
    let workload_base = row("none", "plain", "voip").goodput_bps;
    let workload_neut = row("content-dpi", "neutralized", "voip").goodput_bps;
    assert!(
        workload_neut > 0.9 * workload_base,
        "the neutralized workload must recover: {workload_neut} vs {workload_base}"
    );
}

/// The sharded pipeline over the population matrix: three strided
/// shards, wire round-trip, merge, finalize — byte-identical to the
/// single-process golden.
#[test]
fn sharded_metro_run_matches_the_single_process_golden() {
    let spec = named_matrix("metro").expect("metro matrix exists");
    let sharded = run_sharded_via_wire(&spec, 3);
    assert_golden("metro_matrix.json", &sharded.to_json());
    assert_golden("metro_matrix.csv", &sharded.to_csv());
}

/// The `Reported` counter that shows a cell ran `shim_type`. The match
/// has no `_` arm, so a new wire type does not compile until it names
/// the counter of a golden cell that runs it.
fn counter_that_runs(shim_type: ShimType) -> &'static str {
    match shim_type {
        ShimType::KeySetup => "neutralizer.setup_served",
        ShimType::KeyReply => "source.established",
        ShimType::Data => "neutralizer.data_forwarded",
        ShimType::Return => "neutralizer.return_anonymized",
    }
}

/// Every shim type the parser accepts runs in a committed golden cell:
/// the `flaky` golden must show each type's counter above zero in at
/// least one cell. A wire type that no cell drives fails here.
#[test]
fn every_wire_type_runs_in_a_golden_cell() {
    let golden = std::fs::read_to_string(golden_path("flaky_matrix.json")).expect("flaky golden");
    let report = Json::parse(&golden).expect("flaky golden is JSON");
    let cells = report.get("cells").and_then(Json::as_arr).expect("cells");
    let some_cell_shows = |name: &str| {
        cells
            .iter()
            .flat_map(|cell| cell.get("counters").and_then(Json::as_arr).unwrap_or(&[]))
            .filter(|c| c.get("name").and_then(Json::as_str) == Some(name))
            .any(|c| c.get("value").and_then(Json::as_u64) > Some(0))
    };
    // Enumerate the wire types through the parser itself, so a type it
    // accepts cannot be left out of this list.
    let mut header = [0u8; BASE_HEADER_LEN];
    let mut types = 0;
    for nibble in 0..16u8 {
        header[0] = (SHIM_VERSION << 4) | nibble;
        let Ok(packet) = ShimPacket::new_checked(&header[..]) else {
            continue;
        };
        types += 1;
        let counter = counter_that_runs(packet.shim_type());
        assert!(
            some_cell_shows(counter),
            "{:?}: no flaky golden cell shows {counter} above zero",
            packet.shim_type()
        );
    }
    assert!(types > 0, "the parser accepts no shim type");
}
