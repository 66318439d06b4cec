//! End-to-end assertions over the `paper` named matrix
//! (the baseline / DPI-throttled / neutralized comparison at the paper's
//! key sizes): the neutralizer must recover goodput under DPI
//! throttling, and the simulator must be exactly reproducible under a
//! fixed seed.

use nn_lab::schema::Encode;
use nn_lab::{named_matrix, run_cell, CellReport, ExperimentSpec};

/// Runs the `spec` cell with the given adversary and stack axis names.
fn run(spec: &ExperimentSpec, adversary: &str, stack: &str) -> CellReport {
    let mc = spec
        .cells()
        .into_iter()
        .find(|c| c.cell.adversary.name() == adversary && c.cell.stack.name() == stack)
        .unwrap_or_else(|| panic!("{} has a ({adversary}, {stack}) cell", spec.name));
    run_cell(&mc.cell, &spec.tuning)
}

fn paper() -> ExperimentSpec {
    named_matrix("paper").expect("paper matrix exists")
}

#[test]
fn neutralizer_recovers_goodput_under_dpi_throttling() {
    let spec = paper();
    let baseline = run(&spec, "none", "plain");
    let throttled = run(&spec, "content-dpi", "plain");
    let neutralized = run(&spec, "content-dpi", "neutralized");

    // The adversary bites: content DPI throttles the plain flow hard.
    assert!(throttled.policy_drops > 0, "DPI rule never matched");
    assert!(
        throttled.goodput_bps() < 0.5 * baseline.goodput_bps(),
        "throttle too weak: baseline {:.0} bps vs throttled {:.0} bps",
        baseline.goodput_bps(),
        throttled.goodput_bps()
    );

    // The neutralizer defeats it: same policy, goodput back near baseline.
    assert!(
        neutralized.goodput_bps() > throttled.goodput_bps(),
        "neutralized flow must beat the throttled one"
    );
    assert!(
        neutralized.goodput_bps() > 0.9 * baseline.goodput_bps(),
        "neutralized goodput should approach baseline: {:.0} vs {:.0} bps",
        neutralized.goodput_bps(),
        baseline.goodput_bps()
    );
    assert_eq!(
        neutralized.policy_drops, 0,
        "encrypted payloads give content DPI nothing to match"
    );

    // The full protocol actually ran: one key setup, data forwarded,
    // returns anonymized and verified back at the source.
    let counter = |name: &str| {
        neutralized
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert_eq!(counter("neutralizer.setup_served"), 1);
    assert!(counter("neutralizer.data_forwarded") > 0);
    assert!(counter("neutralizer.return_anonymized") > 0);
    assert!(neutralized.verified_return_blocks > 0);
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let spec = paper();
    for mc in spec.cells() {
        let a = run_cell(&mc.cell, &spec.tuning);
        let b = run_cell(&mc.cell, &spec.tuning);
        let render = |r: &CellReport| -> Vec<String> {
            r.flows.iter().map(|f| f.encode().render()).collect()
        };
        assert_eq!(
            render(&a),
            render(&b),
            "cell {} must reproduce exactly under one seed",
            mc.index
        );
        assert_eq!(a, b);
    }
}

#[test]
fn different_seeds_still_reach_the_same_conclusion() {
    // The headline result is not a lucky seed: check a second one.
    let spec = ExperimentSpec {
        seeds: vec![9001],
        ..paper()
    };
    let throttled = run(&spec, "content-dpi", "plain");
    let neutralized = run(&spec, "content-dpi", "neutralized");
    assert!(neutralized.goodput_bps() > 2.0 * throttled.goodput_bps());
}
