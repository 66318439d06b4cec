//! The paper's scenario stories, each pinned on the named-matrix cell
//! that carries it: baseline, DPI-throttled plain and neutralized are
//! `paper` cells, the flaky ISP is `flaky`'s partition-heal cell, the
//! edge detection is `detection`'s content-DPI cell and the population
//! story is `metro`'s clean content-DPI cell. Every cell runs at
//! `CellTuning::fast()` under seed 7.

#[cfg(test)]
mod tests {
    use crate::cell::{run_cell, CellReport, CellSpec, CellTuning, StackKind};
    use crate::{named_matrix, AdversarySpec};

    /// The clean-link `matrix` cell with the given axis names, reseeded.
    fn cell(matrix: &str, adversary: &str, stack: &str, events: &str) -> CellSpec {
        named_matrix(matrix)
            .expect("named matrix exists")
            .cells()
            .into_iter()
            .map(|mc| mc.cell)
            .find(|c| {
                c.link.name() == "clean"
                    && c.adversary.name() == adversary
                    && c.stack.name() == stack
                    && c.events.name() == events
            })
            .map(|c| CellSpec { seed: 7, ..c })
            .unwrap_or_else(|| panic!("{matrix} has a ({adversary}, {stack}, {events}) cell"))
    }

    fn run(spec: &CellSpec) -> CellReport {
        run_cell(spec, &CellTuning::fast())
    }

    fn paper(adversary: &str, stack: &str) -> CellReport {
        run(&cell("paper", adversary, stack, "static"))
    }

    fn counter(report: &CellReport, name: &str) -> u64 {
        report
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    fn goodput(report: &CellReport, flow: &str) -> f64 {
        let row = report.flows.iter().find(|f| f.flow == flow);
        row.expect("flow row exists").goodput_bps
    }

    #[test]
    fn baseline_delivers_nearly_everything() {
        let report = paper("none", "plain");
        let f = &report.flows[0];
        assert!(f.tx_packets >= 100, "CBR schedule ran: {}", f.tx_packets);
        assert!(f.delivery_ratio > 0.99, "neutral network delivers: {f:?}");
        assert_eq!(report.policy_drops, 0);
        assert!(report.replies > 0, "echo path works");
    }

    #[test]
    fn dpi_throttle_degrades_plain_traffic() {
        let baseline = paper("none", "plain");
        let throttled = paper("content-dpi", "plain");
        assert!(throttled.policy_drops > 0, "DPI matched and dropped");
        assert!(
            throttled.goodput_bps() < baseline.goodput_bps() * 0.6,
            "throttle must bite: baseline {} vs throttled {}",
            baseline.goodput_bps(),
            throttled.goodput_bps()
        );
    }

    #[test]
    fn neutralizer_defeats_content_dpi() {
        let throttled = paper("content-dpi", "plain");
        let neutralized = paper("content-dpi", "neutralized");
        assert_eq!(neutralized.policy_drops, 0, "DPI has nothing to match");
        assert!(
            neutralized.goodput_bps() > throttled.goodput_bps() * 2.0,
            "goodput recovers: neutralized {} vs throttled {}",
            neutralized.goodput_bps(),
            throttled.goodput_bps()
        );
        assert!(neutralized.verified_return_blocks > 0);
    }

    #[test]
    fn flaky_isp_fails_over_and_recovers() {
        // §3.5: the partition kills the primary provider mid-run and the
        // multihomed source steers to the fallback neutralizer.
        let baseline = paper("none", "plain");
        let flaky = run(&cell(
            "flaky",
            "content-dpi",
            "neutralized",
            "partition-heal",
        ));
        assert!(counter(&flaky, "source.failovers") >= 1, "no failover");
        assert!(
            counter(&flaky, "neutralizer-b.data_forwarded") > 0,
            "traffic must flow through the fallback provider"
        );
        assert_eq!(flaky.policy_drops, 0, "DPI stays blind on the fallback");
        assert!(
            flaky.goodput_bps() >= baseline.goodput_bps() * 0.8,
            "failover must restore goodput: flaky {} vs baseline {}",
            flaky.goodput_bps(),
            baseline.goodput_bps()
        );
    }

    #[test]
    fn detect_scenario_catches_the_throttle_from_the_edge() {
        let report = run(&cell("detection", "content-dpi", "plain", "static"));
        let probe = report.probe.as_ref().expect("detection runs probes");
        assert!(probe.plain_tx >= 10 && probe.plain_tx == probe.neut_tx);
        assert!(
            probe.plain_delivery() < probe.neut_delivery() * 0.65,
            "the throttle must show in the differential pair: plain {} vs neut {}",
            probe.plain_delivery(),
            probe.neut_delivery()
        );
        assert!(paper("none", "plain").probe.is_none());
    }

    #[test]
    fn metro_dpi_collapses_the_population_and_the_neutralized_cohort_recovers() {
        let dpi_spec = cell("metro", "content-dpi", "plain", "static");
        let base = run(&CellSpec {
            adversary: AdversarySpec::None,
            ..dpi_spec.clone()
        });
        let neut = run(&CellSpec {
            stack: StackKind::Neutralized,
            ..dpi_spec.clone()
        });
        let dpi = run(&dpi_spec);

        let names: Vec<&str> = dpi.flows.iter().map(|f| f.flow.as_str()).collect();
        assert_eq!(names, ["voip", "pop0-voip", "pop1-neutral"]);
        let (voip_base, voip_dpi) = (goodput(&base, "pop0-voip"), goodput(&dpi, "pop0-voip"));
        assert!(voip_dpi < 0.5 * voip_base, "{voip_dpi} vs {voip_base}");
        let (neutral_base, neutral_dpi) = (
            goodput(&base, "pop1-neutral"),
            goodput(&dpi, "pop1-neutral"),
        );
        assert!(
            neutral_dpi > 0.9 * neutral_base,
            "{neutral_dpi} vs {neutral_base}"
        );

        // §3.2 at metro scale: the neutralized workload recovers from the
        // DPI that crushes the plain one.
        let workload_base = goodput(&base, "voip");
        let workload_dpi = goodput(&dpi, "voip");
        let workload_neut = goodput(&neut, "voip");
        assert!(workload_dpi < 0.5 * workload_base);
        assert!(
            workload_neut > 0.9 * workload_base,
            "the neutralized workload must recover: {workload_neut} vs {workload_base}"
        );
        assert!(counter(&dpi, "population.endpoints") >= 1_000);
    }
}
