//! Correctness checks behind `failed`: per-cell invariants of a
//! finalized report, and the certification of the JSON it wrote.

use nn_lab::json::Json;
use nn_lab::{MatrixCell, MatrixReport};

/// Why one cell fails its invariants, or `None` when it passes.
fn cell_failure(cell: &MatrixCell) -> Option<String> {
    let at = || format!("{} cell {}", cell.stack, cell.index);
    for f in &cell.report.flows {
        if f.rx_packets > f.tx_packets {
            return Some(format!(
                "{}: flow {} received {} > sent {}",
                at(),
                f.flow,
                f.rx_packets,
                f.tx_packets
            ));
        }
        if !f.goodput_bps.is_finite() || f.goodput_bps < 0.0 {
            return Some(format!(
                "{}: flow {} goodput {}",
                at(),
                f.flow,
                f.goodput_bps
            ));
        }
    }
    if cell.stack == "neutralized"
        && cell.report.replies > 0
        && cell.report.verified_return_blocks == 0
    {
        return Some(format!(
            "{}: {} replies but no verified return blocks",
            at(),
            cell.report.replies
        ));
    }
    None
}

/// The failing cells of a report, one message each.
pub fn cell_failures(report: &MatrixReport) -> Vec<String> {
    report.cells.iter().filter_map(cell_failure).collect()
}

/// Certifies a written report: the text read back must parse to the
/// report's cell count and re-render to exactly the same bytes.
pub fn check_written(report: &MatrixReport, text: &str, parsed: &Json) -> Result<(), String> {
    let cells = parsed
        .get("cells")
        .and_then(Json::as_arr)
        .map(<[Json]>::len)
        .ok_or("written report has no cells array")?;
    if cells != report.cells.len() {
        return Err(format!(
            "written report has {cells} cells, the run produced {}",
            report.cells.len()
        ));
    }
    if parsed.render() != text {
        return Err("written report does not re-render to the same bytes".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn_lab::{
        run_matrix_with_threads, AdversarySpec, CellTuning, EventTimelineSpec, ExperimentSpec,
        LinkProfileSpec, StackKind, TopologySpec, WorkloadSpec,
    };
    use std::time::Duration;

    /// Four short cells: plain and neutralized, with and without DPI.
    fn tiny_report(seed: u64) -> MatrixReport {
        let spec = ExperimentSpec {
            name: format!("tiny-s{seed}"),
            topologies: vec![TopologySpec::chain()],
            links: vec![LinkProfileSpec::Clean],
            workloads: vec![WorkloadSpec::voip_default()],
            adversaries: vec![AdversarySpec::None, AdversarySpec::content_dpi_default()],
            stacks: vec![StackKind::Plain, StackKind::Neutralized],
            events: vec![EventTimelineSpec::Static],
            seeds: vec![seed],
            probes: false,
            tuning: CellTuning {
                duration: Duration::from_millis(200),
                ..CellTuning::fast()
            },
        };
        run_matrix_with_threads(&spec, 2)
    }

    fn certify(report: &MatrixReport, text: &str) -> Result<(), String> {
        let parsed = Json::parse(text)?;
        check_written(report, text, &parsed)
    }

    #[test]
    fn a_seeded_report_passes_every_check() {
        let report = tiny_report(3);
        assert!(
            cell_failures(&report).is_empty(),
            "{:?}",
            cell_failures(&report)
        );
        let text = report.to_json();
        certify(&report, &text).expect("certifies");
        assert!(report
            .cells
            .iter()
            .any(|c| c.stack == "neutralized" && c.report.verified_return_blocks > 0));
    }

    #[test]
    fn doctored_cells_fail() {
        let report = tiny_report(3);

        let mut rx_above_tx = report.clone();
        let flow = &mut rx_above_tx.cells[0].report.flows[0];
        flow.rx_packets = flow.tx_packets + 1;
        assert_eq!(cell_failures(&rx_above_tx).len(), 1);

        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mut goodput = report.clone();
            goodput.cells[1].report.flows[0].goodput_bps = bad;
            assert_eq!(cell_failures(&goodput).len(), 1, "goodput {bad}");
        }

        let mut unverified = report.clone();
        let neut = unverified
            .cells
            .iter_mut()
            .find(|c| c.stack == "neutralized" && c.report.replies > 0)
            .expect("a neutralized cell with replies");
        neut.report.verified_return_blocks = 0;
        assert_eq!(cell_failures(&unverified).len(), 1);
    }

    #[test]
    fn doctored_json_fails_certification() {
        let report = tiny_report(3);
        let text = report.to_json();

        let truncated = &text[..text.len() - 1];
        assert!(certify(&report, truncated).is_err(), "truncated JSON");

        // Valid JSON, but a cell went missing on the way to disk.
        let mut short = report.clone();
        short.cells.pop();
        assert!(certify(&report, &short.to_json()).is_err(), "lost a cell");

        // Same value, different bytes: not what the writer renders.
        let spaced = text.replacen(':', ": ", 1);
        assert!(Json::parse(&spaced).is_ok());
        assert!(certify(&report, &spaced).is_err(), "non-canonical bytes");
    }
}
