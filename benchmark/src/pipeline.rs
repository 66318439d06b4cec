//! One matrix through the public pipeline `nn-lab` runs: plan → execute
//! → merge → verify → finalize → render → write → read back → parse.
//! Every call is wrapped in a span, so a traced run can split the wall
//! time by layer.

use crate::trace::{SpanId, Tracer};
use crate::workloads::Executor;
use nn_lab::json::Json;
use nn_lab::{
    finalize_report, merge_shards, verify_merged_against_spec, CellExecutor, ExecutionPlan,
    ExperimentSpec, MatrixReport, ProcessExecutor, ThreadExecutor,
};
use std::path::Path;

/// The span names of one matrix's pipeline, in call order.
pub const STAGES: [&str; 9] = [
    "plan", "execute", "merge", "verify", "finalize", "render", "write", "read", "parse",
];

/// A finished matrix: the report and the certified JSON it wrote.
#[derive(Debug)]
pub struct Finished {
    /// The finalized report.
    pub report: MatrixReport,
    /// The JSON text read back from disk.
    pub json: String,
    /// `json`, parsed.
    pub parsed: Json,
}

/// Runs `spec` through the pipeline on `executor`, writing its reports
/// into `dir`. `program` is the worker binary for process executors.
pub fn run_matrix(
    spec: &ExperimentSpec,
    executor: Executor,
    program: &Path,
    dir: &Path,
    tr: &mut Tracer,
    parent: Option<SpanId>,
) -> Result<Finished, String> {
    let name = spec.name.as_str();
    let matrix = tr.begin("matrix", parent, name);
    let result = stages(spec, executor, program, dir, tr, matrix);
    tr.end(matrix);
    result
}

fn stages(
    spec: &ExperimentSpec,
    executor: Executor,
    program: &Path,
    dir: &Path,
    tr: &mut Tracer,
    m: Option<SpanId>,
) -> Result<Finished, String> {
    let name = spec.name.as_str();
    let plan = tr.time("plan", m, name, || {
        ExecutionPlan::new(spec, executor.shards())
    });
    let shard_reports = tr.time("execute", m, name, || match executor {
        Executor::Threads(threads) => ThreadExecutor::new(threads).execute(&plan),
        Executor::Processes { threads, .. } => {
            let mut ex = ProcessExecutor::new(program.to_path_buf(), name);
            ex.threads = Some(threads);
            ex.execute(&plan)
        }
    })?;
    let merged = tr
        .time("merge", m, name, || merge_shards(shard_reports))
        .map_err(|e| format!("merge: {e}"))?;
    tr.time("verify", m, name, || {
        verify_merged_against_spec(&merged, spec)
    })?;
    let report = tr.time("finalize", m, name, || finalize_report(merged, spec));
    let (json, csv) = tr.time("render", m, name, || (report.to_json(), report.to_csv()));
    let json_path = dir.join(format!("{name}.json"));
    let csv_path = dir.join(format!("{name}.csv"));
    tr.time("write", m, name, || {
        std::fs::write(&json_path, &json)?;
        std::fs::write(&csv_path, &csv)
    })
    .map_err(|e| format!("writing {}: {e}", json_path.display()))?;
    let json = tr
        .time("read", m, name, || std::fs::read_to_string(&json_path))
        .map_err(|e| format!("reading {}: {e}", json_path.display()))?;
    let parsed = tr
        .time("parse", m, name, || Json::parse(&json))
        .map_err(|e| format!("{} is not valid JSON: {e}", json_path.display()))?;
    Ok(Finished {
        report,
        json,
        parsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{check_nesting, coverage, self_times_ns};
    use nn_lab::{
        AdversarySpec, CellTuning, EventTimelineSpec, LinkProfileSpec, StackKind, TopologySpec,
        WorkloadSpec,
    };
    use std::path::PathBuf;
    use std::time::Duration;

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec {
            name: "tiny-pipeline".to_string(),
            topologies: vec![TopologySpec::chain()],
            links: vec![LinkProfileSpec::Clean],
            workloads: vec![WorkloadSpec::voip_default()],
            adversaries: vec![AdversarySpec::None, AdversarySpec::content_dpi_default()],
            stacks: vec![StackKind::Plain, StackKind::Neutralized],
            events: vec![EventTimelineSpec::Static],
            seeds: vec![1],
            probes: false,
            tuning: CellTuning {
                duration: Duration::from_millis(200),
                ..CellTuning::fast()
            },
        }
    }

    fn scratch(test: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".scratch")
            .join(format!("test-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn traced_pipeline_spans_nest_and_cover_the_matrix() {
        let dir = scratch("traced");
        let spec = tiny_spec();
        let mut tr = Tracer::new(true);
        let root = tr.begin("round", None, "");
        for _ in 0..2 {
            let done = run_matrix(
                &spec,
                Executor::Threads(2),
                Path::new("unused"),
                &dir,
                &mut tr,
                root,
            )
            .expect("pipeline runs");
            assert_eq!(done.report.cells.len(), spec.cell_count());
        }
        tr.end(root);
        std::fs::remove_dir_all(&dir).expect("cleanup");

        let spans = tr.spans();
        check_nesting(spans).expect("every span lies inside its parent");
        let self_ns = self_times_ns(spans);
        assert!(spans
            .iter()
            .zip(&self_ns)
            .all(|(s, &own)| own <= s.dur_ns()));
        // One matrix span per run, its children the stages in call order.
        let matrices: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].name == "matrix")
            .collect();
        assert_eq!(matrices.len(), 2);
        for &m in &matrices {
            let stages: Vec<&str> = spans
                .iter()
                .filter(|s| s.parent == Some(m))
                .map(|s| s.name.as_str())
                .collect();
            assert_eq!(stages, STAGES);
        }
        assert!(
            coverage(spans, "matrix") >= 0.95,
            "{}",
            coverage(spans, "matrix")
        );
    }

    #[test]
    fn untraced_pipeline_records_nothing() {
        let dir = scratch("untraced");
        let mut tr = Tracer::new(false);
        let done = run_matrix(
            &tiny_spec(),
            Executor::Threads(1),
            Path::new("unused"),
            &dir,
            &mut tr,
            None,
        )
        .expect("pipeline runs");
        std::fs::remove_dir_all(&dir).expect("cleanup");
        assert!(tr.spans().is_empty());
        assert_eq!(done.parsed.render(), done.json);
    }

    #[test]
    fn a_failing_executor_is_an_error_not_a_panic() {
        let dir = scratch("failing");
        let mut tr = Tracer::new(true);
        let missing = Path::new("no-such-nn-benchmark-worker");
        let result = run_matrix(
            &tiny_spec(),
            Executor::Processes {
                workers: 2,
                threads: 1,
            },
            missing,
            &dir,
            &mut tr,
            None,
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
        assert!(result.is_err());
        check_nesting(tr.spans()).expect("spans still close");
    }
}
