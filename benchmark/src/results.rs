//! Result files: many runs' result lines with the machine they ran on
//! (`record`), and the parent-versus-change judgement over two of them
//! (`compare`).
//!
//! A result file is
//! `{"machine": {...}, "runs": [{"set", "workload", "seed", "trace", "result"}]}`,
//! where `result` is the last line a run printed.

use crate::config::Bound;
use crate::stats::{median, quartiles};
use crate::workloads::WORKLOADS;
use nn_lab::json::Json;
use std::process::{Command, Stdio};

/// One recorded run.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// The set the run belongs to (e.g. `seed1-a`).
    pub set: String,
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether the run was traced.
    pub trace: bool,
    /// The run's result object.
    pub result: Json,
}

impl Run {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("set", Json::Str(self.set.clone())),
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::UInt(self.seed)),
            ("trace", Json::UInt(u64::from(self.trace))),
            ("result", self.result.clone()),
        ])
    }

    fn from_json(v: &Json) -> Result<Run, String> {
        let s = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("run field {k:?} missing"))
        };
        let u = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("run field {k:?} missing"))
        };
        let result = v
            .get("result")
            .cloned()
            .ok_or("run field \"result\" missing")?;
        check_result(&result)?;
        Ok(Run {
            set: s("set")?,
            workload: s("workload")?,
            seed: u("seed")?,
            trace: u("trace")? == 1,
            result,
        })
    }

    /// Whether the run reported its outputs correct.
    pub fn correct(&self) -> bool {
        self.result.get("correct").and_then(Json::as_bool) == Some(true)
    }

    /// `(attempted, failed)` cells of the run.
    pub fn cells(&self) -> (u64, u64) {
        let count = |k: &str| self.result.get(k).and_then(Json::as_u64).unwrap_or(0);
        (count("attempted"), count("failed"))
    }

    /// A metric's value in this run's result.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }
}

/// A whole result file.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFile {
    /// Where the runs ran.
    pub machine: Json,
    /// Every run, in recording order.
    pub runs: Vec<Run>,
}

impl ResultFile {
    /// Parses a result file.
    pub fn parse(text: &str) -> Result<ResultFile, String> {
        let root = Json::parse(text)?;
        Ok(ResultFile {
            machine: root.get("machine").cloned().unwrap_or(Json::Null),
            runs: root
                .get("runs")
                .and_then(Json::as_arr)
                .ok_or("result file has no runs array")?
                .iter()
                .map(Run::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Renders the file, one run per line.
    pub fn render(&self) -> String {
        let runs: Vec<String> = self.runs.iter().map(|r| r.to_json().render()).collect();
        format!(
            "{{\"machine\":{},\"runs\":[\n{}\n]}}\n",
            self.machine.render(),
            runs.join(",\n")
        )
    }
}

/// The machine a result file's runs ran on.
pub fn machine() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let output = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    Json::obj(vec![
        ("nproc", Json::UInt(crate::procfs::nproc() as u64)),
        ("cpu", Json::Str(cpu)),
        ("rustc", Json::Str(output("rustc", &["-V"]))),
        ("commit", Json::Str(output("git", &["rev-parse", "HEAD"]))),
    ])
}

/// Checks a run's last stdout line is a well-formed result object.
pub fn parse_result_line(line: &str) -> Result<Json, String> {
    let v = Json::parse(line)?;
    check_result(&v)?;
    Ok(v)
}

/// A result object has exactly the contract's keys: a boolean `correct`,
/// whole `attempted` (at least 1) and `failed` counts, and `metrics`.
fn check_result(v: &Json) -> Result<(), String> {
    let keys: Vec<&str> = match v {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        _ => return Err("result is not an object".to_string()),
    };
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys {keys:?}"));
    }
    let count = |k: &str| v.get(k).and_then(Json::as_u64);
    if v.get("correct").and_then(Json::as_bool).is_none()
        || count("attempted").is_none_or(|a| a == 0)
        || count("failed").is_none()
    {
        return Err(
            "result needs a boolean correct and whole attempted ≥ 1 and failed".to_string(),
        );
    }
    Ok(())
}

/// How one metric moved between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins ≥ 9/10 of the pairs by more than the parent's spread.
    Improved,
    /// Within the bound, and the parent's spread resolves it.
    Unchanged,
    /// The change's median is worse than the parent's by more than the bound.
    Regressed,
    /// The parent's own spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared metric on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Base median.
    pub base_median: f64,
    /// Base first and third quartiles.
    pub base_q: (f64, f64),
    /// New median.
    pub new_median: f64,
    /// New first and third quartiles.
    pub new_q: (f64, f64),
    /// Pairs (i-th base run, i-th new run) the new run won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The judgement.
    pub verdict: Verdict,
}

/// Judges `new` against `base` for one metric: the pair, median and
/// spread rule of the choosing-metrics guide, section 8, with the bound
/// `BENCHMARK.json` fixes.
pub fn judge(base: &[f64], new: &[f64], rule: &Bound) -> Row {
    let better = |a: f64, b: f64| if rule.lower_is_better { a < b } else { a > b };
    let (mb, mn) = (median(base), median(new));
    let (base_q, new_q) = (quartiles(base), quartiles(new));
    let pairs = base.len().min(new.len());
    let wins = (0..pairs).filter(|&i| better(new[i], base[i])).count();
    let worse_by = if rule.lower_is_better {
        mn - mb
    } else {
        mb - mn
    } / mb.abs();
    let spread = (base_q.1 - base_q.0) / mb.abs();
    let dominates = new.iter().all(|&n| base.iter().all(|&b| better(n, b)));
    let verdict = if worse_by > rule.bound {
        Verdict::Regressed
    } else if spread > rule.bound && !dominates {
        Verdict::Unresolved
    } else if better(mn, mb) && wins * 10 >= pairs * 9 && (mn - mb).abs() > base_q.1 - base_q.0 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Row {
        base_median: mb,
        base_q,
        new_median: mn,
        new_q,
        wins,
        pairs,
        verdict,
    }
}

/// Judges the failed cells of `new` against `base`: the new runs regress
/// when any of them is not `correct`, or when they fail a larger share of
/// their cells than the base runs, however fast they ran. Also returns
/// the `failed/attempted` text of each side.
pub fn judge_failures(base: &[Run], new: &[Run]) -> (Verdict, [String; 2]) {
    let totals = |runs: &[Run]| {
        runs.iter().fold((0, 0), |(a, f), r| {
            let (ra, rf) = r.cells();
            (a + ra, f + rf)
        })
    };
    let ((base_attempted, base_failed), (new_attempted, new_failed)) = (totals(base), totals(new));
    let incorrect = new.iter().filter(|r| !r.correct()).count();
    // Cross-multiplied shares: new_failed/new_attempted vs base_failed/base_attempted.
    let (new_share, base_share) = (
        u128::from(new_failed) * u128::from(base_attempted),
        u128::from(base_failed) * u128::from(new_attempted),
    );
    let verdict = if incorrect > 0 || new_share > base_share {
        Verdict::Regressed
    } else if new_share < base_share {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    let mut new_text = format!("{new_failed}/{new_attempted}");
    if incorrect > 0 {
        new_text.push_str(&format!(", {incorrect} incorrect"));
    }
    (
        verdict,
        [format!("{base_failed}/{base_attempted}"), new_text],
    )
}

/// Compares the untraced runs of two result files, workload by workload:
/// one row per end-to-end metric plus a `failed` row. Returns the
/// printable table and whether any row regressed.
pub fn compare(
    base: &ResultFile,
    base_set: Option<&str>,
    new: &ResultFile,
    new_set: Option<&str>,
    rules: &[Bound],
) -> Result<(String, bool), String> {
    let select = |file: &ResultFile, set: Option<&str>, workload: &str| -> Vec<Run> {
        file.runs
            .iter()
            .filter(|r| !r.trace && r.workload == workload && set.is_none_or(|s| r.set == s))
            .cloned()
            .collect()
    };
    let mut out = format!(
        "{:<17} {:<16} {:>28} {:>28} {:>8} {:>6}  verdict\n",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "change", "wins"
    );
    let mut regressed = false;
    let mut compared = 0;
    for w in WORKLOADS {
        let (b, n) = (
            select(base, base_set, w.name()),
            select(new, new_set, w.name()),
        );
        if b.is_empty() || n.is_empty() {
            continue;
        }
        for rule in rules {
            let values = |runs: &[Run]| -> Result<Vec<f64>, String> {
                runs.iter()
                    .map(|r| {
                        r.metric(&rule.name).ok_or_else(|| {
                            format!("{} run (seed {}) lacks {}", r.workload, r.seed, rule.name)
                        })
                    })
                    .collect()
            };
            let row = judge(&values(&b)?, &values(&n)?, rule);
            compared += 1;
            regressed |= row.verdict == Verdict::Regressed;
            let cell = |m: f64, q: (f64, f64)| format!("{m:.4} [{:.4}, {:.4}]", q.0, q.1);
            out.push_str(&format!(
                "{:<17} {:<16} {:>28} {:>28} {:>+7.2}% {:>6}  {}\n",
                w.name(),
                rule.name,
                cell(row.base_median, row.base_q),
                cell(row.new_median, row.new_q),
                (row.new_median / row.base_median - 1.0) * 100.0,
                format!("{}/{}", row.wins, row.pairs),
                row.verdict.name()
            ));
        }
        let (verdict, cells) = judge_failures(&b, &n);
        regressed |= verdict == Verdict::Regressed;
        out.push_str(&format!(
            "{:<17} {:<16} {:>28} {:>28} {:>8} {:>6}  {}\n",
            w.name(),
            "failed",
            cells[0],
            cells[1],
            "",
            "",
            verdict.name()
        ));
    }
    if compared == 0 {
        return Err("no workload has untraced runs in both files".to_string());
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(lower_is_better: bool, bound: f64) -> Bound {
        Bound {
            name: "m".to_string(),
            lower_is_better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_pair_median_and_spread_rule() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let higher = rule(false, 0.10);
        // Same distribution: unchanged.
        assert_eq!(judge(&base, &base, &higher).verdict, Verdict::Unchanged);
        // Every pair won by far more than the spread: improved.
        let faster: Vec<f64> = base.iter().map(|v| v * 1.05).collect();
        let row = judge(&base, &faster, &higher);
        assert_eq!(
            (row.verdict, row.wins, row.pairs),
            (Verdict::Improved, 10, 10)
        );
        // 5% worse is inside a 10% bound, 15% worse is not.
        let slower: Vec<f64> = base.iter().map(|v| v * 0.95).collect();
        assert_eq!(judge(&base, &slower, &higher).verdict, Verdict::Unchanged);
        let much_slower: Vec<f64> = base.iter().map(|v| v * 0.85).collect();
        assert_eq!(
            judge(&base, &much_slower, &higher).verdict,
            Verdict::Regressed
        );
        // Direction flips for lower-is-better metrics.
        assert_eq!(
            judge(&base, &much_slower, &rule(true, 0.10)).verdict,
            Verdict::Improved
        );
    }

    #[test]
    fn a_wide_parent_spread_leaves_the_metric_unresolved() {
        let base = [
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        let new = [
            101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0, 100.0,
        ];
        assert_eq!(
            judge(&base, &new, &rule(false, 0.10)).verdict,
            Verdict::Unresolved
        );
        // ...unless every new run beats every base run.
        let dominating: Vec<f64> = new.iter().map(|v| v + 100.0).collect();
        assert_eq!(
            judge(&base, &dominating, &rule(false, 0.10)).verdict,
            Verdict::Improved
        );
    }

    #[test]
    fn too_few_pair_wins_is_not_an_improvement() {
        let base = [100.0; 10];
        // Median much better, but only 8 of 10 pairs won.
        let new = [
            120.0, 120.0, 120.0, 120.0, 120.0, 120.0, 120.0, 120.0, 90.0, 90.0,
        ];
        let row = judge(&base, &new, &rule(false, 0.10));
        assert_eq!((row.wins, row.verdict), (8, Verdict::Unchanged));
    }

    /// Runs of `paper-keys` with metric `m` at `values`, each of 100 cells
    /// with `failed` of them failed.
    fn runs(set: &str, values: &[f64], failed: u64) -> ResultFile {
        let correct = failed == 0;
        ResultFile {
            machine: Json::Null,
            runs: values
                .iter()
                .enumerate()
                .map(|(i, &v)| Run {
                    set: set.to_string(),
                    workload: "paper-keys".to_string(),
                    seed: i as u64,
                    trace: false,
                    result: parse_result_line(&format!(
                        r#"{{"correct":{correct},"attempted":100,"failed":{failed},"metrics":{{"m":{{"value":{v:?},"unit":"1/s"}}}}}}"#
                    ))
                    .expect("well-formed"),
                })
                .collect(),
        }
    }

    fn file(set: &str, values: &[f64]) -> ResultFile {
        runs(set, values, 0)
    }

    #[test]
    fn compare_reads_result_files_and_flags_regressions() {
        let base = file("a", &[100.0, 101.0, 99.0, 100.0]);
        let same = file("b", &[100.5, 100.0, 99.5, 100.0]);
        let slow = file("b", &[80.0, 81.0, 79.0, 80.0]);
        let rules = [rule(false, 0.10)];
        let roundtrip = ResultFile::parse(&base.render()).expect("parses");
        assert_eq!(roundtrip, base);

        let (table, regressed) = compare(&base, Some("a"), &same, None, &rules).expect("rows");
        assert!(!regressed);
        assert!(
            table.contains("paper-keys") && table.contains("unchanged"),
            "{table}"
        );
        let (table, regressed) = compare(&base, None, &slow, Some("b"), &rules).expect("rows");
        assert!(regressed && table.contains("regressed"), "{table}");
        // A set filter that selects nothing is an error, not an empty pass.
        assert!(compare(&base, Some("zzz"), &same, None, &rules).is_err());
    }

    #[test]
    fn failed_cells_regress_however_fast_the_new_runs_are() {
        let base = file("a", &[100.0, 101.0, 99.0, 100.0]);
        let rules = [rule(false, 0.10)];
        // Twice as fast, but every run failed cells and is not correct.
        let broken = runs("b", &[200.0, 201.0, 199.0, 200.0], 3);
        let (table, regressed) = compare(&base, None, &broken, None, &rules).expect("rows");
        assert!(regressed, "{table}");
        let failed_row = table
            .lines()
            .find(|l| l.contains(" failed "))
            .expect("a failed row");
        assert!(
            failed_row.contains("0/400")
                && failed_row.contains("12/400, 4 incorrect")
                && failed_row.ends_with("regressed"),
            "{failed_row}"
        );
        // The speed row alone would have read improved.
        assert!(table.contains("improved"), "{table}");

        // No new failures: the failed row is unchanged.
        let (table, regressed) = compare(&base, None, &base, None, &rules).expect("rows");
        assert!(!regressed, "{table}");

        // Fewer failures than a failing base is an improvement, but any
        // run that is not correct still regresses.
        let (base_failing, fewer) = (runs("a", &[100.0; 4], 5), runs("b", &[100.0; 4], 1));
        assert_eq!(
            judge_failures(&base_failing.runs, &fewer.runs).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge_failures(&base_failing.runs, &file("b", &[100.0; 4]).runs).0,
            Verdict::Improved
        );
    }

    #[test]
    fn result_lines_must_have_exactly_the_contract_keys() {
        assert!(
            parse_result_line(r#"{"correct":true,"attempted":1,"failed":0,"metrics":{}}"#).is_ok()
        );
        assert!(parse_result_line(r#"{"correct":true,"attempted":1,"metrics":{}}"#).is_err());
        assert!(
            parse_result_line(r#"{"correct":1,"attempted":1,"failed":0,"metrics":{}}"#).is_err()
        );
        assert!(
            parse_result_line(r#"{"correct":true,"attempted":0,"failed":0,"metrics":{}}"#).is_err()
        );
        assert!(
            parse_result_line(r#"{"correct":true,"attempted":1,"failed":-1,"metrics":{}}"#)
                .is_err()
        );
        assert!(parse_result_line("[1]").is_err());
        assert!(parse_result_line("{\"correct\":").is_err());
    }
}
