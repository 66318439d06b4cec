//! The metric tables this benchmark emits, and the root `BENCHMARK.json`
//! that records them with their bounds.

use nn_lab::json::Json;

/// Seconds one run measures when `--seconds` is not given; the same
/// value as `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 10;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("cells_per_s", "1/s"),
    ("cpu_ms_per_cell", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units, in emission order.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("plan.ns_per_cell", "ns"),
    ("executor.execute_s", "s"),
    ("executor.parallel_efficiency", "ratio"),
    ("cell.p50_ms", "ms"),
    ("cell.p99_ms", "ms"),
    ("cell.plain_mean_ms", "ms"),
    ("cell.neutralized_mean_ms", "ms"),
    ("netsim.events_per_cell", "count"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.pool_allocs_per_cell", "count"),
    ("netsim.pool_recycled_per_cell", "count"),
    ("population.endpoints_per_cell", "count"),
    ("population.wire_frames_per_cell", "count"),
    ("population.ns_per_wire_frame", "ns"),
    ("crypto.keygen_ms", "ms"),
    ("crypto.keygens_per_cell", "count"),
    ("crypto.keygen_share", "ratio"),
    ("neutralizer.frames_per_cell", "count"),
    ("shard.wire_bytes", "bytes"),
    ("shard.render_s", "s"),
    ("shard.parse_s", "s"),
    ("shard.merge_s", "s"),
    ("finalize.s", "s"),
    ("report.json_bytes", "bytes"),
    ("report.render_s", "s"),
    ("report.parse_s", "s"),
    ("report.parse_mb_per_s", "MiB/s"),
    ("report.tail_s", "s"),
    ("trace.overhead", "ratio"),
];

/// One end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Reads the end-to-end bounds out of a `BENCHMARK.json` text.
pub fn bounds(text: &str) -> Result<Vec<Bound>, String> {
    let root = Json::parse(text)?;
    root.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end array")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("end_to_end entry without a name")?;
            let lower_is_better = match m.get("better").and_then(Json::as_str) {
                Some("lower") => true,
                Some("higher") => false,
                other => {
                    return Err(format!(
                        "{name}: better must be lower or higher, got {other:?}"
                    ))
                }
            };
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .filter(|b| (0.0..=1.0).contains(b))
                .ok_or_else(|| format!("{name}: bound missing or outside 0..=1"))?;
            Ok(Bound {
                name: name.to_string(),
                lower_is_better,
                bound,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("valid JSON")
    }

    fn table(root: &Json, key: &str) -> Vec<(String, String)> {
        root.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    /// `BENCHMARK.json` lists exactly what the binary emits.
    #[test]
    fn benchmark_json_matches_the_emitted_tables() {
        let root = benchmark_json();
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(table(&root, "end_to_end"), own(&END_TO_END));
        assert_eq!(table(&root, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = root
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            root.get("run_seconds").and_then(Json::as_u64),
            Some(DEFAULT_SECONDS)
        );
    }

    #[test]
    fn bounds_parse_and_setup_has_the_largest() {
        let text = benchmark_json().render();
        let bounds = bounds(&text).expect("bounds");
        assert_eq!(bounds.len(), END_TO_END.len());
        let setup = bounds
            .iter()
            .find(|b| b.name == "setup_s")
            .expect("setup_s");
        assert!(setup.lower_is_better);
        assert!(bounds
            .iter()
            .all(|b| b.bound <= setup.bound && b.bound <= 0.25));
    }

    #[test]
    fn malformed_bounds_are_rejected() {
        for bad in [
            "{}",
            r#"{"end_to_end": [{"name": "x", "better": "up", "bound": 0.1}]}"#,
            r#"{"end_to_end": [{"name": "x", "better": "lower", "bound": 2.0}]}"#,
            r#"{"end_to_end": [{"better": "lower", "bound": 0.1}]}"#,
        ] {
            assert!(bounds(bad).is_err(), "{bad}");
        }
    }
}
