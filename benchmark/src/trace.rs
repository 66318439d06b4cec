//! In-memory spans around the public pipeline calls, with self times.
//!
//! A disabled [`Tracer`] records nothing, so the untraced run measures
//! the pipeline alone; the traced run keeps every span in memory and
//! writes them out once, at exit.

use nn_lab::json::Json;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer or call name (`execute`, `parse`, `cell`, …).
    pub name: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The matrix the span worked on (empty for run-level spans).
    pub matrix: String,
    /// The cell index, for per-cell spans.
    pub cell: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records spans iff `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; `end` closes it. Returns `None` when disabled.
    pub fn begin(&mut self, name: &str, parent: Option<SpanId>, matrix: &str) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            matrix: matrix.to_string(),
            cell: None,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by `begin`.
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        matrix: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, matrix);
        let out = f();
        self.end(id);
        out
    }

    /// Tags a span with the cell index it ran.
    pub fn set_cell(&mut self, id: Option<SpanId>, cell: usize) {
        if let Some(id) = id {
            self.spans[id].cell = Some(cell);
        }
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.clamp(reach, s.end_ns), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Checks that every span lies inside its parent and that parents were
/// opened before their children.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let parent = spans
                .get(p)
                .filter(|_| p < i)
                .ok_or_else(|| format!("span {i} ({}) has bad parent {p}", s.name))?;
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) [{}, {}] escapes its parent {p} ({}) [{}, {}]",
                    s.name, s.start_ns, s.end_ns, parent.name, parent.start_ns, parent.end_ns
                ));
            }
        }
    }
    Ok(())
}

/// The share of the wall time of all spans named `name` that their
/// direct children cover.
pub fn coverage(spans: &[Span], name: &str) -> f64 {
    let (mut wall, mut own) = (0, 0);
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        if s.name == name {
            wall += s.dur_ns();
            own += self_ns;
        }
    }
    if wall == 0 {
        1.0
    } else {
        (wall - own) as f64 / wall as f64
    }
}

/// The spans and their self times as JSON.
pub fn to_json(spans: &[Span]) -> Json {
    let self_ns = self_times_ns(spans);
    Json::Arr(
        spans
            .iter()
            .zip(self_ns)
            .map(|(s, self_ns)| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.clone())),
                    ("start_ns", Json::UInt(s.start_ns)),
                    ("end_ns", Json::UInt(s.end_ns)),
                    ("self_ns", Json::UInt(self_ns)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                    ),
                    ("matrix", Json::Str(s.matrix.clone())),
                    ("cell", s.cell.map_or(Json::Null, |c| Json::UInt(c as u64))),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            matrix: String::new(),
            cell: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)), // overlaps a: union is 10..60
            span("a.1", 15, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 25, 30, 5]);
        assert!((coverage(&spans, "root") - 0.5).abs() < 1e-12);
        assert!((coverage(&spans, "a") - 5.0 / 30.0).abs() < 1e-12);
        assert_eq!(coverage(&spans, "absent"), 1.0);
    }

    #[test]
    fn nesting_violations_are_reported() {
        let ok = vec![span("root", 0, 10, None), span("kid", 2, 10, Some(0))];
        assert!(check_nesting(&ok).is_ok());
        let escapes = vec![span("root", 0, 10, None), span("kid", 2, 11, Some(0))];
        assert!(check_nesting(&escapes).is_err());
        let forward = vec![span("kid", 2, 3, Some(1)), span("root", 0, 10, None)];
        assert!(check_nesting(&forward).is_err());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", None, "m");
        assert_eq!(id, None);
        assert_eq!(t.time("y", id, "m", || 7), 7);
        t.end(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn recorded_spans_nest_and_have_nonnegative_self_time() {
        let mut t = Tracer::new(true);
        let root = t.begin("round", None, "");
        for m in ["a", "b"] {
            let mid = t.begin("matrix", root, m);
            t.time("plan", mid, m, || std::hint::black_box(1 + 1));
            let cell = t.begin("cell", mid, m);
            t.set_cell(cell, 3);
            t.end(cell);
            t.end(mid);
        }
        t.end(root);
        check_nesting(t.spans()).expect("nested");
        let self_ns = self_times_ns(t.spans());
        assert_eq!(self_ns.len(), t.spans().len());
        for (s, own) in t.spans().iter().zip(&self_ns) {
            assert!(*own <= s.dur_ns());
        }
        let json = to_json(t.spans()).render();
        assert!(json.contains("\"cell\":3"));
    }
}
