//! In-memory span tracing from outside the program.
//!
//! The benchmark wraps each call into a layer's public API in a span
//! (name, start, end, parent). Spans stay in memory while a pass runs;
//! self times are computed afterwards, and the whole trace is written
//! out once the run ends. A disabled tracer records nothing, so the
//! same replay code gives the untraced baseline for the overhead figure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `engine.opt-lsq`.
    pub name: String,
    /// Start, in nanoseconds since the origin.
    pub start: u64,
    /// End, in nanoseconds since the origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// A span recorder for one traced pass.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; when `enabled` is false every call is a no-op.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            name: name.to_owned(),
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        if let Some(i) = self.open.pop() {
            self.spans[i].end = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// The recorded spans, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children may overlap each other;
/// their union is subtracted once).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per span name, in milliseconds.
#[must_use]
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name.clone()).or_insert(0.0) += ns as f64 / 1e6;
    }
    out
}

/// Appends `spans` as JSON lines tagged with `pass` to `out`.
pub fn write_jsonl(out: &mut String, pass: usize, spans: &[Span]) {
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"pass\":{pass},\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            nachos::json::escape(&s.name),
            s.start,
            s.end,
        );
    }
}

/// Writes the recorded spans; a failure only costs the span file.
pub fn write_file(path: &Path, spans: &str) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, spans) {
        eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_but_not_grandchildren() {
        let spans = [
            span("pass", 0, 100, None),
            span("job", 10, 60, Some(0)),
            span("engine", 20, 50, Some(1)),
            span("report", 70, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
        let by_name = self_ms_by_name(&spans);
        let total: f64 = by_name.values().sum();
        assert!(
            (total - 100.0 / 1e6).abs() < 1e-12,
            "self times sum to the root"
        );
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        // Children cover [10, 70) and [90, 100) of the root.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true);
        t.span("outer", || ());
        t.enter("a");
        t.enter("b");
        t.exit();
        t.exit();
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[2].parent, Some(1));
        assert!(t.spans()[1].end >= t.spans()[2].end);
    }
}
