//! The traced run's span recorder: one span per timed call into the
//! program, recorded by the benchmark around that call.
//!
//! A span carries its name, start and end (ns since the run started),
//! its parent span, the night / window / request id it belongs to, and
//! the counts observed at the same boundary. Spans stay in memory and
//! are written as JSON lines when the run ends. With tracing off the
//! recorder keeps nothing and reads no clock.

use serde::{Serialize, Value};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Counts attached to a span, written as one JSON object.
#[derive(Debug, Clone, Default)]
pub struct Attrs(Vec<(&'static str, f64)>);

impl Attrs {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(k, _)| *k == name).map(|&(_, v)| v)
    }
}

impl Serialize for Attrs {
    fn serialize_value(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|&(k, v)| (k.to_owned(), Value::F64(v)))
                .collect(),
        )
    }
}

/// One recorded span.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    /// Night, window or request id the span belongs to.
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Attrs,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; every method is a no-op otherwise.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &str, key: u64) {
        if !self.on {
            return;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_owned(),
            key,
            start_ns,
            end_ns: start_ns,
            attrs: Attrs::default(),
        });
        self.open.push(id);
    }

    /// Closes the innermost open span, attaching `attrs`.
    pub fn end(&mut self, attrs: &[(&'static str, f64)]) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(id) = self.open.pop() {
            let span = &mut self.spans[id];
            span.end_ns = end_ns;
            span.attrs.0.extend_from_slice(attrs);
        }
    }

    /// Closes every span still open (an operation failed midway).
    pub fn abort(&mut self) {
        while !self.open.is_empty() {
            self.end(&[]);
        }
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &str, key: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, key);
        let out = f();
        self.end(&[]);
        out
    }

    /// Adds a span measured elsewhere (a client thread's request),
    /// as a root.
    pub fn push_root(&mut self, name: &str, key: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            id: self.spans.len(),
            parent: None,
            name: name.to_owned(),
            key,
            start_ns: at(start),
            end_ns: at(end),
            attrs: Attrs::default(),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = serde_json::to_string(s).map_err(std::io::Error::other)?;
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Durations (ms) of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Values of attribute `attr` on every span named `name`.
pub fn attr_values(spans: &[Span], name: &str, attr: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .filter_map(|s| s.attrs.get(attr))
        .collect()
}

/// Share (%) of each span named `root` that no timed call under it
/// covers: the root's duration minus the summed durations of its leaf
/// descendants, over the root's duration. Leaves named `check.*` are
/// the benchmark's own checks and leave both sums. One value per root.
pub fn uncovered_pct(spans: &[Span], root: &str) -> Vec<f64> {
    coverage(spans, root)
        .into_iter()
        .filter(|&(total, _)| total > 0)
        .map(|(total, covered)| 100.0 * total.saturating_sub(covered) as f64 / total as f64)
        .collect()
}

/// `(duration, covered)` in ns for each span named `root`, with check
/// leaves taken out of both.
pub fn coverage(spans: &[Span], root: &str) -> Vec<(u64, u64)> {
    let mut has_child = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            has_child[p] = true;
        }
    }
    let mut covered = vec![0u64; spans.len()];
    let mut checks = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| !has_child[s.id]) {
        let sums = if s.name.starts_with("check.") {
            &mut checks
        } else {
            &mut covered
        };
        let mut up = s.parent;
        while let Some(p) = up {
            sums[p] += s.dur_ns();
            up = spans[p].parent;
        }
    }
    spans
        .iter()
        .filter(|s| s.name == root)
        .map(|s| (s.dur_ns().saturating_sub(checks[s.id]), covered[s.id]))
        .collect()
}
