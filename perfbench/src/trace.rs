//! In-memory spans around the benchmark's calls into the workspace crates.
//!
//! A span records a name (`<crate>.<call>`), its start and end relative to
//! the tracer's creation, the span that encloses it, and the query it
//! served. Nothing is written until the run ends; then the spans go out as
//! JSON lines and each crate's *self time* — span time not covered by a
//! child span — is summed.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::measure::json_str;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub query: u64,
}

/// Records spans when enabled; a disabled tracer only runs the closure, so
/// untraced runs pay one branch per call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    query: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            query: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag the spans that follow with query id `q`.
    pub fn set_query(&mut self, q: u64) {
        self.query = q;
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            query: self.query,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another thread's spans; parent links are re-based.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other.origin.duration_since(self.origin).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"query\": {}}}",
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.query
            )?;
        }
        out.flush()
    }
}

/// Self time in seconds per crate (the span-name prefix before the first
/// `.`): each span's duration minus the time its direct children cover.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(layer).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            query: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("core.execute", 0, 100, None),
            span("net.to_wire", 10, 30, Some(0)),
            span("net.from_wire", 40, 50, Some(0)),
        ];
        let st = self_time_by_layer(&spans);
        assert!((st["core"] - 70e-9).abs() < 1e-15);
        assert!((st["net"] - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut t = Tracer::new(true);
        t.set_query(7);
        t.span("a.outer", |t| t.span("b.inner", |_| ()));
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].parent, None);
        assert!(s.iter().all(|s| s.query == 7 && s.end_ns >= s.start_ns));
        let mut off = Tracer::new(false);
        assert_eq!(off.span("a.x", |_| 3), 3);
        assert!(off.spans().is_empty());
    }
}
