//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), start and end relative to the
//! tracer's epoch, the id of the span that caused it (0 for a root), and
//! the request it belongs to. Spans stay in memory until the run ends and
//! are then written out as one JSON object per line. The engine itself
//! records nothing: every span here wraps a call into a layer's public
//! function from the outside.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id, for a span whose children are recorded before it
    /// ends (see [`Tracer::record`]).
    pub fn reserve_id(&self) -> u64 {
        // Relaxed: the id is only a unique label.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a span that ran from `start` to `end` under id `id`.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        request: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(span);
    }

    /// Run `f` inside a span; `f` receives the span's id to parent its
    /// own children.
    pub fn span<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.reserve_id();
        let start = Instant::now();
        let out = f(id);
        self.record(id, name, request, parent, start, Instant::now());
        out
    }

    /// Durations in microseconds of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_us)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .len()
    }

    /// Write every span as JSON lines to `path`, after a first line
    /// holding `header` (a JSON object describing the run).
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let spans = self
            .spans
            .lock()
            .expect("no thread panics while holding the span list");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_the_request() {
        let t = Tracer::new();
        let inner_parent = t.span("outer", 7, 0, |outer| {
            t.span("inner", 7, outer, |_| ());
            outer
        });
        let spans = t.spans.lock().unwrap().clone();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, inner_parent);
        assert_eq!(outer.id, inner_parent);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        assert!(spans.iter().all(|s| s.request == 7));
        assert_eq!(t.durations_us("inner").len(), 1);
    }
}
