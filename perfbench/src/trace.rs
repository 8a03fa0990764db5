//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, start and end (ns since the tracer started), the
//! span that caused it, and the request it belongs to. Spans are kept
//! in memory and written out once, when the run ends. With tracing off
//! a span still times its call (the end-to-end metrics need the
//! durations) but nothing is recorded.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

/// An open span; [`Span::end`] closes it and returns its duration.
pub struct Span<'t> {
    tracer: &'t Tracer,
    pub id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start: Instant,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span. `parent` 0 means a root; `request` groups the spans
    /// of one operation.
    pub fn span(&self, name: &'static str, parent: u64, request: u64) -> Span<'_> {
        let id = if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Span {
            tracer: self,
            id,
            parent,
            request,
            name,
            start: Instant::now(),
        }
    }

    /// Time `f` inside a span and return its result with the duration.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let span = self.span(name, parent, request);
        let out = f();
        (out, span.end())
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span buffer poisoned").len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
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

impl Span<'_> {
    pub fn end(self) -> Duration {
        let end = Instant::now();
        let took = end - self.start;
        if self.tracer.enabled {
            let at = |t: Instant| (t - self.tracer.epoch).as_nanos() as u64;
            let record = SpanRecord {
                id: self.id,
                parent: self.parent,
                request: self.request,
                name: self.name,
                start_ns: at(self.start),
                end_ns: at(end),
            };
            self.tracer
                .spans
                .lock()
                .expect("span buffer poisoned")
                .push(record);
        }
        took
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_write_out() {
        let t = Tracer::new(true);
        let outer = t.span("outer", 0, 7);
        let ((), inner) = t.time("inner", outer.id, 7, || {});
        let outer_took = outer.end();
        assert!(inner <= outer_took);
        assert_eq!(t.len(), 2);
        let dir = std::env::temp_dir().join(format!("perfbench-trace-{}", std::process::id()));
        t.write_to(&dir).unwrap();
        let text = std::fs::read_to_string(&dir).unwrap();
        std::fs::remove_file(&dir).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\": \"inner\", ") && text.contains("\"parent\": 1"));
    }

    #[test]
    fn an_untraced_span_only_times() {
        let t = Tracer::new(false);
        let ((), _) = t.time("x", 0, 0, || {});
        assert_eq!(t.len(), 0);
    }
}
