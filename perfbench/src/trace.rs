//! In-memory spans for the traced run.
//!
//! A span is a name, a start and end offset from the tracer's origin, and
//! the span that was open when it began. Spans stay in memory while the
//! workload runs and are written as JSON lines when the run ends, so the
//! file I/O never lands inside a measured interval.

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

/// Records nested wall-clock spans around calls into the workspace.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open span) and
    /// returns its duration in milliseconds.
    pub fn end(&mut self, id: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let end_us = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = end_us;
        (end_us - span.start_us) / 1e3
    }

    /// Runs `f` inside a span; returns its result and duration in ms.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let out = std::hint::black_box(f());
        let ms = self.end(id);
        (out, ms)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}}}",
                s.name, s.start_us, s.end_us
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}
