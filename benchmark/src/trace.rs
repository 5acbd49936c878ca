//! In-memory spans around the benchmark's calls into the library.
//!
//! The benchmark measures every layer from outside: a span is opened and
//! closed in the benchmark's own files, around a public call. Spans stay
//! in memory while the workload runs and are written as JSON lines when
//! it ends. With tracing off every method is a no-op, so the untraced
//! pass pays nothing and the difference between the two passes is the
//! tracing overhead.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span; what a child names as its parent.
pub type SpanId = u32;

struct Span {
    name: &'static str,
    op: u64,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span that will have children (a round, a pipeline pass);
    /// close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            op,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        Some((self.spans.len() - 1) as SpanId)
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = self.ns(Instant::now());
        }
    }

    /// Records a finished leaf span from timestamps the caller already
    /// took for its latency sample.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
    ) {
        if !self.enabled {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            op,
            start_ns,
            end_ns,
            parent,
        });
    }

    /// Durations, in microseconds, of every span called `name`, in
    /// recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let round = t.open("round", 0, None);
        assert!(round.is_none());
        let now = Instant::now();
        t.record("call", 0, now, now, round);
        t.close(round);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn spans_nest_and_filter_by_name() {
        let mut t = Tracer::new(true);
        let round = t.open("round", 3, None);
        let a = Instant::now();
        let b = Instant::now();
        t.record("call", 0, a, b, round);
        t.record("other", 1, a, b, round);
        t.close(round);
        assert_eq!(t.len(), 3);
        assert_eq!(t.durations_us("call").len(), 1);
        assert_eq!(t.durations_us("round").len(), 1);
        let dir = crate::host::Scratch::new("trace-test");
        let path = dir.path().join("t.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(1).unwrap().contains("\"parent\": 0"));
    }
}
