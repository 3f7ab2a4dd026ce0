//! In-memory span recorder for the traced pass.
//!
//! The harness wraps every call into a layer in a span
//! `{name, start_ns, end_ns, parent, workload, op_id}`; spans stay in
//! memory until the run ends and are then written as JSON lines. A
//! layer's *self time* is its span minus the part its children cover.
//! The harness is single-threaded at the span level (worker threads
//! live inside a layer call), so children of one span never overlap.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `parent` indexes into the recorder's span list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Spans of one operation (one epoch, one detection call) share it.
    pub op_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to
/// [`Tracer::end`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    /// Starts a new operation: spans begun from now on carry a fresh
    /// `op_id`.
    pub fn next_op(&mut self) {
        self.op_id += 1;
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let now = self.origin.elapsed().as_nanos() as u64;
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id` and returns its duration in seconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let now = self.origin.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close in LIFO order");
        let span = &mut self.spans[id.0];
        span.end_ns = now;
        span.dur_ns() as f64 * 1e-9
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let out = f();
        (out, self.end(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span named `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-3)
            .collect()
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"workload\":\"{}\",\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, workload, s.op_id
            )?;
        }
        out.flush()
    }
}

/// Self time (ns) of every span: its duration minus the durations of
/// its direct children.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // epoch [0,100] ⊃ apply [10,40] ⊃ patch [15,25]; epoch ⊃ wal [50,90].
        let spans = vec![
            span("epoch", 0, 100, None),
            span("apply", 10, 40, Some(0)),
            span("patch", 15, 25, Some(1)),
            span("wal", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        // Self times of a tree add back up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_tags_ops() {
        let mut t = Tracer::new();
        t.next_op();
        let outer = t.begin("outer");
        let (v, _) = t.time("inner", || 7);
        assert_eq!(v, 7);
        t.end(outer);
        t.next_op();
        t.time("solo", || ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert_eq!((s[0].op_id, s[1].op_id, s[2].op_id), (1, 1, 2));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.durations_us("inner").len(), 1);
    }
}
