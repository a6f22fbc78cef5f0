//! In-memory span recorder: every span has a name, a start and end
//! (nanoseconds since the recorder's epoch), the span open when it began
//! as its parent, and the request it serves, if any. Spans are written
//! out only when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    request: Option<u64>,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: Option<u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: None,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Tags the spans begun from now on with request `id` (`None` ends
    /// the tagging).
    pub fn set_request(&mut self, id: Option<u64>) {
        self.request = id;
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Duration of span `id` in seconds.
    pub fn secs(&self, id: usize) -> f64 {
        (self.spans[id].end - self.spans[id].start) as f64 * 1e-9
    }

    /// Self time per span name, in seconds, over spans `from..` (all of
    /// them closed): each span's duration minus its direct children's.
    pub fn self_times(&self, from: usize) -> BTreeMap<&'static str, f64> {
        assert!(
            self.open.iter().all(|&o| o < from),
            "self times need closed spans"
        );
        let spans = &self.spans[from..];
        let mut child = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p >= from) {
                child[p - from] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start - c) as f64 * 1e-9;
        }
        out
    }

    /// Spans recorded so far (a mark for [`self_times`](Self::self_times)).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total duration of the top-level spans (the traced wall time) and
    /// the part of it no layer span covers: the self time of top-level
    /// container spans, whose names start with `trace.` or `serve.`.
    pub fn wall_and_remainder(&self) -> (f64, f64) {
        let selfs = self.self_times(0);
        let wall: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end - s.start)
            .sum();
        let remainder = selfs
            .iter()
            .filter(|(name, _)| name.starts_with("trace.") || name.starts_with("serve."))
            .map(|(_, v)| v)
            .sum();
        (wall as f64 * 1e-9, remainder)
    }

    /// The spans as JSON lines:
    /// `{"id","name","start_ns","end_ns","parent","request"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{request}}}",
                s.name, s.start, s.end
            );
        }
        out
    }
}
