//! In-memory spans for the traced run, written out when the run ends.
//!
//! Two record kinds: one request span per scheduled operation of the
//! traced measured phase (schedule index, scheduled / sent / answered
//! times), and layer spans from the replay, where every operation is a
//! root span with one child per call into a layer's public function. A
//! layer's self time is its span minus the time its children cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One layer span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or operation name.
    pub name: &'static str,
    /// Parent span id (index + 1), 0 for a root.
    pub parent: u32,
    /// Start, ns from the tracer's origin.
    pub start_ns: u64,
    /// End, ns from the tracer's origin.
    pub end_ns: u64,
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent` (0 for a root); returns its id.
    pub fn begin(&mut self, name: &'static str, parent: u32) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() as u32
    }

    /// Close span `id`.
    pub fn end(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Run `f` inside a span named `name` under `parent`.
    pub fn time<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, parent);
        let r = std::hint::black_box(f());
        self.end(id);
        r
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span in ns: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent > 0 {
                let p = s.parent as usize - 1;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Self times in ns of the spans named `name`.
    pub fn layer_self_ns(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64)
            .collect()
    }

    /// Median duration of an empty span: the tracer's own cost per span,
    /// subtracted from layer medians that are only tens of ns long.
    pub fn overhead_ns(&mut self) -> f64 {
        let mark = self.spans.len();
        for _ in 0..1000 {
            let id = self.begin("trace.empty", 0);
            self.end(id);
        }
        let d: Vec<f64> = self.spans[mark..]
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        self.spans.truncate(mark);
        crate::stats::median(&d)
    }
}

/// A request span of the traced measured phase.
#[derive(Debug, Clone, Copy)]
pub struct RequestSpan {
    /// Schedule index.
    pub index: usize,
    /// Scheduled send, ns from phase start.
    pub due_ns: u64,
    /// First send, ns from phase start (`u64::MAX` if never sent).
    pub sent_ns: u64,
    /// Last response byte, ns from phase start (`u64::MAX` if unanswered).
    pub done_ns: u64,
}

/// A time, or `null` for "never".
fn opt_ns(ns: u64) -> String {
    if ns == u64::MAX {
        "null".into()
    } else {
        ns.to_string()
    }
}

/// Write request spans and layer spans as JSON lines to `path`.
pub fn write_jsonl(path: &Path, requests: &[RequestSpan], tracer: &Tracer) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for r in requests {
        writeln!(
            w,
            "{{\"kind\":\"request\",\"id\":{},\"scheduled_ns\":{},\"sent_ns\":{},\"answered_ns\":{}}}",
            r.index,
            r.due_ns,
            opt_ns(r.sent_ns),
            opt_ns(r.done_ns),
        )?;
    }
    for (i, s) in tracer.spans().iter().enumerate() {
        writeln!(
            w,
            "{{\"kind\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            i + 1,
            s.parent,
            s.name,
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}
