//! The benchmark's own spans, recorded around each layer call it makes.
//!
//! Spans live in memory while the run measures and are written out once,
//! when it ends. A span's self time is its duration minus the part of it
//! its children cover.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `scenario.run` or `probe.task.execute`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created (`None` while open).
    pub end_ns: Option<u64>,
}

impl Span {
    /// Duration in ns (0 while open).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.map_or(0, |end| end - self.start_ns)
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("runs last < 584 years")
    }

    /// Opens a span.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: None,
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = Some(end);
        span.duration_ns() as f64 * 1e-9
    }

    /// Runs `body` inside a span and returns its result and duration in
    /// seconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        body: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = body();
        let secs = self.close(id);
        (out, secs)
    }

    /// Every recorded span, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, seconds: duration minus the time covered
    /// by direct children (children of one span never overlap, since the
    /// recorder runs on one thread).
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(child_ns) {
            let own = span.duration_ns().saturating_sub(covered);
            *out.entry(span.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The spans plus the per-name self-time summary, as JSON.
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                json!({
                    "id": id,
                    "name": s.name,
                    "parent": s.parent,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                })
            })
            .collect();
        let self_time: BTreeMap<String, Value> = self
            .self_time_by_name()
            .into_iter()
            .map(|(name, secs)| (name.to_owned(), json!(secs)))
            .collect();
        json!({ "spans": spans, "self_time_s": self_time })
    }
}
