//! In-memory span recording for the traced run.
//!
//! A span is opened by the benchmark's own code around a call into one
//! layer's public function: name, start, end, the request it belongs to,
//! and the span that caused it. Spans stay in memory and are written out
//! once, when the run ends. A layer's *self time* is its span's duration
//! minus the part covered by its child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the root span of one request.
pub const REQUEST: &str = "request";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Id of the request the span belongs to.
    pub req: u64,
    /// Index of this span in its tracer.
    pub id: usize,
    /// The enclosing span, `None` for a request root.
    pub parent: Option<usize>,
    /// Layer name, e.g. `replay`.
    pub name: &'static str,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans for one thread of the traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    req: u64,
    enabled: bool,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (share one epoch
    /// between the tracers of one run so their spans line up).
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
            enabled: true,
        }
    }

    /// A tracer that records nothing: the same code path, untraced, for
    /// measuring what tracing costs.
    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::new(Instant::now())
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as request `req`: a root span named [`REQUEST`] that
    /// every span opened inside `f` descends from.
    pub fn request<T>(&mut self, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        assert!(self.stack.is_empty(), "requests do not nest");
        self.req = req;
        self.span(REQUEST, f)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span_as(|t| (f(t), name))
    }

    /// Runs `f` inside a span whose name `f` chooses once it knows what
    /// the call did (a cache lookup that turned out to be an inference).
    pub fn span_as<T>(&mut self, f: impl FnOnce(&mut Tracer) -> (T, &'static str)) -> T {
        if !self.enabled {
            return f(self).0;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            req: self.req,
            id,
            parent: self.stack.last().copied(),
            name: "",
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        let (value, name) = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.name = name;
        span.end_ns = end_ns;
        value
    }

    /// Per-layer totals over every recorded span.
    pub fn layers(&self) -> Layers {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.dur_ns();
            }
        }
        let mut layers = Layers::default();
        for span in &self.spans {
            let layer = layers.by_name.entry(span.name).or_default();
            layer.calls += 1;
            layer.total_ns += span.dur_ns();
            layer.self_ns += span.dur_ns().saturating_sub(child_ns[span.id]);
        }
        layers
    }

    /// The spans as JSON lines, one per span, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"req\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.req, span.id, parent, span.name, span.start_ns, span.end_ns
            );
        }
        out
    }
}

/// Time totals of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    /// Spans recorded.
    pub calls: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

/// Per-layer totals of one traced run.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    by_name: BTreeMap<&'static str, Layer>,
}

impl Layers {
    /// Totals of layer `name` (zero when it never ran).
    pub fn get(&self, name: &str) -> Layer {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Summed wall time of every request root, in ns.
    pub fn request_ns(&self) -> u64 {
        self.get(REQUEST).total_ns
    }

    /// Mean self time per call of `name` in ms (0 when it never ran).
    pub fn ms_per_call(&self, name: &str) -> f64 {
        let layer = self.get(name);
        match layer.calls {
            0 => 0.0,
            calls => layer.self_ns as f64 / 1e6 / calls as f64,
        }
    }

    /// Share of summed request wall time spent in `name`'s own code.
    pub fn share(&self, name: &str) -> f64 {
        ratio(self.get(name).self_ns as f64, self.request_ns() as f64)
    }

    /// Share of summed request wall time that some layer span (anything
    /// below a request root) accounts for.
    pub fn coverage(&self) -> f64 {
        let covered: u64 = self
            .by_name
            .iter()
            .filter(|(name, _)| **name != REQUEST)
            .map(|(_, layer)| layer.self_ns)
            .sum();
        ratio(covered as f64, self.request_ns() as f64)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ns: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_coverage_counts_layers() {
        let mut tracer = Tracer::new(Instant::now());
        tracer.request(1, |t| {
            t.span("outer", |t| {
                busy(200_000);
                t.span("inner", |_| busy(400_000));
            });
            busy(100_000);
        });
        let layers = tracer.layers();
        let outer = layers.get("outer");
        let inner = layers.get("inner");
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
        assert!(inner.self_ns >= 400_000);
        let coverage = layers.coverage();
        assert!(coverage > 0.5 && coverage < 1.0, "coverage {coverage}");
        assert_eq!(layers.get("missing").calls, 0);
    }

    #[test]
    fn spans_carry_request_and_parent_and_names_can_be_chosen_late() {
        let mut tracer = Tracer::new(Instant::now());
        tracer.request(1, |t| t.span("x", |_| ()));
        tracer.request(2, |t| t.span_as(|_| ((), "y")));
        let lines = tracer.to_jsonl();
        assert_eq!(lines.lines().count(), 4);
        assert!(lines.contains("\"req\":2,\"id\":3,\"parent\":2,\"name\":\"y\""));
        assert!(lines.contains("\"req\":1,\"id\":0,\"parent\":null,\"name\":\"request\""));
        let mut off = Tracer::off();
        assert_eq!(off.request(3, |t| t.span("z", |_| 7)), 7);
        assert!(off.to_jsonl().is_empty());
    }
}
