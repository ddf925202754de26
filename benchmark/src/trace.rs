//! The harness's own spans: recorded in memory around each call into a
//! public layer entry point, written out once as a Chrome trace when the
//! run ends. Spans inside the program are a later change; these sit at the
//! layer boundary, on the caller's side.
//!
//! A span's name is `<layer>.<what>`; the root span of every op is
//! [`OP_SPAN`]. A layer's self time is its spans' durations minus the part
//! their child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the root span that brackets one whole op.
pub const OP_SPAN: &str = "bench.op";

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one op.
    pub op: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct SpanId(usize);

/// A single-threaded span recorder. When built with [`Tracer::off`] neither
/// `begin` nor `end` reads the clock or touches memory.
pub struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A recorder that records nothing (the untraced runs).
    pub fn off() -> Tracer {
        Tracer {
            epoch: None,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// A recording tracer whose timestamps count from `epoch` (shared by
    /// every thread of a run so their spans line up).
    pub fn on(epoch: Instant) -> Tracer {
        Tracer {
            epoch: Some(epoch),
            ..Tracer::off()
        }
    }

    /// `true` when spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.epoch.is_some()
    }

    /// Sets the op identifier stamped on the spans that follow.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let Some(epoch) = self.epoch else {
            return SpanId(usize::MAX);
        };
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        SpanId(idx)
    }

    /// Closes the span; spans must close in the reverse order they opened.
    pub fn end(&mut self, id: SpanId) {
        let Some(epoch) = self.epoch else { return };
        let now = epoch.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans must nest");
        self.spans[id.0].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// The closed spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Gives up the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self times of one thread's spans, in milliseconds.
pub struct SelfTimes {
    /// Per op id: `(duration of the root span, summed self time of every
    /// non-root span)`.
    pub per_op: Vec<(f64, f64)>,
    /// Summed self time per layer (the span-name prefix before the first
    /// dot); the root span's own self time is filed under `harness`.
    pub per_layer: BTreeMap<&'static str, f64>,
}

/// Computes self times: each span's duration minus its children's.
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut self_ns: Vec<i64> = spans.iter().map(|s| s.dur_ns() as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            self_ns[p] -= s.dur_ns() as i64;
        }
    }
    let mut ops: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    let mut per_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(&self_ns) {
        let own_ms = own.max(0) as f64 / 1e6;
        let slot = ops.entry(s.op).or_insert((0.0, 0.0));
        if s.name == OP_SPAN {
            slot.0 += s.dur_ns() as f64 / 1e6;
            *per_layer.entry("harness").or_insert(0.0) += own_ms;
        } else {
            slot.1 += own_ms;
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *per_layer.entry(layer).or_insert(0.0) += own_ms;
        }
    }
    SelfTimes {
        per_op: ops.into_values().collect(),
        per_layer,
    }
}

/// Renders `slices` (the span lists of a run's traced loops, all recorded by
/// one thread against one epoch) as a Chrome trace (`chrome://tracing`,
/// Perfetto): complete events, microsecond stamps.
pub fn chrome_json(slices: &[&[Span]]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    for spans in slices {
        for s in spans.iter() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = s.parent.map_or("", |p| spans[p].name);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":0,\"args\":{{\"op\":{},\"parent\":\"{}\"}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(""),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op,
                parent
            ));
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: OP_SPAN,
                start_ns: 0,
                end_ns: 10_000_000,
                parent: None,
                op: 7,
            },
            Span {
                name: "core.a",
                start_ns: 1_000_000,
                end_ns: 7_000_000,
                parent: Some(0),
                op: 7,
            },
            Span {
                name: "dense.b",
                start_ns: 2_000_000,
                end_ns: 4_000_000,
                parent: Some(1),
                op: 7,
            },
        ];
        let st = self_times(&spans);
        assert_eq!(st.per_op, vec![(10.0, 6.0)]);
        assert_eq!(st.per_layer["core"], 4.0);
        assert_eq!(st.per_layer["dense"], 2.0);
        assert_eq!(st.per_layer["harness"], 4.0);
        let json = chrome_json(&[&spans]);
        assert!(splu_client::parse(&json).is_ok());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let v = t.span("core.x", || 3);
        assert_eq!(v, 3);
        assert!(t.spans().is_empty());
    }
}
