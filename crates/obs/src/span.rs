//! Epoch-aligned phase spans for the whole pipeline.
//!
//! [`PipelineTrace`] records named intervals (ordering, symbolic skeleton,
//! postorder, partition, numeric, solve) against one epoch fixed when the
//! trace is created, so every phase of a run lands on the same timeline
//! and a single Chrome trace shows the pipeline end to end. Every span is
//! the driver thread's: the phases run on the thread that called them. The
//! numeric executor keeps its own lock-free per-worker recorder
//! (`splu_sched::trace`); its events are merged onto this epoch at export
//! time by sharing the epoch through `TraceConfig`.
//!
//! The disabled trace is `None` inside and **never reads the clock** — the
//! same discipline as `TraceMode::Off` — so tracing cannot perturb the
//! bitwise-invariance guarantees of the pipeline. Recording takes a plain
//! mutex: phase spans are coarse (about a dozen per run, not
//! per-kernel-call), so contention is nil.

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval, epoch-relative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name as shown in the trace viewer (e.g. `"ordering"`).
    pub name: String,
    /// Start, microseconds since the trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    events: Mutex<Vec<SpanEvent>>,
}

/// The pipeline span recorder. Cheap to clone (an `Arc` handle); the
/// disabled recorder is `None` inside and every operation on it is a
/// no-op that never reads the clock.
#[derive(Debug, Clone, Default)]
pub struct PipelineTrace {
    inner: Option<Arc<Inner>>,
}

impl PartialEq for PipelineTrace {
    /// Handle identity: two traces are equal when they are the same
    /// recorder (or both disabled). Lets containing request structs keep
    /// their `PartialEq` derives.
    fn eq(&self, other: &Self) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl PipelineTrace {
    /// The disabled recorder: no allocation, no clock reads, no-ops.
    pub fn off() -> Self {
        PipelineTrace { inner: None }
    }

    /// An enabled recorder whose epoch is "now".
    pub fn enabled() -> Self {
        PipelineTrace {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                events: Mutex::new(Vec::new()),
            })),
        }
    }

    /// The shared epoch, for aligning external recorders (the numeric
    /// executor) onto this timeline. `None` when disabled.
    pub fn epoch(&self) -> Option<Instant> {
        self.inner.as_ref().map(|i| i.epoch)
    }

    /// Opens a span that records itself when dropped. On the disabled
    /// trace this returns an inert guard without touching the clock.
    pub fn span(&self, name: impl Into<String>) -> SpanGuard {
        match &self.inner {
            None => SpanGuard { state: None },
            Some(inner) => SpanGuard {
                state: Some(SpanState {
                    inner: Arc::clone(inner),
                    name: name.into(),
                    start: Instant::now(),
                }),
            },
        }
    }

    /// A snapshot of every recorded span, sorted by start (guards record
    /// when they drop, so an enclosing span is pushed after its children).
    pub fn events(&self) -> Vec<SpanEvent> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => {
                let mut ev = inner.events.lock().unwrap().clone();
                ev.sort_by(|a, b| (a.start_us, &a.name).cmp(&(b.start_us, &b.name)));
                ev
            }
        }
    }
}

#[derive(Debug)]
struct SpanState {
    inner: Arc<Inner>,
    name: String,
    start: Instant,
}

/// RAII guard from [`PipelineTrace::span`]; records the interval on drop.
#[derive(Debug)]
pub struct SpanGuard {
    state: Option<SpanState>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(s) = self.state.take() {
            let start_us = s
                .start
                .checked_duration_since(s.inner.epoch)
                .map_or(0, |d| d.as_micros() as u64);
            let dur_us = s.start.elapsed().as_micros() as u64;
            s.inner.events.lock().unwrap().push(SpanEvent {
                name: s.name,
                start_us,
                dur_us,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let t = PipelineTrace::off();
        assert!(t.epoch().is_none());
        {
            let _g = t.span("ordering");
        }
        assert!(t.events().is_empty());
    }

    #[test]
    fn spans_record_on_drop_in_start_order() {
        let t = PipelineTrace::enabled();
        {
            let _outer = t.span("symbolic_fill");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _inner = t.span("ordering");
        }
        // The inner guard dropped (and recorded) first; the snapshot is by
        // start all the same.
        let ev = t.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].name, "symbolic_fill");
        assert_eq!(ev[1].name, "ordering");
        assert!(ev[0].start_us + ev[0].dur_us >= ev[1].start_us + ev[1].dur_us);
    }

    #[test]
    fn clones_share_the_recorder_and_compare_by_identity() {
        let a = PipelineTrace::enabled();
        let b = a.clone();
        {
            let _g = b.span("solve");
        }
        assert_eq!(a.events().len(), 1);
        assert_eq!(a, b);
        assert_ne!(a, PipelineTrace::enabled());
        assert_eq!(PipelineTrace::off(), PipelineTrace::off());
    }
}
