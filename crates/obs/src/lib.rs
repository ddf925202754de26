//! Pipeline-wide observability primitives for parsplu.
//!
//! Three independent pieces, all opt-in and all free when off:
//!
//! * [`metrics`] — a lock-free registry of named monotone counters
//!   (fill entries, kernel flops, steals, perturbed columns, budget
//!   checkpoints). Counting is a relaxed atomic add; an absent registry
//!   is a `None` check.
//! * [`span`] — an epoch-aligned span recorder for the *phases* of a run
//!   (ordering, symbolic skeleton, postorder, partition, numeric,
//!   solve). Spans from every phase land on one shared epoch so a single
//!   Chrome trace shows the whole pipeline; the disabled recorder never
//!   reads the clock, preserving the scheduler's bitwise-invariance
//!   guarantee.
//! * [`alloc`] — an opt-in counting global allocator measuring live and
//!   high-water heap bytes, for per-phase peak-memory accounting.
//!
//! This crate sits below every other workspace crate and depends only on
//! std, so `splu-symbolic`, `splu-sched`, `splu-dense`, and `splu-core`
//! can all emit into the same registry and trace.

#![deny(unsafe_code)]

#[allow(unsafe_code)] // GlobalAlloc impl: thin counting shim over System.
pub mod alloc;
pub mod metrics;
pub mod span;

pub use alloc::{
    heap_stats, reset_heap_peak, thread_heap_stats, CountingAlloc, HeapStats, ThreadHeapStats,
};
pub use metrics::{Counter, MetricsRegistry, MetricsSnapshot};
pub use span::{PipelineTrace, SpanEvent, SpanGuard};
