//! Task dependence graphs and runtimes for the parallel factorization
//! (Section 4 of the paper).
//!
//! The numerical factorization is expressed as tasks `Factor(k)` (factor
//! block column `k`, choosing its pivot sequence) and `Update(k, j)` (update
//! block column `j` by block column `k`), exactly as in S*. Two graph
//! builders are provided:
//!
//! * [`build_sstar_graph`] — the S* graph: all updates into a column are
//!   chained in ascending source order;
//! * [`build_eforest_graph`] — the paper's contribution: only the *least
//!   necessary* dependences, derived from the block-level LU elimination
//!   forest (rules 1–5 of Section 4). Updates from independent subtrees run
//!   concurrently.
//!
//! [`run`] is the one multithreaded executor: an [`ExecRequest`] names the
//! DAG, the worker count, the [`Placement`] of ready tasks (the paper's
//! static 1D column-block mapping — owner-only, our RAPID substitute — or
//! work stealing), tracing and the run budget; tasks are scheduled by
//! critical-path (bottom-level) priority, and a one-worker request replays
//! its order inline on the calling thread, traced or not. The
//! list-scheduling simulator that evaluates processor counts beyond the
//! host's cores (DESIGN.md §5, substitution 2) lives with the experiments
//! in `splu-bench`.
//!
//! The executor is observable through the telemetry layer (`trace`
//! module): with [`ExecRequest::trace`] on, [`run`] records lock-free
//! per-worker event streams and steal/idle counters into its [`ExecReport`]
//! ([`SchedStats`] + the raw [`ExecTrace`] that `splu-core`'s
//! `ObsSession::chrome_json` exports as a Chrome trace).
//!
//! A run is bounded by its [`RunBudget`] ([`ExecRequest::budget`]): a
//! shareable [`CancelToken`], an absolute deadline, and an opt-in liveness
//! watchdog ([`WatchdogConfig`]) that converts a hung run into a structured
//! [`StallReport`]. A worker panic is contained in [`ExecReport::panic`];
//! [`ExecReport::rethrow`] re-raises it for callers with no error channel.
//! The executor's synchronization primitives live in the public [`sync`]
//! module, whose `cfg(loom)` shim lets `tests/loom.rs` model-check the
//! park/notify and shutdown protocols.

// Index-based loops are the natural idiom for the numerical kernels and
// symbolic algorithms in this crate; iterator rewrites obscure the maths.
#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod control;
mod executor;
mod graph;
mod lane;
mod schedule;
pub mod sync;
mod trace;

pub use control::{
    CancelToken, Interrupt, RunBudget, StallReport, WatchdogConfig, WorkerSnapshot, WorkerState,
};
pub use executor::{run, ExecRequest, Mapping, Placement, Steps};
pub use graph::{block_forest, build_eforest_graph, build_sstar_graph, Task, TaskGraph};
pub use lane::{Lane, LaneRejected};
pub use schedule::ExecSchedule;
pub use trace::{
    EventKind, ExecReport, ExecTrace, FactorHealth, SchedStats, TaskPanic, TraceConfig, TraceEvent,
    TraceMode, WorkerStats,
};

// Re-exported so downstream crates can name the forest type the graph
// builders consume without an extra dependency edge.
pub use splu_symbolic::EliminationForest;
