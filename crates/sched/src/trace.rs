//! Scheduler telemetry: lock-free per-worker event tracing, steal/idle
//! counters, and Chrome-trace export for the DAG executors.
//!
//! The executors in this crate barely scale on real threads while the
//! calibrated simulator predicts large speedups; this module is the
//! measurement substrate that says *where executor time actually goes* —
//! steal contention, idle workers, or critical-path serialization.
//!
//! Design (hot-path budget: one `Instant::now()` pair plus a `Vec` push per
//! recorded interval):
//!
//! * Every worker owns a private [`WorkerRecorder`] — a plain `Vec` of
//!   fixed-size [`TraceEvent`] entries plus a counter block. Nothing on the
//!   hot path takes a lock or touches shared memory; recorders are drained
//!   once, after the worker joins.
//! * Recording is gated by [`TraceConfig`]: [`TraceMode::Off`] short-circuits
//!   every recorder method before it reads the clock, so an untraced
//!   [`crate::run`] pays only a dead branch per task.
//!   [`TraceMode::Counters`] keeps the timing/counter aggregates but drops
//!   the event list; [`TraceMode::Full`] keeps both.
//! * After the run the recorders are assembled into an [`ExecReport`]:
//!   a [`SchedStats`] aggregate (per-worker busy/idle/steal time, tasks run,
//!   steals in/out, load imbalance) and, in full mode, an [`ExecTrace`] —
//!   the raw events `splu-core`'s `ObsSession::chrome_json` renders as a
//!   Gantt chart for `chrome://tracing` / [Perfetto](https://ui.perfetto.dev).

use std::time::{Duration, Instant};

/// How much telemetry the executor records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// No instrumentation: recorder calls compile down to a dead branch.
    #[default]
    Off,
    /// Per-worker timing aggregates and counters, no event list.
    Counters,
    /// Counters plus the full per-worker event list (Chrome-trace export).
    Full,
}

/// Telemetry configuration of one executor run ([`crate::ExecRequest::trace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceConfig {
    /// What to record.
    pub mode: TraceMode,
    /// Per-worker event buffer pre-allocation (events, [`TraceMode::Full`]
    /// only). A worker whose run outgrows the hint reallocates; sizing it to
    /// `2 × n_tasks / nthreads` keeps the hot path push amortized O(1) with
    /// no reallocation in the common case.
    pub events_capacity: usize,
    /// Timestamp origin for recorded events. `None` (the default) uses the
    /// moment the executor starts — timestamps are then run-relative, as
    /// before. Setting a shared epoch aligns this run's events with spans
    /// recorded elsewhere in the pipeline (the `splu-obs` phase trace), so
    /// the numeric executor, the symbolic fill executor, and the driver
    /// phases all land on one Chrome-trace timeline. Wall-clock accounting
    /// ([`SchedStats::wall_s`]) always measures from executor start,
    /// independent of the epoch.
    pub epoch: Option<Instant>,
}

impl TraceConfig {
    /// Zero-instrumentation configuration (the default).
    pub fn off() -> Self {
        TraceConfig::default()
    }

    /// Counters and timing aggregates only.
    pub fn counters() -> Self {
        TraceConfig {
            mode: TraceMode::Counters,
            ..TraceConfig::default()
        }
    }

    /// Full event recording with a buffer hint for `n_tasks` tasks on
    /// `nthreads` workers.
    pub fn full(n_tasks: usize, nthreads: usize) -> Self {
        TraceConfig {
            mode: TraceMode::Full,
            events_capacity: 2 * n_tasks / nthreads.max(1) + 16,
            ..TraceConfig::default()
        }
    }

    /// Pins the timestamp origin to `epoch` (see [`TraceConfig::epoch`]).
    pub fn with_epoch(mut self, epoch: Instant) -> Self {
        self.epoch = Some(epoch);
        self
    }

    /// `true` unless the mode is [`TraceMode::Off`].
    pub fn is_on(&self) -> bool {
        self.mode != TraceMode::Off
    }
}

/// What a recorded interval was spent on. Fixed-size — no allocation per
/// event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The runner executed task `tid` (executor task id; map through
    /// `TaskGraph::task` for the Factor/Update labels).
    Task {
        /// Executor task id.
        tid: usize,
    },
    /// A victim-scan over other workers' pools. `success` means a task was
    /// taken from `victim`'s pool; on a dry scan `victim` is the scanning
    /// worker itself.
    Steal {
        /// Pool the task was taken from (= the scanning worker on a miss).
        victim: usize,
        /// Whether the scan yielded a task.
        success: bool,
    },
    /// The worker parked on its sleep gate waiting for work.
    Park,
}

/// One fixed-size event interval recorded by a worker. Timestamps are
/// nanoseconds since the run epoch (the moment the executor started), so
/// they are directly comparable across workers of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Worker that recorded the event.
    pub worker: usize,
    /// What the interval was spent on.
    pub kind: EventKind,
    /// Interval start, nanoseconds since the run epoch.
    pub start_ns: u64,
    /// Interval end, nanoseconds since the run epoch.
    pub end_ns: u64,
}

/// Per-worker counter block, updated worker-locally (no atomics: each worker
/// owns its block exclusively until the run ends).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerStats {
    /// Seconds spent inside task runners.
    pub busy_s: f64,
    /// Seconds spent scanning victim pools (successful or not).
    pub steal_s: f64,
    /// Seconds spent parked on the sleep gate.
    pub idle_s: f64,
    /// Tasks this worker executed.
    pub tasks_run: u64,
    /// Tasks this worker retired (ran + released successors). Equals
    /// `tasks_run` on a clean run.
    pub tasks_retired: u64,
    /// Victim scans that yielded a task (tasks stolen *by* this worker).
    pub steals_in: u64,
    /// Tasks other workers took from this worker's pool. Filled during
    /// assembly from the thieves' per-victim counts.
    pub steals_out: u64,
    /// Victim scans attempted (hits + misses).
    pub steal_attempts: u64,
    /// Times the worker parked.
    pub parks: u64,
    /// Steal hits by victim id (length = nthreads), the source of every
    /// worker's `steals_out`.
    pub steals_by_victim: Vec<u64>,
}

/// Aggregate scheduler statistics for one executor run — the single home of
/// the counters previously scattered over ad-hoc atomics, plus the numeric
/// layer's zero-copy counter.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedStats {
    /// Worker threads the run used.
    pub nthreads: usize,
    /// Tasks the DAG contained.
    pub n_tasks: usize,
    /// Wall-clock seconds from executor start to the last worker joining.
    pub wall_s: f64,
    /// Per-worker breakdown.
    pub workers: Vec<WorkerStats>,
    /// Tasks handed to runners, summed over workers.
    pub tasks_started: u64,
    /// Tasks fully retired (successors released), summed over workers.
    pub tasks_retired: u64,
    /// Dense kernel instantiation the numeric layer ran through
    /// (`"baseline"`, `"avx2"`, `"avx512f"`). Left `""` by the raw executor
    /// — the numeric drivers fill it.
    pub kernel: &'static str,
}

impl SchedStats {
    /// Total busy seconds across workers.
    pub fn busy_total(&self) -> f64 {
        self.workers.iter().map(|w| w.busy_s).sum()
    }

    /// Total steal-scan seconds across workers.
    pub fn steal_total(&self) -> f64 {
        self.workers.iter().map(|w| w.steal_s).sum()
    }

    /// Total parked seconds across workers.
    pub fn idle_total(&self) -> f64 {
        self.workers.iter().map(|w| w.idle_s).sum()
    }

    /// Successful steals across workers.
    pub fn steals_total(&self) -> u64 {
        self.workers.iter().map(|w| w.steals_in).sum()
    }

    /// Load-imbalance factor: max over workers of busy time divided by the
    /// mean busy time (1.0 = perfectly balanced). 1.0 for degenerate runs.
    pub fn load_imbalance(&self) -> f64 {
        let mean = self.busy_total() / self.workers.len().max(1) as f64;
        if mean <= 0.0 {
            return 1.0;
        }
        let max = self.workers.iter().map(|w| w.busy_s).fold(0.0, f64::max);
        max / mean
    }

    /// Parallel efficiency: `busy_total / (nthreads × wall)`.
    pub fn parallel_efficiency(&self) -> f64 {
        let denom = self.nthreads as f64 * self.wall_s;
        if denom <= 0.0 {
            1.0
        } else {
            self.busy_total() / denom
        }
    }

    /// Every scheduler counter as uniform `(name, value)` pairs — the
    /// single enumeration the run report serializes, replacing ad-hoc
    /// field-by-field plumbing. Names are stable snake_case JSON keys.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("tasks_started", self.tasks_started),
            ("tasks_retired", self.tasks_retired),
            ("steals", self.steals_total()),
            (
                "steal_attempts",
                self.workers.iter().map(|w| w.steal_attempts).sum(),
            ),
            ("parks", self.workers.iter().map(|w| w.parks).sum()),
        ]
    }

    /// Panics unless `tasks_started == tasks_retired == n_tasks` — the
    /// counter-consistency invariant of a clean (panic-free) run.
    pub fn assert_consistent(&self) {
        assert_eq!(
            self.tasks_started, self.n_tasks as u64,
            "tasks started != tasks in DAG"
        );
        assert_eq!(
            self.tasks_retired, self.n_tasks as u64,
            "tasks retired != tasks in DAG"
        );
        let run: u64 = self.workers.iter().map(|w| w.tasks_run).sum();
        assert_eq!(run, self.tasks_started, "per-worker run counts disagree");
        let in_: u64 = self.workers.iter().map(|w| w.steals_in).sum();
        let out: u64 = self.workers.iter().map(|w| w.steals_out).sum();
        assert_eq!(in_, out, "steals_in and steals_out must balance");
    }
}

/// The raw event streams of one run ([`TraceMode::Full`] only).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecTrace {
    /// Worker count of the run (Chrome `tid` range).
    pub nthreads: usize,
    /// All recorded events, grouped by worker in recording order (each
    /// worker's subsequence has monotone non-decreasing timestamps).
    pub events: Vec<TraceEvent>,
}

/// A worker panic caught and contained by the executor. The run is aborted
/// (remaining tasks drain without executing) but every worker joins cleanly
/// and the caller gets a report instead of an unwinding panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// Worker that caught the panic.
    pub worker: usize,
    /// Executor task id of the panicking task (map through the graph for a
    /// `Factor`/`Update` label).
    pub task: usize,
    /// The panic payload, when it was a string (the usual `panic!` case).
    pub message: String,
}

impl TaskPanic {
    /// Records a payload caught by `catch_unwind`, keeping the message of
    /// the `&str`/`String` payloads `panic!` produces.
    pub(crate) fn caught(worker: usize, task: usize, payload: &(dyn std::any::Any + Send)) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        TaskPanic {
            worker,
            task,
            message,
        }
    }
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker {} panicked running task {}: {}",
            self.worker, self.task, self.message
        )
    }
}

/// Numeric-layer health report of one factorization. Like
/// [`SchedStats::kernel`], this is left at its default by the raw
/// executor — the numeric drivers fill it (and [`splu-core`'s `SparseLu`]
/// adds the condition estimate).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FactorHealth {
    /// Global columns (factorization order) whose diagonal was replaced by
    /// a static-pivoting perturbation, ascending. Empty on a clean run.
    pub perturbed_columns: Vec<usize>,
    /// Largest perturbation magnitude applied (0.0 on a clean run).
    pub max_perturbation: f64,
    /// Element-growth estimate `max|factor| / max|A|`; filled when a
    /// perturbing breakdown policy is active, 0.0 otherwise.
    pub growth: f64,
    /// Hager–Higham estimate of `‖A⁻¹‖₁`, filled by `SparseLu` for
    /// perturbed factorizations (refinement quality depends on it).
    pub condest: Option<f64>,
}

impl FactorHealth {
    /// `true` when at least one column was perturbed.
    pub fn is_perturbed(&self) -> bool {
        !self.perturbed_columns.is_empty()
    }
}

/// Everything an executor run produces. A worker panic or an interrupt
/// travels in the report instead of unwinding: read [`Self::panic`] and
/// [`Self::interrupt`], or call [`Self::rethrow`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecReport {
    /// Aggregate statistics (always filled when tracing is on).
    pub stats: SchedStats,
    /// Raw event streams ([`TraceMode::Full`] only).
    pub trace: Option<ExecTrace>,
    /// First worker panic caught by the executor, if any. When set, the run
    /// aborted early: `stats` covers only the tasks that actually ran and
    /// [`SchedStats::assert_consistent`] does not apply.
    pub panic: Option<TaskPanic>,
    /// Why the run was interrupted (cancellation, deadline, watchdog stall),
    /// if it was. Like `panic`, an interrupted run aborted early and
    /// [`SchedStats::assert_consistent`] does not apply.
    pub interrupt: Option<crate::Interrupt>,
    /// Numeric-layer health report (perturbed columns, growth); left at its
    /// default by the raw executor — the numeric drivers fill it.
    pub health: FactorHealth,
}

impl ExecReport {
    /// Re-raises a contained worker panic on the calling thread, message
    /// included — for callers with no error channel of their own.
    pub fn rethrow(&self) {
        if let Some(p) = &self.panic {
            panic!("{p}");
        }
    }

    /// Every counter this run produced, uniformly: the scheduler counters
    /// ([`SchedStats::counters`]) plus the numeric-health counts. One flat
    /// `(name, value)` list so reports and tools never reach into
    /// individual fields.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut out = self.stats.counters();
        out.push((
            "perturbed_columns",
            self.health.perturbed_columns.len() as u64,
        ));
        out
    }
}

// ---------------------------------------------------------------------------
// Worker-side recording (crate-internal).
// ---------------------------------------------------------------------------

/// Worker-local recorder: owned exclusively by one worker thread for the
/// duration of the run, so every method is lock-free and race-free by
/// construction. Drained once via [`WorkerRecorder::finish`].
pub(crate) struct WorkerRecorder {
    worker: usize,
    mode: TraceMode,
    epoch: Instant,
    events: Vec<TraceEvent>,
    stats: WorkerStats,
}

impl WorkerRecorder {
    pub(crate) fn new(
        worker: usize,
        nthreads: usize,
        config: &TraceConfig,
        epoch: Instant,
    ) -> Self {
        let events = if config.mode == TraceMode::Full {
            Vec::with_capacity(config.events_capacity)
        } else {
            Vec::new()
        };
        let stats = WorkerStats {
            steals_by_victim: if config.is_on() {
                vec![0; nthreads]
            } else {
                Vec::new()
            },
            ..WorkerStats::default()
        };
        WorkerRecorder {
            worker,
            mode: config.mode,
            epoch,
            events,
            stats,
        }
    }

    /// Start an interval. `None` (no clock read) when tracing is off.
    #[inline]
    pub(crate) fn begin(&self) -> Option<Instant> {
        if self.mode == TraceMode::Off {
            None
        } else {
            Some(Instant::now())
        }
    }

    #[inline]
    fn interval_ns(&self, t0: Instant) -> (u64, u64) {
        let start = t0.duration_since(self.epoch).as_nanos() as u64;
        let end = self.epoch.elapsed().as_nanos() as u64;
        (start, end.max(start))
    }

    #[inline]
    fn push(&mut self, kind: EventKind, start_ns: u64, end_ns: u64) {
        if self.mode == TraceMode::Full {
            self.events.push(TraceEvent {
                worker: self.worker,
                kind,
                start_ns,
                end_ns,
            });
        }
    }

    /// Close a task interval opened by [`Self::begin`]. Returns its end,
    /// which opens the next interval of a back-to-back replay.
    #[inline]
    pub(crate) fn end_task(&mut self, t0: Option<Instant>, tid: usize) -> Option<Instant> {
        let (s, e) = self.interval_ns(t0?);
        self.stats.busy_s += (e - s) as f64 / 1e9;
        self.stats.tasks_run += 1;
        self.push(EventKind::Task { tid }, s, e);
        Some(self.epoch + Duration::from_nanos(e))
    }

    /// Close a victim-scan interval opened by [`Self::begin`].
    #[inline]
    pub(crate) fn end_steal(&mut self, t0: Option<Instant>, victim: usize, success: bool) {
        let Some(t0) = t0 else { return };
        let (s, e) = self.interval_ns(t0);
        self.stats.steal_s += (e - s) as f64 / 1e9;
        self.stats.steal_attempts += 1;
        if success {
            self.stats.steals_in += 1;
            self.stats.steals_by_victim[victim] += 1;
        }
        self.push(EventKind::Steal { victim, success }, s, e);
    }

    /// Close a park interval opened by [`Self::begin`].
    #[inline]
    pub(crate) fn end_park(&mut self, t0: Option<Instant>) {
        let Some(t0) = t0 else { return };
        let (s, e) = self.interval_ns(t0);
        self.stats.idle_s += (e - s) as f64 / 1e9;
        self.stats.parks += 1;
        self.push(EventKind::Park, s, e);
    }

    /// Count a retired task (cheap: no clock).
    #[inline]
    pub(crate) fn count_retired(&mut self) {
        if self.mode != TraceMode::Off {
            self.stats.tasks_retired += 1;
        }
    }

    pub(crate) fn finish(self) -> (usize, WorkerStats, Vec<TraceEvent>) {
        (self.worker, self.stats, self.events)
    }
}

/// Assembles drained worker recorders into an [`ExecReport`].
pub(crate) fn assemble_report(
    n_tasks: usize,
    nthreads: usize,
    wall_s: f64,
    config: &TraceConfig,
    drained: Vec<(usize, WorkerStats, Vec<TraceEvent>)>,
    panic: Option<TaskPanic>,
    interrupt: Option<crate::Interrupt>,
) -> ExecReport {
    let mut workers = vec![WorkerStats::default(); nthreads];
    let mut all_events: Vec<TraceEvent> = Vec::new();
    for (w, stats, events) in drained {
        workers[w] = stats;
        all_events.extend(events);
    }
    // steals_out: credit each victim from the thieves' per-victim hit counts.
    let mut outs = vec![0u64; nthreads];
    for w in &workers {
        for (v, &hits) in w.steals_by_victim.iter().enumerate() {
            outs[v] += hits;
        }
    }
    for (w, &o) in workers.iter_mut().zip(&outs) {
        w.steals_out = o;
    }
    let tasks_started: u64 = workers.iter().map(|w| w.tasks_run).sum();
    let tasks_retired: u64 = workers.iter().map(|w| w.tasks_retired).sum();
    let stats = SchedStats {
        nthreads,
        n_tasks,
        wall_s,
        workers,
        tasks_started,
        tasks_retired,
        kernel: "",
    };
    let trace = (config.mode == TraceMode::Full).then_some(ExecTrace {
        nthreads,
        events: all_events,
    });
    ExecReport {
        stats,
        trace,
        panic,
        interrupt,
        health: FactorHealth::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_mode_records_nothing() {
        let cfg = TraceConfig::off();
        let mut rec = WorkerRecorder::new(0, 2, &cfg, Instant::now());
        let t0 = rec.begin();
        assert!(t0.is_none());
        rec.end_task(t0, 3);
        rec.end_steal(t0, 1, true);
        rec.end_park(t0);
        rec.count_retired();
        let (_, stats, events) = rec.finish();
        assert_eq!(stats, WorkerStats::default());
        assert!(events.is_empty());
    }

    #[test]
    fn full_mode_records_intervals_and_counts() {
        let cfg = TraceConfig::full(4, 2);
        let epoch = Instant::now();
        let mut rec = WorkerRecorder::new(1, 2, &cfg, epoch);
        let t0 = rec.begin();
        rec.end_task(t0, 7);
        let t1 = rec.begin();
        rec.end_steal(t1, 0, true);
        let t2 = rec.begin();
        rec.end_park(t2);
        rec.count_retired();
        let (w, stats, events) = rec.finish();
        assert_eq!(w, 1);
        assert_eq!(stats.tasks_run, 1);
        assert_eq!(stats.tasks_retired, 1);
        assert_eq!(stats.steals_in, 1);
        assert_eq!(stats.steals_by_victim, vec![1, 0]);
        assert_eq!(events.len(), 3);
        for pair in events.windows(2) {
            assert!(pair[0].start_ns <= pair[1].start_ns, "monotone per worker");
        }
        assert!(matches!(events[0].kind, EventKind::Task { tid: 7 }));
    }

    #[test]
    fn stats_helpers() {
        let stats = SchedStats {
            nthreads: 2,
            n_tasks: 3,
            wall_s: 2.0,
            workers: vec![
                WorkerStats {
                    busy_s: 2.0,
                    tasks_run: 2,
                    tasks_retired: 2,
                    steals_in: 1,
                    steals_out: 0,
                    ..WorkerStats::default()
                },
                WorkerStats {
                    busy_s: 1.0,
                    tasks_run: 1,
                    tasks_retired: 1,
                    steals_in: 0,
                    steals_out: 1,
                    ..WorkerStats::default()
                },
            ],
            tasks_started: 3,
            tasks_retired: 3,
            kernel: "portable",
        };
        assert!((stats.busy_total() - 3.0).abs() < 1e-12);
        assert!((stats.load_imbalance() - 2.0 / 1.5).abs() < 1e-12);
        assert!((stats.parallel_efficiency() - 0.75).abs() < 1e-12);
        stats.assert_consistent();
    }
}
