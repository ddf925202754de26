//! Cached executor schedules for repeated factorizations.
//!
//! A solver session factors the same task graph many times (numeric
//! refactorization with unchanged structure). The executor's per-run
//! preparation — bottom-level priorities and, for a single worker, the
//! whole acquisition order — depends only on the graph, so a session
//! computes it once as an [`ExecSchedule`] and attaches it to every
//! [`crate::ExecRequest`]:
//!
//! * a request that [`crate::ExecRequest::runs_inline`] — one worker, no
//!   watchdog — replays the sequential order **inline on the calling
//!   thread** ([`replay_inline`]): no worker spawn, no pools, no atomics,
//!   traced or not, so an observed run executes the program an unobserved
//!   one does. Untraced and with the cached schedule it performs **zero
//!   heap allocation** (a session's `refactor` hot path, asserted under the
//!   `alloc-track` counting allocator); without a cached schedule the same
//!   order is computed for the run;
//! * every other request takes the worker loop with the cached priorities,
//!   skipping the per-run bottom-level sweep.
//!
//! The sequential order is produced by draining the worker loop's own
//! ready pool ([`Ready`]: same max-heap, same tie-break on lower task id)
//! on one simulated worker, so the inline replay acquires tasks in the
//! order the worker loop would at one worker — and the factored values are
//! bitwise identical either way, as the determinism suite asserts for
//! every schedule.

use crate::control::{Interrupt, RunBudget};
use crate::graph::{bottom_levels, TaskGraph};
use crate::trace::{
    assemble_report, ExecReport, TaskPanic, TraceConfig, TraceMode, WorkerRecorder,
};
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Ready-pool entry: max-heap by priority, ties broken toward the lower
/// task id so pool order is reproducible. The worker loop's pools and the
/// sequential-order simulation below share this one ordering.
#[derive(PartialEq, Eq)]
pub(crate) struct Ready {
    pub(crate) prio: u64,
    pub(crate) tid: usize,
}

impl Ord for Ready {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.prio
            .cmp(&other.prio)
            .then_with(|| other.tid.cmp(&self.tid))
    }
}

impl PartialOrd for Ready {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The per-graph executor state a session caches across factorizations:
/// bottom-level priorities plus the single-worker acquisition order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecSchedule {
    priority: Vec<u64>,
    seq_order: Vec<usize>,
}

impl ExecSchedule {
    /// Computes the schedule for `graph`: its bottom levels and the task
    /// order a one-worker priority executor would acquire.
    pub fn for_graph(graph: &TaskGraph) -> Self {
        Self::for_dag(graph.pred_counts(), graph.successor_lists())
    }

    /// [`Self::for_graph`] over the DAG view an [`crate::ExecRequest`] takes.
    pub(crate) fn for_dag(pred_counts: &[usize], successors: &[Vec<usize>]) -> Self {
        let priority = bottom_levels(pred_counts, successors);
        Self::with_priorities(pred_counts, successors, priority)
    }

    /// The schedule of an arbitrary DAG view under caller-chosen priorities.
    pub(crate) fn with_priorities(
        pred_counts: &[usize],
        successors: &[Vec<usize>],
        priority: Vec<u64>,
    ) -> Self {
        let n = pred_counts.len();
        assert_eq!(priority.len(), n, "one priority per task");
        let mut indeg = pred_counts.to_vec();
        let mut heap: BinaryHeap<Ready> = (0..n)
            .filter(|&t| indeg[t] == 0)
            .map(|tid| Ready {
                prio: priority[tid],
                tid,
            })
            .collect();
        let mut seq_order = Vec::with_capacity(n);
        while let Some(r) = heap.pop() {
            seq_order.push(r.tid);
            for &s in &successors[r.tid] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    heap.push(Ready {
                        prio: priority[s],
                        tid: s,
                    });
                }
            }
        }
        assert_eq!(seq_order.len(), n, "task graph must be acyclic");
        ExecSchedule {
            priority,
            seq_order,
        }
    }

    /// Number of tasks the schedule covers.
    pub fn len(&self) -> usize {
        self.seq_order.len()
    }

    /// `true` for the empty graph's schedule.
    pub fn is_empty(&self) -> bool {
        self.seq_order.is_empty()
    }

    /// Bottom-level priority per task id.
    pub fn priorities(&self) -> &[u64] {
        &self.priority
    }

    /// The single-worker acquisition order (every task id exactly once,
    /// topologically consistent).
    pub fn seq_order(&self) -> &[usize] {
        &self.seq_order
    }
}

/// Runs the (non-empty) schedule inline on the calling thread in the
/// precomputed order — the path [`crate::run`] takes for a request that
/// [`crate::ExecRequest::runs_inline`].
///
/// Untraced it performs **no heap allocation** and reads no clock. Traced,
/// it fills the [`WorkerRecorder`] of a one-worker report:
/// [`TraceMode::Full`] records an epoch-relative `Task` event per task,
/// [`TraceMode::Counters`] reads the clock twice per run — busy is the
/// replay's wall; a calling thread never idles, steals or parks. The budget
/// is honoured before every task acquisition with the supervisor's
/// semantics — token checkpoint first, then deadline; a deadline trip also
/// cancels the run's token (when one is attached) so cooperative waiters
/// inside tasks release. A panicking task is contained and reported through
/// [`ExecReport::panic`], exactly like the worker loop.
pub(crate) fn replay_inline(
    schedule: &ExecSchedule,
    runner: impl Fn(usize),
    budget: &RunBudget,
    config: &TraceConfig,
) -> ExecReport {
    let mut report = ExecReport::default();
    let n = schedule.seq_order.len();
    report.stats.nthreads = 1;
    report.stats.n_tasks = n;
    let start = config.is_on().then(Instant::now);
    let mut rec = start.map(|t| WorkerRecorder::new(0, 1, config, config.epoch.unwrap_or(t)));
    let per_task = config.mode == TraceMode::Full;
    // Back to back: a task's end opens the next interval, one clock read each.
    let mut t0 = per_task.then(Instant::now);
    let armed = budget.is_armed();
    for (done, &tid) in schedule.seq_order.iter().enumerate() {
        if armed {
            // Same precedence as Supervisor::check_budget: the token is
            // consulted before the deadline, so a cancelled run with an
            // expired deadline still reports cancellation.
            let tasks_pending = n - done;
            if budget.token.as_ref().is_some_and(|t| t.checkpoint()) {
                report.interrupt = Some(Interrupt::Cancelled { tasks_pending });
                break;
            }
            if budget.deadline.is_some_and(|d| Instant::now() >= d) {
                if let Some(token) = &budget.token {
                    token.cancel();
                }
                report.interrupt = Some(Interrupt::DeadlineExceeded { tasks_pending });
                break;
            }
        }
        report.stats.tasks_started += 1;
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| runner(tid))) {
            report.panic = Some(TaskPanic::caught(0, tid, payload.as_ref()));
            break;
        }
        if let Some(rec) = &mut rec {
            t0 = rec.end_task(t0, tid);
        }
        report.stats.tasks_retired += 1;
    }
    let Some((start, rec)) = start.zip(rec) else {
        return report;
    };
    let wall_s = start.elapsed().as_secs_f64();
    let (w, mut stats, events) = rec.finish();
    if !per_task {
        stats.busy_s = wall_s;
    }
    stats.tasks_run = report.stats.tasks_started;
    stats.tasks_retired = report.stats.tasks_retired;
    let drained = vec![(w, stats, events)];
    assemble_report(
        n,
        1,
        wall_s,
        config,
        drained,
        report.panic,
        report.interrupt,
    )
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::control::CancelToken;
    use crate::executor::tests::random_graph;
    use crate::executor::{run, run_workers, ExecRequest, Mapping};
    use crate::trace::EventKind;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    /// Untraced, and with the recorder attached in both of its modes.
    fn trace_modes(g: &TaskGraph) -> [TraceConfig; 3] {
        [
            TraceConfig::off(),
            TraceConfig::counters(),
            TraceConfig::full(g.len(), 1),
        ]
    }

    /// [`run`] on the cached schedule of `g` with everything else at its
    /// default — a request that replays inline, whatever the tracing.
    fn replay(
        g: &TaskGraph,
        budget: &RunBudget,
        trace: TraceConfig,
        runner: impl Fn(usize) + Sync,
    ) -> ExecReport {
        let s = ExecSchedule::for_graph(g);
        let req = ExecRequest {
            schedule: Some(&s),
            budget,
            trace,
            ..ExecRequest::new(g.pred_counts(), g.successor_lists())
        };
        assert!(req.runs_inline());
        run(&req, runner)
    }

    /// The order in which `exec` hands the tasks of `req` to its runner.
    fn acquisition_order(
        req: &ExecRequest<'_>,
        exec: impl FnOnce(&ExecRequest<'_>, &(dyn Fn(usize) + Sync)) -> ExecReport,
    ) -> Vec<usize> {
        let acquired = Mutex::new(Vec::new());
        let report = exec(req, &|t| acquired.lock().unwrap().push(t));
        assert!(report.panic.is_none() && report.interrupt.is_none());
        acquired.into_inner().unwrap()
    }

    #[test]
    fn seq_order_is_a_topological_cover() {
        for seed in 0..6u64 {
            let g = random_graph(16, 40, seed);
            let s = ExecSchedule::for_graph(&g);
            assert_eq!(s.len(), g.len());
            // Every task appears exactly once.
            let mut seen = vec![false; g.len()];
            for &t in s.seq_order() {
                assert!(!seen[t], "task {t} scheduled twice");
                seen[t] = true;
            }
            assert!(seen.iter().all(|&b| b));
            // Topological: a task appears after all its predecessors.
            let mut pos = vec![0usize; g.len()];
            for (i, &t) in s.seq_order().iter().enumerate() {
                pos[t] = i;
            }
            for t in 0..g.len() {
                for &succ in g.successors(t) {
                    assert!(pos[t] < pos[succ], "edge {t}→{succ} violated");
                }
            }
        }
    }

    /// The replay claim: `seq_order` is the order the worker loop acquires
    /// at one worker. [`run`] never enters the loop with one worker, so the
    /// loop is called directly; the priorities are arbitrary (with ties),
    /// not bottom levels, and the inline replay of the same schedule —
    /// counters on, which used to select the loop — hands out the same order.
    #[test]
    fn seq_order_is_the_one_worker_acquisition_order() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..12u64 {
            let g = random_graph(18, 45, seed);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
            let priority: Vec<u64> = (0..g.len()).map(|_| rng.gen_range(0..5)).collect();
            let s = ExecSchedule::with_priorities(g.pred_counts(), g.successor_lists(), priority);
            let req = ExecRequest {
                schedule: Some(&s),
                trace: TraceConfig::counters(),
                ..ExecRequest::new(g.pred_counts(), g.successor_lists())
            };
            assert!(req.runs_inline(), "one worker never spawns, traced or not");
            let looped = acquisition_order(&req, |req, runner| {
                let report = run_workers(req, runner);
                report.stats.assert_consistent();
                report
            });
            assert_eq!(looped, s.seq_order(), "seed {seed}");
            let inline = acquisition_order(&req, |req, runner| run(req, runner));
            assert_eq!(inline, s.seq_order(), "seed {seed}");
        }
    }

    /// Computed-order inline == cached-order inline == one-worker loop
    /// order, under the bottom-level priorities every unscheduled request
    /// gets — which tie on these graphs, so the tie-break is exercised.
    #[test]
    fn computed_and_cached_inline_orders_are_the_one_worker_loop_order() {
        let mut tied = false;
        for seed in 0..12u64 {
            let g = random_graph(18, 45, seed);
            let s = ExecSchedule::for_graph(&g);
            let mut levels = s.priorities().to_vec();
            levels.sort_unstable();
            tied |= levels.windows(2).any(|w| w[0] == w[1]);
            let computed = ExecRequest::new(g.pred_counts(), g.successor_lists());
            let cached = ExecRequest {
                schedule: Some(&s),
                ..computed
            };
            for req in [&computed, &cached] {
                assert!(req.runs_inline());
                let inline = acquisition_order(req, |req, runner| run(req, runner));
                assert_eq!(inline, s.seq_order(), "inline, seed {seed}");
                let looped = acquisition_order(req, |req, runner| run_workers(req, runner));
                assert_eq!(looped, s.seq_order(), "worker loop, seed {seed}");
            }
        }
        assert!(tied, "the graphs must exercise the priority tie-break");
    }

    #[test]
    fn inline_replay_runs_every_task_once() {
        let g = random_graph(12, 30, 2);
        for trace in trace_modes(&g) {
            let order = Mutex::new(Vec::new());
            let report = replay(&g, &RunBudget::default(), trace, |t| {
                order.lock().unwrap().push(t)
            });
            assert_eq!(
                order.into_inner().unwrap(),
                ExecSchedule::for_graph(&g).seq_order()
            );
            assert!(report.panic.is_none() && report.interrupt.is_none());
            assert_eq!(report.stats.tasks_started, g.len() as u64);
            assert_eq!(report.stats.tasks_retired, g.len() as u64);
        }
    }

    /// The recorder of the inline replay fills the report shapes of a
    /// one-worker loop run: one `WorkerStats`, busy inside the wall, no
    /// idle, steal or park; full mode adds one `Task` event per task, in
    /// `seq_order`, back to back on the caller's epoch.
    #[test]
    fn inline_replay_records_like_a_one_worker_run() {
        let g = random_graph(16, 40, 8);
        let s = ExecSchedule::for_graph(&g);
        let epoch = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        for trace in [TraceConfig::counters(), TraceConfig::full(g.len(), 1)] {
            let report = replay(&g, &RunBudget::default(), trace.with_epoch(epoch), |_| {
                std::thread::sleep(Duration::from_micros(20))
            });
            report.stats.assert_consistent();
            assert_eq!(report.stats.nthreads, 1);
            let [w] = report.stats.workers.as_slice() else {
                panic!("one worker, one stats block");
            };
            assert!(w.busy_s > 0.0 && w.busy_s <= report.stats.wall_s);
            assert_eq!((w.idle_s, w.steal_s), (0.0, 0.0));
            assert_eq!((w.parks, w.steal_attempts, w.steals_in), (0, 0, 0));
            let Some(events) = report.trace.map(|t| t.events) else {
                assert_eq!(trace.mode, TraceMode::Counters);
                continue;
            };
            let tids: Vec<usize> = events
                .iter()
                .map(|e| match e.kind {
                    EventKind::Task { tid } => tid,
                    other => panic!("a calling thread records tasks only, got {other:?}"),
                })
                .collect();
            assert_eq!(tids, s.seq_order());
            assert!(events[0].start_ns >= 2_000_000, "events sit on the epoch");
            assert!(events
                .iter()
                .all(|e| e.worker == 0 && e.start_ns <= e.end_ns));
            assert!(events.windows(2).all(|w| w[0].end_ns <= w[1].start_ns));
        }
    }

    #[test]
    fn inline_replay_honours_cancellation_before_each_task() {
        let g = random_graph(12, 30, 3);
        for trace in trace_modes(&g) {
            let token = CancelToken::new();
            token.cancel_after_checkpoints(3);
            let budget = RunBudget::default().with_token(token);
            let ran = AtomicUsize::new(0);
            let report = replay(&g, &budget, trace, |_| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
            // Two checkpoints pass, the third trips before the third task.
            assert_eq!(ran.load(Ordering::Relaxed), 2);
            assert_eq!(
                report.interrupt,
                Some(Interrupt::Cancelled {
                    tasks_pending: g.len() - 2
                })
            );
            assert_eq!(report.stats.tasks_started, 2);
            assert_eq!(report.stats.tasks_retired, 2);
        }
    }

    #[test]
    fn inline_replay_never_interrupts_a_finished_run() {
        let g = random_graph(10, 20, 4);
        for trace in trace_modes(&g) {
            // Checked only before acquisitions: with an exact trip budget of
            // len+1 checkpoints the run finishes clean.
            let token = CancelToken::new();
            token.cancel_after_checkpoints(g.len() + 1);
            let budget = RunBudget::default().with_token(token);
            let report = replay(&g, &budget, trace, |_| {});
            assert!(report.interrupt.is_none());
            assert_eq!(report.stats.tasks_retired, g.len() as u64);
        }
    }

    #[test]
    fn inline_replay_expired_deadline_trips_and_cancels_token() {
        let g = random_graph(10, 20, 5);
        for trace in trace_modes(&g) {
            let token = CancelToken::new();
            let budget = RunBudget::default()
                .with_token(token.clone())
                .with_deadline(Instant::now() - Duration::from_millis(1));
            let report = replay(&g, &budget, trace, |_| {});
            assert_eq!(
                report.interrupt,
                Some(Interrupt::DeadlineExceeded {
                    tasks_pending: g.len()
                })
            );
            assert!(token.is_cancelled());
            assert_eq!(report.stats.tasks_started, 0);
        }
    }

    #[test]
    fn inline_replay_contains_panics() {
        let g = random_graph(10, 20, 6);
        for trace in trace_modes(&g) {
            let ran = AtomicUsize::new(0);
            let report = replay(&g, &RunBudget::default(), trace, |_| {
                if ran.fetch_add(1, Ordering::Relaxed) == 1 {
                    panic!("injected");
                }
            });
            let p = report.panic.expect("panic reported");
            assert_eq!(p.worker, 0);
            assert!(p.message.contains("injected"));
            assert_eq!(report.stats.tasks_retired, 1);
            if let Some(t) = report.trace {
                assert_eq!(t.events.len(), 1, "the panicked task closes no event");
            }
        }
    }

    #[test]
    fn cached_priorities_match_the_graph() {
        let g = random_graph(14, 35, 7);
        let s = ExecSchedule::for_graph(&g);
        assert_eq!(s.priorities(), g.bottom_levels().as_slice());
    }

    #[test]
    fn parallel_reuse_runs_every_task_once_under_both_mappings() {
        for (seed, mapping) in [(2u64, Mapping::Static1D), (3, Mapping::Dynamic)] {
            let g = random_graph(14, 35, seed);
            let s = ExecSchedule::for_graph(&g);
            let ran = AtomicUsize::new(0);
            let home = |t: usize| g.task(t).home_column() % 4;
            let req = ExecRequest {
                schedule: Some(&s),
                threads: 4,
                placement: mapping.placement(&home),
                trace: TraceConfig::counters(),
                ..ExecRequest::new(g.pred_counts(), g.successor_lists())
            };
            let report = run(&req, |_| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(ran.load(Ordering::Relaxed), g.len());
            assert!(report.panic.is_none() && report.interrupt.is_none());
            assert_eq!(report.stats.tasks_retired, g.len() as u64);
        }
    }
}
