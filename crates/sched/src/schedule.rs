//! Executor priorities, cached across runs, and the inline replay.
//!
//! The worker loop prefers the ready node of highest priority — by
//! default its unit bottom level, the longest dependence path from it to
//! a sink. That depends on the graph only, so a caller that runs one DAG
//! many times keeps it as an [`ExecSchedule`] and attaches it to every
//! [`crate::ExecRequest`], skipping the per-run sweep (the numeric layer's
//! range plan holds one: per node, its tasks' highest bottom level).
//!
//! A request that [`crate::ExecRequest::runs_inline`] — one worker, no
//! watchdog — is replayed **inline on the calling thread**
//! ([`replay_inline`]): no worker spawn, no pools, no atomics, traced or
//! not, so an observed run executes the program an unobserved one does.
//! A DAG of one node — a one-thread numeric phase, the session `refactor`
//! hot path — replays with **zero heap allocation** when untraced
//! (asserted under the `alloc-track` counting allocator); a larger one
//! first computes its order ([`one_worker_order`]) by draining the worker
//! loop's own ready pool ([`Ready`]: same max-heap, same tie-break on
//! lower task id) on one simulated worker, so the inline replay acquires
//! nodes in the order the worker loop would at one worker.

use crate::control::{Interrupt, RunBudget};
use crate::executor::{Announce, ExecRequest, Steps};
use crate::graph::{in_degrees, TaskGraph};
use crate::trace::{assemble_report, ExecReport, TaskPanic, TraceMode, WorkerRecorder};
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Ready-pool entry: max-heap by priority, ties broken toward the lower
/// task id so pool order is reproducible. The worker loop's pools and the
/// one-worker order below share this one ordering.
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
/// one priority per node, higher first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecSchedule {
    priority: Vec<u64>,
}

impl ExecSchedule {
    /// The schedule of `graph`: its unit bottom levels.
    pub fn for_graph(graph: &TaskGraph) -> Self {
        Self::with_priorities(graph.bottom_levels())
    }

    /// A schedule of caller-chosen priorities, one per node.
    pub fn with_priorities(priority: Vec<u64>) -> Self {
        ExecSchedule { priority }
    }

    /// Number of nodes the schedule covers.
    pub fn len(&self) -> usize {
        self.priority.len()
    }

    /// `true` for the empty graph's schedule.
    pub fn is_empty(&self) -> bool {
        self.priority.is_empty()
    }

    /// Priority per node id.
    pub fn priorities(&self) -> &[u64] {
        &self.priority
    }
}

/// The order a one-worker executor acquires the nodes of a DAG in under
/// `priority`: every node exactly once, after its predecessors.
pub(crate) fn one_worker_order(ptr: &[usize], succ: &[u32], priority: &[u64]) -> Vec<usize> {
    let mut indeg = in_degrees(ptr, succ);
    let n = indeg.len();
    assert_eq!(priority.len(), n, "one priority per node");
    let mut heap: BinaryHeap<Ready> = (0..n)
        .filter(|&t| indeg[t] == 0)
        .map(|tid| Ready {
            prio: priority[tid],
            tid,
        })
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(r) = heap.pop() {
        order.push(r.tid);
        for &s in &succ[ptr[r.tid]..ptr[r.tid + 1]] {
            let s = s as usize;
            indeg[s] -= 1;
            if indeg[s] == 0 {
                heap.push(Ready {
                    prio: priority[s],
                    tid: s,
                });
            }
        }
    }
    assert_eq!(order.len(), n, "task graph must be acyclic");
    order
}

/// [`Announce`] on the calling thread: the budget checked in place, the
/// run's one recorder, plain counters.
struct Inline<'a> {
    budget: &'a RunBudget,
    armed: bool,
    rec: Option<WorkerRecorder>,
    t0: Option<Instant>,
    /// The task running, once announced.
    open: Option<usize>,
    /// Id the next announcement starts.
    next: usize,
    n_tasks: usize,
    started: u64,
    retired: u64,
    interrupt: Option<Interrupt>,
}

impl Inline<'_> {
    /// Retires the task running, if any. Back to back: a task's end opens
    /// the next interval, one clock read each.
    fn close(&mut self) {
        if let Some(tid) = self.open.take() {
            if let Some(rec) = &mut self.rec {
                self.t0 = rec.end_task(self.t0, tid);
            }
            self.retired += 1;
        }
    }
}

impl Announce for Inline<'_> {
    fn begin(&mut self) -> bool {
        self.close();
        if self.armed {
            // Same precedence as Supervisor::check_budget: the token is
            // consulted before the deadline, so a cancelled run with an
            // expired deadline still reports cancellation.
            let tasks_pending = self.n_tasks - self.retired as usize;
            if self.budget.token.as_ref().is_some_and(|t| t.checkpoint()) {
                self.interrupt = Some(Interrupt::Cancelled { tasks_pending });
                return false;
            }
            if self.budget.deadline.is_some_and(|d| Instant::now() >= d) {
                if let Some(token) = &self.budget.token {
                    token.cancel();
                }
                self.interrupt = Some(Interrupt::DeadlineExceeded { tasks_pending });
                return false;
            }
        }
        self.started += 1;
        self.open = Some(self.next);
        self.next += 1;
        true
    }
}

/// Runs the nodes of `req` inline on the calling thread in `order` — the
/// path [`crate::run`] takes for a request that
/// [`crate::ExecRequest::runs_inline`].
///
/// Untraced it performs **no heap allocation** and reads no clock. Traced,
/// it fills the [`WorkerRecorder`] of a one-worker report:
/// [`TraceMode::Full`] records an epoch-relative `Task` event per task,
/// [`TraceMode::Counters`] reads the clock twice per run — busy is the
/// replay's wall; a calling thread never idles, steals or parks. The budget
/// is honoured before every task starts with the supervisor's semantics —
/// token checkpoint first, then deadline; a deadline trip also cancels the
/// run's token (when one is attached) so cooperative waiters inside tasks
/// release. A panicking task is contained and reported through
/// [`ExecReport::panic`], exactly like the worker loop.
pub(crate) fn replay_inline(
    order: &[usize],
    req: &ExecRequest<'_>,
    runner: impl Fn(usize, &mut Steps<'_>),
) -> ExecReport {
    let config = &req.trace;
    let n_tasks = req.n_tasks();
    let start = config.is_on().then(Instant::now);
    let mut line = Inline {
        budget: req.budget,
        armed: req.budget.is_armed(),
        rec: start.map(|t| WorkerRecorder::new(0, 1, config, config.epoch.unwrap_or(t))),
        t0: (config.mode == TraceMode::Full).then(Instant::now),
        open: None,
        next: 0,
        n_tasks,
        started: 0,
        retired: 0,
        interrupt: None,
    };
    let mut panic = None;
    for &node in order {
        line.next = req.first_task(node);
        if req.task_bounds.is_none() && !line.begin() {
            break;
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| runner(node, &mut Steps(&mut line))))
        {
            let task = line.open.unwrap_or(line.next);
            panic = Some(TaskPanic::caught(0, task, payload.as_ref()));
            break;
        }
        if line.interrupt.is_some() {
            break;
        }
        line.close();
    }
    let Some((start, rec)) = start.zip(line.rec) else {
        let mut report = ExecReport::default();
        report.stats.nthreads = 1;
        report.stats.n_tasks = n_tasks;
        report.stats.tasks_started = line.started;
        report.stats.tasks_retired = line.retired;
        report.panic = panic;
        report.interrupt = line.interrupt;
        return report;
    };
    let wall_s = start.elapsed().as_secs_f64();
    let (w, mut stats, events) = rec.finish();
    if config.mode != TraceMode::Full {
        stats.busy_s = wall_s;
    }
    stats.tasks_run = line.started;
    stats.tasks_retired = line.retired;
    let drained = vec![(w, stats, events)];
    assemble_report(n_tasks, 1, wall_s, config, drained, panic, line.interrupt)
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::control::CancelToken;
    use crate::executor::tests::random_graph;
    use crate::executor::{run, run_workers, ExecRequest, Mapping};
    use crate::trace::{EventKind, TraceConfig};
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
            ..ExecRequest::of(g.edges())
        };
        assert!(req.runs_inline());
        run(&req, |t, _| runner(t))
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

    /// The one-worker order of `g` under its bottom levels.
    fn bottom_level_order(g: &TaskGraph) -> Vec<usize> {
        let s = ExecSchedule::for_graph(g);
        one_worker_order(g.edges().col_ptr(), g.edges().row_indices(), s.priorities())
    }

    #[test]
    fn one_worker_order_is_a_topological_cover() {
        for seed in 0..6u64 {
            let g = random_graph(16, 40, seed);
            assert_eq!(ExecSchedule::for_graph(&g).len(), g.len());
            let order = bottom_level_order(&g);
            // Every task appears exactly once.
            let mut seen = vec![false; g.len()];
            for &t in &order {
                assert!(!seen[t], "task {t} scheduled twice");
                seen[t] = true;
            }
            assert!(seen.iter().all(|&b| b));
            // Topological: a task appears after all its predecessors.
            let mut pos = vec![0usize; g.len()];
            for (i, &t) in order.iter().enumerate() {
                pos[t] = i;
            }
            for t in 0..g.len() {
                for &succ in g.successors(t) {
                    assert!(pos[t] < pos[succ as usize], "edge {t}→{succ} violated");
                }
            }
        }
    }

    /// The replay claim: [`one_worker_order`] is the order the worker loop
    /// acquires at one worker. [`run`] never enters the loop with one
    /// worker, so the loop is called directly; the priorities are arbitrary
    /// (with ties), not bottom levels, and the inline replay of the same
    /// schedule — counters on, which used to select the loop — hands out
    /// the same order.
    #[test]
    fn one_worker_order_is_the_one_worker_acquisition_order() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..12u64 {
            let g = random_graph(18, 45, seed);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
            let priority: Vec<u64> = (0..g.len()).map(|_| rng.gen_range(0..5)).collect();
            let want = one_worker_order(g.edges().col_ptr(), g.edges().row_indices(), &priority);
            let s = ExecSchedule::with_priorities(priority);
            let req = ExecRequest {
                schedule: Some(&s),
                trace: TraceConfig::counters(),
                ..ExecRequest::of(g.edges())
            };
            assert!(req.runs_inline(), "one worker never spawns, traced or not");
            let looped = acquisition_order(&req, |req, runner| {
                let report = run_workers(req, |t, _| runner(t));
                report.stats.assert_consistent();
                report
            });
            assert_eq!(looped, want, "seed {seed}");
            let inline = acquisition_order(&req, |req, runner| run(req, |t, _| runner(t)));
            assert_eq!(inline, want, "seed {seed}");
        }
    }

    /// Computed-priority inline == cached-priority inline == one-worker
    /// loop order, under the bottom-level priorities every unscheduled
    /// request gets — which tie on these graphs, so the tie-break is
    /// exercised.
    #[test]
    fn computed_and_cached_inline_orders_are_the_one_worker_loop_order() {
        let mut tied = false;
        for seed in 0..12u64 {
            let g = random_graph(18, 45, seed);
            let s = ExecSchedule::for_graph(&g);
            let mut levels = s.priorities().to_vec();
            levels.sort_unstable();
            tied |= levels.windows(2).any(|w| w[0] == w[1]);
            let want = bottom_level_order(&g);
            let computed = ExecRequest::of(g.edges());
            let cached = ExecRequest {
                schedule: Some(&s),
                ..computed
            };
            for req in [&computed, &cached] {
                assert!(req.runs_inline());
                let inline = acquisition_order(req, |req, runner| run(req, |t, _| runner(t)));
                assert_eq!(inline, want, "inline, seed {seed}");
                let looped =
                    acquisition_order(req, |req, runner| run_workers(req, |t, _| runner(t)));
                assert_eq!(looped, want, "worker loop, seed {seed}");
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
            assert_eq!(order.into_inner().unwrap(), bottom_level_order(&g));
            assert!(report.panic.is_none() && report.interrupt.is_none());
            assert_eq!(report.stats.tasks_started, g.len() as u64);
            assert_eq!(report.stats.tasks_retired, g.len() as u64);
        }
    }

    /// The recorder of the inline replay fills the report shapes of a
    /// one-worker loop run: one `WorkerStats`, busy inside the wall, no
    /// idle, steal or park; full mode adds one `Task` event per task, in
    /// the one-worker order, back to back on the caller's epoch.
    #[test]
    fn inline_replay_records_like_a_one_worker_run() {
        let g = random_graph(16, 40, 8);
        let want = bottom_level_order(&g);
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
            assert_eq!(tids, want);
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
                ..ExecRequest::of(g.edges())
            };
            let report = run(&req, |_, _| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(ran.load(Ordering::Relaxed), g.len());
            assert!(report.panic.is_none() && report.interrupt.is_none());
            assert_eq!(report.stats.tasks_retired, g.len() as u64);
        }
    }
}
