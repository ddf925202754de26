//! Cached executor schedules for repeated factorizations.
//!
//! A solver session factors the same task graph many times (numeric
//! refactorization with unchanged structure). The executor's per-run
//! preparation — bottom-level priorities and, for a single worker, the
//! whole acquisition order — depends only on the graph, so a session
//! computes it once as an [`ExecSchedule`] and attaches it to every
//! [`crate::ExecRequest`]:
//!
//! * a request that [`crate::ExecRequest::runs_inline`] replays the
//!   precomputed sequential order **inline on the calling thread**: no
//!   worker spawn, no pools, no atomics — and, critically, **zero heap
//!   allocation**, which is what makes a session's `refactor` hot path
//!   allocation-free under the `alloc-track` counting allocator. Budget
//!   semantics mirror the parallel supervisor: the cancellation token and
//!   deadline are checked before every task acquisition (token first, then
//!   deadline, matching `Supervisor::check_budget`), and a run that has
//!   retired its last task can no longer be interrupted;
//! * every other request takes the worker loop with the cached priorities,
//!   skipping the per-run bottom-level sweep (worker threads are still
//!   spawned per run — a scoped-thread executor cannot be allocation-free).
//!
//! The sequential order is produced by draining the worker loop's own
//! ready pool ([`Ready`]: same max-heap, same tie-break on lower task id)
//! on one simulated worker, so the inline replay acquires tasks in the
//! order the real executor would — and the factored values are bitwise
//! identical either way, as the determinism suite asserts for every
//! schedule.

use crate::control::{Interrupt, RunBudget};
use crate::graph::{bottom_levels, TaskGraph};
use crate::trace::{ExecReport, TaskPanic};
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
        let (pred_counts, successors) = (graph.pred_counts(), graph.successor_lists());
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
/// Performs **no heap allocation**: no threads, no pools, no recorders.
/// The budget is honoured at every task-acquisition boundary with the
/// supervisor's semantics — token checkpoint first, then deadline; a
/// deadline trip also cancels the run's token (when one is attached) so
/// cooperative waiters inside tasks release; and once the last task has
/// retired the run can no longer be interrupted. A panicking task is
/// contained and reported through [`ExecReport::panic`], exactly like the
/// worker loop.
pub(crate) fn replay_inline<F>(schedule: &ExecSchedule, runner: F, budget: &RunBudget) -> ExecReport
where
    F: Fn(usize),
{
    let mut report = ExecReport::default();
    let n = schedule.seq_order.len();
    report.stats.nthreads = 1;
    report.stats.n_tasks = n;
    let armed = budget.is_armed();
    for (done, &tid) in schedule.seq_order.iter().enumerate() {
        if armed {
            // Same precedence as Supervisor::check_budget: the token is
            // consulted before the deadline, so a cancelled run with an
            // expired deadline still reports cancellation.
            if let Some(token) = &budget.token {
                if token.checkpoint() {
                    report.interrupt = Some(Interrupt::Cancelled {
                        tasks_pending: n - done,
                    });
                    return report;
                }
            }
            if let Some(deadline) = budget.deadline {
                if Instant::now() >= deadline {
                    if let Some(token) = &budget.token {
                        token.cancel();
                    }
                    report.interrupt = Some(Interrupt::DeadlineExceeded {
                        tasks_pending: n - done,
                    });
                    return report;
                }
            }
        }
        report.stats.tasks_started += 1;
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| runner(tid))) {
            report.panic = Some(TaskPanic::caught(0, tid, payload.as_ref()));
            return report;
        }
        report.stats.tasks_retired += 1;
    }
    report
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::control::CancelToken;
    use crate::executor::tests::random_graph;
    use crate::executor::{run, ExecRequest, Mapping};
    use crate::trace::TraceConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    /// [`run`] on the cached schedule of `g` with everything else at its
    /// default — the request shape that replays inline.
    fn replay(g: &TaskGraph, budget: &RunBudget, runner: impl Fn(usize) + Sync) -> ExecReport {
        let s = ExecSchedule::for_graph(g);
        let req = ExecRequest {
            schedule: Some(&s),
            budget,
            ..ExecRequest::new(g.pred_counts(), g.successor_lists())
        };
        assert!(req.runs_inline());
        run(&req, runner)
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

    /// The replay claim: `seq_order` is the order a real one-worker run
    /// acquires. Counters tracing keeps the request off the inline path,
    /// so the order recorded here is the worker loop's own; the priorities
    /// are arbitrary (with ties), not bottom levels.
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
            assert!(!req.runs_inline(), "a traced run takes the worker loop");
            let acquired = Mutex::new(Vec::new());
            let report = run(&req, |t| acquired.lock().unwrap().push(t));
            report.stats.assert_consistent();
            assert_eq!(acquired.into_inner().unwrap(), s.seq_order(), "seed {seed}");
        }
    }

    #[test]
    fn inline_replay_runs_every_task_once() {
        let g = random_graph(12, 30, 2);
        let order = Mutex::new(Vec::new());
        let report = replay(&g, &RunBudget::default(), |t| order.lock().unwrap().push(t));
        assert_eq!(
            order.into_inner().unwrap(),
            ExecSchedule::for_graph(&g).seq_order()
        );
        assert!(report.panic.is_none() && report.interrupt.is_none());
        assert_eq!(report.stats.tasks_started, g.len() as u64);
        assert_eq!(report.stats.tasks_retired, g.len() as u64);
    }

    #[test]
    fn inline_replay_honours_cancellation_before_each_task() {
        let g = random_graph(12, 30, 3);
        let token = CancelToken::new();
        token.cancel_after_checkpoints(3);
        let budget = RunBudget::default().with_token(token);
        let ran = AtomicUsize::new(0);
        let report = replay(&g, &budget, |_| {
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
    }

    #[test]
    fn inline_replay_never_interrupts_a_finished_run() {
        let g = random_graph(10, 20, 4);
        // Checked only before acquisitions: with an exact trip budget of
        // len+1 checkpoints the run finishes clean.
        let token = CancelToken::new();
        token.cancel_after_checkpoints(g.len() + 1);
        let budget = RunBudget::default().with_token(token);
        let report = replay(&g, &budget, |_| {});
        assert!(report.interrupt.is_none());
        assert_eq!(report.stats.tasks_retired, g.len() as u64);
    }

    #[test]
    fn inline_replay_expired_deadline_trips_and_cancels_token() {
        let g = random_graph(10, 20, 5);
        let token = CancelToken::new();
        let budget = RunBudget::default()
            .with_token(token.clone())
            .with_deadline(Instant::now() - Duration::from_millis(1));
        let report = replay(&g, &budget, |_| {});
        assert_eq!(
            report.interrupt,
            Some(Interrupt::DeadlineExceeded {
                tasks_pending: g.len()
            })
        );
        assert!(token.is_cancelled());
    }

    #[test]
    fn inline_replay_contains_panics() {
        let g = random_graph(10, 20, 6);
        let ran = AtomicUsize::new(0);
        let report = replay(&g, &RunBudget::default(), |_| {
            if ran.fetch_add(1, Ordering::Relaxed) == 1 {
                panic!("injected");
            }
        });
        let p = report.panic.expect("panic reported");
        assert_eq!(p.worker, 0);
        assert!(p.message.contains("injected"));
        assert_eq!(report.stats.tasks_retired, 1);
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
