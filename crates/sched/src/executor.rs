//! The DAG executor — the RAPID substitute (DESIGN.md §5): one entry
//! point, [`run`], over one worker loop.
//!
//! An [`ExecRequest`] names everything a run depends on: the DAG (the two
//! arrays of a successor pattern — a [`TaskGraph`](crate::TaskGraph)'s
//! edges, a contracted range plan's and ad-hoc slices are all viewed this
//! way; in-degrees are counted where a run needs them), how
//! many tasks each of its nodes holds, an optional cached
//! [`ExecSchedule`], the worker count, the [`Placement`] of ready tasks,
//! the [`TraceConfig`] and the [`RunBudget`]. Every phase that schedules
//! work — the numeric factorization, the parallel triangular sweeps —
//! builds a request and calls [`run`].
//!
//! A node is the unit of scheduling, a **task** the unit of accounting: a
//! node of several tasks ([`ExecRequest::task_bounds`]; the numeric
//! phase's range of block columns) runs them back to back on one worker
//! and announces each through [`Steps::begin`], so budget checkpoints,
//! heartbeats, recorder events and panic reports stay per task.
//!
//! Tasks are dispatched from per-worker **ready pools ordered by
//! priority**: the cached schedule's, or else each task's unit *bottom
//! level* — the length of the longest dependence path from it to a sink of
//! the DAG — so workers always prefer the task deepest on the critical
//! path.
//!
//! Two placements of ready tasks are supported:
//!
//! - [`Placement::Owner`] reproduces the paper's static 1D column-block
//!   mapping ([`Mapping::Static1D`] at the task-graph level): every task
//!   writing block column `j` (its `Factor(j)` and all `Update(·, j)`) runs
//!   on worker `j mod P`. Each worker pops **only its own pool** — no
//!   stealing — because the mapping is what serializes all writers of a
//!   column on one worker; a stolen task could race another writer of the
//!   same column. Callers relying on it for mutual exclusion (e.g.
//!   lock-free column updates) keep that guarantee.
//! - [`Placement::Steal`] ([`Mapping::Dynamic`]) is the work-stealing mode:
//!   a worker pushes newly ready tasks into its own pool (locality: the
//!   successor usually reads what the worker just wrote) and, when its pool
//!   runs dry, steals the highest-priority task from the first non-empty
//!   victim pool. Tasks of one column may then run on different workers,
//!   which is safe for the numeric factorization because block columns are
//!   `RwLock`-guarded and Gilbert's disjoint-row-structure property makes
//!   concurrent updates of one column commute bitwise.
//!
//! **One worker never spawns**: a request that [`ExecRequest::runs_inline`]
//! (one worker, no watchdog to feed) is replayed by [`run`] on the calling
//! thread, traced or not — see [`crate::schedule`]; a one-node DAG needs
//! no order to replay and allocates nothing for it.
//!
//! The synchronization primitives the worker loop is built on — the sleep
//! [`Gate`], the [`crate::sync::Countdown`] of unretired tasks and the
//! abort latch — live in [`crate::sync`], where a `cfg(loom)` shim lets the
//! loom harness model-check them (no lost wakeup, abort broadcast
//! terminates every worker, `started == retired`).
//!
//! Shutdown uses a gate (mutex + condvar) per pool owner: a pusher acquires
//! the gate lock before notifying, and a parking worker re-checks both the
//! pools and the remaining-task count under that same lock before waiting,
//! so the park/push race cannot lose a wakeup. When the last task retires,
//! the retiring worker locks every gate and broadcasts once — each parked
//! worker wakes exactly once, observes `remaining == 0`, and exits. A
//! panicking task is **contained**: the worker records a [`TaskPanic`]
//! (first panic wins), sets the abort flag, and broadcasts the same way, so
//! the remaining workers drain and exit instead of deadlocking. The panic
//! comes back in [`ExecReport::panic`] — no unwind escapes [`run`] and no
//! lock is poisoned; a caller without an error channel of its own re-raises
//! it with [`ExecReport::rethrow`].
//!
//! The same abort-broadcast path also serves the **run budget**
//! ([`crate::RunBudget`]): a cancellation token and a deadline are checked
//! before every task starts, and an armed watchdog spawns a monitor that
//! reads the per-worker heartbeat epochs (one per task started) and aborts
//! a run that makes no progress for a full stall window. An interrupted
//! run **drains** — workers exit at their next boundary, parked workers
//! are woken — and the reason lands in [`ExecReport::interrupt`]. All
//! checks are cooperative: a task body is never killed mid-flight, so
//! enforcement latency is bounded by the longest single task.

use crate::control::{RunBudget, Supervisor};
use crate::graph::{bottom_levels, in_degrees, topo_order};
use crate::schedule::{one_worker_order, replay_inline, ExecSchedule, Ready};
use crate::sync::{AtomicUsize, Gate, Mutex, Ordering, Park};
use crate::trace::{
    assemble_report, EventKind, ExecReport, TaskPanic, TraceConfig, TraceEvent, WorkerRecorder,
};
use splu_sparse::SparsityPattern;
use std::borrow::Cow;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Task-to-worker assignment policy of a [`TaskGraph`](crate::TaskGraph)
/// run — the graph-level spelling of [`Placement`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mapping {
    /// The paper's static 1D column-block mapping: `owner(j) = j mod P`.
    /// Owner-only execution — no stealing — so all writers of a column are
    /// serialized on one worker.
    Static1D,
    /// Work-stealing self-scheduling: any worker may run any task. Callers
    /// must guard shared per-column state themselves.
    Dynamic,
}

impl Mapping {
    /// The executor placement this mapping stands for; `home` maps a task
    /// id to its owner, `home_column mod P`.
    pub fn placement<'a>(self, home: &'a (dyn Fn(usize) -> usize + Sync)) -> Placement<'a> {
        match self {
            Mapping::Static1D => Placement::Owner(home),
            Mapping::Dynamic => Placement::Steal,
        }
    }
}

/// Where a ready task is queued.
#[derive(Clone, Copy)]
pub enum Placement<'a> {
    /// Task `t` runs on worker `queue_of(t)` (which must be below the
    /// worker count); workers never steal.
    Owner(&'a (dyn Fn(usize) -> usize + Sync)),
    /// A newly ready task joins the pool of the worker that released it,
    /// and idle workers steal.
    Steal,
}

/// The budget of a request that sets none.
static UNBOUNDED: RunBudget = RunBudget {
    deadline: None,
    token: None,
    watchdog: None,
};

/// Everything one executor run depends on. Start from
/// [`ExecRequest::new`] and override fields with struct-update syntax.
#[derive(Clone, Copy)]
pub struct ExecRequest<'a> {
    /// Successor pointers, one more than there are nodes: node `t`
    /// precedes `successors[succ_ptr[t]..succ_ptr[t + 1]]`.
    pub succ_ptr: &'a [usize],
    /// Successor ids of all nodes, node after node.
    pub successors: &'a [u32],
    /// The tasks of each node: node `t` runs tasks `b[t]..b[t + 1]` of
    /// `Some(b)` (non-decreasing from `b[0] = 0`, one entry more than there
    /// are nodes; the executor allows a node of none, which the numeric
    /// phase's plans never hold), and its runner announces each
    /// through [`Steps::begin`]. `None`: node `t` is the one task `t`,
    /// which the executor announces before calling the runner.
    pub task_bounds: Option<&'a [usize]>,
    /// Cached node priorities; `None` schedules by unit bottom levels
    /// computed per run.
    pub schedule: Option<&'a ExecSchedule>,
    /// Worker threads (`0` is taken as `1`).
    pub threads: usize,
    /// Where ready tasks are queued.
    pub placement: Placement<'a>,
    /// Scheduler telemetry; [`TraceConfig::off`] records nothing.
    pub trace: TraceConfig,
    /// Cancellation token, deadline and liveness watchdog.
    pub budget: &'a RunBudget,
}

impl<'a> ExecRequest<'a> {
    /// A request over the DAG of the given successor arrays with the
    /// defaults: one worker, stealing placement, no cached schedule,
    /// tracing off, unbounded budget.
    pub fn new(succ_ptr: &'a [usize], successors: &'a [u32]) -> Self {
        ExecRequest {
            succ_ptr,
            successors,
            task_bounds: None,
            schedule: None,
            threads: 1,
            placement: Placement::Steal,
            trace: TraceConfig::off(),
            budget: &UNBOUNDED,
        }
    }

    /// [`Self::new`] over a pattern whose column `t` lists the successors
    /// of node `t` (a [`TaskGraph`](crate::TaskGraph)'s edges).
    pub fn of(edges: &'a SparsityPattern) -> Self {
        Self::new(edges.col_ptr(), edges.row_indices())
    }

    /// Whether [`run`] replays the one-worker order inline on the calling
    /// thread instead of spawning workers: one worker, no watchdog to feed.
    pub fn runs_inline(&self) -> bool {
        self.threads <= 1 && self.budget.watchdog.is_none()
    }

    /// Number of nodes.
    pub(crate) fn n_nodes(&self) -> usize {
        self.succ_ptr.len().saturating_sub(1)
    }

    /// Successor ids of `node`.
    pub(crate) fn successors_of(&self, node: usize) -> &'a [u32] {
        &self.successors[self.succ_ptr[node]..self.succ_ptr[node + 1]]
    }

    /// Tasks of all nodes together.
    pub(crate) fn n_tasks(&self) -> usize {
        let nodes = self.n_nodes();
        self.task_bounds.map_or(nodes, |b| b[nodes])
    }

    /// Id of the first task of `node`.
    pub(crate) fn first_task(&self, node: usize) -> usize {
        self.task_bounds.map_or(node, |b| b[node])
    }
}

/// The executor's side of a running node: a runner of a node of several
/// tasks ([`ExecRequest::task_bounds`]) calls [`Steps::begin`] before each
/// of them, which closes the task before it (its recorder event, its
/// retirement), polls the run budget, beats the worker's heart and opens
/// the next task id — one checkpoint, one heartbeat and one recorded
/// task per task, however many a node holds. The runner of a one-task
/// node never calls it: the executor has announced that task already.
pub struct Steps<'s>(pub(crate) &'s mut dyn Announce);

impl Steps<'_> {
    /// The node's next task starts now. `false`: the run is draining (its
    /// budget tripped, or another task panicked) — return without running
    /// it.
    pub fn begin(&mut self) -> bool {
        self.0.begin()
    }
}

/// How a run announces tasks: on the calling thread or in a worker.
pub(crate) trait Announce {
    fn begin(&mut self) -> bool;
}

/// [`Announce`] inside the worker loop: the supervisor's checks and
/// heartbeats, and the worker's recorder.
struct WorkerSteps<'a, 'r> {
    sup: &'a Supervisor<'a>,
    w: usize,
    rec: &'r mut WorkerRecorder,
    wake: &'a dyn Fn(),
    t0: Option<Instant>,
    /// The task running, once announced.
    open: Option<usize>,
    /// Id the next announcement starts.
    next: usize,
}

impl WorkerSteps<'_, '_> {
    /// Retires the task running, if any.
    fn close(&mut self) {
        if let Some(tid) = self.open.take() {
            self.rec.end_task(self.t0, tid);
            self.rec.count_retired();
            self.sup.note_retired(self.w);
        }
    }
}

impl Announce for WorkerSteps<'_, '_> {
    fn begin(&mut self) -> bool {
        self.close();
        if self.sup.check_budget(self.wake) {
            return false;
        }
        self.t0 = self.rec.begin();
        self.sup.note_acquired(self.w, self.next);
        self.open = Some(self.next);
        self.next += 1;
        true
    }
}

/// Runs every node of the request's DAG once, honouring all dependence
/// edges and always preferring the ready node of highest priority.
/// `runner` is invoked with each node id and the [`Steps`] it announces
/// the node's tasks through.
///
/// The run never unwinds and never hangs on a failing task: a worker panic
/// is contained in [`ExecReport::panic`], a tripped budget drains the run
/// and lands in [`ExecReport::interrupt`]. An empty DAG returns at once
/// with a report shaped for the requested worker count.
///
/// # Panics
///
/// Panics when the DAG has a cycle, when a cached schedule was built for a
/// different node count, or when the task bounds do not cover the nodes.
#[must_use = "a contained worker panic or interrupt is only visible in the report"]
pub fn run<F>(req: &ExecRequest<'_>, runner: F) -> ExecReport
where
    F: Fn(usize, &mut Steps<'_>) + Sync,
{
    let n_nodes = req.n_nodes();
    let nthreads = req.threads.max(1);
    let config = &req.trace;
    if n_nodes == 0 {
        return assemble_report(0, nthreads, 0.0, config, Vec::new(), None, None);
    }
    assert_eq!(
        req.succ_ptr[n_nodes],
        req.successors.len(),
        "successor pointers bracket the lists"
    );
    if let Some(schedule) = req.schedule {
        assert_eq!(
            schedule.len(),
            n_nodes,
            "schedule/graph task count mismatch"
        );
    }
    if let Some(b) = req.task_bounds {
        assert!(b.len() == n_nodes + 1 && b[0] == 0, "task bounds per node");
        debug_assert!(b.windows(2).all(|w| w[0] <= w[1]));
    }
    if req.runs_inline() {
        // One node needs no order; more replay the one-worker order.
        let computed;
        let order: &[usize] = if n_nodes == 1 {
            &[0]
        } else {
            computed = one_worker_order(req.succ_ptr, req.successors, &priorities(req));
            &computed
        };
        return replay_inline(order, req, runner);
    }
    run_workers(req, runner)
}

/// The worker loop of [`run`]: several workers, or an armed watchdog.
pub(crate) fn run_workers<F>(req: &ExecRequest<'_>, runner: F) -> ExecReport
where
    F: Fn(usize, &mut Steps<'_>) + Sync,
{
    let n_nodes = req.n_nodes();
    let n_tasks = req.n_tasks();
    let nthreads = req.threads.max(1);
    let config = &req.trace;
    // Event timestamps measure from the shared epoch when the caller set
    // one (pipeline-aligned traces); wall-clock always from executor start.
    let start = Instant::now();
    let epoch = config.epoch.unwrap_or(start);
    let priority = priorities(req);
    let priority: &[u64] = &priority;
    // With one worker there is one pool either way.
    let queue_of = match req.placement {
        Placement::Owner(queue_of) if nthreads > 1 => Some(queue_of),
        _ => None,
    };
    let pools: Vec<Mutex<BinaryHeap<Ready>>> = (0..nthreads)
        .map(|_| Mutex::new(BinaryHeap::new()))
        .collect();
    // Owners park on their own gate; stealing workers share one.
    let gates: Vec<Gate> = (0..if queue_of.is_some() { nthreads } else { 1 })
        .map(|_| Gate::new())
        .collect();
    let indeg: Vec<AtomicUsize> = (in_degrees(req.succ_ptr, req.successors).into_iter())
        .map(AtomicUsize::new)
        .collect();
    let sup = Supervisor::new(n_nodes, n_tasks, nthreads, req.budget);
    // Drained worker recorders; locked once per worker, at exit.
    let drained = Mutex::new(Vec::with_capacity(nthreads));
    // First caught worker panic; reported through `ExecReport::panic`
    // instead of unwinding out of the scope.
    let panicked: Mutex<Option<TaskPanic>> = Mutex::new(None);
    // The run-wide wake broadcast: last retire, panic containment, and
    // budget interrupts all go through it so no worker stays parked.
    let wake_all = || {
        for g in &gates {
            g.notify_all();
        }
    };

    // Seed the pools: owners get their own roots; in stealing mode roots are
    // dealt round-robin so all workers start busy.
    for (i, (t, _)) in (indeg.iter().enumerate())
        .filter(|(_, c)| c.load(Ordering::Relaxed) == 0)
        .enumerate()
    {
        let pool = match queue_of {
            Some(queue_of) => queue_of(t),
            None => i % nthreads,
        };
        pools[pool].lock().push(Ready {
            prio: priority[t],
            tid: t,
        });
    }

    std::thread::scope(|scope| {
        if let Some(cfg) = req.budget.watchdog {
            let sup = &sup;
            let wake_all = &wake_all;
            let pools = &pools;
            scope.spawn(move || {
                sup.monitor(cfg, wake_all, &|| {
                    pools.iter().map(|p| p.lock().len()).collect()
                });
            });
        }
        for w in 0..nthreads {
            let pools = &pools;
            let gates = &gates;
            let indeg = &indeg;
            let sup = &sup;
            let runner = &runner;
            let drained = &drained;
            let panicked = &panicked;
            let wake_all = &wake_all;
            scope.spawn(move || {
                let mut rec = WorkerRecorder::new(w, nthreads, config, epoch);
                let my_gate = &gates[if queue_of.is_some() { w } else { 0 }];
                // The worker body proper; a closure so the recorder is
                // drained on every exit path, panicked or clean.
                let mut body = || {
                    'work: loop {
                        // Acquire a node: own pool first, then (stealing
                        // only) the first non-empty victim. The budget is
                        // polled when a task starts; here only a drained
                        // run stops the search.
                        let node = 'acquire: loop {
                            if sup.is_aborted() {
                                return;
                            }
                            if let Some(r) = pools[w].lock().pop() {
                                break 'acquire r.tid;
                            }
                            if queue_of.is_none() && nthreads > 1 {
                                sup.beat_scan(w);
                                let t0 = rec.begin();
                                let mut hit = None;
                                for i in 1..nthreads {
                                    let victim = (w + i) % nthreads;
                                    if let Some(r) = pools[victim].lock().pop() {
                                        hit = Some((r.tid, victim));
                                        break;
                                    }
                                }
                                match hit {
                                    Some((tid, victim)) => {
                                        rec.end_steal(t0, victim, true);
                                        break 'acquire tid;
                                    }
                                    None => rec.end_steal(t0, w, false),
                                }
                            }
                            // Park. The gate lock makes the emptiness
                            // re-check and the wait atomic against pushers
                            // and retirement — see `sync::Gate`.
                            let t0 = rec.begin();
                            sup.beat_park(w);
                            match my_gate.park_if(
                                || sup.remaining.is_done() || sup.is_aborted(),
                                || {
                                    if queue_of.is_some() {
                                        !pools[w].lock().is_empty()
                                    } else {
                                        pools.iter().any(|p| !p.lock().is_empty())
                                    }
                                },
                            ) {
                                Park::Exit => return,
                                Park::Retry => sup.beat_unpark(w),
                                Park::Waited => {
                                    rec.end_park(t0);
                                    sup.beat_unpark(w);
                                }
                            }
                        };

                        let mut steps = WorkerSteps {
                            sup,
                            w,
                            rec: &mut rec,
                            wake: wake_all,
                            t0: None,
                            open: None,
                            next: req.first_task(node),
                        };
                        if req.task_bounds.is_none() && !steps.begin() {
                            return;
                        }
                        let ran =
                            catch_unwind(AssertUnwindSafe(|| runner(node, &mut Steps(&mut steps))));
                        if let Err(payload) = ran {
                            // Containment: record the first panic for the
                            // report, then abort so no worker stays parked
                            // behind a node that will never retire. Nothing
                            // unwinds out of the scope.
                            let task = steps.open.unwrap_or(steps.next);
                            panicked.lock().get_or_insert_with(|| {
                                TaskPanic::caught(w, task, payload.as_ref())
                            });
                            sup.abort_for_panic(wake_all);
                            return;
                        }
                        steps.close();
                        if sup.is_aborted() {
                            // The node may have stopped short: release
                            // nothing, the run is draining.
                            return;
                        }

                        for &s in req.successors_of(node) {
                            let s = s as usize;
                            if indeg[s].fetch_sub(1, Ordering::AcqRel) == 1 {
                                let pool = match queue_of {
                                    Some(queue_of) => queue_of(s),
                                    None => w,
                                };
                                pools[pool].lock().push(Ready {
                                    prio: priority[s],
                                    tid: s,
                                });
                                gates[if queue_of.is_some() { pool } else { 0 }].notify_one();
                            }
                        }
                        if sup.remaining.retire() {
                            // Last node retired: broadcast once on every
                            // gate so each parked worker wakes exactly once
                            // and exits, and release the watchdog monitor.
                            wake_all();
                            sup.on_last_retire();
                            return;
                        }
                        continue 'work;
                    }
                };
                body();
                sup.mark_exited(w);
                drained.lock().push(rec.finish());
            });
        }
    });
    let leftover = sup.remaining.remaining();
    let interrupt = sup.finish();
    let panicked = panicked.into_inner();
    debug_assert!(
        panicked.is_some() || interrupt.is_some() || leftover == 0,
        "clean shutdown must retire every node"
    );
    let mut report = assemble_report(
        n_tasks,
        nthreads,
        start.elapsed().as_secs_f64(),
        config,
        drained.into_inner(),
        panicked,
        interrupt,
    );
    if let Some(trace) = report.trace.as_ref().filter(|_| nthreads > 1) {
        report.stats.critical_path_s = Some(critical_path_s(req, &trace.events));
    }
    report
}

/// The request's node priorities: its schedule's, or unit bottom levels.
fn priorities<'a>(req: &ExecRequest<'a>) -> Cow<'a, [u64]> {
    match req.schedule {
        Some(schedule) => Cow::Borrowed(schedule.priorities()),
        None => Cow::Owned(bottom_levels(req.succ_ptr, req.successors)),
    }
}

/// The measured critical path of a traced run: the longest chain of node
/// spans along the DAG's edges, in seconds, where a node's span is the
/// summed duration of its tasks' events.
fn critical_path_s(req: &ExecRequest<'_>, events: &[TraceEvent]) -> f64 {
    let n = req.n_nodes();
    let mut span = vec![0u64; n];
    for e in events {
        if let EventKind::Task { tid } = e.kind {
            let node = req
                .task_bounds
                .map_or(tid, |b| b.partition_point(|&first| first <= tid) - 1);
            span[node] += e.end_ns - e.start_ns;
        }
    }
    // Longest chain ending just before each node, in topological order.
    let mut before = vec![0u64; n];
    let mut longest = 0;
    for t in topo_order(req.succ_ptr, req.successors) {
        let end = before[t] + span[t];
        longest = longest.max(end);
        for &s in req.successors_of(t) {
            before[s as usize] = before[s as usize].max(end);
        }
    }
    longest as f64 / 1e9
}
#[cfg(all(test, not(loom)))]
pub(crate) mod tests {
    use super::*;
    use crate::control::{CancelToken, Interrupt, WatchdogConfig};
    use crate::graph::{build_eforest_graph, build_sstar_graph, Task, TaskGraph};
    use parking_lot::Mutex as PlMutex;
    use splu_sparse::SparsityPattern;
    use splu_symbolic::static_fact::static_symbolic_factorization;
    use splu_symbolic::supernode::BlockStructure;
    use splu_symbolic::Partition;
    use std::time::Duration;

    const BOTH: [Mapping; 2] = [Mapping::Static1D, Mapping::Dynamic];

    pub(crate) fn random_graph(n: usize, extra: usize, seed: u64) -> TaskGraph {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut entries: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
        for _ in 0..extra {
            entries.push((rng.gen_range(0..n), rng.gen_range(0..n)));
        }
        graph_of(n, entries, seed.is_multiple_of(2))
    }

    fn graph_of(n: usize, entries: Vec<(usize, usize)>, eforest: bool) -> TaskGraph {
        let p = SparsityPattern::from_entries(n, n, entries).unwrap();
        let f = static_symbolic_factorization(&p).unwrap();
        let bs = BlockStructure::new(&f, Partition::singletons(n));
        if eforest {
            build_eforest_graph(&bs)
        } else {
            build_sstar_graph(&bs)
        }
    }

    /// `F(0) → U(0,1) → F(1) → …`: only one task is ever ready.
    fn chain_graph(n: usize) -> TaskGraph {
        let entries = (0..n)
            .map(|i| (i, i))
            .chain((1..n).map(|i| (i, i - 1)))
            .collect();
        graph_of(n, entries, true)
    }

    fn empty_graph() -> TaskGraph {
        let p = SparsityPattern::empty(0, 0);
        let f = static_symbolic_factorization(&p).unwrap();
        let bs = BlockStructure::new(&f, Partition::from_starts(vec![0]));
        build_eforest_graph(&bs)
    }

    /// [`run`] over a [`TaskGraph`] under its graph-level [`Mapping`].
    fn run_graph(
        graph: &TaskGraph,
        threads: usize,
        mapping: Mapping,
        trace: TraceConfig,
        budget: &RunBudget,
        runner: impl Fn(Task) + Sync,
    ) -> ExecReport {
        let home = |t: usize| graph.task(t).home_column() % threads;
        let req = ExecRequest {
            threads,
            placement: mapping.placement(&home),
            trace,
            budget,
            ..ExecRequest::of(graph.edges())
        };
        run(&req, |t, _| runner(graph.task(t)))
    }

    /// Runs a graph and records the completion order; asserts every task ran
    /// exactly once, no task ran before a predecessor, and the telemetry
    /// counters are consistent (started == retired == n_tasks).
    fn run_and_check(graph: &TaskGraph, nthreads: usize, mapping: Mapping) {
        let log = PlMutex::new(Vec::<Task>::new());
        let report = run_graph(
            graph,
            nthreads,
            mapping,
            TraceConfig::counters(),
            &UNBOUNDED,
            |t| log.lock().push(t),
        );
        report.stats.assert_consistent();
        assert_eq!(report.stats.nthreads, nthreads);
        assert!(report.trace.is_none(), "counters mode keeps no events");
        assert!(
            report.interrupt.is_none(),
            "unbudgeted runs never interrupt"
        );
        let log = log.into_inner();
        assert_eq!(log.len(), graph.len(), "every task runs exactly once");
        let mut pos = std::collections::HashMap::new();
        for (i, t) in log.iter().enumerate() {
            assert!(pos.insert(*t, i).is_none(), "task ran twice: {t:?}");
        }
        for tid in 0..graph.len() {
            for &s in graph.successors(tid) {
                assert!(
                    pos[&graph.task(tid)] < pos[&graph.task(s as usize)],
                    "dependence violated: {:?} after {:?}",
                    graph.task(tid),
                    graph.task(s as usize)
                );
            }
        }
    }

    #[test]
    fn executes_all_tasks_in_dependence_order() {
        for seed in 0..6 {
            let g = random_graph(15, 30, seed);
            for mapping in BOTH {
                for p in [1, 2, 4] {
                    run_and_check(&g, p, mapping);
                }
            }
        }
    }

    /// Full tracing yields one Task event per task with monotone per-worker
    /// timestamps, and the busy total matches the sum of task durations.
    #[test]
    fn full_tracing_yields_consistent_event_streams() {
        use crate::trace::EventKind;
        let g = random_graph(18, 40, 4);
        for mapping in BOTH {
            let report = run_graph(
                &g,
                4,
                mapping,
                TraceConfig::full(g.len(), 4),
                &UNBOUNDED,
                |_| std::thread::sleep(Duration::from_micros(20)),
            );
            report.stats.assert_consistent();
            let trace = report.trace.expect("full mode keeps events");
            let task_events: Vec<_> = trace
                .events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Task { .. }))
                .collect();
            assert_eq!(task_events.len(), g.len(), "one Task event per task");
            for w in 0..4 {
                let mut last = 0u64;
                for e in trace.events.iter().filter(|e| e.worker == w) {
                    assert!(e.start_ns >= last, "worker {w} timestamps not monotone");
                    assert!(e.end_ns >= e.start_ns);
                    last = e.start_ns;
                }
            }
            let busy_from_events: f64 = task_events
                .iter()
                .map(|e| (e.end_ns - e.start_ns) as f64 / 1e9)
                .sum();
            assert!(
                (busy_from_events - report.stats.busy_total()).abs() < 1e-6,
                "busy aggregate disagrees with the event stream"
            );
        }
    }

    /// Stealing at several threads with serialized tasks: in/out counts
    /// balance per victim, and owner placement never steals.
    #[test]
    fn steals_are_counted_and_balanced() {
        // A wide graph (many roots) so workers contend for seeded pools.
        let g = random_graph(30, 20, 6);
        let sleepy = |_| std::thread::sleep(Duration::from_micros(50));
        let report = run_graph(
            &g,
            4,
            Mapping::Dynamic,
            TraceConfig::counters(),
            &UNBOUNDED,
            sleepy,
        );
        report.stats.assert_consistent();
        let in_total: u64 = report.stats.workers.iter().map(|w| w.steals_in).sum();
        let out_total: u64 = report.stats.workers.iter().map(|w| w.steals_out).sum();
        assert_eq!(in_total, out_total);
        let attempts: u64 = report.stats.workers.iter().map(|w| w.steal_attempts).sum();
        assert!(attempts >= in_total);
        let report = run_graph(
            &g,
            4,
            Mapping::Static1D,
            TraceConfig::counters(),
            &UNBOUNDED,
            sleepy,
        );
        assert_eq!(report.stats.steals_total(), 0, "owners never steal");
    }

    #[test]
    fn static_mapping_serializes_columns() {
        // All tasks with the same home column must run on the same worker:
        // observable as: per column, completions are totally ordered even
        // with many threads. We verify via a per-column reentrancy flag.
        let g = random_graph(20, 50, 2);
        let ncols = g.num_block_cols();
        let in_flight: Vec<AtomicUsize> = (0..ncols).map(|_| AtomicUsize::new(0)).collect();
        run_graph(
            &g,
            4,
            Mapping::Static1D,
            TraceConfig::off(),
            &UNBOUNDED,
            |t| {
                let c = t.home_column();
                let prev = in_flight[c].fetch_add(1, Ordering::SeqCst);
                assert_eq!(prev, 0, "two tasks of column {c} ran concurrently");
                std::thread::sleep(Duration::from_micros(50));
                in_flight[c].fetch_sub(1, Ordering::SeqCst);
            },
        )
        .rethrow();
    }

    /// One empty-DAG answer on every path: no task runs and the report is
    /// shaped for the requested worker count, whichever placement, cached
    /// schedule or not.
    #[test]
    fn empty_graph_is_a_noop() {
        let g = empty_graph();
        let schedule = ExecSchedule::for_graph(&g);
        for mapping in BOTH {
            for schedule in [None, Some(&schedule)] {
                let home = |_: usize| 0;
                let req = ExecRequest {
                    threads: 3,
                    placement: mapping.placement(&home),
                    schedule,
                    ..ExecRequest::of(g.edges())
                };
                let report = run(&req, |_, _| panic!("no tasks expected"));
                assert!(report.panic.is_none() && report.interrupt.is_none());
                assert_eq!(report.stats.nthreads, 3);
                assert_eq!(report.stats.workers.len(), 3);
                assert_eq!(report.stats.n_tasks, 0);
            }
        }
    }

    #[test]
    fn more_threads_than_tasks() {
        let g = random_graph(3, 2, 5);
        run_and_check(&g, 16, Mapping::Static1D);
        run_and_check(&g, 16, Mapping::Dynamic);
    }

    #[test]
    fn higher_priority_root_runs_first_on_one_worker() {
        // Chain F(0) → U(0,1) → F(1) plus isolated F(2): on one worker the
        // chain head (bottom level 3) must be taken before the isolated
        // task (bottom level 1), whatever the seeding order.
        let g = graph_of(3, vec![(0, 0), (1, 0), (1, 1), (2, 2)], true);
        let log = PlMutex::new(Vec::<usize>::new());
        run(&ExecRequest::of(g.edges()), |t, _| log.lock().push(t)).rethrow();
        let order = log.into_inner();
        let pos = |tid: usize| order.iter().position(|&t| t == tid).unwrap();
        // The deepest root (F(0), level 3) precedes the shallow root (F(2)).
        assert!(pos(0) < pos(2), "F(0) before F(2)");
    }

    /// `run(..).rethrow()` is the fire-and-forget spelling: the contained
    /// panic is re-raised on the caller with the task's own message, and
    /// no worker is left behind.
    #[test]
    fn rethrow_reraises_the_worker_panic_with_its_message() {
        let g = random_graph(12, 24, 3);
        for p in [1, 4] {
            let hit = AtomicUsize::new(0);
            let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_graph(
                    &g,
                    p,
                    Mapping::Dynamic,
                    TraceConfig::off(),
                    &UNBOUNDED,
                    |_| {
                        if hit.fetch_add(1, Ordering::SeqCst) == 2 {
                            panic!("injected task failure");
                        }
                    },
                )
                .rethrow();
            }))
            .expect_err("panic must propagate to the caller");
            let message = payload.downcast_ref::<String>().expect("formatted panic");
            assert!(
                message.contains("injected task failure"),
                "threads={p}: {message}"
            );
        }
        // A clean run has nothing to re-raise.
        run_graph(
            &g,
            4,
            Mapping::Dynamic,
            TraceConfig::off(),
            &UNBOUNDED,
            |_| {},
        )
        .rethrow();
    }

    /// Containment contract: a worker panic does not unwind out of `run` —
    /// the run returns normally with [`ExecReport::panic`] set to the first
    /// caught panic, at every thread count and mapping, with no hang.
    #[test]
    fn contained_panic_is_reported_not_raised() {
        let g = random_graph(12, 24, 3);
        for mapping in BOTH {
            for p in [1, 2, 4, 8] {
                let hit = AtomicUsize::new(0);
                let report = run_graph(&g, p, mapping, TraceConfig::counters(), &UNBOUNDED, |_| {
                    if hit.fetch_add(1, Ordering::SeqCst) == 2 {
                        panic!("injected task failure");
                    }
                });
                let tp = report.panic.expect("panic must land in the report");
                assert_eq!(tp.message, "injected task failure");
                assert!(tp.worker < p, "worker id in range");
                assert!(tp.task < g.len(), "task id in range");
            }
        }
    }

    /// A panic on the very first task must not hang workers that are
    /// parked waiting for successors that will never become ready — stress
    /// the abort/broadcast path under both placements.
    #[test]
    fn panic_on_first_task_leaves_no_parked_worker() {
        // Only one task is ever ready, so 7 of 8 workers are parked when
        // the panic fires.
        let g = chain_graph(8);
        for _ in 0..50 {
            for mapping in BOTH {
                let report = run_graph(&g, 8, mapping, TraceConfig::off(), &UNBOUNDED, |_| {
                    panic!("first task fails")
                });
                assert!(report.panic.is_some(), "{mapping:?}");
            }
        }
    }

    /// After a contained panic the same executor state types are reusable —
    /// nothing is poisoned (parking_lot locks never poison; this guards the
    /// contract against a future std-Mutex regression).
    #[test]
    fn executor_is_reusable_after_contained_panic() {
        let g = random_graph(12, 24, 3);
        let report = run_graph(
            &g,
            4,
            Mapping::Dynamic,
            TraceConfig::off(),
            &UNBOUNDED,
            |_| panic!("boom"),
        );
        assert!(report.panic.is_some());
        // A clean run right after must still retire every task.
        run_and_check(&g, 4, Mapping::Dynamic);
    }

    /// Satellite regression: shutdown must wake a parked worker exactly once
    /// — looping tiny and empty graphs at 8 threads would hang (or panic on
    /// a double-wake use-after-retire) if the last-retire broadcast raced
    /// the park re-check.
    #[test]
    fn shutdown_stress_one_column_and_empty_graphs_at_8_threads() {
        let one = graph_of(1, vec![(0, 0)], true);
        assert_eq!(one.len(), 1, "one Factor task");
        let empty = empty_graph();
        for round in 0..200 {
            let ran = AtomicUsize::new(0);
            let mapping = BOTH[round % 2];
            run_graph(&one, 8, mapping, TraceConfig::off(), &UNBOUNDED, |_| {
                ran.fetch_add(1, Ordering::SeqCst);
            })
            .rethrow();
            assert_eq!(ran.load(Ordering::SeqCst), 1, "round {round}");
            run_graph(&empty, 8, mapping, TraceConfig::off(), &UNBOUNDED, |_| {
                panic!("no tasks expected")
            })
            .rethrow();
        }
    }

    // -- run-budget coverage (cancellation / deadline / watchdog) --

    /// A token armed to trip at the very first checkpoint stops the run
    /// before any task starts: the interrupt carries the full pending
    /// count, no task runs, nothing hangs — at every thread count, under
    /// both placements.
    #[test]
    fn pre_tripped_token_interrupts_before_any_task() {
        let g = random_graph(12, 24, 3);
        for mapping in BOTH {
            for p in [1, 2, 4, 8] {
                let token = CancelToken::new();
                token.cancel_after_checkpoints(0);
                let budget = RunBudget::unbounded().with_token(token.clone());
                let ran = AtomicUsize::new(0);
                let report = run_graph(&g, p, mapping, TraceConfig::off(), &budget, |_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
                assert_eq!(
                    report.interrupt,
                    Some(Interrupt::Cancelled {
                        tasks_pending: g.len()
                    }),
                    "p={p} {mapping:?}"
                );
                assert_eq!(ran.load(Ordering::SeqCst), 0, "no task may start");
                assert!(report.panic.is_none());
                assert!(token.is_cancelled());
            }
        }
    }

    /// An already-expired deadline interrupts the same way.
    #[test]
    fn expired_deadline_interrupts_before_any_task() {
        let g = random_graph(12, 24, 3);
        let budget = RunBudget::unbounded().with_deadline(Instant::now() - Duration::from_secs(1));
        let report = run_graph(&g, 4, Mapping::Dynamic, TraceConfig::off(), &budget, |_| {});
        assert_eq!(
            report.interrupt,
            Some(Interrupt::DeadlineExceeded {
                tasks_pending: g.len()
            })
        );
    }

    /// A token cancelled midway through the run still drains cleanly: the
    /// run returns (no hang), reports the interrupt, and the retired count
    /// never exceeds the DAG size.
    #[test]
    fn mid_run_cancellation_drains() {
        let g = random_graph(20, 40, 2);
        for trip_at in [1, 3, 7, 100] {
            let token = CancelToken::new();
            token.cancel_after_checkpoints(trip_at);
            let budget = RunBudget::unbounded().with_token(token);
            let report = run_graph(
                &g,
                4,
                Mapping::Dynamic,
                TraceConfig::counters(),
                &budget,
                |_| std::thread::sleep(Duration::from_micros(20)),
            );
            assert!(report.panic.is_none());
            assert!(report.stats.tasks_retired <= g.len() as u64);
            match report.interrupt {
                Some(Interrupt::Cancelled { tasks_pending }) => {
                    assert!(tasks_pending >= 1 && tasks_pending <= g.len());
                }
                // With a large trip count the run may finish first.
                None => assert_eq!(report.stats.tasks_retired, g.len() as u64),
                other => panic!("unexpected interrupt {other:?}"),
            }
        }
    }

    /// A run that will complete is never stamped with a late cancellation:
    /// cancel the token from the runner of the last task. An idle worker
    /// that sees the cancel at its next budget check — before or after the
    /// task retires — also sees that every task has been acquired, and the
    /// check is inert (`Supervisor::check_budget`).
    #[test]
    fn cancel_during_last_task_yields_clean_run() {
        let one = graph_of(1, vec![(0, 0)], true);
        for _ in 0..1000 {
            let token = CancelToken::new();
            let t2 = token.clone();
            let budget = RunBudget::unbounded().with_token(token);
            let report = run_graph(
                &one,
                4,
                Mapping::Dynamic,
                TraceConfig::counters(),
                &budget,
                move |_| t2.cancel(),
            );
            assert!(report.interrupt.is_none(), "finished run must stay clean");
            report.stats.assert_consistent();
        }
    }

    /// Watchdog: a task that never returns on its own (it spins until the
    /// run's token is cancelled) freezes the progress signature; the
    /// monitor must declare a stall, trip the abort — which cancels the
    /// token, releasing the spinning task — and the report must carry the
    /// per-worker snapshots. Under both placements.
    #[test]
    fn watchdog_reports_stall_and_releases_cooperative_task() {
        let g = chain_graph(6);
        for mapping in BOTH {
            let token = CancelToken::new();
            let t2 = token.clone();
            let budget = RunBudget::unbounded()
                .with_token(token.clone())
                .with_watchdog(WatchdogConfig::new(Duration::from_millis(50)));
            // First task stalls until cancelled; the rest are instant.
            let first = AtomicUsize::new(0);
            let report = run_graph(&g, 2, mapping, TraceConfig::off(), &budget, move |_| {
                if first.fetch_add(1, Ordering::SeqCst) == 0 {
                    while !t2.is_cancelled() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            });
            match report.interrupt {
                Some(Interrupt::Stalled(r)) => {
                    assert!(r.stalled_for >= Duration::from_millis(50));
                    assert!(r.tasks_pending >= 1);
                    assert_eq!(r.workers.len(), 2);
                    assert_eq!(r.queue_depths.len(), 2, "one depth per pool");
                }
                other => panic!("{mapping:?}: expected stall, got {other:?}"),
            }
            assert!(token.is_cancelled(), "stall trip must cancel the token");
        }
    }

    /// Watchdog overhead sanity: with the monitor armed but the run
    /// healthy, every task retires and no interrupt is reported.
    #[test]
    fn watchdog_stays_quiet_on_a_healthy_run() {
        let g = random_graph(15, 30, 0);
        let budget =
            RunBudget::unbounded().with_watchdog(WatchdogConfig::new(Duration::from_secs(5)));
        let report = run_graph(
            &g,
            4,
            Mapping::Dynamic,
            TraceConfig::counters(),
            &budget,
            |_| {},
        );
        assert!(report.interrupt.is_none());
        report.stats.assert_consistent();
    }

    // -- nodes of several tasks (task bounds) --

    /// Six nodes of 0–4 tasks each over a diamond-shaped DAG: one node
    /// holds none, which the executor allows.
    const NODE_PTR: [usize; 7] = [0, 3, 4, 5, 6, 6, 6];
    const NODE_SUCCS: [u32; 6] = [1, 2, 3, 4, 4, 5];
    const BOUNDS: [usize; 7] = [0, 3, 3, 7, 8, 12, 14];

    /// A runner announcing every task of its node, recording
    /// `(node, task)` — the task id is the node's first plus a count.
    fn announcing<'l>(
        log: &'l PlMutex<Vec<(usize, usize)>>,
    ) -> impl Fn(usize, &mut Steps<'_>) + Sync + 'l {
        move |node, steps| {
            for t in BOUNDS[node]..BOUNDS[node + 1] {
                if !steps.begin() {
                    return;
                }
                log.lock().push((node, t));
            }
        }
    }

    /// Every task of every node is announced once, on one worker, in
    /// order inside its node, after every task of the nodes before it;
    /// the counters count tasks, not nodes — inline and in the worker
    /// loop, traced or not.
    #[test]
    fn nodes_of_several_tasks_announce_each_task_once() {
        for p in [1, 2, 4] {
            for mapping in BOTH {
                for trace in [TraceConfig::counters(), TraceConfig::full(14, p)] {
                    let log = PlMutex::new(Vec::new());
                    let home = |t: usize| t % p;
                    let req = ExecRequest {
                        task_bounds: Some(&BOUNDS),
                        threads: p,
                        placement: mapping.placement(&home),
                        trace,
                        ..ExecRequest::new(&NODE_PTR, &NODE_SUCCS)
                    };
                    let report = run(&req, announcing(&log));
                    report.stats.assert_consistent();
                    assert_eq!(report.stats.n_tasks, 14);
                    let log = log.into_inner();
                    let mut tasks: Vec<usize> = log.iter().map(|&(_, t)| t).collect();
                    tasks.sort_unstable();
                    assert_eq!(tasks, (0..14).collect::<Vec<_>>(), "p={p}");
                    let pos = |t: usize| log.iter().position(|&(_, x)| x == t).unwrap();
                    for node in 0..6 {
                        let own = BOUNDS[node]..BOUNDS[node + 1];
                        assert!(own.clone().all(|t| log[pos(t)].0 == node));
                        assert!(own
                            .clone()
                            .zip(own.clone().skip(1))
                            .all(|(a, b)| pos(a) < pos(b)));
                        for &s in &NODE_SUCCS[NODE_PTR[node]..NODE_PTR[node + 1]] {
                            let s = s as usize;
                            for (a, b) in own.clone().zip(BOUNDS[s]..BOUNDS[s + 1]) {
                                assert!(pos(a) < pos(b), "edge {node} -> {s} (p={p})");
                            }
                        }
                    }
                    if let Some(t) = report.trace {
                        let task_events = t
                            .events
                            .iter()
                            .filter(|e| matches!(e.kind, EventKind::Task { .. }))
                            .count();
                        assert_eq!(task_events, 14, "one event per task, not per node");
                    }
                }
            }
        }
    }

    /// The budget is polled before every task of a node: a token armed
    /// for `n` checkpoints stops the run at the `n`-th task boundary, with
    /// `n − 1` tasks run and the rest pending — whichever node the
    /// boundary falls in.
    #[test]
    fn cancellation_stops_at_the_nth_task_boundary() {
        for n in 1..=15 {
            let token = CancelToken::new();
            token.cancel_after_checkpoints(n);
            let budget = RunBudget::unbounded().with_token(token);
            let log = PlMutex::new(Vec::new());
            let req = ExecRequest {
                task_bounds: Some(&BOUNDS),
                budget: &budget,
                ..ExecRequest::new(&NODE_PTR, &NODE_SUCCS)
            };
            let report = run(&req, announcing(&log));
            let ran = log.into_inner().len();
            if n <= 14 {
                assert_eq!(ran, n - 1, "n={n}");
                assert_eq!(
                    report.interrupt,
                    Some(Interrupt::Cancelled {
                        tasks_pending: 14 - (n - 1)
                    })
                );
                assert_eq!(report.stats.tasks_started, (n - 1) as u64);
            } else {
                assert_eq!((ran, report.interrupt), (14, None));
            }
        }
    }

    /// A panic inside a node names the task that was running, inline and
    /// on a worker.
    #[test]
    fn a_panic_inside_a_node_names_its_task() {
        for p in [1, 2] {
            let req = ExecRequest {
                task_bounds: Some(&BOUNDS),
                threads: p,
                ..ExecRequest::new(&NODE_PTR, &NODE_SUCCS)
            };
            let report = run(&req, |node, steps| {
                for t in BOUNDS[node]..BOUNDS[node + 1] {
                    if !steps.begin() {
                        return;
                    }
                    if t == 9 {
                        panic!("task 9 fails");
                    }
                }
            });
            let tp = report.panic.expect("the panic is contained");
            assert_eq!((tp.task, tp.message.as_str()), (9, "task 9 fails"), "p={p}");
        }
    }

    /// The watchdog hears one heartbeat per task of a node: a run of one
    /// node whose sixth task never returns is diagnosed with that task as
    /// the worker's last and exactly six beats.
    #[test]
    fn watchdog_hears_every_task_of_a_node() {
        let bounds = [0, 10];
        let token = CancelToken::new();
        let t2 = token.clone();
        let budget = RunBudget::unbounded()
            .with_token(token)
            .with_watchdog(WatchdogConfig::new(Duration::from_millis(50)));
        let req = ExecRequest {
            task_bounds: Some(&bounds),
            budget: &budget,
            ..ExecRequest::new(&[0, 0], &[])
        };
        assert!(!req.runs_inline(), "a watchdog needs the worker loop");
        let report = run(&req, |_, steps| {
            for t in 0..10 {
                if !steps.begin() {
                    return;
                }
                while t == 5 && !t2.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        });
        match report.interrupt {
            Some(Interrupt::Stalled(r)) => {
                let [w] = r.workers.as_slice() else {
                    panic!("one worker")
                };
                assert_eq!((w.last_task, w.heartbeats), (Some(5), 6));
                assert_eq!(r.tasks_pending, 5, "tasks 5..10 never retired");
            }
            other => panic!("expected a stall, got {other:?}"),
        }
    }

    /// The measured critical path of a traced run on several workers is
    /// the longest chain of node spans: the whole run's task time along a
    /// chain, the longest single node's when nothing depends on anything.
    #[test]
    fn measured_critical_path_follows_the_edges() {
        let bounds = [0, 2, 5, 6];
        let span = |events: &[TraceEvent], node: usize| -> u64 {
            events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::Task { tid } if (bounds[node]..bounds[node + 1]).contains(&tid) => {
                        Some(e.end_ns - e.start_ns)
                    }
                    _ => None,
                })
                .sum()
        };
        let sleepy = |node: usize, steps: &mut Steps<'_>| {
            for _ in bounds[node]..bounds[node + 1] {
                if !steps.begin() {
                    return;
                }
                std::thread::sleep(Duration::from_micros(300));
            }
        };
        let chain = ([0, 1, 2, 2], &[1, 2][..]);
        let apart = ([0, 0, 0, 0], &[][..]);
        for (ptr, succs) in [chain, apart] {
            let req = ExecRequest {
                task_bounds: Some(&bounds),
                threads: 2,
                trace: TraceConfig::full(6, 2),
                ..ExecRequest::new(&ptr, succs)
            };
            let report = run(&req, sleepy);
            let events = report.trace.expect("full trace").events;
            let spans: Vec<u64> = (0..3).map(|n| span(&events, n)).collect();
            let want = if ptr == chain.0 {
                spans.iter().sum::<u64>()
            } else {
                *spans.iter().max().unwrap()
            };
            assert_eq!(report.stats.critical_path_s, Some(want as f64 / 1e9));
        }
        // One worker, or no events: nothing is measured.
        let req = ExecRequest {
            task_bounds: Some(&bounds),
            trace: TraceConfig::full(6, 1),
            ..ExecRequest::new(&chain.0, chain.1)
        };
        assert_eq!(run(&req, sleepy).stats.critical_path_s, None);
    }
}
