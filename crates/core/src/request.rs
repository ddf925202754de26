//! The unified numeric-phase entry point: a [`NumericRequest`] names every
//! parameter of one factorization — task graph, worker count and mapping,
//! pivoting, tracing, and kernel selection — and
//! [`factor_numeric_with`] is the single driver that runs it. Its sibling
//! [`SymbolicRequest`] bounds and observes the analysis phases.
//!
//! Historically each parameter combination grew its own entry point
//! (`factor_with_graph`, `factor_with_graph_rule`, `…_traced`,
//! `factor_with_fine_graph`, …): six functions whose signatures drifted
//! apart — the fine-grained path, for instance, could not select a pivot
//! rule. The request struct collapsed them, their deprecated shims have
//! since been retired, and new parameters (like [`KernelChoice`] for the
//! dense kernel layer, or the cached [`ExecSchedule`] a solver session
//! replays) become fields with defaults instead of new functions.
//!
//! **What runs is a range plan.** Postordering makes every eforest subtree
//! a contiguous range of block columns whose tasks touch only that range
//! and its ancestors. At one thread the whole matrix is one range — the
//! coarse graph is not consulted, no schedule is computed, and the run is
//! [`crate::factor_left_looking`]'s loop with the request's kernels,
//! pivoting, budget and recorder. On several threads the coarse graph is
//! contracted: every maximal subtree whose model flops fall under
//! `total / (RANGES_PER_THREAD · P)` becomes one node running its columns
//! as one range, the tasks above them stay nodes of their own, and the
//! edges between nodes are the graph's. Per element this is a topological
//! order of the same DAG over the same task bodies, so the factors are
//! bitwise those of any other order.
//!
//! The kernel choice resolves to one [`Dispatch`] table **once per
//! factorization** (CPU feature probing included), and that table threads
//! through every `Factor`/`Update`/`Trsm`/`Gemm` task body — all of which preserve
//! the bitwise-equivalence contract documented on
//! [`Dispatch::gemm_sub`], so the factors are independent of the
//! selected kernels.

use crate::blocks::BlockMatrix;
use crate::costs::update_flops;
use crate::numeric::{factor_flops, TaskBodies};
use crate::numeric_fine::{apply_task, gemm_task, trsm_task};
use crate::observe::ObsSession;
use crate::solve::growth_factor;
use crate::{LuError, Options};
use splu_dense::{Dispatch, KernelChoice, PanelBreakdown, PivotRule};
use splu_obs::{Counter, MetricsRegistry};
use splu_sched::{
    run, CancelToken, ExecReport, ExecRequest, ExecSchedule, FineGraph, FineTask, Interrupt,
    Mapping, RunBudget, Task, TaskGraph, TraceConfig,
};
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// What the factorization does at a column whose static structure offers no
/// pivot above the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BreakdownPolicy {
    /// Stop: the driver returns [`LuError::NumericallySingular`] at the
    /// first such column (the remaining tasks drain as no-ops).
    #[default]
    Error,
    /// GESP-style static pivoting (cf. SuperLU_DIST): replace the column's
    /// diagonal by `sign(d)·eps·‖A‖₁`, complete the factorization, and
    /// report every perturbed column through
    /// [`splu_sched::FactorHealth`]. The factors are those of a nearby
    /// matrix, so callers must recover accuracy with iterative refinement
    /// ([`crate::SparseLu::solve`] does so automatically).
    Perturb {
        /// Perturbation magnitude relative to `‖A‖₁`.
        eps: f64,
    },
}

impl BreakdownPolicy {
    /// The customary perturbation magnitude `√ε ≈ 1.49e-8` (machine
    /// epsilon's square root, SuperLU_DIST's default).
    pub fn perturb_default() -> Self {
        BreakdownPolicy::Perturb {
            eps: f64::EPSILON.sqrt(),
        }
    }
}

/// Which task dependence graph drives the factorization.
#[derive(Clone, Copy)]
pub enum GraphRef<'g> {
    /// No graph: the whole matrix is one range, run on one thread in
    /// [`crate::factor_left_looking`]'s order — what a coarse request runs
    /// at one thread too, whatever [`NumericRequest::threads`] says.
    LeftLooking,
    /// The coarse `Factor`/`Update` graph: at one thread not consulted (one
    /// range), on several contracted into ranges and executed under a
    /// task-to-worker [`Mapping`].
    Coarse {
        /// The dependence graph.
        graph: &'g TaskGraph,
        /// Task-to-worker mapping (paper: static 1D column mapping; a
        /// range goes to an owner by its flops).
        mapping: Mapping,
    },
    /// The fine-grained `Apply`/`Trsm`/`Gemm` decomposition, executed on a
    /// single shared priority pool.
    Fine(&'g FineGraph),
}

/// All parameters of one numeric factorization. Build with
/// [`NumericRequest::left_looking`] / [`NumericRequest::coarse`] /
/// [`NumericRequest::fine`], adjust with the chainable setters, run with
/// [`factor_numeric_with`].
#[derive(Clone)]
pub struct NumericRequest<'g> {
    /// The task graph (and, for the coarse form, its mapping).
    pub graph: GraphRef<'g>,
    /// Worker threads for the numerical phase.
    pub threads: usize,
    /// Pivot-selection rule (partial, threshold, or static-diagonal).
    pub pivot_rule: PivotRule,
    /// Absolute pivot rejection threshold (`0.0`: any nonzero pivot).
    pub pivot_threshold: f64,
    /// Scheduler telemetry; [`TraceConfig::off`] records nothing. Tracing
    /// does not change the path a run takes through the executor.
    pub trace: TraceConfig,
    /// Dense kernel selection, resolved once into a [`Dispatch`] table.
    pub kernels: KernelChoice,
    /// What to do at a column with no acceptable pivot
    /// ([`BreakdownPolicy::Error`] by default).
    pub breakdown: BreakdownPolicy,
    /// Run bounds: cancellation token, deadline, liveness watchdog. The
    /// default is unbounded; an interrupted run drains and returns
    /// [`LuError::Cancelled`] / [`LuError::DeadlineExceeded`] /
    /// [`LuError::Stalled`] with progress attached.
    pub budget: RunBudget,
    /// Optional counters registry: every kernel invocation adds its call
    /// and model-flop counts ([`splu_obs::Counter`]), and the perturbed
    /// column total lands in [`splu_obs::Counter::PerturbedColumns`].
    /// `None` (the default) skips all counting.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Cached executor schedule of the **coarse** graph (a session on
    /// several threads computes it once per analysis with
    /// [`ExecSchedule::for_graph`]): its per-task priorities rank the nodes
    /// of the contracted graph — each node takes its tasks' highest —
    /// which saves a bottom-level sweep per run. A one-thread run needs
    /// none. The factors are bitwise identical either way. Ignored by the
    /// fine graph.
    pub schedule: Option<Arc<ExecSchedule>>,
    /// The pivot history this run must reproduce: the global row every
    /// column's pivot comes from. After each `Factor(K)` its interchanges
    /// are compared with these (`O(w_K)`); the first difference ends the
    /// run like a numerical breakdown, with
    /// [`LuError::PivotHistoryDiverged`]. A session sets it when the
    /// storage is laid out for that history only. `None` (the default)
    /// compares nothing.
    pub history: Option<&'g [usize]>,
}

impl<'g> NumericRequest<'g> {
    /// A request without a graph ([`GraphRef::LeftLooking`]) with the
    /// defaults of [`Self::coarse`]: the one-thread plan.
    pub fn left_looking() -> Self {
        Self::with_graph(GraphRef::LeftLooking)
    }

    /// A request over the coarse graph with the defaults: 1 thread, partial
    /// pivoting with zero threshold, tracing off, kernels picked for the CPU.
    pub fn coarse(graph: &'g TaskGraph, mapping: Mapping) -> Self {
        Self::with_graph(GraphRef::Coarse { graph, mapping })
    }

    /// A request over the fine-grained graph (same defaults).
    pub fn fine(graph: &'g FineGraph) -> Self {
        Self::with_graph(GraphRef::Fine(graph))
    }

    fn with_graph(graph: GraphRef<'g>) -> Self {
        NumericRequest {
            graph,
            threads: 1,
            pivot_rule: PivotRule::Partial,
            pivot_threshold: 0.0,
            trace: TraceConfig::off(),
            kernels: KernelChoice::Auto,
            breakdown: BreakdownPolicy::Error,
            budget: RunBudget::default(),
            metrics: None,
            schedule: None,
            history: None,
        }
    }

    /// Sets the worker-thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the pivot-selection rule.
    pub fn pivot_rule(mut self, rule: PivotRule) -> Self {
        self.pivot_rule = rule;
        self
    }

    /// Sets the absolute pivot rejection threshold.
    pub fn pivot_threshold(mut self, threshold: f64) -> Self {
        self.pivot_threshold = threshold;
        self
    }

    /// Sets the scheduler trace configuration.
    pub fn trace(mut self, config: TraceConfig) -> Self {
        self.trace = config;
        self
    }

    /// Sets the dense kernel selection.
    pub fn kernels(mut self, kernels: KernelChoice) -> Self {
        self.kernels = kernels;
        self
    }

    /// Sets the breakdown policy.
    pub fn breakdown(mut self, policy: BreakdownPolicy) -> Self {
        self.breakdown = policy;
        self
    }

    /// Sets the run budget (cancellation / deadline / watchdog).
    pub fn budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a counters registry (kernel calls/flops, perturbations).
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Attaches a cached executor schedule (see the field docs).
    pub fn schedule(mut self, schedule: Arc<ExecSchedule>) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Holds the run to a pivot history (see the field docs).
    pub fn expect_history(mut self, history: &'g [usize]) -> Self {
        self.history = Some(history);
        self
    }
}

/// Parameters of one symbolic front half — transversal, ordering, the
/// skeleton of the static symbolic factorization, eforest postorder,
/// supernodes and their row and column lists — which runs on the calling
/// thread. Build with [`SymbolicRequest::new`] or
/// [`SymbolicRequest::from_options`], adjust with the chainable setters,
/// run with [`crate::analyze_with`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SymbolicRequest {
    /// Bounds on the front half, as [`NumericRequest::budget`] bounds the
    /// numeric phase: cancellation token and wall-clock deadline, checked
    /// once per ordering pivot and between phases (so `--time-limit` covers
    /// symbolic runs too); an interrupted run returns
    /// [`LuError::Cancelled`] / [`LuError::DeadlineExceeded`].
    pub budget: RunBudget,
    /// Observability session: when set, the front half records phase spans
    /// into its [`crate::observe::ObsSession::trace`] and counts fill
    /// entries / budget checkpoints into its metrics registry. `None` (the
    /// default) records and counts nothing — the unobserved path never
    /// reads the clock.
    pub obs: Option<ObsSession>,
}

impl SymbolicRequest {
    /// The default request: unbounded, unobserved.
    pub fn new() -> Self {
        Self::default()
    }

    /// The front-half request implied by driver options: the budget is
    /// lifted from [`Options::budget`].
    pub fn from_options(opts: &Options) -> Self {
        SymbolicRequest::new().budget(opts.budget.clone())
    }

    /// Sets the run budget (cancellation / deadline).
    pub fn budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches an observability session (spans + counters).
    pub fn observe(mut self, session: ObsSession) -> Self {
        self.obs = Some(session);
        self
    }

    fn deadline_passed(&self) -> bool {
        self.budget.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Whether the budget asks the front half to stop (token cancelled or
    /// deadline passed).
    pub(crate) fn tripped(&self) -> bool {
        self.budget.token.as_ref().is_some_and(|t| t.is_cancelled()) || self.deadline_passed()
    }

    /// The error a tripped budget maps to. `columns_done` counts factor
    /// columns whose structure was completed before the trip.
    pub(crate) fn trip_error(&self, columns_done: usize, tasks_pending: usize) -> LuError {
        budget_error(self.deadline_passed(), columns_done, tasks_pending)
    }
}

/// The error of a run its [`RunBudget`] stopped — a missed deadline or a
/// cancellation — with the progress made; both phases report these two.
fn budget_error(deadline: bool, columns_done: usize, tasks_pending: usize) -> LuError {
    if deadline {
        LuError::DeadlineExceeded {
            columns_done,
            tasks_pending,
        }
    } else {
        LuError::Cancelled {
            columns_done,
            tasks_pending,
        }
    }
}

/// Subtrees collapsed into one range hold at most `1 / (RANGES_PER_THREAD ·
/// P)` of the model flops on `P` threads — half a worker's share. Larger
/// cuts leave too few ranges to balance; smaller ones leave the chains at
/// the top of a forest (sherman3: 14 columns, 79 % of the flops, 1,650
/// updates under a cut of 1/8) as single tasks that cost the executor more
/// than they run. Measured on two threads over the benchmark's patterns
/// (EXPERIMENTS.md, "Range tasks").
const RANGES_PER_THREAD: usize = 2;

/// A node of a [`RangePlan`].
#[derive(Debug, Clone, PartialEq)]
enum PlanNode {
    /// A range: every task of these block columns.
    Columns(Range<usize>),
    /// One task of the coarse graph.
    Task(Task),
}

/// The DAG a coarse request runs on several threads: the coarse graph
/// with every maximal eforest subtree that is a contiguous range of block
/// columns and whose model flops fall under the cut contracted into one
/// node, and the tasks above them kept as they are. Nodes are numbered in
/// the left-looking order of their tasks, which the executor's task ids
/// follow ([`BlockMatrix::tasks`]). A storage keeps the plan of its last
/// run (`crate::blocks::Layout::range_plan`).
#[derive(Debug)]
pub(crate) struct RangePlan {
    nodes: Vec<PlanNode>,
    /// Node `t` runs tasks `bounds[t]..bounds[t + 1]` of the storage.
    bounds: Vec<usize>,
    pred_counts: Vec<usize>,
    successors: Vec<Vec<usize>>,
    /// Per node, its tasks' highest priority.
    schedule: ExecSchedule,
    /// Per node, its worker under [`Mapping::Static1D`].
    owner: Vec<usize>,
}

impl RangePlan {
    /// Contracts `graph` for `threads` workers over the storage `bm`,
    /// ranking the nodes by `priority` (one per task of `graph`).
    ///
    /// # Panics
    ///
    /// Panics when `graph` is not over `bm`'s partition, or when an edge of
    /// it would leave a contracted task set and come back — the contraction
    /// must keep every set convex, which holds for any graph whose edges
    /// never lead from a task to one of a lower block column (both
    /// builders' graphs).
    pub(crate) fn new(
        bm: &BlockMatrix,
        graph: &TaskGraph,
        priority: &[u64],
        threads: usize,
    ) -> Self {
        let (lay, nb) = (bm.layout(), bm.num_block_cols());
        assert_eq!(graph.num_block_cols(), nb, "a graph of another partition");
        assert_eq!(priority.len(), graph.len(), "one priority per task");
        // The model flops of each column's tasks on this storage, and the
        // block eforest: a column's parent is the first column it updates,
        // when it has rows below (`splu_sched::block_forest`).
        let mut flops = vec![0.0f64; nb];
        let mut parent = vec![usize::MAX; nb];
        for j in 0..nb {
            let w = lay.width(j);
            flops[j] = factor_flops(w + lay.rows_below(j), w) as f64;
            for u in lay.updates(j) {
                let k = u.src();
                flops[j] += update_flops(lay.width(k), lay.rows_below(k), u.ncols());
                if parent[k] == usize::MAX && lay.rows_below(k) > 0 {
                    parent[k] = j;
                }
            }
        }
        // Per subtree (a parent follows its children): flops, first column
        // and size; the subtree is a range of columns when they agree.
        let mut sub = flops.clone();
        let mut first: Vec<usize> = (0..nb).collect();
        let mut size = vec![1usize; nb];
        for j in 0..nb {
            let p = parent[j];
            if p != usize::MAX {
                sub[p] += sub[j];
                first[p] = first[p].min(first[j]);
                size[p] += size[j];
            }
        }
        let cut = flops.iter().sum::<f64>() / (RANGES_PER_THREAD * threads) as f64;
        // The root of the range holding each column, top down.
        let mut root = vec![usize::MAX; nb];
        for j in (0..nb).rev() {
            root[j] = match parent[j] {
                p if p != usize::MAX && root[p] != usize::MAX => root[p],
                _ if sub[j] <= cut && j + 1 - first[j] == size[j] => j,
                _ => usize::MAX,
            };
        }

        // The updates into every column outside a range, by ascending
        // source (the graph lists them by source, then destination).
        let mut into_ptr = vec![0usize; nb + 1];
        for t in graph.tasks() {
            if let Task::Update { dst, .. } = *t {
                into_ptr[dst + 1] += usize::from(root[dst] == usize::MAX);
            }
        }
        for j in 0..nb {
            into_ptr[j + 1] += into_ptr[j];
        }
        let mut into = vec![0usize; into_ptr[nb]];
        let mut fill = into_ptr.clone();
        for (t, task) in graph.tasks().iter().enumerate() {
            if let Task::Update { dst, .. } = *task {
                if root[dst] == usize::MAX {
                    into[fill[dst]] = t;
                    fill[dst] += 1;
                }
            }
        }
        // Nodes in the left-looking order — a range at its first column,
        // else each update into the column, then its factor — with their
        // tasks on this storage as bounds. `node_of` maps the tasks whose
        // edges may leave their node: every task outside a range, and a
        // range's factors (only `F(k) → U(k, j)` raises the block column).
        let mut nodes = Vec::new();
        let mut bounds = vec![0usize];
        let mut node_of = vec![usize::MAX; graph.len()];
        let mut walk = Vec::new();
        for j in 0..nb {
            let r = root[j];
            if r == usize::MAX {
                let tasks = into[into_ptr[j]..into_ptr[j + 1]].iter().copied();
                for t in tasks.chain([graph.factor_id(j)]) {
                    let task = graph.task(t);
                    let n = match task {
                        Task::Factor(_) => 1,
                        Task::Update { src, dst } => usize::from(lay.update(src, dst).is_some()),
                    };
                    node_of[t] = nodes.len();
                    walk.push(t);
                    nodes.push(PlanNode::Task(task));
                    bounds.push(bounds[bounds.len() - 1] + n);
                }
                continue;
            }
            if j == first[r] {
                nodes.push(PlanNode::Columns(j..r + 1));
                bounds.push(bounds[bounds.len() - 1] + lay.task_start(r + 1) - lay.task_start(j));
            }
            node_of[graph.factor_id(j)] = nodes.len() - 1;
            walk.push(graph.factor_id(j));
        }

        // Edges between nodes, once each, walking the tasks in node order;
        // a node's priority is its tasks' highest (a range's are at its
        // factors: each update precedes a factor of its column).
        let nn = nodes.len();
        let (mut pred_counts, mut successors) = (vec![0usize; nn], vec![Vec::new(); nn]);
        let (mut prio, mut seen) = (vec![0u64; nn], vec![usize::MAX; nn]);
        for &t in &walk {
            let a = node_of[t];
            prio[a] = prio[a].max(priority[t]);
            for &s in graph.successors(t) {
                let b = match node_of[s] {
                    // An update inside a range (where the factor is too).
                    usize::MAX => node_of[graph.factor_id(graph.task(s).home_column())],
                    b => b,
                };
                if b == a || seen[b] == a {
                    continue;
                }
                assert!(
                    a < b,
                    "{} reaches back into node {b}: a contracted task set is not convex",
                    graph.task(t)
                );
                seen[b] = a;
                successors[a].push(b);
                pred_counts[b] += 1;
            }
        }

        // Owners: a task goes with its column (`j mod P`), a range — the
        // largest first — to the least loaded worker.
        let mut load = vec![0.0f64; threads];
        for j in (0..nb).filter(|&j| root[j] == usize::MAX) {
            load[j % threads] += flops[j];
        }
        let mut owner = vec![0usize; nn];
        let mut ranges = Vec::new();
        for (id, node) in nodes.iter().enumerate() {
            match node {
                PlanNode::Task(t) => owner[id] = t.home_column() % threads,
                PlanNode::Columns(cols) => ranges.push((sub[cols.end - 1], id)),
            }
        }
        ranges.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        for (f, id) in ranges {
            let w = (0..threads)
                .min_by(|&x, &y| load[x].total_cmp(&load[y]))
                .unwrap_or(0);
            owner[id] = w;
            load[w] += f;
        }
        let schedule = ExecSchedule::with_priorities(prio);
        RangePlan {
            nodes,
            bounds,
            pred_counts,
            successors,
            schedule,
            owner,
        }
    }

    /// Bytes the plan holds.
    pub(crate) fn bytes(&self) -> u64 {
        let usz = std::mem::size_of::<usize>();
        let edges: usize = self.successors.iter().map(Vec::len).sum();
        let per_node = std::mem::size_of::<PlanNode>() + std::mem::size_of::<Vec<usize>>();
        (self.nodes.len() * (per_node + 6 * usz) + edges * usz) as u64
    }
}

/// Runs one numeric factorization described by `req` over the assembled
/// block storage, returning the executor's [`ExecReport`]. On numerical
/// breakdown under [`BreakdownPolicy::Error`] the remaining tasks drain as
/// no-ops and the first error is returned; under
/// [`BreakdownPolicy::Perturb`] the run completes and the perturbed
/// columns land in the report's [`splu_sched::FactorHealth`]. A worker
/// panic is contained by the executor and surfaces as
/// [`LuError::WorkerPanic`] naming the task that panicked — never as an
/// unwind or a hang.
///
/// A bounded run ([`NumericRequest::budget`]) that is cancelled, misses its
/// deadline, or trips the liveness watchdog likewise drains every worker
/// and returns the matching [`LuError`] variant with the number of block
/// columns completed and tasks still pending. The budget is polled before
/// every task — each `Factor`/`Update` of a range included — and a task
/// id in the report (panics, stalls, trace events) is the task's position
/// in [`BlockMatrix::tasks`].
///
/// This is the single driver behind every public factorization entry point;
/// the kernel table is resolved from `req.kernels` exactly once here. What
/// it runs is the range plan of the module docs: one range at one thread
/// (or without a graph), the contracted coarse graph on several, the fine
/// graph as it is.
pub fn factor_numeric_with(
    bm: &BlockMatrix,
    req: &NumericRequest<'_>,
) -> Result<ExecReport, LuError> {
    let dispatch = Dispatch::resolve(req.kernels);
    let threads = req.threads.max(1);
    // The executed DAG: the contracted coarse graph on several threads,
    // the fine graph, or else the whole matrix as one node of every task.
    // With a schedule the storage keeps the plan for the next run.
    let plan =
        match (req.graph, &req.schedule) {
            (GraphRef::Coarse { graph, .. }, Some(schedule)) if threads > 1 => {
                Some(bm.layout().range_plan(schedule, threads, || {
                    RangePlan::new(bm, graph, schedule.priorities(), threads)
                }))
            }
            (GraphRef::Coarse { graph, .. }, None) if threads > 1 => Some(Arc::new(
                RangePlan::new(bm, graph, &graph.bottom_levels(), threads),
            )),
            _ => None,
        };
    let owner = |node: usize| plan.as_ref().map_or(0, |p| p.owner[node]);
    let whole = [0, bm.num_tasks()];
    let no_successor = [Vec::new()];
    let mut exec = match (&plan, req.graph) {
        (Some(p), GraphRef::Coarse { mapping, .. }) => ExecRequest {
            task_bounds: Some(&p.bounds),
            schedule: Some(&p.schedule),
            placement: mapping.placement(&owner),
            threads,
            ..ExecRequest::new(&p.pred_counts, &p.successors)
        },
        (_, GraphRef::Fine(fg)) => ExecRequest {
            threads,
            ..ExecRequest::new(fg.pred_counts(), fg.successor_lists())
        },
        _ => ExecRequest {
            task_bounds: Some(&whole),
            ..ExecRequest::new(&[0], &no_successor)
        },
    };
    exec.trace = req.trace;
    exec.budget = &req.budget;
    // Effective budget: a deadline or watchdog without a caller token gets
    // an internal one, so a budget trip can release cooperative waiters
    // (e.g. the stall failpoint) that poll the token. Creating it
    // allocates, so the inline replay — allocation-free when untraced, and
    // checking the deadline itself — goes without.
    let mut budget = req.budget.clone();
    if !exec.runs_inline()
        && budget.token.is_none()
        && (budget.deadline.is_some() || budget.watchdog.is_some())
    {
        budget.token = Some(CancelToken::new());
    }
    exec.budget = &budget;
    // Resolve the policy once: the perturbation is `eps·‖A‖₁` of the
    // assembled values, and the element-growth estimate needs `max|a_ij|`
    // from before the factorization overwrites the storage.
    let (panel_policy, max_abs_a) = match req.breakdown {
        BreakdownPolicy::Error => (PanelBreakdown::Error, 0.0),
        BreakdownPolicy::Perturb { eps } => {
            let norm = bm.one_norm();
            let value = if norm > 0.0 { eps * norm } else { eps };
            (PanelBreakdown::Perturb { value }, bm.max_abs())
        }
    };
    let metrics = req.metrics.as_deref();
    let mut bodies = TaskBodies::new(
        bm,
        req.pivot_rule,
        req.pivot_threshold,
        panel_policy,
        &dispatch,
    );
    bodies.metrics = metrics;
    bodies.history = req.history;
    bodies.token = budget.token.as_ref();
    let mut report = run(&exec, |node, steps| {
        if bodies.failed() {
            return;
        }
        let mut begin = || steps.begin();
        match (req.graph, &plan) {
            (GraphRef::Fine(fg), _) => match fg.tasks()[node] {
                FineTask::Factor(k) => {
                    bodies.factor(k, &mut bm.column(k).write());
                }
                FineTask::Apply { src, dst } => apply_task(bm, src, dst),
                FineTask::Trsm { src, dst } => trsm_task(bm, src, dst, &dispatch, metrics),
                FineTask::Gemm { src, dst, row } => {
                    gemm_task(bm, src, dst, row, &dispatch, metrics)
                }
            },
            (_, Some(p)) => match &p.nodes[node] {
                PlanNode::Columns(cols) => {
                    bodies.columns(cols.clone(), &mut begin);
                }
                PlanNode::Task(task) => bodies.task(*task, &mut begin),
            },
            (_, None) => {
                bodies.columns(0..bm.num_block_cols(), &mut begin);
            }
        }
    });
    report.stats.kernel = dispatch.name();
    let columns_done = bodies.columns_done.load(Ordering::Relaxed);
    if let Some(e) = bodies.first_error.into_inner() {
        return Err(e);
    }
    if let Some(p) = report.panic.take() {
        let task = match req.graph {
            GraphRef::Fine(fg) => format!("{:?}", fg.tasks()[p.task]),
            _ => (bm.tasks().nth(p.task))
                .expect("a task id of this storage")
                .to_string(),
        };
        return Err(LuError::WorkerPanic {
            worker: p.worker,
            task,
        });
    }
    if let Some(interrupt) = report.interrupt.take() {
        return Err(match interrupt {
            Interrupt::Cancelled { tasks_pending } => {
                budget_error(false, columns_done, tasks_pending)
            }
            Interrupt::DeadlineExceeded { tasks_pending } => {
                budget_error(true, columns_done, tasks_pending)
            }
            Interrupt::Stalled(report) => LuError::Stalled {
                columns_done,
                report,
            },
        });
    }
    let mut perturbed = bodies.perturbed.into_inner();
    if let Some(reg) = metrics {
        reg.add(Counter::PerturbedColumns, perturbed.len() as u64);
    }
    if !perturbed.is_empty() {
        // The perturbed *set* is deterministic (each column's panel decides
        // independently); only the collection order is scheduling-dependent.
        perturbed.sort_unstable_by_key(|a| a.0);
        report.health.max_perturbation = perturbed.iter().fold(0.0f64, |m, &(_, v)| m.max(v));
        report.health.perturbed_columns = perturbed.into_iter().map(|(c, _)| c).collect();
        report.health.growth = growth_factor(bm, max_abs_a);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use splu_sched::{block_forest, build_eforest_graph, build_fine_graph};
    use splu_sparse::CscMatrix;
    use splu_symbolic::static_fact::static_symbolic_factorization;
    use splu_symbolic::supernode::{supernode_partition, BlockStructure};

    fn random_matrix(n: usize, extra: usize, seed: u64) -> CscMatrix {
        splu_matgen::random_diag_dominant(n, extra, seed, 3.0)
    }

    /// One request drives both graph forms, and every kernel choice yields
    /// bit-identical factors on both.
    #[test]
    fn unified_driver_is_kernel_and_graph_invariant() {
        let a = random_matrix(40, 150, 17);
        let f = static_symbolic_factorization(a.pattern()).unwrap();
        let bs = BlockStructure::new(&f, supernode_partition(&f));
        let graph = build_eforest_graph(&bs);
        let forest = block_forest(&bs);
        let fg = build_fine_graph(&bs, &forest);

        let bm_ref = BlockMatrix::assemble(&a, &bs);
        let report = factor_numeric_with(
            &bm_ref,
            &NumericRequest::coarse(&graph, Mapping::Static1D).kernels(KernelChoice::Portable),
        )
        .unwrap();
        assert_eq!(report.stats.kernel, "baseline");

        for kernels in [KernelChoice::Portable, KernelChoice::Auto] {
            let coarse_req = NumericRequest::coarse(&graph, Mapping::Dynamic)
                .threads(2)
                .kernels(kernels);
            let fine_req = NumericRequest::fine(&fg).threads(2).kernels(kernels);
            for req in [coarse_req, fine_req] {
                let bm = BlockMatrix::assemble(&a, &bs);
                factor_numeric_with(&bm, &req).unwrap();
                for k in 0..bm.num_block_cols() {
                    let c = bm.column(k).read();
                    let r = bm_ref.column(k).read();
                    assert_eq!(c.pivots, r.pivots, "pivots differ ({kernels:?}, col {k})");
                    assert_eq!(
                        c.panel.data(),
                        r.panel.data(),
                        "panel differs ({kernels:?}, col {k})"
                    );
                    for (cb, rb) in c.ublocks.iter().zip(&r.ublocks) {
                        assert_eq!(cb.data(), rb.data(), "U differs ({kernels:?}, col {k})");
                    }
                }
            }
        }
    }

    /// A pre-cancelled token yields a structured `Cancelled` error with
    /// zero progress, and the same storage then factors cleanly once the
    /// budget is lifted (the drained run left no partial state behind).
    #[test]
    fn pre_cancelled_budget_returns_structured_error() {
        let a = random_matrix(30, 100, 11);
        let f = static_symbolic_factorization(a.pattern()).unwrap();
        let bs = BlockStructure::new(&f, supernode_partition(&f));
        let graph = build_eforest_graph(&bs);

        let token = CancelToken::new();
        token.cancel();
        let req = NumericRequest::coarse(&graph, Mapping::Dynamic)
            .threads(2)
            .budget(RunBudget::unbounded().with_token(token));
        let bm = BlockMatrix::assemble(&a, &bs);
        match factor_numeric_with(&bm, &req) {
            Err(LuError::Cancelled {
                columns_done,
                tasks_pending,
            }) => {
                assert_eq!(columns_done, 0, "no task ran under a pre-cancelled token");
                assert!(tasks_pending > 0);
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        let req = req.budget(RunBudget::default());
        factor_numeric_with(&bm, &req).unwrap();
    }

    /// The fine path honours the pivot rule (it could not before the
    /// request API).
    #[test]
    fn fine_path_honours_pivot_rule() {
        let a = random_matrix(30, 100, 5);
        let f = static_symbolic_factorization(a.pattern()).unwrap();
        let bs = BlockStructure::new(&f, supernode_partition(&f));
        let forest = block_forest(&bs);
        let fg = build_fine_graph(&bs, &forest);

        // Diagonally dominant → the diagonal rule does zero interchanges.
        let bm = BlockMatrix::assemble(&a, &bs);
        factor_numeric_with(
            &bm,
            &NumericRequest::fine(&fg).pivot_rule(PivotRule::Diagonal),
        )
        .unwrap();
        for k in 0..bm.num_block_cols() {
            let col = bm.column(k).read();
            let piv = col.pivots.as_ref().unwrap();
            assert!(piv.swaps().iter().enumerate().all(|(c, &p)| c == p));
        }
    }

    /// A random matrix of diagonal blocks of the given sizes coupled only
    /// upwards — block upper triangular, so its eforest has a tree per
    /// block, and the coupling entries are Theorem 2's updates from the
    /// roots of earlier trees into later ones. `weak` diagonals make
    /// partial pivoting interchange rows.
    fn forest_matrix(sizes: &[usize], seed: u64, weak: bool) -> CscMatrix {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let n: usize = sizes.iter().sum();
        let mut trips = Vec::new();
        let mut lo = 0;
        for &m in sizes {
            for i in lo..lo + m {
                let d = if weak && rng.gen_range(0..3) == 0 {
                    1e-3
                } else {
                    4.0
                };
                trips.push((i, i, d));
                for _ in 0..2 {
                    trips.push((rng.gen_range(lo..lo + m), i, rng.gen_range(-1.0..1.0)));
                }
            }
            if lo > 0 {
                for _ in 0..m / 2 + 1 {
                    trips.push((
                        rng.gen_range(0..lo),
                        rng.gen_range(lo..lo + m),
                        rng.gen_range(-1.0..1.0),
                    ));
                }
            }
            lo += m;
        }
        CscMatrix::from_triplets(n, n, &trips).unwrap()
    }

    /// The coarse graph run task by task through the executor as a plain
    /// DAG — each `Update` and `Factor` its own node, locking its own
    /// columns — the one-thread path before range tasks.
    fn graph_replay(bm: &BlockMatrix, graph: &TaskGraph, history: Option<&[usize]>) -> bool {
        let kernels = Dispatch::resolve(KernelChoice::Auto);
        let mut bodies =
            TaskBodies::new(bm, PivotRule::Partial, 0.0, PanelBreakdown::Error, &kernels);
        bodies.history = history;
        let exec = ExecRequest::new(graph.pred_counts(), graph.successor_lists());
        run(&exec, |t, _| {
            if !bodies.failed() {
                bodies.task(graph.task(t), &mut || true);
            }
        })
        .rethrow();
        bodies.first_error.into_inner().is_none()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Range execution equals the per-task graph replay bit for bit —
        /// pivots and every stored word — on random forests of one to
        /// three trees, at 1/2/4/8 threads, under both mappings, over both
        /// graph kinds, on the static structure and on the realised one of
        /// the replay's pivot history (held to that history).
        #[test]
        fn range_execution_is_bitwise_the_graph_replay(
            sizes in proptest::collection::vec(4usize..24, 1..4),
            seed in 0u64..1000,
            weak in 0usize..2,
        ) {
            let a = forest_matrix(&sizes, seed, weak == 1);
            let sym = crate::analyze(a.pattern(), &Options::default()).unwrap();
            let p = sym.permute_matrix(&a);
            let bs = &sym.block_structure;
            let static_graph = sym.build_graph(crate::TaskGraphKind::EForest);
            let oracle = BlockMatrix::assemble(&p, bs);
            if !graph_replay(&oracle, &static_graph, None) {
                // Singular: the executor must say so too (checked elsewhere).
                return Ok(());
            }
            let history = oracle.pivot_rows();
            let slots = oracle.value_slots(p.pattern(), |i| i, |j| j);
            let (rows, cols) = oracle.layout().realised_flags(bs, &slots, &history);
            let realised = crate::blocks::realised_structure(bs, &rows, &cols);
            for kind in [crate::TaskGraphKind::EForest, crate::TaskGraphKind::SStar] {
                let graph = sym.build_graph(kind);
                let schedule = Arc::new(ExecSchedule::for_graph(&graph));
                for (structure, held) in [(bs, None), (&realised, Some(&history[..]))] {
                    let want = BlockMatrix::assemble(&p, structure);
                    proptest::prop_assert!(graph_replay(&want, &graph, held));
                    for threads in [1, 2, 4, 8] {
                        for mapping in [Mapping::Static1D, Mapping::Dynamic] {
                            let mut bm = BlockMatrix::assemble(&p, structure);
                            let mut req = NumericRequest::coarse(&graph, mapping).threads(threads);
                            if threads % 4 != 0 {
                                req = req.schedule(Arc::clone(&schedule));
                            }
                            if let Some(h) = held {
                                req = req.expect_history(h);
                            }
                            for _ in 0..2 {
                                bm.reset_from(&p, structure);
                                let report = factor_numeric_with(&bm, &req).unwrap();
                                proptest::prop_assert_eq!(report.stats.n_tasks, bm.num_tasks());
                                proptest::prop_assert_eq!(
                                    bm.factor_difference(&want),
                                    None,
                                    "{:?} threads={} {:?} realised={}",
                                    kind,
                                    threads,
                                    mapping,
                                    held.is_some()
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
