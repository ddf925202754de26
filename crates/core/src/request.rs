//! The unified numeric-phase entry point: a [`NumericRequest`] names every
//! parameter of one factorization — task graph, worker count and mapping,
//! pivoting, tracing, and kernel selection — and
//! [`factor_numeric_with`] is the single driver that runs it. Its sibling
//! [`SymbolicRequest`] bounds and observes the analysis phases. New
//! parameters (like [`KernelChoice`] for the dense kernel layer) become
//! fields with defaults instead of new functions.
//!
//! **What runs is a range plan**, and nothing else. Postordering makes
//! every eforest subtree a contiguous range of block columns whose tasks
//! touch only that range and its ancestors. At one thread the whole matrix
//! is one range — the coarse graph is not consulted, and the run is
//! [`crate::factor_left_looking`]'s loop with the request's kernels,
//! pivoting, budget and recorder. On several threads the coarse graph is
//! contracted: every maximal subtree whose model flops fall under
//! `total / (RANGES_PER_THREAD · P)` becomes one node running its columns
//! as one range, the tasks above them stay nodes of their own, and the
//! edges between nodes are the graph's. Per element this is a topological
//! order of the same DAG over the same task bodies, so the factors are
//! bitwise those of any other order. [`factor_numeric_with`] contracts a
//! coarse request's graph on each call; a session on several threads
//! contracts once, at analysis, holds only the plan and hands it in
//! ([`NumericRequest::planned`]), as a caller timing repeated runs can
//! ([`RangePlan::contract`]).
//!
//! The kernel choice resolves to one [`Dispatch`] table **once per
//! factorization** (CPU feature probing included), and that table threads
//! through every `Factor`/`Update` task body — all of which preserve the
//! bitwise-equivalence contract documented on [`Dispatch::gemm_sub`], so
//! the factors are independent of the selected kernels.

use crate::blocks::BlockMatrix;
use crate::costs::update_flops;
use crate::numeric::{factor_flops, TaskBodies};
use crate::observe::ObsSession;
use crate::solve::growth_factor;
use crate::{LuError, Options};
use splu_dense::{Dispatch, KernelChoice, PanelBreakdown, PivotRule};
use splu_obs::{Counter, MetricsRegistry};
use splu_sched::{
    block_forest, run, CancelToken, ExecReport, ExecRequest, ExecSchedule, Interrupt, Mapping,
    RunBudget, Task, TaskGraph, TraceConfig,
};
use splu_sparse::SparsityPattern;
use splu_symbolic::supernode::BlockStructure;
use std::mem::size_of;
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
    /// The coarse `Factor`/`Update` graph over the structure of the
    /// storage it runs on — the eforest graph, or any other over the same
    /// tasks whose edges follow the left-looking order (the S* graph): at
    /// one thread not consulted (one range), on several contracted into
    /// ranges and executed under a task-to-worker [`Mapping`].
    Coarse {
        /// The dependence graph.
        graph: &'g TaskGraph,
        /// Task-to-worker mapping (paper: static 1D column mapping; a
        /// range goes to an owner by its flops).
        mapping: Mapping,
    },
    /// A plan contracted beforehand ([`RangePlan::contract`]), run on the
    /// workers and under the mapping it was contracted for: what a session
    /// on several threads runs, and how repeated runs keep the contraction
    /// out of their time.
    Planned(&'g RangePlan),
}

/// All parameters of one numeric factorization. Build with
/// [`NumericRequest::left_looking`] / [`NumericRequest::coarse`], adjust
/// with the chainable setters, run with [`factor_numeric_with`].
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
    /// Executor schedule of the **coarse** graph: its per-task priorities
    /// rank the nodes of the plan contracted for this call — each node
    /// takes its tasks' highest — in place of the graph's bottom levels,
    /// which [`ExecSchedule::for_graph`] gives too. A one-thread or planned
    /// run reads none. The factors are bitwise identical either way.
    pub schedule: Option<Arc<ExecSchedule>>,
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

    /// A request that runs `plan` ([`GraphRef::Planned`]) on the thread
    /// count it was contracted for, with the defaults of [`Self::coarse`].
    pub fn planned(plan: &'g RangePlan) -> Self {
        Self::with_graph(GraphRef::Planned(plan)).threads(plan.threads)
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

    /// Attaches an executor schedule (see the field docs).
    pub fn schedule(mut self, schedule: Arc<ExecSchedule>) -> Self {
        self.schedule = Some(schedule);
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

/// The DAG a coarse request runs on several threads: the coarse graph
/// with every maximal eforest subtree that is a contiguous range of block
/// columns and whose model flops fall under the cut contracted into one
/// node, and the tasks above them kept as they are. A node is an interval
/// of the storage's tasks in the left-looking order
/// ([`BlockMatrix::tasks`]) — a range's tasks, or one task — and the nodes
/// follow that order, which the executor's task ids follow too. A session
/// of several threads holds the plan of its structure, contracted at
/// analysis (and again after a fallback); [`factor_numeric_with`]
/// contracts one per call of a coarse request, and runs a
/// [`NumericRequest::planned`] one as it is.
#[derive(Debug, Clone, PartialEq)]
pub struct RangePlan {
    /// Node `t` runs tasks `bounds[t]..bounds[t + 1]` of the storage.
    bounds: Vec<usize>,
    /// Column `t` lists the nodes that follow node `t`, ascending.
    edges: SparsityPattern,
    /// Per node, its tasks' highest priority.
    schedule: ExecSchedule,
    /// Per node, its worker under [`Mapping::Static1D`].
    owner: Vec<usize>,
    mapping: Mapping,
    threads: usize,
}

impl RangePlan {
    /// Contracts `graph`, built over `bs` — the structure of the storage
    /// it runs on — for `threads` workers under `mapping`, ranking the
    /// nodes by `schedule`'s priorities (one per task of `graph`), or else
    /// by the graph's bottom levels — the priorities
    /// [`ExecSchedule::for_graph`] gives.
    ///
    /// # Panics
    ///
    /// Panics when `graph` is not over `bs`'s partition, when it has
    /// another task count than the storage laid out on `bs`, when a node
    /// would hold no task, or when an edge of it leads back in the
    /// left-looking order — the contraction must keep every node convex,
    /// which holds for any graph whose edges never lead from a task to one
    /// of a lower block column or, inside a column, to a lower source (both
    /// builders' graphs).
    pub(crate) fn new(
        bs: &BlockStructure,
        graph: &TaskGraph,
        schedule: Option<&ExecSchedule>,
        threads: usize,
        mapping: Mapping,
    ) -> Self {
        let nb = bs.num_blocks();
        assert_eq!(graph.num_block_cols(), nb, "a graph of another partition");
        let priority = schedule.map_or_else(|| graph.bottom_levels(), |s| s.priorities().to_vec());
        assert_eq!(priority.len(), graph.len(), "one priority per task");
        // Per subtree of the block eforest (a parent follows its children):
        // flops, first column and size; the subtree is a range of columns
        // when they agree.
        let (flops, parent, task_start) = column_model(bs);
        assert_eq!(graph.len(), task_start[nb], "a graph of another structure");
        let mut sub = flops.clone();
        let mut first: Vec<usize> = (0..nb).collect();
        let mut size = vec![1usize; nb];
        for j in 0..nb {
            if let Some(p) = parent[j] {
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
                Some(p) if root[p] != usize::MAX => root[p],
                _ if sub[j] <= cut && j + 1 - first[j] == size[j] => j,
                _ => usize::MAX,
            };
        }

        // Nodes in the left-looking order — a range at its first column,
        // else each task of the column — with a task its column's owner
        // (`j mod P`), and the ranges to place.
        let (mut bounds, mut owner, mut ranges) = (vec![0usize], Vec::new(), Vec::new());
        for j in 0..nb {
            match root[j] {
                usize::MAX => {
                    bounds.extend(task_start[j] + 1..=task_start[j + 1]);
                    owner.resize(bounds.len() - 1, j % threads);
                }
                r if j == first[r] => {
                    ranges.push((sub[r], owner.len()));
                    bounds.push(task_start[r + 1]);
                    owner.push(0);
                }
                _ => {}
            }
        }
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "a node of no task");
        let nn = bounds.len() - 1;
        let mut node = vec![0usize; graph.len()];
        for (id, w) in bounds.windows(2).enumerate() {
            node[w[0]..w[1]].fill(id);
        }
        let mut node_of = storage_ids(graph, &task_start);
        node_of.iter_mut().for_each(|s| *s = node[*s]);

        // Edges between nodes (the pattern merges repeats); a node's
        // priority is its tasks' highest.
        let (mut prio, mut edges) = (vec![0u64; nn], Vec::new());
        for (t, &a) in node_of.iter().enumerate() {
            prio[a] = prio[a].max(priority[t]);
            for &s in graph.successors(t) {
                let b = node_of[s as usize];
                if b != a {
                    assert!(
                        a < b,
                        "{} reaches back into node {b}: a contracted task set is not convex",
                        graph.task(t)
                    );
                    edges.push((b, a));
                }
            }
        }
        let edges = SparsityPattern::from_entries(nn, nn, edges).expect("node ids");
        bounds.shrink_to_fit();
        owner.shrink_to_fit();

        // Owners of the ranges: the largest first to the least loaded
        // worker.
        let mut load = vec![0.0f64; threads];
        for j in (0..nb).filter(|&j| root[j] == usize::MAX) {
            load[j % threads] += flops[j];
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
            bounds,
            edges,
            schedule,
            owner,
            mapping,
            threads,
        }
    }

    /// The plan [`factor_numeric_with`] runs `req` by over `bm`: its coarse
    /// graph — built over the storage's structure — contracted for
    /// `req.threads` workers, ranked by the request's schedule or else by
    /// the graph's bottom levels. `None` at one thread or without a coarse
    /// graph.
    ///
    /// # Panics
    ///
    /// As [`Self::new`]: when the graph is not over the storage's structure.
    pub fn contract(bm: &BlockMatrix, req: &NumericRequest<'_>) -> Option<RangePlan> {
        let GraphRef::Coarse { graph, mapping } = req.graph else {
            return None;
        };
        let (bs, schedule) = (bm.layout().structure(), req.schedule.as_deref());
        (req.threads > 1).then(|| RangePlan::new(bs, graph, schedule, req.threads, mapping))
    }

    /// Bytes the plan holds, its vectors counted at capacity.
    pub(crate) fn bytes(&self) -> u64 {
        ((self.bounds.capacity() + self.owner.capacity()) * size_of::<usize>()
            + self.schedule.len() * size_of::<u64>()) as u64
            + self.edges.heap_bytes()
    }
}

/// The position of every task of `graph`, built over the structure whose
/// column `j` starts at task `task_start[j]`, in that storage's
/// left-looking order ([`BlockMatrix::tasks`]): the graph lists the
/// updates by source, so those into one column come by ascending source,
/// as the storage holds them, and each column ends with its factor.
fn storage_ids(graph: &TaskGraph, task_start: &[usize]) -> Vec<usize> {
    let mut cursor = task_start.to_vec();
    (graph.tasks().iter())
        .map(|task| match *task {
            Task::Factor(j) => task_start[j + 1] - 1,
            Task::Update { dst, .. } => {
                cursor[dst] += 1;
                cursor[dst] - 1
            }
        })
        .collect()
}

/// Per block column of the storage laid out on `bs`: the model flops of
/// its tasks and its parent in the block eforest, with every column's first
/// task in the storage's left-looking order (one more entry: the task count).
pub(crate) fn column_model(bs: &BlockStructure) -> (Vec<f64>, Vec<Option<usize>>, Vec<usize>) {
    // Column `j` of the transposed `Ū` block lists holds the sources of its
    // updates, then `j`: its pointer is the column's first task, where every
    // column holds one `Update` per stored source and its `Factor`.
    let (part, sources, forest) = (&bs.partition, bs.u_blocks.transpose(), block_forest(bs));
    let below = |k: usize| bs.l_rows.col(k).len();
    let flops = (0..bs.num_blocks())
        .map(|j| {
            let (w, into) = (part.width(j), sources.col(j));
            let mut f = factor_flops(w + below(j), w) as f64;
            for &k in &into[..into.len() - 1] {
                let k = k as usize;
                f += update_flops(part.width(k), below(k), bs.u_cols_in(k, j).len());
            }
            f
        })
        .collect();
    let parent = (0..bs.num_blocks()).map(|j| forest.parent(j)).collect();
    (flops, parent, sources.col_ptr().to_vec())
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
/// (or without a graph), on several the coarse graph contracted for this
/// call, or the plan a [`GraphRef::Planned`] request hands in.
///
/// # Panics
///
/// Panics when a handed-in plan has another task count than `bm`, and on
/// several threads when a coarse request's graph is not over `bm`'s
/// structure ([`RangePlan::contract`]).
pub fn factor_numeric_with(
    bm: &BlockMatrix,
    req: &NumericRequest<'_>,
) -> Result<ExecReport, LuError> {
    let dispatch = Dispatch::resolve(req.kernels);
    // The executed DAG: the plan's nodes, or else the whole matrix as one
    // node of every task.
    let contracted;
    let plan = match req.graph {
        GraphRef::Planned(p) => {
            let tasks = p.bounds[p.bounds.len() - 1];
            assert_eq!(tasks, bm.num_tasks(), "a plan of another storage");
            Some(p)
        }
        _ => {
            contracted = RangePlan::contract(bm, req);
            contracted.as_ref()
        }
    };
    let owner = |node: usize| plan.map_or(0, |p| p.owner[node]);
    let whole = [0, bm.num_tasks()];
    let bounds = plan.map_or(&whole[..], |p| &p.bounds);
    let mut exec = match plan {
        Some(p) => ExecRequest {
            schedule: Some(&p.schedule),
            placement: p.mapping.placement(&owner),
            threads: p.threads,
            ..ExecRequest::of(&p.edges)
        },
        None => ExecRequest::new(&[0, 0], &[]),
    };
    exec.task_bounds = Some(bounds);
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
    bodies.token = budget.token.as_ref();
    let mut report = run(&exec, |node, steps| {
        if !bodies.failed() {
            bodies.tasks(bounds[node]..bounds[node + 1], &mut || steps.begin());
        }
    });
    report.stats.kernel = dispatch.name();
    let columns_done = bodies.columns_done.load(Ordering::Relaxed);
    if let Some(e) = bodies.first_error.into_inner() {
        return Err(e);
    }
    if let Some(p) = report.panic.take() {
        let task = (bm.tasks().nth(p.task))
            .expect("a task id of this storage")
            .to_string();
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
    use splu_sched::{build_eforest_graph, build_sstar_graph};
    use splu_sparse::CscMatrix;
    use splu_symbolic::static_fact::static_symbolic_factorization;
    use splu_symbolic::supernode::{supernode_partition, BlockStructure};

    fn random_matrix(n: usize, extra: usize, seed: u64) -> CscMatrix {
        splu_matgen::random_diag_dominant(n, extra, seed, 3.0)
    }

    /// One request drives one and two threads, and every kernel choice
    /// yields bit-identical factors.
    #[test]
    fn unified_driver_is_kernel_invariant() {
        let a = random_matrix(40, 150, 17);
        let f = static_symbolic_factorization(a.pattern()).unwrap();
        let bs = BlockStructure::new(&f, supernode_partition(&f));
        let graph = build_eforest_graph(&bs);

        let bm_ref = BlockMatrix::assemble(&a, &bs);
        let report = factor_numeric_with(
            &bm_ref,
            &NumericRequest::coarse(&graph, Mapping::Static1D).kernels(KernelChoice::Portable),
        )
        .unwrap();
        assert_eq!(report.stats.kernel, "baseline");

        for kernels in [KernelChoice::Portable, KernelChoice::Auto] {
            let req = NumericRequest::coarse(&graph, Mapping::Dynamic)
                .threads(2)
                .kernels(kernels);
            let bm = BlockMatrix::assemble(&a, &bs);
            factor_numeric_with(&bm, &req).unwrap();
            assert_eq!(bm.factor_difference(&bm_ref), None, "{kernels:?}");
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

    /// The DAG `edges` run inline on `bm` in the one-worker order of
    /// `schedule` (or of the bottom levels), node `t` running the tasks
    /// `tasks(t)` of the storage.
    fn replay(
        bm: &BlockMatrix,
        edges: &SparsityPattern,
        schedule: Option<&ExecSchedule>,
        tasks: impl Fn(usize) -> std::ops::Range<usize> + Sync,
    ) -> Result<(), LuError> {
        let kernels = Dispatch::resolve(KernelChoice::Auto);
        let bodies = TaskBodies::new(bm, PivotRule::Partial, 0.0, PanelBreakdown::Error, &kernels);
        let exec = ExecRequest {
            schedule,
            ..ExecRequest::of(edges)
        };
        run(&exec, |t, _| {
            bodies.tasks(tasks(t), &mut || true);
        })
        .rethrow();
        bodies.first_error.into_inner().map_or(Ok(()), Err)
    }

    /// The coarse graph, built over `bm`'s structure, run task by task
    /// as a plain DAG — each `Update` and `Factor` its own node, locking
    /// its own columns — the one-thread path before range tasks.
    fn graph_replay(bm: &BlockMatrix, graph: &TaskGraph) -> Result<(), LuError> {
        let at = storage_ids(graph, &column_model(bm.layout().structure()).2);
        replay(bm, graph.edges(), None, |t| at[t]..at[t] + 1)
    }

    /// `plan`'s nodes run inline on `bm` in a random topological order:
    /// the one-worker order of priorities drawn from `seed`.
    fn random_order_replay(bm: &BlockMatrix, plan: &RangePlan, seed: u64) -> Result<(), LuError> {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let random = ExecSchedule::with_priorities(
            (0..plan.owner.len())
                .map(|_| rng.gen_range(0..u64::MAX))
                .collect(),
        );
        replay(bm, &plan.edges, Some(&random), |t| {
            plan.bounds[t]..plan.bounds[t + 1]
        })
    }

    /// Random topological orders of the nodes of plans contracted from the
    /// eforest graph of the in-block lists — at 2, 4 and 8 threads, on the
    /// reduced suite and random patterns, amalgamated or not (without
    /// amalgamation many rule-4 walks pass a block those lists drop) —
    /// factor bitwise like `factor_left_looking` on the same storage, or
    /// trip the wire as it does.
    #[test]
    fn random_orders_of_an_in_block_plan_are_bitwise_left_looking() {
        let suite = splu_matgen::paper_suite(splu_matgen::Scale::Reduced);
        let randoms = (0..4).map(|seed| random_matrix(60, 180, seed));
        for (case, a) in suite.into_iter().map(|m| m.a).chain(randoms).enumerate() {
            for amalgamation in [None, Some(Default::default())] {
                let opts = Options {
                    amalgamation,
                    ..Options::default()
                };
                let s = crate::SluSession::analyze(a.pattern(), &opts).unwrap();
                let (p, bs) = (
                    s.symbolic().permute_matrix(&a),
                    &s.symbolic().block_structure,
                );
                let wired = || {
                    let layout = crate::blocks::Layout::new(Arc::clone(bs), true);
                    let mut bm = BlockMatrix::with_layout(Arc::new(layout), |_, _, _| {});
                    bm.reset_from(&p, bs);
                    bm
                };
                let want = wired();
                let left = crate::factor_left_looking(&want, 0.0);
                let graph = build_eforest_graph(bs);
                for threads in [2, 4, 8] {
                    let plan = RangePlan::new(bs, &graph, None, threads, Mapping::Dynamic);
                    for seed in 0..4 {
                        let (bm, what) = (wired(), format!("case {case} P={threads} seed={seed}"));
                        let got = random_order_replay(&bm, &plan, seed);
                        assert_eq!(got.is_err(), left.is_err(), "{what}: {got:?}");
                        if got.is_ok() {
                            assert_eq!(bm.factor_difference(&want), None, "{what}");
                        }
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Range execution equals the per-task graph replay on the static
        /// structure bit for bit — pivots and every stored word, the
        /// reference holding the static words — on random forests of one to
        /// three trees, at 1/2/4/8 threads, under both mappings, over the
        /// graphs of both builders, on the static storage and on the wired
        /// in-block one, each graph built over the structure it runs on and
        /// each plan contracted by the driver and then handed in as a
        /// planned request. When a pivot of the replay leaves its diagonal
        /// block, every run on the in-block storage trips the wire instead.
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
            let oracle = BlockMatrix::assemble(&p, bs);
            proptest::prop_assert_eq!(oracle.storage_words(), bs.storage_words());
            if graph_replay(&oracle, &sym.build_graph()).is_err() {
                // Singular: the executor must say so too (checked elsewhere).
                return Ok(());
            }
            let block_of = bs.partition.block_of_cols();
            let left = (oracle.pivot_rows().into_iter().enumerate())
                .any(|(c, r)| r >= bs.partition.range(block_of[c]).end);
            let seeds = crate::blocks::seed_flags(bs, p.pattern(), |i| i, |j| j);
            let (rows, cols) = crate::blocks::in_block_flags(bs, seeds);
            let in_block = Arc::new(crate::blocks::realised_structure(bs, &rows, &cols));
            for (kind, build) in [
                ("eforest", build_eforest_graph as fn(&BlockStructure) -> TaskGraph),
                ("sstar", build_sstar_graph),
            ] {
                for (structure, wired) in [(Arc::clone(bs), false), (Arc::clone(&in_block), true)] {
                    let graph = build(&structure);
                    let schedule = Arc::new(ExecSchedule::for_graph(&graph));
                    let tripped = wired && left;
                    let layout = crate::blocks::Layout::new(Arc::clone(&structure), wired);
                    let mut bm = BlockMatrix::with_layout(Arc::new(layout), |_, _, _| {});
                    bm.reset_from(&p, &structure);
                    let replayed = graph_replay(&bm, &graph);
                    proptest::prop_assert_eq!(replayed.is_err(), tripped);
                    for threads in [1, 2, 4, 8] {
                        for mapping in [Mapping::Static1D, Mapping::Dynamic] {
                            let mut req =
                                NumericRequest::coarse(&graph, mapping).threads(threads);
                            if threads % 4 != 0 {
                                req = req.schedule(Arc::clone(&schedule));
                            }
                            let what =
                                format!("{kind} threads={threads} {mapping:?} wired={wired}");
                            // Contracted by the call, then handed in.
                            let plan = RangePlan::contract(&bm, &req);
                            let planned = plan.as_ref().map_or(req.clone(), NumericRequest::planned);
                            for req in [&req, &planned] {
                                bm.reset_from(&p, &structure);
                                match factor_numeric_with(&bm, req) {
                                    Ok(report) => {
                                        proptest::prop_assert!(!tripped, "{} ran through", what);
                                        let n_tasks = report.stats.n_tasks;
                                        proptest::prop_assert_eq!(n_tasks, bm.num_tasks());
                                        let difference = bm.factor_difference(&oracle);
                                        proptest::prop_assert_eq!(difference, None, "{}", what);
                                    }
                                    Err(e) => proptest::prop_assert!(
                                        tripped
                                            && matches!(e, LuError::PivotHistoryDiverged { .. }),
                                        "{}: {:?}",
                                        what,
                                        e
                                    ),
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
