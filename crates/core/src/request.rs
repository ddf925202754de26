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
//! The kernel choice resolves to one [`Dispatch`] table **once per
//! factorization** (CPU feature probing included), and that table threads
//! through every `Factor`/`Update`/`Trsm`/`Gemm` task body — all of which preserve
//! the bitwise-equivalence contract documented on
//! [`Dispatch::gemm_sub`], so the factors are independent of the
//! selected kernels.

use crate::blocks::BlockMatrix;
use crate::numeric::{factor_flops, factor_task, update_task};
use crate::numeric_fine::{apply_task, gemm_task, trsm_task};
use crate::observe::ObsSession;
use crate::solve::growth_factor;
use crate::{LuError, Options};
use parking_lot::Mutex;
use splu_dense::{Dispatch, KernelChoice, PanelBreakdown, PivotRule};
use splu_obs::{Counter, MetricsRegistry};
use splu_sched::{
    run, CancelToken, ExecReport, ExecRequest, ExecSchedule, FineGraph, FineTask, Interrupt,
    Mapping, RunBudget, Task, TaskGraph, TraceConfig,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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
    /// The coarse `Factor`/`Update` graph, executed under a task-to-worker
    /// [`Mapping`].
    Coarse {
        /// The dependence graph.
        graph: &'g TaskGraph,
        /// Task-to-worker mapping (paper: static 1D column mapping).
        mapping: Mapping,
    },
    /// The fine-grained `Apply`/`Trsm`/`Gemm` decomposition, executed on a
    /// single shared priority pool.
    Fine(&'g FineGraph),
}

/// All parameters of one numeric factorization. Build with
/// [`NumericRequest::coarse`] / [`NumericRequest::fine`], adjust with the
/// chainable setters, run with [`factor_numeric_with`].
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
    /// Cached executor schedule for the **coarse** graph (a session computes
    /// it once per analysis with [`ExecSchedule::for_graph`]). With a
    /// schedule attached, parallel runs skip the per-run bottom-level
    /// recomputation, and a single-threaded run without a watchdog
    /// ([`ExecRequest::runs_inline`]) replays the precomputed order inline
    /// instead of computing it — **with zero heap allocation** when
    /// untraced, the session `refactor` hot path. The factors are bitwise
    /// identical either way. Ignored by the fine graph.
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

/// Runs one numeric factorization described by `req` over the assembled
/// block storage, returning the executor's [`ExecReport`]. On numerical
/// breakdown under [`BreakdownPolicy::Error`] the remaining tasks drain as
/// no-ops and the first error is returned; under
/// [`BreakdownPolicy::Perturb`] the run completes and the perturbed
/// columns land in the report's [`splu_sched::FactorHealth`]. A worker
/// panic is contained by the executor and surfaces as
/// [`LuError::WorkerPanic`] — never as an unwind or a hang.
///
/// A bounded run ([`NumericRequest::budget`]) that is cancelled, misses its
/// deadline, or trips the liveness watchdog likewise drains every worker
/// and returns the matching [`LuError`] variant with the number of block
/// columns completed and tasks still pending.
///
/// This is the single driver behind every public factorization entry point;
/// the kernel table is resolved from `req.kernels` exactly once here.
pub fn factor_numeric_with(
    bm: &BlockMatrix,
    req: &NumericRequest<'_>,
) -> Result<ExecReport, LuError> {
    let dispatch = Dispatch::resolve(req.kernels);
    // The executor's view of either graph form: the DAG, plus — coarse
    // only — the static 1D owner map and the session's cached schedule.
    let threads = req.threads.max(1);
    let home = |t: usize| match req.graph {
        GraphRef::Coarse { graph, .. } => graph.task(t).home_column() % threads,
        GraphRef::Fine(_) => 0,
    };
    let exec = match req.graph {
        GraphRef::Coarse { graph, mapping } => ExecRequest {
            placement: mapping.placement(&home),
            schedule: req.schedule.as_deref(),
            ..ExecRequest::new(graph.pred_counts(), graph.successor_lists())
        },
        GraphRef::Fine(fg) => ExecRequest::new(fg.pred_counts(), fg.successor_lists()),
    };
    let mut exec = ExecRequest {
        threads,
        trace: req.trace,
        budget: &req.budget,
        ..exec
    };
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
    let failed = AtomicBool::new(false);
    let columns_done = AtomicUsize::new(0);
    let first_error: Mutex<Option<LuError>> = Mutex::new(None);
    let perturbed: Mutex<Vec<(usize, f64)>> = Mutex::new(Vec::new());
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
    let factor = |k: usize| {
        #[cfg(feature = "failpoints")]
        crate::failpoints::maybe_panic_factor(k);
        #[cfg(feature = "failpoints")]
        crate::failpoints::maybe_stall_factor(k, &|| {
            failed.load(Ordering::Acquire)
                || budget.token.as_ref().is_some_and(|t| t.is_cancelled())
        });
        #[cfg(feature = "failpoints")]
        let force = crate::failpoints::forced_breakdown_column();
        #[cfg(not(feature = "failpoints"))]
        let force = None;
        match factor_task(
            bm,
            k,
            req.pivot_rule,
            req.pivot_threshold,
            panel_policy,
            force,
            &dispatch,
        ) {
            Ok(p) => {
                let diverged = req.history.and_then(|h| bm.pivot_divergence(k, h));
                if let Some(column) = diverged {
                    failed.store(true, Ordering::Release);
                    first_error
                        .lock()
                        .get_or_insert(LuError::PivotHistoryDiverged { column });
                    return;
                }
                columns_done.fetch_add(1, Ordering::Relaxed);
                if let Some(reg) = metrics {
                    let col = bm.column(k).read();
                    reg.incr(Counter::FactorCalls);
                    reg.add(
                        Counter::FactorFlops,
                        factor_flops(col.panel.nrows(), col.width()),
                    );
                }
                if !p.is_empty() {
                    perturbed.lock().extend(p);
                }
            }
            Err(e) => {
                failed.store(true, Ordering::Release);
                first_error.lock().get_or_insert(e);
            }
        }
    };
    let mut report = run(&exec, |tid| {
        if failed.load(Ordering::Acquire) {
            return;
        }
        match req.graph {
            GraphRef::Coarse { graph, .. } => match graph.task(tid) {
                Task::Factor(k) => factor(k),
                Task::Update { src, dst } => update_task(bm, src, dst, &dispatch, metrics),
            },
            GraphRef::Fine(fg) => match fg.tasks()[tid] {
                FineTask::Factor(k) => factor(k),
                FineTask::Apply { src, dst } => apply_task(bm, src, dst),
                FineTask::Trsm { src, dst } => trsm_task(bm, src, dst, &dispatch, metrics),
                FineTask::Gemm { src, dst, row } => {
                    gemm_task(bm, src, dst, row, &dispatch, metrics)
                }
            },
        }
    });
    report.stats.kernel = dispatch.name();
    if let Some(e) = first_error.into_inner() {
        return Err(e);
    }
    if let Some(p) = report.panic.take() {
        let task = match req.graph {
            GraphRef::Coarse { graph, .. } => graph.task(p.task).to_string(),
            GraphRef::Fine(fg) => format!("{:?}", fg.tasks()[p.task]),
        };
        return Err(LuError::WorkerPanic {
            worker: p.worker,
            task,
        });
    }
    if let Some(interrupt) = report.interrupt.take() {
        let columns_done = columns_done.load(Ordering::Relaxed);
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
    let mut perturbed = perturbed.into_inner();
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
}
