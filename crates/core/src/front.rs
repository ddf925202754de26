//! The front half's threaded steps: static symbolic fill from a skeleton
//! and postorder construction, driven by the same executor as the numeric
//! phase.
//!
//! Static symbolic factorization (see [`splu_symbolic::static_fact`]) is a
//! cheap sequential **skeleton** pass (the union–find merge loop, which
//! also yields the elimination-forest parents and every factor-column
//! length) and an embarrassingly parallel **fill** pass: each column's `Ū`
//! structure is an independent bounded reachability climb through the
//! skeleton forest (the GSoFa-style per-column formulation). Chunks of
//! columns are scheduled as independent tasks on `splu_sched`, each worker
//! reusing a pooled [`FillScratch`]; the per-chunk outputs are merged
//! **deterministically** (chunks tile the column range in ascending order
//! and every entry's final position is fixed before assembly starts), so
//! the L/U patterns are bitwise identical for every thread count, chunking,
//! and schedule — one thread is the same code, not another algorithm.
//!
//! Cancellation: a [`RunBudget`] bounds the fill phase at chunk
//! boundaries exactly as it bounds the numeric phase at task boundaries —
//! `--time-limit` therefore covers symbolic runs too.

use crate::observe::ObsSession;
use crate::{LuError, Options};
use parking_lot::Mutex;
use splu_obs::{Counter, Track};
use splu_sched::{
    run, CancelToken, EventKind, ExecRequest, ExecSchedule, Interrupt, RunBudget, TraceConfig,
};
use splu_sparse::{Permutation, SparsityPattern};
use splu_symbolic::{
    assemble_filled_threads, fill_columns, EliminationForest, FillChunk, FillScratch, FillSkeleton,
    FilledLu,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Parameters of one symbolic front half (the analysis phases before the
/// numeric factorization). Build with [`SymbolicRequest::new`] or
/// [`SymbolicRequest::from_options`], adjust with the chainable setters,
/// run with [`crate::analyze_with`].
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolicRequest {
    /// Worker threads for the front half: symbolic-fill chunks, the
    /// assembly scatters, and postorder segments (`1` by default).
    pub front_threads: usize,
    /// Fill chunks created per front thread (more chunks → better load
    /// balance, slightly more scheduling overhead).
    pub chunks_per_thread: usize,
    /// Bounds on the front half: cancellation token, wall-clock deadline,
    /// liveness watchdog. Checked at chunk/phase boundaries; an
    /// interrupted run returns [`LuError::Cancelled`] /
    /// [`LuError::DeadlineExceeded`] / [`LuError::Stalled`].
    pub budget: RunBudget,
    /// Observability session: when set, the front half records phase and
    /// per-chunk spans into its [`crate::observe::ObsSession::trace`] and
    /// counts fill entries / budget checkpoints into its metrics registry.
    /// `None` (the default) records and counts nothing — the unobserved
    /// path never reads the clock.
    pub obs: Option<ObsSession>,
}

impl Default for SymbolicRequest {
    fn default() -> Self {
        SymbolicRequest {
            front_threads: 1,
            chunks_per_thread: 4,
            budget: RunBudget::default(),
            obs: None,
        }
    }
}

impl SymbolicRequest {
    /// The default request: sequential, unbounded.
    pub fn new() -> Self {
        Self::default()
    }

    /// The front-half request implied by driver options: thread count and
    /// budget are lifted from [`Options::front_threads`] and
    /// [`Options::budget`].
    pub fn from_options(opts: &Options) -> Self {
        SymbolicRequest::new()
            .front_threads(opts.front_threads)
            .budget(opts.budget.clone())
    }

    /// Sets the front-half worker-thread count.
    pub fn front_threads(mut self, threads: usize) -> Self {
        self.front_threads = threads;
        self
    }

    /// Sets the number of fill chunks per front thread.
    pub fn chunks_per_thread(mut self, chunks: usize) -> Self {
        self.chunks_per_thread = chunks;
        self
    }

    /// Sets the run budget (cancellation / deadline / watchdog).
    pub fn budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches an observability session (spans + counters).
    pub fn observe(mut self, session: ObsSession) -> Self {
        self.obs = Some(session);
        self
    }

    /// Whether the budget asks the front half to stop (token cancelled or
    /// deadline passed).
    pub(crate) fn tripped(&self) -> bool {
        self.budget.token.as_ref().is_some_and(|t| t.is_cancelled())
            || self.budget.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The error a tripped budget maps to, mirroring the numeric phase's
    /// interrupt mapping. `columns_done` counts factor columns whose
    /// structure was completed before the trip.
    pub(crate) fn trip_error(&self, columns_done: usize, tasks_pending: usize) -> LuError {
        if self.budget.deadline.is_some_and(|d| Instant::now() >= d) {
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
}

fn map_interrupt(interrupt: Interrupt, columns_done: usize) -> LuError {
    match interrupt {
        Interrupt::Cancelled { tasks_pending } => LuError::Cancelled {
            columns_done,
            tasks_pending,
        },
        Interrupt::DeadlineExceeded { tasks_pending } => LuError::DeadlineExceeded {
            columns_done,
            tasks_pending,
        },
        Interrupt::Stalled(report) => LuError::Stalled {
            columns_done,
            report,
        },
    }
}

/// Fills `L̄`, `Ū` and the row-major `Ū` of `pattern` from its skeleton
/// (`skel == fill_skeleton(pattern)`, possibly obtained by
/// [`FillSkeleton::relabeled`]): fill chunks scheduled as independent tasks
/// on the executor, then the threaded deterministic assembly.
///
/// The result is **bitwise identical** to
/// [`splu_symbolic::static_symbolic_factorization`] for every
/// `front_threads` value; the executor only decides *when* each chunk
/// runs, never *what* it produces (each column's climb output is a pure
/// function of the skeleton) nor *where* it lands (all positions are fixed
/// by the skeleton's length arrays before assembly).
pub fn fill_from_skeleton(
    pattern: &SparsityPattern,
    skel: &FillSkeleton,
    req: &SymbolicRequest,
) -> Result<FilledLu, LuError> {
    let threads = req.front_threads.max(1);
    let obs = req.obs.as_ref();
    let metrics = obs.map(|o| o.metrics().as_ref());
    let n = skel.n();

    // Effective budget: a deadline or watchdog without a caller token gets
    // an internal one so interrupts can release cooperative waiters.
    let mut budget = req.budget.clone();
    if budget.token.is_none() && (budget.deadline.is_some() || budget.watchdog.is_some()) {
        budget.token = Some(CancelToken::new());
    }

    let ranges = skel.partition(pattern, threads * req.chunks_per_thread.max(1));
    let n_chunks = ranges.len();
    let slots: Vec<Mutex<Option<FillChunk>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
    let scratch_pool: Mutex<Vec<FillScratch>> = Mutex::new(Vec::new());
    let columns_done = AtomicUsize::new(0);
    // The chunks are independent: a DAG with no edges.
    let pred_counts = vec![0usize; n_chunks];
    let successors = vec![Vec::new(); n_chunks];
    // An observed run records each chunk as a span on its front-thread
    // track (shared-epoch executor trace, replayed below) and counts the
    // Ū entries it produced; the unobserved configuration is `off` and the
    // task body touches no counters.
    let exec_config = match obs {
        Some(o) => o.executor_trace_config(n_chunks, threads),
        None => TraceConfig::off(),
    };
    // With a schedule attached, one untraced thread replays the chunks
    // inline on the calling thread — no worker is spawned (and no second
    // allocator arena grown) for what is then a plain loop.
    let schedule = ExecSchedule::for_dag(&pred_counts, &successors);
    let exec = ExecRequest {
        threads,
        schedule: Some(&schedule),
        trace: exec_config,
        budget: &budget,
        ..ExecRequest::new(&pred_counts, &successors)
    };
    let mut report = run(&exec, |t| {
        #[cfg(feature = "failpoints")]
        crate::failpoints::maybe_cancel_symbolic(t, budget.token.as_ref());
        let mut scratch = scratch_pool
            .lock()
            .pop()
            .unwrap_or_else(|| FillScratch::new(n));
        let cols = ranges[t].clone();
        let filled_here = cols.len();
        let chunk = fill_columns(pattern, skel, cols, &mut scratch);
        if let Some(reg) = metrics {
            // Every chunk boundary is a budget poll; u_idx counts the
            // Ū entries (diagonal included) this chunk contributed.
            reg.incr(Counter::BudgetCheckpoints);
            reg.add(Counter::FillU, chunk.u_idx.len() as u64);
        }
        *slots[t].lock() = Some(chunk);
        scratch_pool.lock().push(scratch);
        columns_done.fetch_add(filled_here, Ordering::Relaxed);
    });
    if let (Some(o), Some(trace)) = (obs, report.trace.take()) {
        for e in &trace.events {
            if let EventKind::Task { tid } = e.kind {
                o.trace().record_rel(
                    Track::Front(e.worker),
                    format!("fill {:?}", ranges[tid]),
                    e.start_ns / 1_000,
                    (e.end_ns - e.start_ns) / 1_000,
                );
            }
        }
    }
    if let Some(p) = report.panic.take() {
        return Err(LuError::WorkerPanic {
            worker: p.worker,
            task: format!("SymbolicFill({:?})", ranges[p.task]),
        });
    }
    if let Some(interrupt) = report.interrupt.take() {
        return Err(map_interrupt(
            interrupt,
            columns_done.load(Ordering::Relaxed),
        ));
    }
    let chunks: Vec<FillChunk> = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("uninterrupted run completed every chunk")
        })
        .collect();
    let filled = {
        let _s = obs.map(|o| o.trace().span(Track::Driver, "fill_assembly"));
        assemble_filled_threads(skel, &chunks, threads)?
    };
    if let Some(reg) = metrics {
        reg.add(Counter::FillL, filled.l.nnz() as u64);
    }
    Ok(filled)
}

/// Parallel postorder: the forest's trees are disjoint, so each root's
/// postorder segment is computed as an independent task and the segments
/// are stitched in ascending root order — exactly the order
/// [`EliminationForest::postorder`] visits them, so the permutation is
/// identical to the sequential one for every thread count.
pub fn postorder_parallel(forest: &EliminationForest, nthreads: usize) -> Permutation {
    postorder_parallel_obs(forest, nthreads, None)
}

/// [`postorder_parallel`] under an observability session: each root's
/// segment task is recorded as a `postorder root r` span on its
/// front-thread track. `None` is exactly the unobserved path.
pub fn postorder_parallel_obs(
    forest: &EliminationForest,
    nthreads: usize,
    obs: Option<&ObsSession>,
) -> Permutation {
    let roots = forest.roots();
    if nthreads <= 1 || roots.len() <= 1 {
        return forest.postorder();
    }
    let slots: Vec<Mutex<Vec<usize>>> = roots.iter().map(|_| Mutex::new(Vec::new())).collect();
    // The trees are independent: a DAG with no edges.
    let pred_counts = vec![0usize; roots.len()];
    let successors = vec![Vec::new(); roots.len()];
    let exec = ExecRequest {
        threads: nthreads,
        trace: match obs {
            Some(o) => o.executor_trace_config(roots.len(), nthreads),
            None => TraceConfig::off(),
        },
        ..ExecRequest::new(&pred_counts, &successors)
    };
    let mut report = run(&exec, |t| {
        *slots[t].lock() = forest.postorder_segment(roots[t]);
    });
    // No error channel here: a panicking segment task must surface as
    // itself, not as a hole in the stitched permutation below.
    report.rethrow();
    if let (Some(o), Some(trace)) = (obs, report.trace.take()) {
        for e in &trace.events {
            if let EventKind::Task { tid } = e.kind {
                o.trace().record_rel(
                    Track::Front(e.worker),
                    format!("postorder root {}", roots[tid]),
                    e.start_ns / 1_000,
                    (e.end_ns - e.start_ns) / 1_000,
                );
            }
        }
    }
    let mut order = Vec::with_capacity(forest.n());
    for s in slots {
        order.extend(s.into_inner());
    }
    Permutation::from_vec(order).expect("stitched segments visit every node once")
}
