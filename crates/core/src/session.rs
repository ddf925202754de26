//! Persistent solver sessions: analyze once, factor and refactor many
//! times (the HYLU-style analyze / factor / re-factor split).
//!
//! The paper's premise is that the symbolic work — ordering, static
//! George–Ng fill, eforest postordering, supernode partition, task graph —
//! depends only on the sparsity pattern, while device- and
//! circuit-simulation workloads change the numeric *values* every step. A
//! [`SluSession`] caches all of the symbolic state (keyed by a pattern
//! hash, [`pattern_hash`]) — on several threads also the task graph and
//! its executor schedule; a one-thread session factors the whole matrix as
//! one range and holds neither — and exposes:
//!
//! * [`SluSession::analyze`] — the symbolic half, run once per pattern;
//! * [`SluSession::factor`] — numeric-only: assembles block storage for the
//!   given values and factors it (no symbolic phases);
//! * [`SluSession::refactor`] — the hot path: additionally reuses the
//!   already-allocated panel-major storage and the cached scatter map, so
//!   with one thread, tracing off, and no watchdog it performs **zero heap
//!   allocation** (asserted under the `alloc-track` counting allocator);
//! * [`SluSession::solve`] / [`SluSession::try_solve`] /
//!   [`SluSession::solve_refined`] — operate on the latest factors.
//!
//! Values whose pattern hash disagrees with the analyzed one are rejected
//! with [`LuError::PatternMismatch`]; a solve before the first successful
//! factorization returns [`LuError::NotFactored`]. The refactorization is
//! **bitwise identical** to a fresh factorization of the same values —
//! same task bodies in a topological order of the same DAG — which the
//! session invariance suite asserts across thread counts and mappings.
//!
//! **Realised structure.** The static `Ā` is valid for every pivot
//! sequence, which a session that sees the same sequence step after step
//! pays for on each of them. When the last two completed factorizations
//! took the same pivot history, `refactor` derives the sub-structure that
//! history can fill ([`crate::blocks`]' boolean replay), lays the storage
//! out from it and runs the same driver (and graph) on it, holding
//! every `Factor(K)` to the recorded interchanges. Equal pivots mean —
//! by induction over the columns — that every word left out was exactly
//! zero, so the factors are bitwise the static ones; the first unequal
//! pivot drains the run, the session goes back to the static structure and
//! answers the job from there. [`SluSession::factor`] always runs static.
//! DESIGN.md §5.4–5.5.
//!
//! Equilibration is a *values* transformation, so the session itself
//! ignores [`Options::equilibrate`]; [`crate::SparseLu`] (a thin wrapper
//! over this API) scales the values before handing them to the session.

use crate::blocks::{realised_structure, BlockMatrix, ValueSlot};
use crate::observe::{ObsSession, RefactorPath};
use crate::request::{factor_numeric_with, NumericRequest};
use crate::solve::{solve_many_permuted, solve_permuted, solve_transposed_permuted};
use crate::{analyze_with, LuError, Options, Stats, SymbolicLu, SymbolicRequest};
use splu_obs::Counter;
use splu_sched::{ExecSchedule, FactorHealth, RunBudget, TaskGraph};
use splu_sparse::{CscMatrix, SparsityPattern};
use splu_symbolic::supernode::BlockStructure;
use std::sync::Arc;

/// Hash of a sparsity pattern (dimensions, column pointers, row indices) —
/// the session cache key. Two matrices share a hash exactly when they share
/// the structure the symbolic phases consume (up to 64-bit collisions), so
/// cached orderings, fill, supernodes, and task graphs apply to either.
///
/// One multiply-rotate step per word and a splitmix64-style avalanche at
/// the end: it runs on every `factor` and `refactor`. The value is compared
/// within one process only and never persisted, so the function may change
/// between versions.
pub fn pattern_hash(pattern: &SparsityPattern) -> u64 {
    const SEED: u64 = 0x9e37_79b9_7f4a_7c15;
    const MUL: u64 = 0xbf58_476d_1ce4_e5b9;
    #[inline]
    fn eat(h: u64, x: u64) -> u64 {
        (h ^ x).wrapping_mul(MUL).rotate_left(29)
    }
    let mut h = eat(SEED, pattern.nrows() as u64);
    h = eat(h, pattern.ncols() as u64);
    for &p in pattern.col_ptr() {
        h = eat(h, p as u64);
    }
    for &i in pattern.row_indices() {
        h = eat(h, i as u64);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(MUL);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Rejects non-finite entries, naming the first offending column — checked
/// before the parallel phase can propagate them silently. Allocates
/// nothing on the accepting path.
pub(crate) fn check_finite(a: &CscMatrix) -> Result<(), LuError> {
    if a.values().iter().any(|v| !v.is_finite()) {
        // Cold path: walk the triplets to name the offending column.
        for (_, j, v) in a.triplets() {
            if !v.is_finite() {
                return Err(LuError::NonFiniteInput { column: j });
            }
        }
    }
    Ok(())
}

/// A persistent solver session: cached symbolic analysis (plus, on several
/// threads, task graph and executor schedule) for one sparsity pattern,
/// with reusable numeric storage. The module docs of `session.rs` describe
/// the lifecycle.
pub struct SluSession {
    /// `sym.block_structure` is the structure of the current storage: the
    /// static one, or the realised one of `history` (the static one then
    /// held aside in `sym`).
    sym: SymbolicLu,
    /// Global pivot row of every column. On the static structure: of the
    /// factorization completed before the one `bm` holds (empty when that
    /// one was not looked at). On a realised structure: the history it was
    /// derived from, which every run on it reproduces or leaves.
    history: Vec<usize>,
    /// The task graph of the static structure and its schedule — held by
    /// a session of several threads only.
    graph: Option<(TaskGraph, Arc<ExecSchedule>)>,
    pattern_hash: u64,
    bm: Option<BlockMatrix>,
    /// Where each nonzero of the (original-order) input lands inside the
    /// block storage, in `values()` order.
    scatter: Vec<ValueSlot>,
    health: FactorHealth,
    factored: bool,
    budget: RunBudget,
}

impl SluSession {
    /// Runs the full symbolic analysis for `pattern` and caches everything
    /// the numeric phase needs: permutations, supernode partition and
    /// block lists — and, when `opts.threads > 1`, the task graph of
    /// `opts.task_graph` with its executor schedule (one thread factors the
    /// whole matrix as one range: no graph is built). No numeric storage
    /// is allocated yet.
    pub fn analyze(pattern: &SparsityPattern, opts: &Options) -> Result<SluSession, LuError> {
        Self::analyze_inner(pattern, opts, None)
    }

    /// [`Self::analyze`] under an observability session: the symbolic
    /// phases record spans and counters exactly as
    /// [`crate::SparseLu::factor_observed`] does.
    pub fn analyze_observed(
        pattern: &SparsityPattern,
        opts: &Options,
        session: &ObsSession,
    ) -> Result<SluSession, LuError> {
        Self::analyze_inner(pattern, opts, Some(session))
    }

    pub(crate) fn analyze_inner(
        pattern: &SparsityPattern,
        opts: &Options,
        obs: Option<&ObsSession>,
    ) -> Result<SluSession, LuError> {
        let mut sreq = SymbolicRequest::from_options(opts);
        if let Some(o) = obs {
            sreq = sreq.observe(o.clone());
        }
        let sym = analyze_with(pattern, opts, &sreq)?;
        let graph = (opts.threads > 1).then(|| {
            let _p = obs.map(|o| o.phase("graph_build"));
            let graph = sym.build_graph(opts.task_graph);
            let schedule = Arc::new(ExecSchedule::for_graph(&graph));
            (graph, schedule)
        });
        Ok(SluSession {
            budget: opts.budget.clone(),
            sym,
            history: Vec::new(),
            graph,
            pattern_hash: pattern_hash(pattern),
            bm: None,
            scatter: Vec::new(),
            health: FactorHealth::default(),
            factored: false,
        })
    }

    /// The cache key: [`pattern_hash`] of the analyzed pattern.
    pub fn pattern_hash(&self) -> u64 {
        self.pattern_hash
    }

    /// Numeric-only factorization of `a` (original order, same pattern as
    /// analyzed): assembles fresh block storage and factors it. No symbolic
    /// phase runs. Use [`Self::refactor`] to also reuse
    /// the storage of a previous factorization. Always on the static
    /// structure — this is the oracle `refactor` is held to — so it drops a
    /// cached realised structure and the recorded pivot history.
    pub fn factor(&mut self, a: &CscMatrix) -> Result<(), LuError> {
        self.factor_inner(a, None)
    }

    /// [`Self::factor`] under an observability session (numeric span,
    /// kernel counters, executor report).
    pub fn factor_observed(&mut self, a: &CscMatrix, obs: &ObsSession) -> Result<(), LuError> {
        self.factor_inner(a, Some(obs))
    }

    /// Refactorizes with new values: resets the existing panel-major
    /// storage in place, scatters `a`'s values through the cached scatter
    /// map, and re-runs the numeric phase. With `threads <= 1`, tracing
    /// off, and no watchdog the whole path performs **zero heap
    /// allocation**; the result is bitwise
    /// identical to [`Self::factor`] of the same values. Before the first
    /// [`Self::factor`] this simply *is* a factor call (storage must be
    /// allocated once).
    ///
    /// A call that finds the last two completed factorizations on one pivot
    /// history first moves the session onto that history's realised
    /// structure (once per history; DESIGN.md §5.4); from then on the same
    /// steps run on the smaller storage, and a run whose pivots leave the
    /// history is repeated on the static structure before this returns.
    pub fn refactor(&mut self, a: &CscMatrix) -> Result<(), LuError> {
        self.refactor_inner(a, None)
    }

    /// [`Self::refactor`] under an observability session. At one thread
    /// this is the same range with the executor's recorder attached — the
    /// observed run executes the program the unobserved one does, and what
    /// it allocates (the report) does not grow with the task count; phase
    /// walls still show symbolic time exactly zero.
    pub fn refactor_observed(&mut self, a: &CscMatrix, obs: &ObsSession) -> Result<(), LuError> {
        self.refactor_inner(a, Some(obs))
    }

    fn factor_inner(&mut self, a: &CscMatrix, obs: Option<&ObsSession>) -> Result<(), LuError> {
        self.check_pattern(a)?;
        check_finite(a)?;
        self.factor_checked(a, obs)
    }

    /// [`Self::factor_inner`] for a caller that has itself established what
    /// the two checks establish: `a` has the analyzed pattern and only
    /// finite values.
    pub(crate) fn factor_checked(
        &mut self,
        a: &CscMatrix,
        obs: Option<&ObsSession>,
    ) -> Result<(), LuError> {
        {
            let _p = obs.map(|o| o.phase("graph_build"));
            self.drop_realised();
            self.history.clear();
            self.assemble_fresh(a);
        }
        self.run_numeric(obs)
    }

    fn refactor_inner(&mut self, a: &CscMatrix, obs: Option<&ObsSession>) -> Result<(), LuError> {
        if self.bm.is_none() {
            if let Some(o) = obs {
                o.capture_refactor(RefactorPath::Static);
            }
            return self.factor_inner(a, obs);
        }
        self.check_pattern(a)?;
        check_finite(a)?;
        // The one rule that moves a session onto a realised structure: the
        // factorization `bm` holds took the history of the one before it.
        if !self.is_realised() && self.factored {
            let bm = self.bm.as_ref().expect("storage checked above");
            if bm.swap_history(&mut self.history) {
                let _p = obs.map(|o| o.phase("graph_build"));
                self.realise(a.pattern());
            }
        }
        let bm = self.bm.as_mut().expect("storage checked above");
        bm.reset_values();
        bm.store_values(&self.scatter, a.values());
        let mut path = if self.is_realised() {
            RefactorPath::Realised
        } else {
            RefactorPath::Static
        };
        let mut outcome = self.run_numeric(obs);
        if let Err(LuError::PivotHistoryDiverged { column }) = outcome {
            // These values pivot differently: the realised storage may lack
            // what they fill. The static structure answers the job.
            {
                let _p = obs.map(|o| o.phase("graph_build"));
                self.drop_realised();
                self.assemble_fresh(a);
            }
            path = RefactorPath::Fallback { column };
            outcome = self.run_numeric(obs);
        }
        if let Some(o) = obs {
            o.capture_refactor(path);
            match path {
                RefactorPath::Realised if outcome.is_ok() => {
                    o.metrics().incr(Counter::RefactorRealised);
                    let words = self.sym.block_structure.storage_words();
                    o.metrics().record_max(Counter::RealisedWords, words as u64);
                }
                RefactorPath::Fallback { .. } => o.metrics().incr(Counter::RefactorFallback),
                _ => {}
            }
        }
        outcome
    }

    /// Moves the session from the static structure onto the realised
    /// structure of `history`. Frees before it allocates — the static
    /// values first (the replay reads the index maps only), then those maps
    /// and the old scatter map before the new lists, maps and values exist —
    /// so nothing of the smaller storage coexists with its larger
    /// counterpart.
    fn realise(&mut self, pattern: &SparsityPattern) {
        let storage = self.bm.take().expect("factors of the recorded history");
        let layout = storage.into_layout();
        let static_bs = &self.sym.block_structure;
        let (rows, cols) = layout.realised_flags(static_bs, &self.scatter, &self.history);
        drop(layout);
        self.scatter = Vec::new();
        let realised = realised_structure(static_bs, &rows, &cols);
        drop((rows, cols));
        let bm = BlockMatrix::zeros(&realised);
        self.scatter = self.slots_in(&bm, pattern);
        self.bm = Some(bm);
        self.sym.static_bs = Some(std::mem::replace(&mut self.sym.block_structure, realised));
        self.factored = false;
    }

    /// Back to the static structure, if a realised one is cached: its
    /// storage, maps and scatter map go; [`Self::assemble_fresh`] rebuilds
    /// the static ones.
    fn drop_realised(&mut self) {
        if let Some(static_bs) = self.sym.static_bs.take() {
            self.sym.block_structure = static_bs;
            self.bm = None;
            self.scatter = Vec::new();
            self.factored = false;
        }
    }

    /// Where each nonzero of the analyzed (original-order) pattern lands
    /// inside `bm`.
    fn slots_in(&self, bm: &BlockMatrix, pattern: &SparsityPattern) -> Vec<ValueSlot> {
        let (rows, cols) = (&self.sym.row_perm, &self.sym.col_perm);
        bm.value_slots(pattern, |i| rows.new_of(i), |j| cols.old_of(j))
    }

    /// Rejects values whose pattern hash disagrees with the analyzed one.
    /// Allocates nothing on the accepting path.
    fn check_pattern(&self, a: &CscMatrix) -> Result<(), LuError> {
        let got = pattern_hash(a.pattern());
        if got != self.pattern_hash {
            return Err(LuError::PatternMismatch {
                expected: self.pattern_hash,
                got,
            });
        }
        Ok(())
    }

    /// Replaces the storage by freshly allocated zeros holding `a`'s
    /// values; the first call also builds the index maps of the storage and
    /// the scatter map that puts the values there (every later factor and
    /// refactor reuses both).
    fn assemble_fresh(&mut self, a: &CscMatrix) {
        // The old factors go first, so two copies never coexist.
        let bm = match self.bm.take() {
            Some(old) => old.into_zeros(),
            None => BlockMatrix::zeros(&self.sym.block_structure),
        };
        // (An empty map is that of an empty matrix: rebuilding it is free.)
        if self.scatter.is_empty() {
            self.scatter = self.slots_in(&bm, a.pattern());
        }
        self.bm.insert(bm).store_values(&self.scatter, a.values());
    }

    fn run_numeric(&mut self, obs: Option<&ObsSession>) -> Result<(), LuError> {
        self.factored = false;
        let bm = self.bm.as_ref().expect("storage assembled by the caller");
        let opts = &self.sym.opts;
        let numeric_phase = obs.map(|o| o.phase("numeric"));
        let nreq = match &self.graph {
            Some((graph, schedule)) => {
                NumericRequest::coarse(graph, opts.mapping).schedule(Arc::clone(schedule))
            }
            None => NumericRequest::left_looking(),
        };
        let mut nreq = nreq
            .threads(opts.threads)
            .pivot_rule(opts.pivot_rule)
            .pivot_threshold(opts.pivot_threshold)
            .kernels(opts.kernels)
            .breakdown(opts.breakdown)
            .budget(self.budget.clone());
        if self.is_realised() {
            nreq = nreq.expect_history(&self.history);
        }
        if let Some(o) = obs {
            nreq = nreq
                .trace(o.executor_trace_config(bm.num_tasks(), opts.threads.max(1)))
                .metrics(Arc::clone(o.metrics()));
        }
        let report = factor_numeric_with(bm, &nreq)?;
        drop(numeric_phase);
        if let Some(o) = obs {
            // The Chrome export labels the events of an event stream by
            // task; a report-grade run has none and copies nothing.
            let labelled = report.trace.map(|trace| (trace, bm.tasks().collect()));
            o.capture_numeric(report.stats, report.health.clone(), labelled);
        }
        self.health = report.health;
        self.factored = true;
        Ok(())
    }

    /// The factored storage, or [`LuError::NotFactored`] before the first
    /// successful factorization (or after an interrupted one).
    fn factors(&self) -> Result<&BlockMatrix, LuError> {
        if !self.factored {
            return Err(LuError::NotFactored);
        }
        self.bm.as_ref().ok_or(LuError::NotFactored)
    }

    /// Solves `A x = b` through the latest factors, or an error when the
    /// session holds no factors ([`LuError::NotFactored`]) or `b` has the
    /// wrong length ([`LuError::DimensionMismatch`]).
    pub fn try_solve(&self, b: &[f64]) -> Result<Vec<f64>, LuError> {
        let bm = self.factors()?;
        self.check_len(b, 1)?;
        let mut y = self.sym.row_perm.apply_vec(b);
        solve_permuted(bm, &self.sym.block_structure, &mut y);
        Ok(self.sym.col_perm.apply_inverse_vec(&y))
    }

    /// Solves `Aᵀ x = b` (fallible form).
    pub fn try_solve_transposed(&self, b: &[f64]) -> Result<Vec<f64>, LuError> {
        let bm = self.factors()?;
        self.check_len(b, 1)?;
        let mut y = self.sym.col_perm.apply_vec(b);
        solve_transposed_permuted(bm, &self.sym.block_structure, &mut y);
        Ok(self.sym.row_perm.apply_inverse_vec(&y))
    }

    /// Solves `A X = B` for `nrhs` column-major right-hand sides (fallible
    /// form; see [`crate::SparseLu::solve_many`] for the layout).
    pub fn try_solve_many(&self, b: &[f64], nrhs: usize) -> Result<Vec<f64>, LuError> {
        let bm = self.factors()?;
        self.check_len(b, nrhs)?;
        let n = self.sym.stats.n;
        let mut work = Vec::with_capacity(b.len());
        for r in 0..nrhs {
            work.extend(self.sym.row_perm.apply_vec(&b[r * n..(r + 1) * n]));
        }
        solve_many_permuted(bm, &self.sym.block_structure, &mut work, nrhs);
        let mut out = Vec::with_capacity(b.len());
        for r in 0..nrhs {
            out.extend(
                self.sym
                    .col_perm
                    .apply_inverse_vec(&work[r * n..(r + 1) * n]),
            );
        }
        Ok(out)
    }

    /// Solves `A x = b`, panicking on a dimension mismatch or a session
    /// with no factors — the infallible convenience form of
    /// [`Self::try_solve`].
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.try_solve(b).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Solves `A x = b` with iterative refinement against `a` (normally
    /// the matrix the latest factorization consumed): repeat
    /// `x ← x + A⁻¹(b − A x)` until the scaled residual drops below `tol`
    /// or `max_iters` steps have run. Returns the solution and the number
    /// of refinement steps.
    pub fn solve_refined(
        &self,
        a: &CscMatrix,
        b: &[f64],
        tol: f64,
        max_iters: usize,
    ) -> Result<(Vec<f64>, usize), LuError> {
        crate::solve::refine(a, b, tol, max_iters, |rhs| self.try_solve(rhs))
    }

    pub(crate) fn check_len(&self, b: &[f64], nrhs: usize) -> Result<(), LuError> {
        let expected = self.sym.stats.n * nrhs;
        if b.len() != expected {
            return Err(LuError::DimensionMismatch {
                expected,
                got: b.len(),
            });
        }
        Ok(())
    }

    /// Replaces the per-factorization run budget (deadline, cancel token,
    /// watchdog). The session starts with `opts.budget` from analysis.
    pub fn set_budget(&mut self, budget: RunBudget) {
        self.budget = budget;
    }

    /// `true` once a factorization has completed (and not been
    /// interrupted since).
    pub fn is_factored(&self) -> bool {
        self.factored
    }

    /// The cached symbolic analysis.
    pub fn symbolic(&self) -> &SymbolicLu {
        &self.sym
    }

    /// Analysis statistics.
    pub fn stats(&self) -> &Stats {
        &self.sym.stats
    }

    /// Options the session was analyzed with.
    pub fn options(&self) -> &Options {
        &self.sym.opts
    }

    /// The cached task graph of the static structure — held on several
    /// threads only (`None` at one thread, where the whole matrix is one
    /// range and no graph is built).
    pub fn graph(&self) -> Option<&TaskGraph> {
        self.graph.as_ref().map(|(graph, _)| graph)
    }

    /// The cached executor schedule of [`Self::graph`] (shared with every
    /// factorization), under the same condition.
    pub fn schedule(&self) -> Option<&Arc<ExecSchedule>> {
        self.graph.as_ref().map(|(_, schedule)| schedule)
    }

    /// Resident bytes this session holds: the dense panel/U-block storage
    /// (dominant term, exact via [`BlockMatrix::storage_words`]) with its
    /// index maps, the cached scatter map, the recorded pivot history, and
    /// the symbolic state — the block structure's row, column and block
    /// lists (of **both** structures while a realised one is cached), the
    /// two permutations with their inverses, the block forest, and the
    /// task graph with its schedule while one is held — counted from the
    /// lengths of the arrays that hold them (no scalar `L̄`/`Ū` exists to
    /// count). Storage, maps and scatter map are those actually held: the
    /// realised ones while a realised structure is cached. This is the
    /// quantity a session pool budgets and evicts on; it intentionally
    /// counts only per-session state, not transient factorization
    /// workspace.
    pub fn resident_bytes(&self) -> u64 {
        let usz = std::mem::size_of::<usize>() as u64;
        let vec_header = std::mem::size_of::<Vec<usize>>() as u64;
        let (n, nb) = (
            self.sym.stats.n as u64,
            self.sym.block_structure.num_blocks() as u64,
        );
        // R_K / C_K with their pointers, the block lists (one `Vec` per
        // supernode and factor), the partition.
        let lists = |bs: &BlockStructure| {
            let block_list_words: usize = (bs.l_blocks.iter().chain(&bs.u_blocks))
                .map(|blocks| blocks.len())
                .sum();
            (bs.l_rows.nnz() + bs.u_cols.nnz() + block_list_words) as u64 * usz
                + 2 * nb * vec_header
                + 3 * (nb + 1) * usz
        };
        // Four permutation arrays; the forest's parents and one child list
        // per node.
        let symbolic = lists(&self.sym.block_structure)
            + self.sym.static_bs.as_ref().map_or(0, lists)
            + 4 * n * usz
            + nb * (2 * usz + vec_header);
        // Task graph: the task, its successor list and its predecessor
        // count per task, one word per edge; schedule: a priority per task.
        let graph = self.graph.as_ref().map_or(0, |(graph, schedule)| {
            let tasks = graph.len() as u64;
            tasks * (std::mem::size_of::<splu_sched::Task>() as u64 + vec_header + usz)
                + self.sym.stats.graph_edges as u64 * usz
                + nb * usz
                + (schedule.len() as u64) * 8
        });
        let numeric = self
            .bm
            .as_ref()
            .map_or(0, |bm| 8 * bm.storage_words() as u64 + bm.map_bytes());
        let scatter = (self.scatter.len() * std::mem::size_of::<ValueSlot>()) as u64;
        symbolic + graph + numeric + scatter + self.history.capacity() as u64 * usz
    }

    /// The static structure `Ā` of the analysis, valid for every pivot
    /// sequence. [`Self::symbolic`]`().block_structure` is the structure of
    /// the *current* storage — this one, or a sub-structure of it while the
    /// session refactors on the realised structure of its pivot history.
    pub fn static_structure(&self) -> &BlockStructure {
        self.sym.static_structure()
    }

    /// `true` while the session holds a realised structure (the storage is
    /// laid out for one pivot history only).
    pub fn is_realised(&self) -> bool {
        self.sym.static_bs.is_some()
    }

    /// Storage accounting of the block storage the session holds (`None`
    /// before the first factor call).
    pub fn storage(&self) -> Option<crate::FactorStorage> {
        let words = self.bm.as_ref()?.storage_words();
        let static_words = self.static_structure().storage_words();
        let structural = self.sym.stats.nnz_filled;
        Some(crate::FactorStorage {
            words,
            static_words,
            structural,
            padding_fraction: if static_words == 0 {
                0.0
            } else {
                1.0 - structural as f64 / static_words as f64
            },
        })
    }

    /// The numeric phase's robustness report for the latest factorization.
    pub fn health(&self) -> &FactorHealth {
        &self.health
    }

    /// The block storage of the latest factorization (`None` before the
    /// first factor call).
    pub fn block_matrix(&self) -> Option<&BlockMatrix> {
        self.bm.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splu_sparse::relative_residual;

    fn random_matrix(n: usize, extra: usize, seed: u64) -> CscMatrix {
        splu_matgen::random_diag_dominant(n, extra, seed, 4.0)
    }

    /// New values with the same pattern as `a`, deterministically reshuffled.
    fn revalue(a: &CscMatrix, salt: u64) -> CscMatrix {
        let mut b = a.clone();
        for (t, v) in b.values_mut().iter_mut().enumerate() {
            let wig = (((t as u64).wrapping_mul(salt * 2 + 1) % 97) as f64) / 97.0;
            *v += 0.25 * (wig - 0.5) * (1.0 + v.abs());
        }
        b
    }

    fn assert_same_factors(x: &BlockMatrix, y: &BlockMatrix, what: &str) {
        assert_eq!(x.factor_difference(y), None, "{what}");
    }

    /// Unfactored storages: the same word at every position.
    fn assert_same_words(x: &BlockMatrix, y: &BlockMatrix, what: &str) {
        let words = |bm: &BlockMatrix| {
            let mut w = Vec::new();
            bm.for_each_entry(|i, j, v| w.push((i, j, v.to_bits())));
            w
        };
        assert!(words(x) == words(y), "{what}: stored words differ");
    }

    #[test]
    fn pattern_hash_is_structure_sensitive_and_value_blind() {
        let a = random_matrix(25, 70, 3);
        let b = revalue(&a, 5);
        assert_eq!(pattern_hash(a.pattern()), pattern_hash(b.pattern()));
        let c = random_matrix(25, 71, 4);
        assert_ne!(pattern_hash(a.pattern()), pattern_hash(c.pattern()));
        let d = random_matrix(26, 70, 3);
        assert_ne!(pattern_hash(a.pattern()), pattern_hash(d.pattern()));
    }

    /// Every word feeds the hash: one moved row index, one shifted column
    /// pointer, and swapped dimensions each change it.
    #[test]
    fn pattern_hash_sees_single_word_changes() {
        let rect = |nrows, ncols, ptr: &[usize], idx: &[usize]| {
            pattern_hash(&SparsityPattern::new(nrows, ncols, ptr.to_vec(), idx.to_vec()).unwrap())
        };
        let base = rect(5, 4, &[0, 2, 3, 5, 6], &[0, 3, 1, 2, 4, 3]);
        // Row index 3 of column 0 moved to 4.
        assert_ne!(base, rect(5, 4, &[0, 2, 3, 5, 6], &[0, 4, 1, 2, 4, 3]));
        // The entry at row 1 handed from column 1 to column 0.
        assert_ne!(base, rect(5, 4, &[0, 3, 3, 5, 6], &[0, 1, 3, 2, 4, 3]));
        // Same arrays, one more row; and the two dimensions swapped.
        let ptr = [0usize, 1, 2, 3];
        let idx = [0usize, 1, 2];
        assert_ne!(rect(3, 3, &ptr, &idx), rect(4, 3, &ptr, &idx));
        assert_ne!(
            pattern_hash(&SparsityPattern::empty(2, 3)),
            pattern_hash(&SparsityPattern::empty(3, 2)),
        );
    }

    #[test]
    fn analyze_factor_solve_roundtrip() {
        let a = random_matrix(40, 120, 11);
        let mut s = SluSession::analyze(a.pattern(), &Options::default()).unwrap();
        assert!(!s.is_factored());
        assert!(s.block_matrix().is_none());
        s.factor(&a).unwrap();
        assert!(s.is_factored());
        let b: Vec<f64> = (0..40).map(|i| (i as f64 * 0.37).sin()).collect();
        let x = s.try_solve(&b).unwrap();
        assert!(relative_residual(&a, &x, &b) < 1e-10);
    }

    /// The one-pass scatter-map load equals permute + `assemble`, on the
    /// first call (map built) and on a later one (map reused).
    #[test]
    fn scatter_map_storage_is_bitwise_the_assembled_storage() {
        for m in splu_matgen::paper_suite(splu_matgen::Scale::Reduced) {
            let mut s = SluSession::analyze(m.a.pattern(), &Options::default()).unwrap();
            for a in [m.a.clone(), revalue(&m.a, 3)] {
                s.assemble_fresh(&a);
                let permuted = s.sym.permute_matrix(&a);
                let want = BlockMatrix::assemble(&permuted, &s.sym.block_structure);
                assert_same_words(s.bm.as_ref().unwrap(), &want, m.name);
            }
        }
    }

    #[test]
    fn refactor_is_bitwise_identical_to_fresh_factor() {
        let a = random_matrix(45, 140, 21);
        let a2 = revalue(&a, 9);
        let mut s = SluSession::analyze(a.pattern(), &Options::default()).unwrap();
        s.factor(&a).unwrap();
        s.refactor(&a2).unwrap();
        let mut fresh = SluSession::analyze(a.pattern(), &Options::default()).unwrap();
        fresh.factor(&a2).unwrap();
        assert_same_factors(
            s.block_matrix().unwrap(),
            fresh.block_matrix().unwrap(),
            "refactor vs fresh",
        );
    }

    #[test]
    fn refactor_before_factor_allocates_and_works() {
        let a = random_matrix(30, 90, 7);
        let mut s = SluSession::analyze(a.pattern(), &Options::default()).unwrap();
        s.refactor(&a).unwrap();
        let b: Vec<f64> = (0..30).map(|i| i as f64 - 14.0).collect();
        let x = s.try_solve(&b).unwrap();
        assert!(relative_residual(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn pattern_mismatch_is_rejected_structurally() {
        let a = random_matrix(30, 90, 2);
        let other = random_matrix(30, 91, 3);
        let mut s = SluSession::analyze(a.pattern(), &Options::default()).unwrap();
        match s.factor(&other) {
            Err(LuError::PatternMismatch { expected, got }) => {
                assert_eq!(expected, s.pattern_hash());
                assert_eq!(got, pattern_hash(other.pattern()));
            }
            other => panic!("expected PatternMismatch, got {other:?}"),
        }
        // The session is still usable with the right pattern.
        s.factor(&a).unwrap();
        assert!(s.is_factored());
    }

    #[test]
    fn solve_before_factor_is_structured() {
        let a = random_matrix(20, 50, 5);
        let s = SluSession::analyze(a.pattern(), &Options::default()).unwrap();
        let b = vec![1.0; 20];
        assert!(matches!(s.try_solve(&b), Err(LuError::NotFactored)));
        assert!(matches!(
            s.try_solve_transposed(&b),
            Err(LuError::NotFactored)
        ));
        assert!(matches!(s.try_solve_many(&b, 1), Err(LuError::NotFactored)));
    }

    #[test]
    fn wrong_length_rhs_is_structured() {
        let a = random_matrix(20, 50, 6);
        let mut s = SluSession::analyze(a.pattern(), &Options::default()).unwrap();
        s.factor(&a).unwrap();
        let short = vec![1.0; 19];
        match s.try_solve(&short) {
            Err(LuError::DimensionMismatch { expected, got }) => {
                assert_eq!(expected, 20);
                assert_eq!(got, 19);
            }
            other => panic!("expected DimensionMismatch, got {other:?}"),
        }
        assert!(matches!(
            s.try_solve_many(&vec![0.0; 41], 2),
            Err(LuError::DimensionMismatch {
                expected: 40,
                got: 41
            })
        ));
    }

    #[test]
    fn non_finite_values_rejected_with_column() {
        let a = random_matrix(15, 40, 8);
        let mut bad = a.clone();
        let last = bad.values().len() - 1;
        bad.values_mut()[last] = f64::NAN;
        let mut s = SluSession::analyze(a.pattern(), &Options::default()).unwrap();
        assert!(matches!(
            s.factor(&bad),
            Err(LuError::NonFiniteInput { .. })
        ));
    }

    #[test]
    fn solve_refined_tightens_and_counts() {
        let a = random_matrix(40, 120, 13);
        let mut s = SluSession::analyze(a.pattern(), &Options::default()).unwrap();
        s.factor(&a).unwrap();
        let b: Vec<f64> = (0..40).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
        let (x, iters) = s.solve_refined(&a, &b, 1e-15, 4).unwrap();
        assert!(iters <= 4);
        assert!(relative_residual(&a, &x, &b) < 1e-13);
    }

    #[test]
    fn refactor_matches_across_threads_and_mappings() {
        use splu_sched::Mapping;
        let a = random_matrix(50, 170, 33);
        let a2 = revalue(&a, 17);
        // Reference: fresh one-thread factor of a2.
        let mut reference = SluSession::analyze(a.pattern(), &Options::default()).unwrap();
        reference.factor(&a2).unwrap();
        for threads in [1usize, 2, 4] {
            for mapping in [Mapping::Static1D, Mapping::Dynamic] {
                let opts = Options {
                    threads,
                    mapping,
                    ..Options::default()
                };
                let mut s = SluSession::analyze(a.pattern(), &opts).unwrap();
                s.factor(&a).unwrap();
                s.refactor(&a2).unwrap();
                assert_same_factors(
                    s.block_matrix().unwrap(),
                    reference.block_matrix().unwrap(),
                    &format!("threads={threads} {mapping:?}"),
                );
            }
        }
    }
}
