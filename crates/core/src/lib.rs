//! The paper's end-to-end pipeline: analysis (orderings → static symbolic
//! factorization → eforest postordering → supernodes → task graph) and the
//! parallel supernodal numerical factorization with partial pivoting.
//!
//! Typical use goes through [`SparseLu`]:
//!
//! ```
//! use splu_core::{Options, SparseLu};
//! use splu_symbolic::fixtures::fig1_matrix;
//!
//! let a = fig1_matrix();
//! let b: Vec<f64> = (0..a.ncols()).map(|i| i as f64).collect();
//! let lu = SparseLu::factor(&a, &Options::default()).unwrap();
//! let x = lu.solve(&b);
//! assert!(splu_sparse::relative_residual(&a, &x, &b) < 1e-10);
//! ```
//!
//! A caller that refactorizes one pattern with new values holds an
//! [`SluSession`] instead. The phases are also exposed separately
//! ([`analyze`] → [`SymbolicLu`], [`BlockMatrix::assemble`],
//! [`factor_numeric_with`], [`solve_permuted`]) so the experiments can
//! re-run the numerical phase with different processor counts and task
//! graphs against one symbolic analysis, exactly as the paper's do.

// Index-based loops are the natural idiom for the numerical kernels and
// symbolic algorithms in this crate; iterator rewrites obscure the maths.
#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blocks;
mod costs;
mod error;
#[cfg(feature = "failpoints")]
pub mod failpoints;
pub mod gp;
mod numeric;
pub mod observe;
mod psolve;
mod request;
mod session;
mod solve;

pub use blocks::{thread_scratch_bytes, BlockMatrix, ColumnData};
pub use costs::{estimate_task_costs, total_flops, TaskCost};
pub use error::LuError;
pub use numeric::factor_left_looking;
pub use observe::{
    JsonWriter, MatrixMeta, ObsSession, RefactorPath, RunReport, RunStatus, PHASE_NAMES,
    REPORT_SCHEMA,
};
pub use psolve::{solve_permuted_parallel, solve_permuted_parallel_with};
pub use request::{
    factor_numeric_with, BreakdownPolicy, GraphRef, NumericRequest, RangePlan, SymbolicRequest,
};
pub use session::{pattern_hash, Analysis, SluSession};
pub use solve::{
    det_permuted, growth_factor, solve_many_permuted, solve_permuted, solve_permuted_with,
    solve_transposed_permuted_with,
};
pub use splu_dense::{Dispatch, KernelChoice, PanelBreakdown, PivotRule};
pub use splu_sched::{
    CancelToken, ExecReport, ExecSchedule, ExecTrace, FactorHealth, Interrupt, RunBudget,
    SchedStats, StallReport, TaskPanic, TraceConfig, TraceMode, WatchdogConfig, WorkerSnapshot,
    WorkerState, WorkerStats,
};

mod condest;
pub use condest::estimate_inverse_1norm;

use splu_obs::Counter;
use splu_ordering::{
    column_min_degree_with, maximum_transversal, reverse_cuthill_mckee, StructuralRank,
};
use splu_sched::{block_forest, build_eforest_graph, Mapping, TaskGraph};
use splu_sparse::{CscMatrix, Permutation, SparsityPattern};
use splu_symbolic::supernode::BlockStructure;
use splu_symbolic::{fill_skeleton, EliminationForest, SupernodeOptions};
use std::sync::Arc;

/// Fill-reducing ordering choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingChoice {
    /// Approximate minimum degree on the graph of `AᵀA` — the paper's
    /// choice — computed on the rows of `A` without forming the product.
    MinDegreeAtA,
    /// Keep the given order (after the transversal).
    Natural,
    /// Reverse Cuthill–McKee on the symmetrized pattern (ablation).
    Rcm,
}

/// Driver configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Fill-reducing ordering (paper: minimum degree on `AᵀA`).
    pub ordering: OrderingChoice,
    /// Apply the eforest postordering (Section 3). On by default.
    pub postorder: bool,
    /// Supernode amalgamation; `None` keeps exact supernodes.
    pub amalgamation: Option<SupernodeOptions>,
    /// Worker threads for the numerical phase.
    pub threads: usize,
    /// Task-to-worker mapping (paper: static 1D column mapping).
    pub mapping: Mapping,
    /// Absolute pivot rejection threshold (`0.0`: any nonzero pivot).
    pub pivot_threshold: f64,
    /// Pivot-selection rule (partial, threshold, or static-diagonal
    /// pivoting).
    pub pivot_rule: PivotRule,
    /// Row/column equilibration before factorization (robustness extension;
    /// the paper's benchmark matrices do not need it).
    pub equilibrate: bool,
    /// Dense kernel selection for the numerical phase (`Auto` by default:
    /// the widest instantiation the CPU supports; factors are bit-identical
    /// under every choice).
    pub kernels: KernelChoice,
    /// What to do at a column with no acceptable pivot: fail
    /// ([`BreakdownPolicy::Error`], the default) or perturb the diagonal
    /// and recover through refinement ([`BreakdownPolicy::Perturb`]).
    pub breakdown: BreakdownPolicy,
    /// Bounds on the numeric phase: a [`CancelToken`] (caller or Ctrl-C
    /// driven), a wall-clock deadline, and/or a liveness watchdog.
    /// Unbounded by default; an interrupted run drains every worker and
    /// returns [`LuError::Cancelled`] / [`LuError::DeadlineExceeded`] /
    /// [`LuError::Stalled`] with progress attached.
    pub budget: RunBudget,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            ordering: OrderingChoice::MinDegreeAtA,
            postorder: true,
            amalgamation: Some(SupernodeOptions::default()),
            threads: 1,
            mapping: Mapping::Static1D,
            pivot_threshold: 0.0,
            pivot_rule: PivotRule::Partial,
            equilibrate: false,
            kernels: KernelChoice::Auto,
            breakdown: BreakdownPolicy::Error,
            budget: RunBudget::default(),
        }
    }
}

impl Options {
    /// Checks the settings for coherence: [`LuError::InvalidOptions`]
    /// naming the first incoherent field (zero threads, a pivot threshold
    /// that is negative or non-finite, a threshold-pivoting τ outside
    /// `(0, 1]`, a perturbation ε that is not finite and positive) instead
    /// of a panic deep in the pipeline. Analysis runs it first
    /// ([`analyze_with`], which [`SparseLu::factor`],
    /// [`SluSession::analyze`] and [`Analysis::new`] all reach).
    pub fn validate(&self) -> Result<(), LuError> {
        let invalid = |message: String| Err(LuError::InvalidOptions { message });
        if self.threads == 0 {
            return invalid("threads must be at least 1".into());
        }
        if !self.pivot_threshold.is_finite() || self.pivot_threshold < 0.0 {
            return invalid(format!(
                "pivot_threshold must be finite and non-negative, got {}",
                self.pivot_threshold
            ));
        }
        if let PivotRule::Threshold(tau) = self.pivot_rule {
            if !(tau > 0.0 && tau <= 1.0) {
                return invalid(format!("threshold must be in (0, 1], got {tau}"));
            }
        }
        if let BreakdownPolicy::Perturb { eps } = self.breakdown {
            if !(eps > 0.0 && eps.is_finite()) {
                return invalid(format!(
                    "perturbation must be finite and positive, got {eps}"
                ));
            }
        }
        Ok(())
    }
}

/// Structural statistics gathered during analysis. The task-graph fields
/// describe the eforest graph over the static structure — read off the
/// block lists and the block eforest, without building it (equal to what
/// [`SymbolicLu::build_graph`] reports on the lists [`analyze`] returns).
#[derive(Debug, Clone, PartialEq)]
pub struct Stats {
    /// Matrix order.
    pub n: usize,
    /// Nonzeros of the input matrix.
    pub nnz_a: usize,
    /// Entries of `Ā = L̄ + Ū − I`.
    pub nnz_filled: usize,
    /// `nnz_filled / nnz_a` — the paper's Table 1 ratio.
    pub fill_ratio: f64,
    /// Supernodes from the exact L/U partition (before amalgamation).
    pub supernodes_exact: usize,
    /// Supernodes after amalgamation (= number of block columns `N`).
    pub supernodes: usize,
    /// Widest supernode.
    pub max_supernode_width: usize,
    /// Diagonal blocks of the block-upper-triangular form (trees of the
    /// eforest); meaningful when postordering is on.
    pub btf_blocks: usize,
    /// Tasks in the eforest dependence graph.
    pub graph_tasks: usize,
    /// Edges in the eforest dependence graph.
    pub graph_edges: usize,
    /// Critical path length (tasks) of the eforest graph.
    pub critical_path: usize,
    /// Estimated factorization flops (structural model).
    pub flops_estimate: f64,
    /// Words of the static structure ([`BlockStructure::storage_words`]).
    pub static_words: usize,
}

/// The analysis product: permutations and block structure — everything the
/// numerical phase needs. The scalar `L̄`/`Ū` is never written: the block
/// structure's per-supernode row and column lists are what the compact
/// storage is laid out from, and the block eforest follows from its block
/// lists ([`block_forest`]).
#[derive(Clone)]
pub struct SymbolicLu {
    /// Total row permutation: the factored matrix is
    /// `A[row_perm, col_perm]`.
    pub row_perm: Permutation,
    /// Total column permutation.
    pub col_perm: Permutation,
    /// Supernode partition and block-level structure: the static one of
    /// [`analyze`]. A session holds the structure of its storage here —
    /// the in-block sub-structure from its analysis on, the static one
    /// after a pivot left its block. Shared with the storage laid out on it,
    /// which reads its partition and lists in place of copies.
    pub block_structure: Arc<BlockStructure>,
    /// Structural statistics (graph fields describe the eforest graph).
    pub stats: Stats,
    opts: Options,
}

impl SymbolicLu {
    /// Builds the eforest task dependence graph ([`build_eforest_graph`])
    /// over `block_structure`: the static lists [`analyze`] returns, or a
    /// session's in-block ones, which its range plan is contracted from.
    pub fn build_graph(&self) -> TaskGraph {
        build_eforest_graph(&self.block_structure)
    }

    /// The static lists of the analyzed `pattern` (original order) under
    /// the held permutations and partition, whatever `block_structure`
    /// holds: a fallback's structure, equal to [`analyze`]'s.
    pub(crate) fn static_lists(&self, pattern: &SparsityPattern) -> BlockStructure {
        let permuted = pattern.permuted(&self.row_perm, &self.col_perm);
        let skel = fill_skeleton(&permuted).expect("the analysis filled this pattern");
        BlockStructure::from_skeleton(&permuted, &skel, self.block_structure.partition.clone())
    }

    /// Permutes an input matrix into factorization order.
    pub fn permute_matrix(&self, a: &CscMatrix) -> CscMatrix {
        a.permuted(&self.row_perm, &self.col_perm)
    }
}

/// What the eforest graph over `bs` would report — tasks, dependence
/// edges, critical path in tasks, and the model flops of
/// [`estimate_task_costs`] — without building it. One walk through the
/// updates in the left-looking order, a topological order of the graph,
/// keeps each task's top level (the longest path ending at it): by rules
/// 3–5, `U(i, j)` follows `F(i)` and `U(c, j)` of the children `c` of `i`;
/// `F(j)` follows the updates from `j`'s children; a root's update ends
/// its chain (Theorem 2). One edge per update from its factor, one more
/// from every update of a non-root.
///
/// Flops are summed in the graph's own task order, so the total is the
/// built graph's to the bit.
fn graph_stats(bs: &BlockStructure, forest: &EliminationForest) -> (usize, usize, usize, f64) {
    let nb = bs.num_blocks();
    let width = |k: usize| bs.partition.width(k);
    let below = |k: usize| bs.l_rows.col(k).len();
    let mut flops: f64 = (0..nb)
        .map(|k| numeric::factor_flops(width(k) + below(k), width(k)) as f64)
        .sum();
    let mut from_non_roots = 0;
    for k in 0..nb {
        for &j in &bs.u_blocks.col(k)[1..] {
            let j = j as usize;
            flops += costs::update_flops(width(k), below(k), bs.u_cols_in(k, j).len());
            from_non_roots += usize::from(forest.parent(k).is_some());
        }
    }
    // The sources of every column, ascending, then the column itself.
    let sources = bs.u_blocks.transpose();
    let updates = sources.nnz() - nb;
    let mut top_f = vec![0usize; nb];
    // The longest chain into `U(i, j)` through the children of `i`, for the
    // column `j` at hand.
    let mut via_children = vec![0usize; nb];
    let mut critical_path = 0;
    for j in 0..nb {
        // The longest chain into `F(j)`.
        let mut into_f = 0;
        let into = sources.col(j);
        for &i in &into[..into.len() - 1] {
            let i = i as usize;
            let top = 1 + top_f[i].max(std::mem::take(&mut via_children[i]));
            critical_path = critical_path.max(top);
            match forest.parent(i) {
                Some(p) if p == j => into_f = into_f.max(top),
                Some(p) => via_children[p] = via_children[p].max(top),
                None => {}
            }
        }
        top_f[j] = 1 + into_f;
        critical_path = critical_path.max(top_f[j]);
    }
    (nb + updates, updates + from_non_roots, critical_path, flops)
}

/// Runs the full analysis pipeline on a sparsity pattern.
///
/// Equivalent to [`analyze_with`] under the front-half request implied by
/// `opts` ([`SymbolicRequest::from_options`]): `opts.budget` as the bound.
pub fn analyze(pattern: &SparsityPattern, opts: &Options) -> Result<SymbolicLu, LuError> {
    analyze_with(pattern, opts, &SymbolicRequest::from_options(opts))
}

/// Runs the full analysis pipeline with an explicit front-half request.
///
/// The symbolic phases are skeleton → postorder → block lists: the
/// skeleton of the static symbolic factorization (eforest parents, each
/// row's first candidate step, the length of every `L̄` column and `Ū`
/// row), the eforest postorder taken from its parents and applied to its
/// labels, the supernode partition decided on the lengths, and the
/// per-supernode row and column lists walked out of the forest
/// ([`BlockStructure::from_skeleton`]). No scalar filled structure is
/// written at any point.
///
/// `req.budget` bounds the front half: the ordering polls it once per
/// pivot and the driver between phases, returning [`LuError::Cancelled`] /
/// [`LuError::DeadlineExceeded`] with the number of factor columns whose
/// structure is known attached (0 until the skeleton has run).
pub fn analyze_with(
    pattern: &SparsityPattern,
    opts: &Options,
    req: &SymbolicRequest,
) -> Result<SymbolicLu, LuError> {
    opts.validate()?;
    if !pattern.is_square() {
        return Err(LuError::NotSquare {
            nrows: pattern.nrows(),
            ncols: pattern.ncols(),
        });
    }
    let n = pattern.ncols();
    let obs = req.obs.as_ref();
    let check = |columns_done: usize| -> Result<(), LuError> {
        if let Some(o) = obs {
            o.metrics().incr(Counter::BudgetCheckpoints);
        }
        if req.tripped() {
            Err(req.trip_error(columns_done, n))
        } else {
            Ok(())
        }
    };
    check(0)?;
    // 0. Maximum transversal → zero-free diagonal.
    let (rp0, p1) = {
        let _p = obs.map(|o| o.phase("scale_transversal"));
        let rp0 = match maximum_transversal(pattern) {
            StructuralRank::Full(p) => p,
            StructuralRank::Deficient { rank } => {
                return Err(LuError::StructurallySingular { rank })
            }
        };
        let id = Permutation::identity(n);
        let p1 = pattern.permuted(&rp0, &id);
        (rp0, p1)
    };

    // 1. Fill-reducing ordering, applied symmetrically to keep the
    // diagonal. Minimum degree polls the budget once per pivot; an observed
    // run counts the polls as checkpoints and receives the ordering's own
    // counters.
    let ordering_phase = obs.map(|o| o.phase("ordering"));
    let mut keep_going = || {
        if let Some(o) = obs {
            o.metrics().incr(Counter::BudgetCheckpoints);
        }
        !req.tripped()
    };
    let q = match opts.ordering {
        OrderingChoice::MinDegreeAtA => {
            column_min_degree_with(&p1, obs.map(|o| &**o.metrics()), &mut keep_going)
        }
        OrderingChoice::Natural => Some(Permutation::identity(n)),
        OrderingChoice::Rcm => keep_going().then(|| reverse_cuthill_mckee(&p1)),
    }
    .ok_or_else(|| req.trip_error(0, n))?;
    drop(ordering_phase);
    let p2 = p1.permuted(&q, &q);
    let mut row_perm = q.compose(&rp0);
    let mut col_perm = q.clone();

    // 2. Skeleton of the static symbolic factorization: the eforest parents
    // and the exact length of every L̄ column and Ū row. Everything below
    // is read off it; no column is ever filled.
    check(0)?;
    let skel = {
        let _p = obs.map(|o| o.phase("symbolic_fill"));
        fill_skeleton(&p2)?
    };
    let btf_blocks = skel.parents().iter().filter(|&&p| p == usize::MAX).count();
    let nnz_filled = skel.nnz_filled();
    if let Some(o) = obs {
        let sum = |len: &[usize]| len.iter().sum::<usize>() as u64;
        o.metrics().add(Counter::FillL, sum(skel.l_len()));
        o.metrics().add(Counter::FillU, sum(skel.u_len()));
    }
    #[cfg(feature = "failpoints")]
    failpoints::maybe_cancel_symbolic(req.budget.token.as_ref());
    check(n)?;

    // 3. Eforest postordering. Theorem 3: the filled structure of the
    // postordered pattern is the postordered filled structure, so only the
    // skeleton's labels and the original entries move.
    let (p3, skel) = {
        let _p = obs.map(|o| o.phase("eforest_postorder"));
        if opts.postorder {
            let po = EliminationForest::from_parent_vec(skel.parents().to_vec()).postorder();
            row_perm = po.compose(&row_perm);
            col_perm = po.compose(&col_perm);
            (p2.permuted(&po, &po), skel.relabeled(&po))
        } else {
            (p2, skel)
        }
    };
    check(n)?;

    // 4. Supernodes (+ amalgamation) from the lengths, their row and column
    // lists from two walks through the forest.
    let (supernodes_exact, block_structure, bf) = {
        let _p = obs.map(|o| o.phase("supernode_partition"));
        let exact = skel.supernode_partition();
        let supernodes_exact = exact.num_blocks();
        let partition = match &opts.amalgamation {
            Some(sn_opts) => skel.amalgamate(&exact, sn_opts),
            None => exact,
        };
        let block_structure = BlockStructure::from_skeleton(&p3, &skel, partition);
        let bf = block_forest(&block_structure);
        (supernodes_exact, block_structure, bf)
    };

    // 5. The statistics of the eforest task graph, read off the lists: the
    // graph itself is built by a session that runs on several threads.
    let _graph_phase = obs.map(|o| o.phase("graph_build"));
    let (graph_tasks, graph_edges, critical_path, flops_estimate) =
        graph_stats(&block_structure, &bf);
    let stats = Stats {
        n,
        nnz_a: pattern.nnz(),
        nnz_filled,
        fill_ratio: if pattern.nnz() == 0 {
            0.0
        } else {
            nnz_filled as f64 / pattern.nnz() as f64
        },
        supernodes_exact,
        supernodes: block_structure.num_blocks(),
        max_supernode_width: block_structure.partition.max_width(),
        btf_blocks,
        graph_tasks,
        graph_edges,
        critical_path,
        flops_estimate,
        static_words: block_structure.storage_words(),
    };
    Ok(SymbolicLu {
        row_perm,
        col_perm,
        block_structure: Arc::new(block_structure),
        stats,
        opts: opts.clone(),
    })
}

/// The one-stop factorization object — a thin wrapper over [`SluSession`]
/// that adds equilibration, automatic refinement after pivot perturbation,
/// and the one-shot `factor → solve` ergonomics. Callers that refactorize
/// the same pattern repeatedly should hold an [`SluSession`] instead.
pub struct SparseLu {
    session: SluSession,
    equil: Option<splu_sparse::scaling::Equilibration>,
    /// Robustness report of the numeric phase (perturbed columns, growth,
    /// condition estimate); trivial unless the breakdown policy perturbed.
    /// Own copy (not the session's) so the condition estimate below can be
    /// attached after construction.
    health: FactorHealth,
    /// The original input, retained when the factorization perturbed
    /// pivots — [`Self::solve`] and [`Self::solve_transposed`] then refine
    /// against it.
    refine_with: Option<CscMatrix>,
}

impl SparseLu {
    /// Analyzes and factorizes `a` with the given options.
    ///
    /// The numeric phase is [`SluSession::factor`]'s: it runs on the
    /// in-block structure that `a`'s pattern fills while every pivot stays
    /// inside its supernode's diagonal block, and re-runs on the static
    /// structure only when one leaves it. Either way the factors are
    /// bitwise the static ones (DESIGN.md §5.4).
    ///
    /// Input values are validated up front: any NaN or infinity is rejected
    /// as [`LuError::NonFiniteInput`] before the (parallel) numeric phase
    /// can propagate it silently.
    pub fn factor(a: &CscMatrix, opts: &Options) -> Result<SparseLu, LuError> {
        Self::factor_inner(a, opts, None)
    }

    /// [`Self::factor`] under an observability session: every pipeline
    /// phase records a span on the session's shared-epoch trace, the fill
    /// and kernel counters accumulate into its metrics registry, and the
    /// numeric executor's report is captured for
    /// [`ObsSession::report`] / [`ObsSession::chrome_json`]. The factors
    /// are bit-identical to the unobserved [`Self::factor`].
    pub fn factor_observed(
        a: &CscMatrix,
        opts: &Options,
        session: &ObsSession,
    ) -> Result<SparseLu, LuError> {
        Self::factor_inner(a, opts, Some(session))
    }

    fn factor_inner(
        a: &CscMatrix,
        opts: &Options,
        obs: Option<&ObsSession>,
    ) -> Result<SparseLu, LuError> {
        session::check_finite(a.view())?;
        // Equilibration shares the canonical "scale_transversal" phase with
        // the transversal inside `analyze_with` (spans of one name sum).
        let equil = {
            let _p = obs.map(|o| o.phase("scale_transversal"));
            opts.equilibrate
                .then(|| splu_sparse::scaling::equilibrate(a))
        };
        // The session checks the values it factors: the reciprocal of a
        // subnormal row maximum overflows.
        let work = equil.as_ref().map_or(a, |e| &e.scaled);
        // Never refactored: the session keeps no scatter map.
        let mut session = SluSession::analyze_inner(work.pattern(), opts, obs, true)?;
        session.factor_inner(work.view(), obs)?;
        let mut lu = SparseLu {
            health: session.health().clone(),
            session,
            equil,
            refine_with: None,
        };
        if lu.health.is_perturbed() {
            // The factors are those of a nearby matrix: estimate its
            // conditioning (Hager–Higham, through the perturbed factors)
            // and arm automatic refinement against the true input.
            lu.health.condest = Some(estimate_inverse_1norm(&lu, a.ncols(), 5));
            lu.refine_with = Some(a.clone());
        }
        Ok(lu)
    }

    /// The underlying persistent session. Note the session holds the
    /// *equilibrated* matrix's factors when `opts.equilibrate` was set —
    /// its raw solves then answer for `R·A·C`, not `A`; the wrapper's
    /// solve methods apply the scales.
    pub fn session(&self) -> &SluSession {
        &self.session
    }

    fn bm(&self) -> &BlockMatrix {
        self.session
            .block_matrix()
            .expect("a constructed SparseLu always holds factors")
    }

    /// Solves `A x = b`, or an error when `b` has the wrong length
    /// ([`LuError::DimensionMismatch`]). If the factorization perturbed
    /// pivots ([`BreakdownPolicy::Perturb`]), the solve refines against the
    /// retained input matrix ([`Self::try_solve_op`]), so the returned
    /// solution is accurate for `A` itself, not the perturbed nearby
    /// matrix; check the achieved residual with
    /// [`splu_sparse::relative_residual`].
    pub fn try_solve(&self, b: &[f64]) -> Result<Vec<f64>, LuError> {
        self.solve_retained(b, false)
    }

    /// [`Self::try_solve`], panicking on a dimension mismatch.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.try_solve(b).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Solves `Aᵀ x = b` (fallible form), refining against the retained
    /// input as [`Self::try_solve`] does.
    pub fn try_solve_transposed(&self, b: &[f64]) -> Result<Vec<f64>, LuError> {
        self.solve_retained(b, true)
    }

    /// `op(A) x = b` against the input retained for perturbed factors; the
    /// others hold none and solve raw, as [`Self::try_solve_op`] would.
    fn solve_retained(&self, b: &[f64], transposed: bool) -> Result<Vec<f64>, LuError> {
        match &self.refine_with {
            Some(a) => self.try_solve_op(a, b, transposed, false),
            None => self.solve_raw(b, transposed),
        }
    }

    /// The session's solve of `op(A) x = b` (`Aᵀ` when `transposed`)
    /// through the stored factors, with no refinement — the raw factors'
    /// answer — between the equilibration scales.
    fn solve_raw(&self, b: &[f64], transposed: bool) -> Result<Vec<f64>, LuError> {
        let Some(eq) = &self.equil else {
            return self.session.solve_raw(b, transposed);
        };
        self.session.check_len(b, 1)?;
        // S = R·A·C was factored, so A⁻¹ = C · S⁻¹ · R and
        // A⁻ᵀ = R · S⁻ᵀ · C: the scale vectors swap roles.
        let (before, after) = if transposed {
            (&eq.col_scale, &eq.row_scale)
        } else {
            (&eq.row_scale, &eq.col_scale)
        };
        let scaled: Vec<f64> = b.iter().zip(before).map(|(&v, &s)| v * s).collect();
        let y = self.session.solve_raw(&scaled, transposed)?;
        Ok(y.iter().zip(after).map(|(&v, &s)| v * s).collect())
    }

    /// [`Self::try_solve_transposed`], panicking on a dimension mismatch.
    pub fn solve_transposed(&self, b: &[f64]) -> Vec<f64> {
        self.try_solve_transposed(b)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Solves `A X = B` for `nrhs` right-hand sides stored column-major in
    /// `b` (`n × nrhs`), returning the solutions in the same layout
    /// (fallible form).
    ///
    /// Walks the factors once, applying every elimination step to all
    /// right-hand sides with the BLAS-3 kernels. Perturbed factors instead
    /// solve each column as [`Self::try_solve`] does, refined against the
    /// retained input.
    pub fn try_solve_many(&self, b: &[f64], nrhs: usize) -> Result<Vec<f64>, LuError> {
        if self.refine_with.is_some() {
            self.session.check_len(b, nrhs)?;
            let cols = b.chunks(self.stats().n.max(1));
            let x: Vec<_> = cols
                .map(|c| self.solve_retained(c, false))
                .collect::<Result<_, _>>()?;
            return Ok(x.concat());
        }
        let Some(eq) = &self.equil else {
            return self.session.try_solve_many(b, nrhs);
        };
        self.session.check_len(b, nrhs)?;
        let rows = eq.row_scale.iter().cycle();
        let scaled: Vec<f64> = b.iter().zip(rows).map(|(&v, &s)| v * s).collect();
        let mut x = self.session.try_solve_many(&scaled, nrhs)?;
        for (v, &s) in x.iter_mut().zip(eq.col_scale.iter().cycle()) {
            *v *= s;
        }
        Ok(x)
    }

    /// [`Self::try_solve_many`], panicking on a dimension mismatch.
    pub fn solve_many(&self, b: &[f64], nrhs: usize) -> Vec<f64> {
        self.try_solve_many(b, nrhs)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Solves `op(A) x = b` (`Aᵀ` when `transposed`) with iterative
    /// refinement over the raw solve against `a`, the matrix factored, by
    /// LAPACK `xGERFS`'s rule: while the scaled residual exceeds machine
    /// epsilon and the last step at least halved it, at most five steps.
    /// Returns the solution and the number of steps taken.
    pub fn try_solve_refined(
        &self,
        a: &CscMatrix,
        b: &[f64],
        transposed: bool,
    ) -> Result<(Vec<f64>, usize), LuError> {
        solve::refine(a.view(), b, transposed, |rhs| {
            self.solve_raw(rhs, transposed)
        })
    }

    /// Solves `op(A) x = b` against `a`, the matrix factored: refined
    /// ([`Self::try_solve_refined`]) when `refine` asks or the factors are
    /// perturbed, raw otherwise ([`SluSession::solve_op`]'s decision).
    pub fn try_solve_op(
        &self,
        a: &CscMatrix,
        b: &[f64],
        transposed: bool,
        refine: bool,
    ) -> Result<Vec<f64>, LuError> {
        solve::solve_op(a.view(), b, transposed, refine, &self.health, |rhs| {
            self.solve_raw(rhs, transposed)
        })
    }

    /// The numeric phase's robustness report: perturbed columns, largest
    /// perturbation, element-growth estimate, and (when perturbed) a
    /// Hager–Higham condition estimate of the factored nearby matrix.
    pub fn health(&self) -> &FactorHealth {
        &self.health
    }

    /// Analysis statistics.
    pub fn stats(&self) -> &Stats {
        &self.symbolic().stats
    }

    /// The symbolic analysis.
    pub fn symbolic(&self) -> &SymbolicLu {
        self.session.symbolic()
    }

    /// Options used to build this factorization.
    pub fn options(&self) -> &Options {
        &self.symbolic().opts
    }

    /// Sign and natural log of `|det(A)|`.
    ///
    /// Computed from the `Ū` diagonal, the pivot interchanges, and the
    /// parities of the analysis permutations; equilibration scales are
    /// divided back out.
    pub fn determinant(&self) -> (f64, f64) {
        let (mut sign, mut ln_abs) = det_permuted(self.bm(), &self.symbolic().block_structure);
        if !self.symbolic().row_perm.is_even() {
            sign = -sign;
        }
        if !self.symbolic().col_perm.is_even() {
            sign = -sign;
        }
        if let Some(eq) = &self.equil {
            for &s in eq.row_scale.iter().chain(&eq.col_scale) {
                ln_abs -= s.ln();
            }
        }
        (sign, ln_abs)
    }

    /// Element-growth factor `max|factor| / max|A|` — the standard
    /// backward-stability diagnostic for partial pivoting.
    pub fn growth(&self, a: &CscMatrix) -> f64 {
        let max_a = a.values().iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        growth_factor(self.bm(), max_a)
    }

    /// Storage accounting of the factored block matrix: the words held —
    /// those of the in-block structure unless a pivot left its block —
    /// next to the static structure's.
    pub fn storage(&self) -> FactorStorage {
        self.session
            .storage()
            .expect("a constructed SparseLu always holds factors")
    }
}

/// Storage accounting for a factorization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FactorStorage {
    /// Words the block storage holds: `Σ_K w_K · (w_K + |R_K| + |C_K|)`
    /// over the supernodes `K` ([`BlockStructure::storage_words`]) of the
    /// structure it is laid out from — the in-block one, or the static one
    /// after a pivot left its block.
    pub words: usize,
    /// The same sum over the static structure (equal to `words` unless the
    /// storage is the in-block one).
    pub static_words: usize,
    /// Entries of the scalar static structure `Ā`.
    pub structural: usize,
    /// Fraction of the static structure's words that are explicit zeros.
    /// Exact supernodes store `Ā` and nothing else, so this is what
    /// amalgamation added — zero with [`Options::amalgamation`] off.
    pub padding_fraction: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use splu_sparse::relative_residual;
    use splu_symbolic::fixtures::fig1_matrix;

    fn random_matrix(n: usize, extra: usize, seed: u64) -> CscMatrix {
        splu_matgen::random_diag_dominant(n, extra, seed, 4.0)
    }

    #[test]
    fn default_pipeline_solves_fig1() {
        let a = fig1_matrix();
        let lu = SparseLu::factor(&a, &Options::default()).unwrap();
        let b: Vec<f64> = (0..7).map(|i| (i as f64) - 2.0).collect();
        let x = lu.solve(&b);
        assert!(relative_residual(&a, &x, &b) < 1e-12);
        assert!(lu.stats().nnz_filled >= lu.stats().nnz_a);
        assert!(lu.stats().fill_ratio >= 1.0);
    }

    #[test]
    fn every_option_combination_agrees_with_gp() {
        let a = random_matrix(40, 110, 5);
        let b: Vec<f64> = (0..40).map(|i| ((i % 9) as f64) - 4.0).collect();
        let reference = {
            let lu = crate::gp::gp_factor(&a, 0.0).unwrap();
            let mut x = b.clone();
            lu.solve(&mut x);
            x
        };
        for ordering in [
            OrderingChoice::MinDegreeAtA,
            OrderingChoice::Natural,
            OrderingChoice::Rcm,
        ] {
            for postorder in [false, true] {
                for amalgamation in [None, Some(SupernodeOptions::default())] {
                    let opts = Options {
                        ordering,
                        postorder,
                        amalgamation,
                        ..Options::default()
                    };
                    let lu = SparseLu::factor(&a, &opts).unwrap();
                    let x = lu.solve(&b);
                    assert!(
                        relative_residual(&a, &x, &b) < 1e-9,
                        "bad residual for {opts:?}"
                    );
                    let err: f64 = x
                        .iter()
                        .zip(&reference)
                        .map(|(p, q)| (p - q).abs())
                        .fold(0.0, f64::max);
                    assert!(err < 1e-6, "diverges from GP for {opts:?}: {err}");
                }
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let a = random_matrix(60, 200, 8);
        let b: Vec<f64> = (0..60).map(|i| (i as f64).cos()).collect();
        let seq = SparseLu::factor(&a, &Options::default()).unwrap();
        let x_seq = seq.solve(&b);
        for threads in [2usize, 4] {
            for mapping in [Mapping::Static1D, Mapping::Dynamic] {
                let opts = Options {
                    threads,
                    mapping,
                    ..Options::default()
                };
                let par = SparseLu::factor(&a, &opts).unwrap();
                let x_par = par.solve(&b);
                for i in 0..60 {
                    assert!(
                        (x_seq[i] - x_par[i]).abs() < 1e-10,
                        "thread count changed the answer (threads={threads}, {mapping:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn matrices_without_zero_free_diagonal_are_handled() {
        // A cyclic permutation matrix plus noise: diagonal all zero.
        let n = 12;
        let mut trips: Vec<(usize, usize, f64)> = (0..n).map(|i| ((i + 1) % n, i, 3.0)).collect();
        trips.push((0, 4, 0.5));
        trips.push((7, 2, -0.25));
        let a = CscMatrix::from_triplets(n, n, &trips).unwrap();
        let lu = SparseLu::factor(&a, &Options::default()).unwrap();
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let x = lu.solve(&b);
        assert!(relative_residual(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn structurally_singular_is_rejected() {
        let a = CscMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (1, 0, 1.0), (2, 2, 1.0)]).unwrap();
        assert!(matches!(
            SparseLu::factor(&a, &Options::default()),
            Err(LuError::StructurallySingular { rank: 2 })
        ));
    }

    #[test]
    fn rectangular_is_rejected() {
        let p = SparsityPattern::empty(2, 3);
        assert!(matches!(
            analyze(&p, &Options::default()),
            Err(LuError::NotSquare { .. })
        ));
    }

    #[test]
    fn stats_are_coherent() {
        let a = random_matrix(50, 150, 13);
        let lu = SparseLu::factor(&a, &Options::default()).unwrap();
        let s = lu.stats();
        assert_eq!(s.n, 50);
        assert!(s.supernodes <= s.supernodes_exact);
        assert!(s.max_supernode_width >= 1);
        assert!(s.graph_tasks >= s.supernodes);
        assert!(s.critical_path <= s.graph_tasks);
        assert!(s.flops_estimate > 0.0);
        assert!(s.btf_blocks >= 1);
        assert_eq!(lu.options().threads, 1);
    }

    #[test]
    fn transpose_solve_through_the_full_pipeline() {
        let a = random_matrix(40, 120, 99);
        let b: Vec<f64> = (0..40).map(|i| (i as f64 * 0.31).cos()).collect();
        for equilibrate in [false, true] {
            let opts = Options {
                equilibrate,
                ..Options::default()
            };
            let lu = SparseLu::factor(&a, &opts).unwrap();
            let x = lu.solve_transposed(&b);
            let at = a.transpose();
            assert!(
                relative_residual(&at, &x, &b) < 1e-11,
                "equilibrate={equilibrate}"
            );
        }
    }

    #[test]
    fn storage_accounting_is_consistent() {
        let a = random_matrix(45, 140, 3);
        let lu = SparseLu::factor(&a, &Options::default()).unwrap();
        let s = lu.storage();
        assert!(s.static_words >= s.structural);
        assert!((0.0..1.0).contains(&s.padding_fraction));
        // The held words are those of the in-block structure the factors
        // were computed on.
        assert_eq!(s.words, lu.symbolic().block_structure.storage_words());
        assert!(lu.session().is_realised() && s.words < s.static_words);
        // Exact supernodes store the scalar structure and nothing else.
        let lu2 = SparseLu::factor(
            &a,
            &Options {
                amalgamation: None,
                ..Options::default()
            },
        )
        .unwrap();
        let s2 = lu2.storage();
        assert_eq!(s2.static_words, s2.structural);
        assert!(s2.words <= s2.static_words);
        assert_eq!(s2.padding_fraction, 0.0);
    }

    /// What a fallback answers on — the static lists rebuilt from the
    /// pattern, the permutations and the partition a session holds on the
    /// in-block lists — is the analysis' static structure: on the suite
    /// (reduced in a debug build, full-scale in a release one) under the
    /// default options, without postordering and without amalgamation.
    #[test]
    fn static_lists_rebuild_the_analysis() {
        use splu_matgen::Scale::{Full, Reduced};
        let scale = if cfg!(debug_assertions) {
            Reduced
        } else {
            Full
        };
        let (mut unordered, mut exact) = (Options::default(), Options::default());
        (unordered.postorder, exact.amalgamation) = (false, None);
        for m in splu_matgen::paper_suite(scale) {
            for opts in [Options::default(), unordered.clone(), exact.clone()] {
                let s = SluSession::analyze(m.a.pattern(), &opts).unwrap();
                let want = analyze(m.a.pattern(), &opts).unwrap().block_structure;
                let rebuilt = s.symbolic().static_lists(m.a.pattern());
                assert!(rebuilt == *want, "{} {opts:?}", m.name);
            }
        }
    }

    #[test]
    fn pivot_rules_through_the_full_pipeline() {
        let a = random_matrix(45, 130, 55); // diagonally dominant
        let b: Vec<f64> = (0..45).map(|i| (i as f64 * 0.17).sin()).collect();
        for rule in [
            PivotRule::Partial,
            PivotRule::Threshold(0.5),
            PivotRule::Threshold(0.01),
            PivotRule::Diagonal,
        ] {
            let opts = Options {
                pivot_rule: rule,
                ..Options::default()
            };
            let lu = SparseLu::factor(&a, &opts).unwrap();
            let x = lu.solve(&b);
            assert!(
                relative_residual(&a, &x, &b) < 1e-9,
                "{rule:?}: residual too large"
            );
        }
        // On a dominant matrix the diagonal rule does zero interchanges, so
        // the growth matches the threshold rule's at τ→0.
        let diag = SparseLu::factor(
            &a,
            &Options {
                pivot_rule: PivotRule::Diagonal,
                ..Options::default()
            },
        )
        .unwrap();
        assert!(diag.growth(&a) < 50.0);
    }

    #[test]
    fn diagonal_rule_fails_where_partial_succeeds() {
        // Zero diagonal entry: partial pivoting recovers, diagonal rule
        // cannot.
        let a =
            CscMatrix::from_triplets(2, 2, &[(0, 0, 0.0), (1, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)])
                .unwrap();
        assert!(SparseLu::factor(&a, &Options::default()).is_ok());
        assert!(matches!(
            SparseLu::factor(
                &a,
                &Options {
                    pivot_rule: PivotRule::Diagonal,
                    ..Options::default()
                }
            ),
            Err(LuError::NumericallySingular { .. })
        ));
    }

    #[test]
    fn determinant_through_the_full_pipeline() {
        use splu_dense::{lu_full, DenseMat};
        let a = random_matrix(20, 55, 31);
        // Dense oracle.
        let n = 20;
        let mut dense = DenseMat::from_fn(n, n, |i, j| a.get(i, j));
        let piv = lu_full(&mut dense).unwrap();
        let mut oracle_sign = 1.0_f64;
        let mut oracle_ln = 0.0_f64;
        for c in 0..n {
            let d = dense[(c, c)];
            if d < 0.0 {
                oracle_sign = -oracle_sign;
            }
            oracle_ln += d.abs().ln();
        }
        for (c, &p) in piv.swaps().iter().enumerate() {
            if c != p as usize {
                oracle_sign = -oracle_sign;
            }
        }
        for equilibrate in [false, true] {
            for postorder in [false, true] {
                let opts = Options {
                    equilibrate,
                    postorder,
                    ..Options::default()
                };
                let lu = SparseLu::factor(&a, &opts).unwrap();
                let (sign, ln_abs) = lu.determinant();
                assert_eq!(sign, oracle_sign, "equil={equilibrate} post={postorder}");
                assert!(
                    (ln_abs - oracle_ln).abs() < 1e-8,
                    "equil={equilibrate} post={postorder}: {ln_abs} vs {oracle_ln}"
                );
            }
        }
    }

    #[test]
    fn solve_many_and_growth_api() {
        let a = random_matrix(30, 80, 7);
        let lu = SparseLu::factor(&a, &Options::default()).unwrap();
        let n = 30;
        let nrhs = 4;
        let b: Vec<f64> = (0..n * nrhs).map(|i| ((i % 11) as f64) - 5.0).collect();
        let xs = lu.solve_many(&b, nrhs);
        for r in 0..nrhs {
            let x1 = lu.solve(&b[r * n..(r + 1) * n]);
            assert_eq!(&xs[r * n..(r + 1) * n], &x1[..]);
            assert!(relative_residual(&a, &x1, &b[r * n..(r + 1) * n]) < 1e-12);
        }
        // Growth can dip marginally below 1 when the largest entry of A lies
        // in a row that elimination reduces, so the lower bound is loose.
        let g = lu.growth(&a);
        assert!((0.99..100.0).contains(&g), "growth {g}");
    }

    #[test]
    fn equilibration_rescues_badly_scaled_systems() {
        // Columns scaled over 12 orders of magnitude.
        let n = 30;
        let mut trips: Vec<(usize, usize, f64)> = Vec::new();
        for i in 0..n {
            let scale = 10f64.powi((i % 13) as i32 - 6);
            trips.push((i, i, 5.0 * scale));
            if i + 1 < n {
                trips.push((i + 1, i, 1.0 * scale));
                trips.push((i, i + 1, -0.5 * 10f64.powi(((i + 1) % 13) as i32 - 6)));
            }
        }
        let a = CscMatrix::from_triplets(n, n, &trips).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        for equilibrate in [false, true] {
            let opts = Options {
                equilibrate,
                ..Options::default()
            };
            let lu = SparseLu::factor(&a, &opts).unwrap();
            let x = lu.solve(&b);
            assert!(
                relative_residual(&a, &x, &b) < 1e-10,
                "equilibrate={equilibrate}"
            );
        }
    }

    #[test]
    fn iterative_refinement_tightens_the_residual() {
        let a = random_matrix(50, 160, 77);
        let b: Vec<f64> = (0..50).map(|i| ((i * 11) % 17) as f64 - 8.0).collect();
        let lu = SparseLu::factor(&a, &Options::default()).unwrap();
        for transposed in [false, true] {
            let (x, iters) = lu.try_solve_refined(&a, &b, transposed).unwrap();
            assert!(iters <= 5);
            let omega = splu_sparse::ScaledResidual::new(&a, transposed);
            assert!(omega.of(&x, &b).1 < 1e-13, "transposed={transposed}");
        }
    }

    /// One analysis, the default path against an S* graph handed to the
    /// range plan: the contraction keeps any graph's order per element, so
    /// the factors are bitwise the default path's.
    #[test]
    fn symbolic_reuse_across_graphs_and_threads() {
        let a = random_matrix(45, 130, 21);
        let sym = analyze(a.pattern(), &Options::default()).unwrap();
        let bs = &sym.block_structure;
        let sstar = splu_sched::build_sstar_graph(bs);
        assert!(sym.build_graph().num_edges() <= sstar.num_edges());
        let permuted = sym.permute_matrix(&a);
        let want = BlockMatrix::assemble(&permuted, bs);
        factor_numeric_with(&want, &NumericRequest::left_looking()).unwrap();
        for threads in [2, 4] {
            for mapping in [Mapping::Static1D, Mapping::Dynamic] {
                let bm = BlockMatrix::assemble(&permuted, bs);
                let req = NumericRequest::coarse(&sstar, mapping).threads(threads);
                factor_numeric_with(&bm, &req).unwrap();
                assert_eq!(bm.factor_difference(&want), None, "{threads} {mapping:?}");
            }
        }
    }
}
