//! The numerical factorization: the `Factor(k)` and `Update(k, j)` task
//! bodies and the **range body** every driver runs them through.
//!
//! Partial pivoting happens **inside the static structure**: `Factor(k)`
//! searches the whole panel of block column `k` — its diagonal block and
//! the stored rows `R_k`. Every interchange exchanges two candidate rows of
//! the same column, which the static symbolic factorization gave the same
//! structure from that column on, so applying the recorded interchanges
//! lazily to each destination column in `Update(k, j)` is always possible:
//! the partner row stores at least the columns `S_kj` the pivot row stores,
//! and holds zeros in whatever else it stores (see
//! [`crate::blocks::ColumnData::swap_rows`]).
//!
//! Storage is compact (see [`crate::blocks`]): the panel of a block column
//! *is* what `Factor(k)` pivots over, **in place**, and `Update(k, j)` is
//! one `trsm` on `Ū(k, j)`, **one** `gemm` of the whole sub-diagonal panel
//! of `k` into a scratch matrix, and an indexed add of that into column
//! `j`. An element of column `j` therefore receives, per source `k`, one
//! addition of a sum that depends on `k`'s panel and `Ū(k, j)` only — and
//! two sources that may run in either order never touch the same row — so
//! the factors do not depend on the schedule.
//!
//! A **range** of block columns runs as [`factor_left_looking`] runs the
//! whole matrix: per column, one write lock, its updates by ascending
//! source, then its factor ([`TaskBodies::columns`]). At one thread the
//! whole matrix is one range; on several, every eforest subtree small
//! enough is one (`crate::request`), and the tasks above them run one by
//! one through the same body.

use crate::blocks::{BlockMatrix, ColumnData, UpdateMap};
use crate::LuError;
use parking_lot::Mutex;
use splu_dense::{Dispatch, MatMut, MatRef, PanelBreakdown, PanelError, PivotRule};
use splu_obs::{Counter, MetricsRegistry};
use splu_sched::{CancelToken, Task};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Flops of a panel LU over an `m × w` panel, exactly the cost
/// model of `crate::costs::estimate_task_costs`:
/// `Σ_c (m − c − 1) · (1 + 2 (w − c − 1))`. The formula is integral, so
/// the counted value equals the model's `f64` estimate bit-for-bit on any
/// panel that fits in 53 bits of flops.
pub(crate) fn factor_flops(m: usize, w: usize) -> u64 {
    let mut flops = 0u64;
    for c in 0..w.min(m) {
        let below = (m - c - 1) as u64;
        flops += below * (1 + 2 * (w - c - 1) as u64);
    }
    flops
}

/// `Update(k, j)` on the held columns: applies `k`'s pivot interchanges
/// to block column `j` over the columns `S_kj`, computes `Ū(k, j) =
/// L(k, k)⁻¹ B̄(k, j)` with the diagonal block read off the top of column
/// `k`'s panel, and adds the Schur complement `−L̄_below(k) · Ū(k, j)` into
/// the rows of column `j` that `R_k` names: one `gemm` of the sub-diagonal
/// panel into a scratch matrix, then the indexed add.
///
/// With a registry, each executed `trsm`/`gemm` adds its call and its flop
/// count — the very shapes [`crate::costs::estimate_task_costs`] prices.
/// Counting never changes what runs — `None` is the production fast path.
fn update_columns(
    bm: &BlockMatrix,
    (j, u): (usize, &UpdateMap),
    col_k: &ColumnData,
    col_j: &mut ColumnData,
    kernels: &Dispatch,
    metrics: Option<&MetricsRegistry>,
) {
    let lay = bm.layout();
    let k_start = bm.global_col_start(u.src());
    for (c, p) in bm.interchanges(k_start..k_start + col_k.width()) {
        col_j.swap_rows(lay, j, u, c, p);
    }
    let (w_k, s) = (col_k.width(), u.ncols());
    let diag = col_k.panel_rows(0..w_k);
    kernels.trsm_lower_unit(diag, col_j.ublock_mut(lay, u));
    if let Some(reg) = metrics {
        reg.incr(Counter::TrsmCalls);
        reg.add(Counter::TrsmFlops, (w_k * w_k.saturating_sub(1) * s) as u64);
    }
    let m = col_k.height() - w_k;
    if m == 0 {
        return;
    }
    bm.with_scratch(m * s, |t| {
        t.fill(0.0);
        kernels.gemm_sub(
            MatMut::from_slice(t, m, s, m),
            col_k.panel_rows(w_k..w_k + m),
            col_j.ublock(lay, u),
        );
        col_j.scatter_add(lay, j, u, MatRef::from_slice(t, m, s, m));
    });
    if let Some(reg) = metrics {
        reg.incr(Counter::GemmCalls);
        reg.add(Counter::GemmFlops, (2 * m * w_k * s) as u64);
    }
}

/// One numeric factorization's task bodies and what they share: the
/// storage, the pivoting parameters and kernel table the driver resolved
/// once, the counters registry, and the run's outcome so far — the first
/// error, the columns factored, the perturbed columns. Shared by every
/// worker of a run.
pub(crate) struct TaskBodies<'a> {
    bm: &'a BlockMatrix,
    rule: PivotRule,
    threshold: f64,
    breakdown: PanelBreakdown,
    kernels: &'a Dispatch,
    pub(crate) metrics: Option<&'a MetricsRegistry>,
    /// The run's token: a stalled `Factor` (fault injection) waits for it.
    #[cfg_attr(not(feature = "failpoints"), allow(dead_code))]
    pub(crate) token: Option<&'a CancelToken>,
    failed: AtomicBool,
    pub(crate) first_error: Mutex<Option<LuError>>,
    pub(crate) columns_done: AtomicUsize,
    pub(crate) perturbed: Mutex<Vec<(usize, f64)>>,
}

impl<'a> TaskBodies<'a> {
    /// The bodies of a factorization of `bm` under `rule` / `threshold` /
    /// `breakdown` through `kernels`, uncounted.
    pub(crate) fn new(
        bm: &'a BlockMatrix,
        rule: PivotRule,
        threshold: f64,
        breakdown: PanelBreakdown,
        kernels: &'a Dispatch,
    ) -> Self {
        TaskBodies {
            bm,
            rule,
            threshold,
            breakdown,
            kernels,
            metrics: None,
            token: None,
            failed: AtomicBool::new(false),
            first_error: Mutex::new(None),
            columns_done: AtomicUsize::new(0),
            perturbed: Mutex::new(Vec::new()),
        }
    }

    /// `true` once a task of the run failed: the remaining ones drain.
    pub(crate) fn failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    fn fail(&self, e: LuError) {
        self.failed.store(true, Ordering::Release);
        self.first_error.lock().get_or_insert(e);
    }

    /// Runs the panel LU of block column `k` **in place** on its held
    /// column data `col` and records the pivot sequence in `k`'s slots of
    /// the storage's pivot array.
    ///
    /// With [`PanelBreakdown::Perturb`] a column with no acceptable pivot
    /// gets its diagonal replaced instead of failing, and the perturbed
    /// columns are returned as **global** (factorization-order) column
    /// indices with their perturbation magnitudes. `force_breakdown_at`
    /// deterministically treats that global column as below threshold (the
    /// fault-injection hook).
    ///
    /// Every column index this function emits — in errors and in the
    /// perturbed list — is global, mapped through
    /// [`BlockMatrix::global_col_start`], so callers never remap
    /// panel-local indices themselves. The kernel table is the one the
    /// driver resolved once per factorization; every table produces
    /// bit-identical results (the contract on [`Dispatch::gemm_sub`]).
    fn panel_lu(
        &self,
        k: usize,
        col: &mut ColumnData,
        force_breakdown_at: Option<usize>,
    ) -> Result<Vec<(usize, f64)>, LuError> {
        let start = self.bm.global_col_start(k);
        let width = col.width();
        let force_local = force_breakdown_at
            .filter(|&g| g >= start && g < start + width)
            .map(|g| g - start);
        // The pivots go straight into the storage's array: no allocation
        // (the perturbed list allocates only when a column is perturbed).
        let perturbed = self
            .kernels
            .lu_panel_into(
                col.panel_mut(),
                self.rule,
                self.threshold,
                self.breakdown,
                force_local,
                self.bm.pivot_slots(k),
            )
            .map_err(|e| {
                self.bm.forget_pivots(k);
                match e {
                    // Report the global column (in factorization order).
                    PanelError::Singular { column } => LuError::NumericallySingular {
                        column: start + column,
                    },
                    PanelError::NonFinite { column } => LuError::NonFinitePivot {
                        column: start + column,
                    },
                }
            })?;
        Ok(perturbed.into_iter().map(|(c, v)| (start + c, v)).collect())
    }

    /// `Factor(k)` on the held column `col`: the panel LU, the wire of the
    /// in-block storage and the counters. `false` when it failed (the error
    /// is recorded).
    pub(crate) fn factor(&self, k: usize, col: &mut ColumnData) -> bool {
        #[cfg(feature = "failpoints")]
        crate::failpoints::maybe_panic_factor(k);
        #[cfg(feature = "failpoints")]
        crate::failpoints::maybe_stall_factor(k, &|| {
            self.failed() || self.token.is_some_and(|t| t.is_cancelled())
        });
        #[cfg(feature = "failpoints")]
        let force = crate::failpoints::forced_breakdown_column();
        #[cfg(not(feature = "failpoints"))]
        let force = None;
        let perturbed = match self.panel_lu(k, col, force) {
            Ok(p) => p,
            Err(e) => {
                self.fail(e);
                return false;
            }
        };
        if let Some(column) = self.bm.pivot_left_block(k) {
            self.fail(LuError::PivotHistoryDiverged { column });
            return false;
        }
        self.columns_done.fetch_add(1, Ordering::Relaxed);
        if let Some(reg) = self.metrics {
            reg.incr(Counter::FactorCalls);
            reg.add(
                Counter::FactorFlops,
                factor_flops(col.height(), col.width()),
            );
        }
        if !perturbed.is_empty() {
            self.perturbed.lock().extend(perturbed);
        }
        true
    }

    /// The tasks of block column `j` from the left-looking order:
    /// `Update(k, j)` for the stored sources at positions `srcs` of the
    /// column's ascending list, then `Factor(j)` when `factor` is set —
    /// under one write lock on the column. `begin` is called before each
    /// task and stops the column when it returns `false`; so does a failed
    /// run. `false`: stopped.
    fn column(
        &self,
        j: usize,
        srcs: Range<usize>,
        factor: bool,
        begin: &mut dyn FnMut() -> bool,
    ) -> bool {
        let bm = self.bm;
        let mut col_j = bm.column(j).write();
        for u in &bm.layout().updates(j)[srcs] {
            if self.failed() || !begin() {
                return false;
            }
            let col_k = bm.column(u.src()).read();
            update_columns(bm, (j, u), &col_k, &mut col_j, self.kernels, self.metrics);
        }
        !factor || (!self.failed() && begin() && self.factor(j, &mut col_j))
    }

    /// The **range task**: every task of the block columns `cols`, in the
    /// left-looking order — [`factor_left_looking`]'s loop over `cols`.
    /// `false`: stopped by `begin` or a failure.
    pub(crate) fn columns(&self, cols: Range<usize>, begin: &mut dyn FnMut() -> bool) -> bool {
        let lay = self.bm.layout();
        cols.into_iter()
            .all(|j| self.column(j, 0..lay.updates(j).len(), true, begin))
    }

    /// One task of the coarse graph. An `Update` whose block the storage
    /// does not hold (the in-block structure) is no task: nothing runs.
    pub(crate) fn task(&self, task: Task, begin: &mut dyn FnMut() -> bool) {
        let ups = |j: usize| self.bm.layout().updates(j);
        match task {
            Task::Factor(j) => {
                let n = ups(j).len();
                self.column(j, n..n, true, begin);
            }
            Task::Update { src, dst } => {
                if let Ok(q) = ups(dst).binary_search_by_key(&src, UpdateMap::src) {
                    self.column(dst, q..q + 1, false, begin);
                }
            }
        }
    }
}

/// Sequential **left-looking** (fan-in) factorization: for each block
/// column `j` in order, first apply every update `U(k, j)` with `k < j`
/// (ascending — a topological order of both task graphs), then `Factor(j)`.
///
/// This is the SuperLU-style column discipline, in contrast to the
/// right-looking order the S* task formulation suggests. Both are
/// topological orders of the same dependence DAG over identical task
/// bodies, so the results are **bit-identical** to the graph-driven
/// execution — which the test-suite asserts. It is the range task itself
/// (`TaskBodies::columns` over every column) with portable kernels,
/// partial pivoting and nothing observed: what a one-thread
/// [`crate::factor_numeric_with`] runs, and the oracle of the bitwise
/// suites.
pub fn factor_left_looking(bm: &BlockMatrix, pivot_threshold: f64) -> Result<(), LuError> {
    let kernels = Dispatch::portable();
    let bodies = TaskBodies::new(
        bm,
        PivotRule::Partial,
        pivot_threshold,
        PanelBreakdown::Error,
        &kernels,
    );
    bodies.columns(0..bm.num_block_cols(), &mut || true);
    bodies.first_error.into_inner().map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::BlockMatrix;
    use crate::request::{factor_numeric_with, NumericRequest};
    use splu_dense::{lu_full, lu_solve, DenseMat};
    use splu_sched::{build_eforest_graph, Mapping};
    use splu_sparse::CscMatrix;
    use splu_symbolic::fixtures::fig1_matrix;
    use splu_symbolic::static_fact::static_symbolic_factorization;
    use splu_symbolic::supernode::{supernode_partition, BlockStructure};

    /// Factor + solve through the block machinery and compare with the
    /// dense oracle on the same (already permuted) matrix.
    fn factor_and_check(a: &CscMatrix) {
        let f = static_symbolic_factorization(a.pattern()).unwrap();
        let part = supernode_partition(&f);
        let bs = BlockStructure::new(&f, part);
        let bm = BlockMatrix::assemble(a, &bs);
        let graph = build_eforest_graph(&bs);
        factor_numeric_with(&bm, &NumericRequest::coarse(&graph, Mapping::Static1D)).unwrap();

        // Dense oracle.
        let n = a.nrows();
        let mut dense = DenseMat::from_fn(n, n, |i, j| a.get(i, j));
        let piv = lu_full(&mut dense).unwrap();

        // Compare solves on a few right-hand sides.
        for trial in 0..3 {
            let b: Vec<f64> = (0..n)
                .map(|i| ((i * 7 + trial * 3) % 5) as f64 - 2.0)
                .collect();
            let mut x_oracle = b.clone();
            lu_solve(&dense, &piv, &mut x_oracle);
            let mut x = b.clone();
            crate::solve::solve_permuted(&bm, &bs, &mut x);
            for i in 0..n {
                assert!(
                    (x[i] - x_oracle[i]).abs() < 1e-8,
                    "solution mismatch at {i}: {} vs {}",
                    x[i],
                    x_oracle[i]
                );
            }
        }
    }

    #[test]
    fn fig1_matrix_factors_correctly() {
        factor_and_check(&fig1_matrix());
    }

    #[test]
    fn pivoting_is_exercised() {
        // Make the diagonal tiny so pivoting must pick off-diagonal rows.
        let mut a = fig1_matrix();
        let n = a.nrows();
        let mut trips: Vec<(usize, usize, f64)> = a.triplets().collect();
        for t in trips.iter_mut() {
            if t.0 == t.1 {
                t.2 = 1e-6;
            }
        }
        a = CscMatrix::from_triplets(n, n, &trips).unwrap();
        factor_and_check(&a);
    }

    /// `Factor(K)` exchanges a row of `K` with a row of a later block row
    /// `I` whose block `Ū(I, J)` stores **more** columns than `Ū(K, J)`:
    /// the replay runs over `S_KJ` only, and what `I` stores beyond it is
    /// still zero at that step.
    #[test]
    fn interchange_into_a_block_with_more_columns() {
        // K = {0}, I = {2}, J = {3, 4, 5}. Row 2 is a pivot candidate of
        // columns 0 and 1; row 1 reaches column 4 and row 4 (a candidate of
        // column 2) column 5, so row 2 ends up storing {3, 4, 5} of J while
        // row 0 stores {3}. The diagonal of column 0 is tiny.
        let mut trips = vec![
            (0, 0, 1e-9),
            (0, 3, 2.0),
            (1, 1, 3.0),
            (1, 4, -1.5),
            (2, 0, 1.0),
            (2, 1, 0.5),
            (2, 2, 2.5),
            (2, 3, -0.75),
            (4, 2, 0.25),
        ];
        for i in 3..6 {
            for j in 3..6 {
                trips.push((
                    i,
                    j,
                    if i == j {
                        4.0
                    } else {
                        0.5 + (i + 2 * j) as f64 / 16.0
                    },
                ));
            }
        }
        let a = CscMatrix::from_triplets(6, 6, &trips).unwrap();
        let f = static_symbolic_factorization(a.pattern()).unwrap();
        let bs = BlockStructure::new(&f, supernode_partition(&f));
        let block_of = bs.partition.block_of_cols();
        let (k, i, j) = (block_of[0], block_of[2], block_of[3]);
        assert!(k < i && i < j && bs.partition.range(j) == (3..6));
        assert_eq!(bs.u_cols_in(k, j), [3]);
        assert_eq!(bs.u_cols_in(i, j), [3, 4, 5]);

        let bm = BlockMatrix::assemble(&a, &bs);
        let graph = build_eforest_graph(&bs);
        factor_numeric_with(&bm, &NumericRequest::coarse(&graph, Mapping::Static1D)).unwrap();
        assert_eq!(bm.pivot_rows()[0], 2, "row 0 went to row 2");

        // The dense oracle makes the same choices, so its U is ours.
        let mut dense = DenseMat::from_fn(6, 6, |r, c| a.get(r, c));
        lu_full(&mut dense).unwrap();
        bm.for_each_entry(|r, c, v| {
            if r <= c {
                assert!(
                    (v - dense[(r, c)]).abs() < 1e-14,
                    "U({r},{c}): {v} vs {}",
                    dense[(r, c)]
                );
            }
        });
        factor_and_check(&a);
    }

    #[test]
    fn left_looking_is_bit_identical_to_graph_execution() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(64);
        let n = 35;
        let mut trips: Vec<(usize, usize, f64)> = (0..n)
            .map(|i| (i, i, 3.0 + rng.gen_range(0.0..1.0)))
            .collect();
        for _ in 0..4 * n {
            trips.push((
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(-1.0..1.0),
            ));
        }
        let a = CscMatrix::from_triplets(n, n, &trips).unwrap();
        let f = static_symbolic_factorization(a.pattern()).unwrap();
        let bs = BlockStructure::new(&f, supernode_partition(&f));
        let graph = build_eforest_graph(&bs);

        let bm_right = BlockMatrix::assemble(&a, &bs);
        factor_numeric_with(
            &bm_right,
            &NumericRequest::coarse(&graph, Mapping::Static1D).threads(2),
        )
        .unwrap();
        let bm_left = BlockMatrix::assemble(&a, &bs);
        factor_left_looking(&bm_left, 0.0).unwrap();

        assert_eq!(
            bm_right.pivot_rows(),
            bm_left.pivot_rows(),
            "pivot sequences differ"
        );
        for k in 0..bm_right.num_block_cols() {
            let cr = bm_right.column(k).read();
            let cl = bm_left.column(k).read();
            assert_eq!(cr.data(), cl.data(), "values differ at column {k}");
        }
    }

    #[test]
    fn singular_matrix_reports_breakdown() {
        // Structurally fine but numerically rank-deficient: zero out all of
        // column 0 except a diagonal explicitly set to 0.
        let a =
            CscMatrix::from_triplets(2, 2, &[(0, 0, 0.0), (1, 1, 1.0), (0, 1, 1.0), (1, 0, 0.0)])
                .unwrap();
        let f = static_symbolic_factorization(a.pattern()).unwrap();
        let bs = BlockStructure::new(&f, supernode_partition(&f));
        let bm = BlockMatrix::assemble(&a, &bs);
        let graph = build_eforest_graph(&bs);
        let err = factor_numeric_with(&bm, &NumericRequest::coarse(&graph, Mapping::Static1D))
            .unwrap_err();
        assert!(matches!(err, LuError::NumericallySingular { column: 0 }));
    }
}
