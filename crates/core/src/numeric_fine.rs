//! Numerical execution of the **fine-grained** task decomposition
//! (`Apply`/`Trsm`/`Gemm` stages per update — the paper's §6 future-work
//! direction, see `splu_sched::fine`).
//!
//! The task bodies are the three stages of the coarse `Update(src, dst)`
//! (`crate::numeric::update_task`):
//!
//! * `apply_task` — apply `Factor(src)`'s interchanges to column `dst`;
//! * `trsm_task` — `Ū(src, dst) = L(src, src)⁻¹ B̄(src, dst)`;
//! * `gemm_task` — the Schur update of the rows of block row `row`: one
//!   destination segment of the coarse task's scatter.
//!
//! Because per-element write sets and orders are identical to the coarse
//! tasks', the factored matrix is **bit-identical** to the coarse execution
//! (asserted by the tests). Synchronization is per block *column* (the
//! coarse storage's lock granularity), so on a shared-memory host the fine
//! decomposition mainly demonstrates correctness; its scalability story is
//! evaluated on the simulator with per-block ownership (`twod` binary). A
//! production 2D build would shard the locks per block.

use crate::blocks::BlockMatrix;
use crate::numeric::{replay_interchanges, schur_rows, solve_u_block};
use splu_dense::Dispatch;
use splu_obs::MetricsRegistry;

/// `Apply(src, dst)`: `Factor(src)`'s pivot interchanges on block column
/// `dst`.
pub(crate) fn apply_task(bm: &BlockMatrix, src: usize, dst: usize) {
    debug_assert!(src < dst);
    let u = bm
        .layout()
        .update(src, dst)
        .expect("the fine graph names stored blocks only");
    let col_src = bm.column(src).read();
    let mut col_dst = bm.column(dst).write();
    replay_interchanges(bm, u, &col_src, &mut col_dst);
}

/// `Trsm(src, dst)`: `Ū(src, dst) = L(src, src)⁻¹ B̄(src, dst)` in place,
/// the diagonal block read straight off the top of column `src`'s panel.
/// `kernels` and `metrics` as for `crate::numeric::update_task`.
pub(crate) fn trsm_task(
    bm: &BlockMatrix,
    src: usize,
    dst: usize,
    kernels: &Dispatch,
    metrics: Option<&MetricsRegistry>,
) {
    let u = bm
        .layout()
        .update(src, dst)
        .expect("the fine graph names stored blocks only");
    let col_src = bm.column(src).read();
    let mut col_dst = bm.column(dst).write();
    solve_u_block(u, &col_src, &mut col_dst, kernels, metrics);
}

/// `Gemm(src, dst, row)`: the rows of block row `row` that column `src`'s
/// panel stores, times `Ū(src, dst)`, added into block `(row, dst)`.
/// `kernels` and `metrics` as for `crate::numeric::update_task`.
pub(crate) fn gemm_task(
    bm: &BlockMatrix,
    src: usize,
    dst: usize,
    row: usize,
    kernels: &Dispatch,
    metrics: Option<&MetricsRegistry>,
) {
    let lay = bm.layout();
    let u = lay
        .update(src, dst)
        .expect("the fine graph names stored blocks only");
    let rows = lay.l_block_rows(src, row);
    let col_src = bm.column(src).read();
    let mut col_dst = bm.column(dst).write();
    schur_rows(bm, u, &col_src, &mut col_dst, rows, kernels, metrics);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{factor_numeric_with, NumericRequest};
    use crate::solve::solve_permuted;
    use crate::LuError;
    use splu_sched::{block_forest, build_eforest_graph, build_fine_graph, Mapping};
    use splu_sparse::{relative_residual, CscMatrix};
    use splu_symbolic::static_fact::static_symbolic_factorization;
    use splu_symbolic::supernode::{supernode_partition, BlockStructure};

    fn random_matrix(n: usize, extra: usize, seed: u64) -> CscMatrix {
        splu_matgen::random_diag_dominant(n, extra, seed, 3.0)
    }

    #[test]
    fn fine_execution_is_bit_identical_to_coarse() {
        for seed in [1u64, 7, 23] {
            let a = random_matrix(40, 160, seed);
            let f = static_symbolic_factorization(a.pattern()).unwrap();
            let bs = BlockStructure::new(&f, supernode_partition(&f));
            let forest = block_forest(&bs);
            let fg = build_fine_graph(&bs, &forest);
            let coarse = build_eforest_graph(&bs);

            let bm_coarse = BlockMatrix::assemble(&a, &bs);
            factor_numeric_with(
                &bm_coarse,
                &NumericRequest::coarse(&coarse, Mapping::Static1D).threads(2),
            )
            .unwrap();
            for threads in [1usize, 2, 4] {
                let bm_fine = BlockMatrix::assemble(&a, &bs);
                factor_numeric_with(&bm_fine, &NumericRequest::fine(&fg).threads(threads)).unwrap();
                for k in 0..bm_fine.num_block_cols() {
                    let cf = bm_fine.column(k).read();
                    let cc = bm_coarse.column(k).read();
                    assert_eq!(cf.pivots, cc.pivots, "pivots differ (seed {seed}, col {k})");
                    for (bf, bc) in cf.ublocks.iter().zip(&cc.ublocks) {
                        assert_eq!(
                            bf.data(),
                            bc.data(),
                            "U values differ (seed {seed}, threads {threads}, col {k})"
                        );
                    }
                    assert_eq!(
                        cf.panel.data(),
                        cc.panel.data(),
                        "panel values differ (seed {seed}, threads {threads}, col {k})"
                    );
                }
            }
        }
    }

    #[test]
    fn fine_execution_solves_with_pivoting() {
        // Tiny diagonal forces interchanges through the Apply stage.
        let n = 30;
        let mut trips: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, i, 1e-9)).collect();
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..5 * n {
            trips.push((
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(-2.0..2.0),
            ));
        }
        let a = CscMatrix::from_triplets(n, n, &trips).unwrap();
        let f = static_symbolic_factorization(a.pattern()).unwrap();
        let bs = BlockStructure::new(&f, supernode_partition(&f));
        let forest = block_forest(&bs);
        let fg = build_fine_graph(&bs, &forest);
        let bm = BlockMatrix::assemble(&a, &bs);
        factor_numeric_with(&bm, &NumericRequest::fine(&fg).threads(2)).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).cos()).collect();
        let mut x = b.clone();
        solve_permuted(&bm, &bs, &mut x);
        assert!(relative_residual(&a, &x, &b) < 1e-9);
    }

    #[test]
    fn fine_execution_reports_singularity() {
        let a =
            CscMatrix::from_triplets(2, 2, &[(0, 0, 0.0), (1, 1, 1.0), (0, 1, 1.0), (1, 0, 0.0)])
                .unwrap();
        let f = static_symbolic_factorization(a.pattern()).unwrap();
        let bs = BlockStructure::new(&f, supernode_partition(&f));
        let forest = block_forest(&bs);
        let fg = build_fine_graph(&bs, &forest);
        let bm = BlockMatrix::assemble(&a, &bs);
        let err = factor_numeric_with(&bm, &NumericRequest::fine(&fg)).unwrap_err();
        assert!(matches!(err, LuError::NumericallySingular { .. }));
    }
}
