//! Triangular solves on the factored block matrix.
//!
//! The factorization stores `L` with its pivot interchanges *not* applied
//! retroactively to earlier columns (the distributed-memory discipline of
//! S*: a pivot sequence is broadcast, never written back). The forward
//! solve therefore interleaves each block column's interchanges right before
//! eliminating with it, exactly mirroring the factorization's update order.
//!
//! The sweeps follow the compact storage: the sub-diagonal panel of a block
//! column multiplies the solved segment into a scratch vector that is then
//! added at the rows `R_k` ([`BlockStructure::l_rows`]); a `Ū(i, k)` block
//! multiplies the entries of the segment at its stored columns `S_ik` into
//! the (contiguous) rows of `i`. [`solve_many_permuted`] does the same with
//! the BLAS-3 kernels, and [`crate::solve_permuted_parallel`] the same per
//! task. The single-column steps are the dense crate's one-column forms of
//! those kernels, run in one [`Dispatch::sweep`], so all three agree bit
//! for bit under every kernel instantiation. The transposed solve
//! ([`solve_transposed_permuted_with`]) is a sweep of dot products
//! ([`Fused::dot`]), each split across eight accumulators.

use crate::blocks::BlockMatrix;
use crate::{FactorHealth, LuError};
use splu_dense::{DenseMat, Dispatch, Fused, KernelChoice, MatMut, MatRef};
use splu_sparse::{CscRef, ScaledResidual};
use splu_symbolic::supernode::BlockStructure;

/// Longest row list `|R_k|` — the scratch a sweep needs.
pub(crate) fn max_rows_below(bs: &BlockStructure) -> usize {
    (0..bs.num_blocks())
        .map(|k| bs.l_rows.col(k).len())
        .max()
        .unwrap_or(0)
}

/// Solves `Ā x = b` **in factorization order**: `b` is the right-hand side
/// already permuted by the driver's total row permutation; the result is the
/// solution in factorization column order. Overwrites `b`. The widest kernel
/// instantiation the CPU runs ([`solve_permuted_with`] under
/// [`KernelChoice::Auto`]); every instantiation gives the same bits.
pub fn solve_permuted(bm: &BlockMatrix, bs: &BlockStructure, b: &mut [f64]) {
    solve_permuted_with(bm, bs, b, &Dispatch::resolve(KernelChoice::Auto));
}

/// [`solve_permuted`] through the kernel instantiation `kernels`, in one
/// [`Dispatch::sweep`]. Each step is the one-column form of the `trsm` or
/// `gemm` call [`solve_many_permuted`] makes, bit for bit ([`Fused`]),
/// so a single solve is that column of a many-right-hand-side one.
pub fn solve_permuted_with(
    bm: &BlockMatrix,
    bs: &BlockStructure,
    b: &mut [f64],
    kernels: &Dispatch,
) {
    assert_eq!(b.len(), bm.n(), "rhs length mismatch");
    let part = &bs.partition;
    let nb = bm.num_block_cols();
    let mut scratch = vec![0.0; max_rows_below(bs)];
    kernels.sweep(
        #[inline(always)]
        |f| {
            // Forward sweep: apply interchanges, solve the unit-lower diagonal
            // block, then eliminate the rows below through the scratch vector.
            for k in 0..nb {
                let col = bm.column(k).read();
                for (c, p) in bm.interchanges(part.range(k)) {
                    b.swap(bs.panel_row(k, c), bs.panel_row(k, p));
                }
                let (start, rows) = (part.range(k).start, bs.l_rows.col(k));
                let y = &mut scratch[..rows.len()];
                f.forward_column(col.panel(), &mut b[start..start + col.width()], y);
                for (&r, &v) in rows.iter().zip(&*y) {
                    b[r as usize] += v;
                }
            }

            // Backward sweep: solve the upper-triangular diagonal blocks and
            // eliminate the U blocks above.
            for k in (0..nb).rev() {
                let col = bm.column(k).read();
                let start = part.range(k).start;
                let (head, tail) = b.split_at_mut(start);
                let xk = &mut tail[..col.width()];
                f.backward_column(col.panel(), xk);
                for (src, cols, blk) in bm.ublocks(k, &col) {
                    ublock_sub(f, &mut head[part.range(src)], blk, cols, xk, start);
                }
            }
        },
    );
}

/// `xi ← xi − Ū(i, k) · x_S` for one stored block `blk` of block column
/// `k`, whose columns are the global `cols`; `xk` is `k`'s solved segment,
/// starting at global column `start`.
#[inline(always)]
pub(crate) fn ublock_sub(
    f: &Fused,
    xi: &mut [f64],
    blk: MatRef<'_>,
    cols: &[u32],
    xk: &[f64],
    start: usize,
) {
    f.gemv_sub(xi, blk, cols.iter().map(|&c| xk[c as usize - start]));
}

/// Solves `Āᵀ x = b` in factorization order, given the same factored block
/// matrix, through the kernel instantiation `kernels`. Overwrites `b`. One
/// [`Dispatch::sweep`] whose every step is a [`Fused::dot`]; every
/// instantiation gives the same bits.
///
/// The forward solve composes `Ā⁻¹ = Ū⁻¹ · (Lᴺ⁻¹ Pᴺ) ⋯ (L¹⁻¹ P¹)`, so
/// `Ā⁻ᵀ = (P¹ᵀ L¹⁻ᵀ) ⋯ (Pᴺᵀ Lᴺ⁻ᵀ) · Ū⁻ᵀ`: first a left-looking
/// lower-triangular sweep on the transposed `Ū` blocks, then for
/// `k = N..1` the transposed unit-triangular solve on block column `k` of
/// `L̄` followed by `k`'s interchanges applied **in reverse order**.
///
/// A dot's bits depend on where each term sits, so two storages of the
/// same factors give the same solution only where their dots run over the
/// same rows. The `Ū` blocks and the diagonal blocks cover whole block
/// rows in every storage (a column one stores and another does not is
/// zero, and its dot `+0`); the `L̄_belowᵀ` dots run over `R_K`, which the
/// in-block structure keeps whole (pinned by the `blocks` tests
/// `in_block_structure_keeps_every_row_below_*`).
pub fn solve_transposed_permuted_with(
    bm: &BlockMatrix,
    bs: &BlockStructure,
    b: &mut [f64],
    kernels: &Dispatch,
) {
    assert_eq!(b.len(), bm.n(), "rhs length mismatch");
    let part = &bs.partition;
    let nb = bm.num_block_cols();
    let mut gathered = vec![0.0; max_rows_below(bs)];
    kernels.sweep(
        #[inline(always)]
        |f| {
            // Ūᵀ y = b: left-looking forward sweep over block rows. The U
            // blocks of column k are exactly the transposed contributions
            // into block k.
            for k in 0..nb {
                let col = bm.column(k).read();
                let start = part.range(k).start;
                let (head, tail) = b.split_at_mut(start);
                let yk = &mut tail[..col.width()];
                // Subtract Ū(i, k)ᵀ · y_i for every source i < k.
                for (src, cols, blk) in bm.ublocks(k, &col) {
                    let yi = &head[part.range(src)];
                    for (x, &c) in cols.iter().enumerate() {
                        yk[c as usize - start] -= f.dot(blk.col(x), yi);
                    }
                }
                // Diagonal block: Uᵀ is lower triangular → forward
                // substitution over the local columns of U (rows of Uᵀ).
                let panel = col.panel();
                for c in 0..yk.len() {
                    let dcol = panel.col(c);
                    let (solved, rest) = yk.split_at_mut(c);
                    rest[0] = (rest[0] - f.dot(&dcol[..c], solved)) / dcol[c];
                }
            }

            // x = Π_{k=N..1} (Pᵏᵀ Lᵏ⁻ᵀ) y: per block column from the last to
            // the first, a transposed unit-triangular solve over the panel,
            // then the interchanges in reverse.
            for k in (0..nb).rev() {
                let col = bm.column(k).read();
                let (range, w, rows) = (part.range(k), col.width(), bs.l_rows.col(k));
                let panel = col.panel();
                // Subtract L̄_belowᵀ · x_{R_k} from the diagonal segment.
                let xr = &mut gathered[..rows.len()];
                for (g, &r) in xr.iter_mut().zip(rows) {
                    *g = b[r as usize];
                }
                let xk = &mut b[range.clone()];
                for (c, x) in xk.iter_mut().enumerate() {
                    *x -= f.dot(&panel.col(c)[w..], xr);
                }
                // Lᵀ of the unit-lower diagonal block is unit upper: backward
                // substitution over local columns, x_c ← x_c − Σ_{r>c} L(r,c)·x_r.
                for c in (0..w).rev() {
                    let (head, solved) = xk.split_at_mut(c + 1);
                    head[c] -= f.dot(&panel.col(c)[c + 1..w], solved);
                }
                // Apply the interchanges of Factor(k) in reverse.
                for (c, p) in bm.interchanges(range).rev() {
                    b.swap(bs.panel_row(k, c), bs.panel_row(k, p));
                }
            }
        },
    );
}

/// Solves `Ā X = B` for multiple right-hand sides stored column-major in
/// `b` (`n × nrhs`), in factorization order. Overwrites `b`.
///
/// Unlike looping [`solve_permuted`] per column, this walks the factor
/// **once**, applying each elimination step to all right-hand sides with
/// the BLAS-3 kernels (`trsm` on the diagonal blocks, `gemm` for the
/// off-diagonal eliminations) — the multi-RHS payoff of the supernodal
/// storage — through the kernel instantiation `kernels`, whichever gives
/// the same bits.
pub fn solve_many_permuted(
    bm: &BlockMatrix,
    bs: &BlockStructure,
    b: &mut [f64],
    nrhs: usize,
    kernels: &Dispatch,
) {
    let n = bm.n();
    assert_eq!(b.len(), n * nrhs, "rhs block size mismatch");
    if n == 0 || nrhs == 0 {
        return;
    }
    let part = &bs.partition;
    let nb = bm.num_block_cols();
    // X as a dense n × nrhs matrix (column-major, same layout as `b`); the
    // kernels work on row ranges of it in place.
    let mut x = DenseMat::from_col_major(n, nrhs, b.to_vec());
    // The copies a step needs: the rows of X_k an elimination reads while
    // it writes other rows of X, and the product headed for the rows R_k.
    let mut xk_buf = vec![0.0; part.max_width() * nrhs];
    let mut t_buf = vec![0.0; max_rows_below(bs) * nrhs];
    /// The rows `rows` of `x`, gathered into `buf`.
    fn gather<'a>(
        x: &DenseMat,
        rows: impl ExactSizeIterator<Item = usize> + Clone,
        buf: &'a mut [f64],
    ) -> MatRef<'a> {
        let (m, nrhs) = (rows.len(), x.ncols());
        for c in 0..nrhs {
            let xc = x.col(c);
            for (dst, r) in buf[c * m..(c + 1) * m].iter_mut().zip(rows.clone()) {
                *dst = xc[r];
            }
        }
        MatRef::from_slice(&buf[..m * nrhs], m, nrhs, m)
    }

    // Forward sweep.
    for k in 0..nb {
        let col = bm.column(k).read();
        for (c, p) in bm.interchanges(part.range(k)) {
            x.swap_rows(bs.panel_row(k, c), bs.panel_row(k, p));
        }
        let (k_range, w, rows) = (part.range(k), col.width(), bs.l_rows.col(k));
        kernels.trsm_lower_unit(col.panel_rows(0..w), x.row_range_mut(k_range.clone()));
        if rows.is_empty() {
            continue;
        }
        // T = −L̄_below · X_k, then X_{R_k} += T.
        let xk = gather(&x, k_range, &mut xk_buf);
        let m = rows.len();
        let t = &mut t_buf[..m * nrhs];
        t.fill(0.0);
        kernels.gemm_sub(
            MatMut::from_slice(t, m, nrhs, m),
            col.panel_rows(w..w + m),
            xk,
        );
        for c in 0..nrhs {
            let xc = x.col_mut(c);
            for (&r, &v) in rows.iter().zip(&t[c * m..(c + 1) * m]) {
                xc[r as usize] += v;
            }
        }
    }

    // Backward sweep.
    for k in (0..nb).rev() {
        let col = bm.column(k).read();
        let (k_range, w) = (part.range(k), col.width());
        kernels.trsm_upper(col.panel_rows(0..w), x.row_range_mut(k_range.clone()));
        for (src, cols, blk) in bm.ublocks(k, &col) {
            let stored = cols.iter().map(|&c| c as usize);
            let xs = gather(&x, stored, &mut xk_buf);
            kernels.gemm_sub(x.row_range_mut(part.range(src)), blk, xs);
        }
    }
    b.copy_from_slice(x.data());
}

/// Steps [`refine`] takes at most (LAPACK `xGERFS`'s `ITMAX`).
const MAX_REFINE_STEPS: usize = 5;

/// Iterative refinement of `op(A) x = b` (`Aᵀ` when `transposed`) over
/// `solve`, a raw solve through factors of (a matrix near) `a`, by the one
/// rule, LAPACK `xGERFS`'s: `x ← x + solve(r)` while the scaled residual
/// `ω` of `r = b − op(A) x` ([`ScaledResidual`], one pass over `a` for
/// both) exceeds `ε`, the last step at least halved it, and fewer than five
/// steps have run. Returns `x` and the steps taken; an error of `solve`
/// ends the loop.
pub(crate) fn refine(
    a: CscRef<'_>,
    b: &[f64],
    transposed: bool,
    solve: impl Fn(&[f64]) -> Result<Vec<f64>, LuError>,
) -> Result<(Vec<f64>, usize), LuError> {
    let mut x = solve(b)?;
    let omega = ScaledResidual::new(a, transposed);
    let (mut steps, mut last) = (0, f64::INFINITY);
    loop {
        let (r, w) = omega.of(&x, b);
        // Negated, so a NaN residual stops the loop.
        if !(w > f64::EPSILON && 2.0 * w <= last && steps < MAX_REFINE_STEPS) {
            return Ok((x, steps));
        }
        for (xi, di) in x.iter_mut().zip(&solve(&r)?) {
            *xi += di;
        }
        (steps, last) = (steps + 1, w);
    }
}

/// The refinement decision of every solve door: `op(A) x = b` refined
/// ([`refine`]) over `raw` when the caller `asked` or the factors are
/// perturbed, else `raw(b)` itself, with no pass over `a`.
pub(crate) fn solve_op(
    a: CscRef<'_>,
    b: &[f64],
    transposed: bool,
    asked: bool,
    health: &FactorHealth,
    raw: impl Fn(&[f64]) -> Result<Vec<f64>, LuError>,
) -> Result<Vec<f64>, LuError> {
    if asked || health.is_perturbed() {
        Ok(refine(a, b, transposed, raw)?.0)
    } else {
        raw(b)
    }
}

/// Log-magnitude and sign of `det(Ā)` from a factored block matrix, in
/// factorization order: the product of the `Ū` diagonal with the parity of
/// all interchanges.
///
/// Returns `(sign, ln|det|)`; `sign` is `0.0` only if a diagonal entry is
/// exactly zero (which the factorization rejects, so in practice ±1).
pub fn det_permuted(bm: &BlockMatrix, bs: &BlockStructure) -> (f64, f64) {
    let part = &bs.partition;
    let mut sign = 1.0_f64;
    let mut ln_abs = 0.0_f64;
    for k in 0..bm.num_block_cols() {
        let col = bm.column(k).read();
        let panel = col.panel();
        for c in 0..part.width(k) {
            let d = panel[(c, c)];
            if d == 0.0 {
                return (0.0, f64::NEG_INFINITY);
            }
            if d < 0.0 {
                sign = -sign;
            }
            ln_abs += d.abs().ln();
        }
        if bm.is_factored(k) {
            for _ in bm.interchanges(part.range(k)) {
                sign = -sign;
            }
        }
    }
    (sign, ln_abs)
}

/// The element-growth factor of the factorization:
/// `max |stored factor entry| / max |Ā entry at assembly|`, a standard
/// stability diagnostic (small growth ⇒ the partial-pivoting factorization
/// is backward stable).
pub fn growth_factor(bm: &BlockMatrix, max_abs_a: f64) -> f64 {
    let max_f = bm.max_abs();
    if max_abs_a == 0.0 {
        1.0
    } else {
        max_f / max_abs_a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::BlockMatrix;
    use crate::request::{factor_numeric_with, NumericRequest};
    use splu_sched::{build_sstar_graph, Mapping};
    use splu_sparse::{relative_residual, CscMatrix};
    use splu_symbolic::fixtures::fig1_matrix;
    use splu_symbolic::static_fact::static_symbolic_factorization;
    use splu_symbolic::supernode::{supernode_partition, BlockStructure};

    #[test]
    fn residual_is_small_after_solve() {
        let a = fig1_matrix();
        let f = static_symbolic_factorization(a.pattern()).unwrap();
        let bs = BlockStructure::new(&f, supernode_partition(&f));
        let bm = BlockMatrix::assemble(&a, &bs);
        let graph = build_sstar_graph(&bs);
        factor_numeric_with(&bm, &NumericRequest::coarse(&graph, Mapping::Static1D)).unwrap();
        let b: Vec<f64> = (0..7).map(|i| i as f64 - 3.0).collect();
        let mut x = b.clone();
        solve_permuted(&bm, &bs, &mut x);
        assert!(relative_residual(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn multiple_rhs_reuse_the_factorization() {
        let a = fig1_matrix();
        let f = static_symbolic_factorization(a.pattern()).unwrap();
        let bs = BlockStructure::new(&f, supernode_partition(&f));
        let bm = BlockMatrix::assemble(&a, &bs);
        let graph = build_sstar_graph(&bs);
        factor_numeric_with(&bm, &NumericRequest::coarse(&graph, Mapping::Static1D)).unwrap();
        for t in 0..4 {
            let b: Vec<f64> = (0..7).map(|i| ((i + t) % 3) as f64).collect();
            let mut x = b.clone();
            solve_permuted(&bm, &bs, &mut x);
            assert!(relative_residual(&a, &x, &b) < 1e-12, "rhs {t}");
        }
    }

    #[test]
    fn transpose_solve_matches_dense_oracle() {
        use splu_dense::{lu_full, lu_solve, DenseMat};
        let a = fig1_matrix();
        let n = a.nrows();
        let f = static_symbolic_factorization(a.pattern()).unwrap();
        let bs = BlockStructure::new(&f, supernode_partition(&f));
        let bm = BlockMatrix::assemble(&a, &bs);
        let graph = build_sstar_graph(&bs);
        factor_numeric_with(&bm, &NumericRequest::coarse(&graph, Mapping::Static1D)).unwrap();

        let at = a.transpose();
        let mut dense = DenseMat::from_fn(n, n, |i, j| at.get(i, j));
        let piv = lu_full(&mut dense).unwrap();
        let auto = Dispatch::resolve(KernelChoice::Auto);
        for trial in 0..3 {
            let b: Vec<f64> = (0..n).map(|i| ((i * 5 + trial) % 7) as f64 - 3.0).collect();
            let mut x_oracle = b.clone();
            lu_solve(&dense, &piv, &mut x_oracle);
            let mut x = b.clone();
            solve_transposed_permuted_with(&bm, &bs, &mut x, &auto);
            for i in 0..n {
                assert!(
                    (x[i] - x_oracle[i]).abs() < 1e-10,
                    "transpose mismatch at {i}: {} vs {}",
                    x[i],
                    x_oracle[i]
                );
            }
        }
    }

    #[test]
    fn transpose_solve_with_pivoting() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(12);
        let n = 24;
        let mut trips: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, i, 1e-8)).collect(); // tiny diagonal → pivoting
        for _ in 0..4 * n {
            trips.push((
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(-2.0..2.0),
            ));
        }
        let a = CscMatrix::from_triplets(n, n, &trips).unwrap();
        let f = static_symbolic_factorization(a.pattern()).unwrap();
        let bs = BlockStructure::new(&f, supernode_partition(&f));
        let bm = BlockMatrix::assemble(&a, &bs);
        let graph = build_sstar_graph(&bs);
        factor_numeric_with(&bm, &NumericRequest::coarse(&graph, Mapping::Static1D)).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut x = b.clone();
        solve_transposed_permuted_with(&bm, &bs, &mut x, &Dispatch::resolve(KernelChoice::Auto));
        let at = a.transpose();
        assert!(relative_residual(&at, &x, &b) < 1e-9);
    }

    #[test]
    fn multi_rhs_matches_single_rhs() {
        let a = fig1_matrix();
        let f = static_symbolic_factorization(a.pattern()).unwrap();
        let bs = BlockStructure::new(&f, supernode_partition(&f));
        let bm = BlockMatrix::assemble(&a, &bs);
        let graph = build_sstar_graph(&bs);
        factor_numeric_with(&bm, &NumericRequest::coarse(&graph, Mapping::Static1D)).unwrap();
        let n = 7;
        let nrhs = 3;
        let mut block: Vec<f64> = (0..n * nrhs).map(|i| (i as f64 * 0.37).sin()).collect();
        let singles: Vec<Vec<f64>> = (0..nrhs)
            .map(|r| {
                let mut x = block[r * n..(r + 1) * n].to_vec();
                solve_permuted(&bm, &bs, &mut x);
                x
            })
            .collect();
        let kernels = Dispatch::resolve(KernelChoice::Auto);
        solve_many_permuted(&bm, &bs, &mut block, nrhs, &kernels);
        for r in 0..nrhs {
            assert_eq!(&block[r * n..(r + 1) * n], &singles[r][..]);
        }
    }

    #[test]
    fn determinant_matches_dense_oracle() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use splu_dense::{lu_full, DenseMat};
        let mut rng = SmallRng::seed_from_u64(42);
        for n in [2usize, 5, 12, 20] {
            let mut trips: Vec<(usize, usize, f64)> = (0..n)
                .map(|i| (i, i, 2.0 + rng.gen_range(0.0..2.0)))
                .collect();
            for _ in 0..3 * n {
                trips.push((
                    rng.gen_range(0..n),
                    rng.gen_range(0..n),
                    rng.gen_range(-1.0..1.0),
                ));
            }
            let a = CscMatrix::from_triplets(n, n, &trips).unwrap();
            let f = static_symbolic_factorization(a.pattern()).unwrap();
            let bs = BlockStructure::new(&f, supernode_partition(&f));
            let bm = BlockMatrix::assemble(&a, &bs);
            let graph = build_sstar_graph(&bs);
            factor_numeric_with(&bm, &NumericRequest::coarse(&graph, Mapping::Static1D)).unwrap();
            let (sign, ln_abs) = det_permuted(&bm, &bs);
            // Dense oracle determinant.
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
            assert_eq!(sign, oracle_sign, "n={n}");
            assert!((ln_abs - oracle_ln).abs() < 1e-8, "n={n}");
        }
    }

    #[test]
    fn growth_factor_is_modest_on_benign_matrices() {
        let a = fig1_matrix();
        let max_a = a.values().iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        let f = static_symbolic_factorization(a.pattern()).unwrap();
        let bs = BlockStructure::new(&f, supernode_partition(&f));
        let bm = BlockMatrix::assemble(&a, &bs);
        let graph = build_sstar_graph(&bs);
        factor_numeric_with(&bm, &NumericRequest::coarse(&graph, Mapping::Static1D)).unwrap();
        let g = growth_factor(&bm, max_a);
        assert!(g >= 1.0 - 1e-12, "factor entries include A's max");
        assert!(g < 10.0, "unexpected growth {g} on a dominant matrix");
    }

    #[test]
    fn identity_solves_trivially() {
        let a = CscMatrix::identity(5);
        let f = static_symbolic_factorization(a.pattern()).unwrap();
        let bs = BlockStructure::new(&f, supernode_partition(&f));
        let bm = BlockMatrix::assemble(&a, &bs);
        let graph = build_sstar_graph(&bs);
        factor_numeric_with(&bm, &NumericRequest::coarse(&graph, Mapping::Static1D)).unwrap();
        let mut x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        solve_permuted(&bm, &bs, &mut x);
        assert_eq!(x, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }
}
