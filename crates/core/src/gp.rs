//! Gilbert–Peierls left-looking sparse LU with partial pivoting.
//!
//! The classical *dynamic-structure* algorithm (time proportional to flops):
//! no static symbolic factorization, no supernodes, no parallelism. It
//! serves two roles in this reproduction:
//!
//! * an **independent numerical cross-check** for the supernodal code
//!   (different algorithm, same answers);
//! * the "column-based method" baseline the paper's introduction contrasts
//!   the supernodal approach against.

use crate::LuError;
use splu_sparse::CscMatrix;

const NONE: usize = usize::MAX;

/// A factorization produced by [`gp_factor`].
#[derive(Debug, Clone)]
pub struct GpLu {
    /// Unit lower-triangular factor; row indices are **original** rows, each
    /// column's entries divided by its pivot.
    l_cols: Vec<Vec<(usize, f64)>>,
    /// Upper factor by column: `(pivot_position, value)` pairs, position
    /// being the elimination step of the contributing pivot.
    u_cols: Vec<Vec<(usize, f64)>>,
    /// `pinv[original_row] = elimination position`, or `NONE` internal.
    pinv: Vec<usize>,
    n: usize,
}

impl GpLu {
    /// Matrix order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored entries in `L` (unit diagonal not stored).
    pub fn l_nnz(&self) -> usize {
        self.l_cols.iter().map(Vec::len).sum()
    }

    /// Number of stored entries in `U` (including the diagonal).
    pub fn u_nnz(&self) -> usize {
        self.u_cols.iter().map(Vec::len).sum()
    }

    /// Solves `A x = b`, overwriting `b` with `x`.
    pub fn solve(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        // Forward: y (in elimination positions) from L y = P b.
        let mut y = vec![0.0_f64; self.n];
        for (r, &pos) in self.pinv.iter().enumerate() {
            y[pos] = b[r];
        }
        for j in 0..self.n {
            let s = y[j];
            if s != 0.0 {
                for &(r, v) in &self.l_cols[j] {
                    y[self.pinv[r]] -= v * s;
                }
            }
        }
        // Backward: U x = y. u_cols[j] ends with the diagonal (position j).
        for j in (0..self.n).rev() {
            let &(dpos, dval) = self.u_cols[j].last().expect("diagonal stored");
            debug_assert_eq!(dpos, j);
            y[j] /= dval;
            let s = y[j];
            if s != 0.0 {
                for &(pos, v) in &self.u_cols[j][..self.u_cols[j].len() - 1] {
                    y[pos] -= v * s;
                }
            }
        }
        b.copy_from_slice(&y);
    }
}

/// Factorizes a square matrix with the Gilbert–Peierls algorithm.
pub fn gp_factor(a: &CscMatrix, pivot_threshold: f64) -> Result<GpLu, LuError> {
    if a.nrows() != a.ncols() {
        return Err(LuError::NotSquare {
            nrows: a.nrows(),
            ncols: a.ncols(),
        });
    }
    let n = a.ncols();
    let mut l_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
    let mut u_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
    let mut pinv = vec![NONE; n];
    // Workspaces.
    let mut x = vec![0.0_f64; n]; // numeric scatter, indexed by original row
    let mut reach: Vec<usize> = Vec::new(); // topologically sorted rows
    let mut visited = vec![false; n];
    let mut dfs_stack: Vec<(usize, usize)> = Vec::new();

    for j in 0..n {
        // --- Symbolic: rows reachable from struct(A[:, j]) through L.
        reach.clear();
        let (a_rows, a_vals) = a.col(j);
        for &r in a_rows {
            let r = r as usize;
            if !visited[r] {
                // Iterative DFS emitting nodes in postorder (reverse
                // topological order for the solve below).
                dfs_stack.push((r, 0));
                visited[r] = true;
                while let Some(&(node, child)) = dfs_stack.last() {
                    let deps: &[(usize, f64)] = if pinv[node] == NONE {
                        &[]
                    } else {
                        &l_cols[pinv[node]]
                    };
                    if child < deps.len() {
                        dfs_stack.last_mut().expect("stack nonempty").1 += 1;
                        let next = deps[child].0;
                        if !visited[next] {
                            visited[next] = true;
                            dfs_stack.push((next, 0));
                        }
                    } else {
                        reach.push(node);
                        dfs_stack.pop();
                    }
                }
            }
        }
        // --- Numeric: sparse lower solve in topological (reverse postorder)
        // order.
        for &(r, v) in a_rows
            .iter()
            .zip(a_vals)
            .map(|(&r, &v)| (r as usize, v))
            .collect::<Vec<_>>()
            .iter()
        {
            x[r] = v;
        }
        for &r in reach.iter().rev() {
            if pinv[r] != NONE {
                let s = x[r];
                if s != 0.0 {
                    for &(rr, v) in &l_cols[pinv[r]] {
                        x[rr] -= v * s;
                    }
                }
            }
        }
        // --- Pivot among unassigned rows.
        let mut piv = NONE;
        let mut piv_abs = pivot_threshold;
        for &r in &reach {
            if pinv[r] == NONE {
                let a = x[r].abs();
                if a > piv_abs || (piv == NONE && a > pivot_threshold) {
                    piv_abs = a;
                    piv = r;
                }
            }
        }
        if piv == NONE || x[piv] == 0.0 {
            // Clean workspaces before bailing.
            for &r in &reach {
                visited[r] = false;
                x[r] = 0.0;
            }
            return Err(LuError::NumericallySingular { column: j });
        }
        let piv_val = x[piv];
        pinv[piv] = j;
        // --- Emit U column (assigned rows) and L column (unassigned).
        let mut ucol: Vec<(usize, f64)> = Vec::new();
        let mut lcol: Vec<(usize, f64)> = Vec::new();
        for &r in &reach {
            visited[r] = false;
            let v = x[r];
            x[r] = 0.0;
            if pinv[r] != NONE {
                if r == piv {
                    continue; // diagonal goes last
                }
                if v != 0.0 {
                    ucol.push((pinv[r], v));
                }
            } else if v != 0.0 {
                lcol.push((r, v / piv_val));
            }
        }
        ucol.sort_unstable_by_key(|&(pos, _)| pos);
        ucol.push((j, piv_val));
        l_cols.push(lcol);
        u_cols.push(ucol);
    }
    Ok(GpLu {
        l_cols,
        u_cols,
        pinv,
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use splu_sparse::relative_residual;
    use splu_symbolic::fixtures::fig1_matrix;

    #[test]
    fn solves_fig1() {
        let a = fig1_matrix();
        let lu = gp_factor(&a, 0.0).unwrap();
        let b: Vec<f64> = (0..7).map(|i| (i as f64).sin()).collect();
        let mut x = b.clone();
        lu.solve(&mut x);
        assert!(relative_residual(&a, &x, &b) < 1e-12);
        assert!(lu.l_nnz() > 0 && lu.u_nnz() >= 7);
        assert_eq!(lu.n(), 7);
    }

    #[test]
    fn pivots_on_dominant_rows() {
        // Tiny diagonal forces interchanges.
        let a = CscMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 1e-14),
                (1, 0, 2.0),
                (0, 1, 1.0),
                (1, 1, 1e-14),
                (2, 1, 3.0),
                (2, 2, 1e-14),
                (0, 2, 4.0),
            ],
        )
        .unwrap();
        let lu = gp_factor(&a, 0.0).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let mut x = b.clone();
        lu.solve(&mut x);
        assert!(relative_residual(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn reports_singularity() {
        let a = CscMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 1.0)]).unwrap();
        assert!(matches!(
            gp_factor(&a, 0.0),
            Err(LuError::NumericallySingular { .. })
        ));
    }

    #[test]
    fn rejects_rectangular() {
        let a = CscMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]).unwrap();
        assert!(matches!(gp_factor(&a, 0.0), Err(LuError::NotSquare { .. })));
    }

    #[test]
    fn random_matrices_match_dense_oracle() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use splu_dense::{lu_full, lu_solve, DenseMat};
        let mut rng = SmallRng::seed_from_u64(77);
        for n in [1usize, 2, 5, 12, 30] {
            let mut trips: Vec<(usize, usize, f64)> =
                (0..n).map(|i| (i, i, rng.gen_range(1.0..2.0))).collect();
            for _ in 0..3 * n {
                trips.push((
                    rng.gen_range(0..n),
                    rng.gen_range(0..n),
                    rng.gen_range(-1.0..1.0),
                ));
            }
            let a = CscMatrix::from_triplets(n, n, &trips).unwrap();
            let lu = gp_factor(&a, 0.0).unwrap();
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut x = b.clone();
            lu.solve(&mut x);
            let mut dense = DenseMat::from_fn(n, n, |i, j| a.get(i, j));
            let piv = lu_full(&mut dense).unwrap();
            let mut x_oracle = b.clone();
            lu_solve(&dense, &piv, &mut x_oracle);
            for i in 0..n {
                assert!((x[i] - x_oracle[i]).abs() < 1e-8, "n={n}, i={i}");
            }
        }
    }
}
