//! Column-major dense matrices.

use std::fmt;

/// An owned column-major dense matrix: element `(i, j)` lives at
/// `data[i + j * nrows]`.
///
/// Column-major layout matches the supernodal storage of the sparse
/// factorization (panels are column slabs) and lets the kernels stream down
/// columns with unit stride.
#[derive(Clone, PartialEq)]
pub struct DenseMat {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMat {
    /// A zero-filled `nrows × ncols` matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMat {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Builds a matrix from a generator function.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = DenseMat::zeros(nrows, ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Builds from a column-major data vector.
    pub fn from_col_major(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "data length mismatch");
        DenseMat { nrows, ncols, data }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Raw column-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw column-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Column `j` as a slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Column `j` as a mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Two distinct columns mutably at once (for row swaps across columns).
    pub fn two_cols_mut(&mut self, j1: usize, j2: usize) -> (&mut [f64], &mut [f64]) {
        assert_ne!(j1, j2, "columns must differ");
        let n = self.nrows;
        if j1 < j2 {
            let (a, b) = self.data.split_at_mut(j2 * n);
            (&mut a[j1 * n..(j1 + 1) * n], &mut b[..n])
        } else {
            let (a, b) = self.data.split_at_mut(j1 * n);
            let (x, y) = (&mut b[..n], &mut a[j2 * n..(j2 + 1) * n]);
            (x, y)
        }
    }

    /// Swaps rows `r1` and `r2` across all columns.
    pub fn swap_rows(&mut self, r1: usize, r2: usize) {
        if r1 == r2 {
            return;
        }
        for j in 0..self.ncols {
            self.data.swap(r1 + j * self.nrows, r2 + j * self.nrows);
        }
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Matrix–matrix product into a fresh matrix (naive; used by tests and
    /// small utility paths — the performance kernel is [`crate::gemm_sub`]).
    pub fn matmul(&self, rhs: &DenseMat) -> DenseMat {
        assert_eq!(self.ncols, rhs.nrows, "inner dimension mismatch");
        let mut out = DenseMat::zeros(self.nrows, rhs.ncols);
        for j in 0..rhs.ncols {
            for k in 0..self.ncols {
                let s = rhs[(k, j)];
                if s != 0.0 {
                    let a_col = self.col(k);
                    let o_col = out.col_mut(j);
                    for i in 0..a_col.len() {
                        o_col[i] += a_col[i] * s;
                    }
                }
            }
        }
        out
    }

    /// `y = A x` for a dense vector.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols);
        let mut y = vec![0.0; self.nrows];
        for j in 0..self.ncols {
            let s = x[j];
            if s != 0.0 {
                for (yi, &a) in y.iter_mut().zip(self.col(j)) {
                    *yi += a * s;
                }
            }
        }
        y
    }
}

impl std::ops::Index<(usize, usize)> for DenseMat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[i + j * self.nrows]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[i + j * self.nrows]
    }
}

impl fmt::Debug for DenseMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMat {}x{}", self.nrows, self.ncols)?;
        for i in 0..self.nrows.min(12) {
            for j in 0..self.ncols.min(12) {
                write!(f, "{:>10.4} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_column_major() {
        let m = DenseMat::from_col_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 0)], 2.0);
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    fn from_fn_and_identity() {
        let m = DenseMat::from_fn(3, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(2, 1)], 21.0);
        let id = DenseMat::identity(3);
        assert_eq!(id.matmul(&m), m);
        assert_eq!(m.matmul(&id), m);
    }

    #[test]
    fn swap_rows_touches_all_columns() {
        let mut m = DenseMat::from_fn(3, 2, |i, j| (i + j * 3) as f64);
        m.swap_rows(0, 2);
        assert_eq!(m[(0, 0)], 2.0);
        assert_eq!(m[(2, 0)], 0.0);
        assert_eq!(m[(0, 1)], 5.0);
        assert_eq!(m[(2, 1)], 3.0);
        m.swap_rows(1, 1); // no-op
        assert_eq!(m[(1, 0)], 1.0);
    }

    #[test]
    fn two_cols_mut_both_orders() {
        let mut m = DenseMat::from_fn(2, 3, |i, j| (i + 10 * j) as f64);
        {
            let (a, b) = m.two_cols_mut(0, 2);
            std::mem::swap(&mut a[0], &mut b[0]);
        }
        assert_eq!(m[(0, 0)], 20.0);
        assert_eq!(m[(0, 2)], 0.0);
        {
            let (a, b) = m.two_cols_mut(2, 0);
            std::mem::swap(&mut a[1], &mut b[1]);
        }
        assert_eq!(m[(1, 2)], 1.0);
        assert_eq!(m[(1, 0)], 21.0);
    }

    #[test]
    fn matvec_and_norms() {
        let m = DenseMat::from_col_major(2, 2, vec![1.0, 0.0, 0.0, -2.0]);
        assert_eq!(m.matvec(&[3.0, 4.0]), vec![3.0, -8.0]);
        assert_eq!(m.max_abs(), 2.0);
    }

    #[test]
    #[should_panic(expected = "data length mismatch")]
    fn from_col_major_validates() {
        DenseMat::from_col_major(2, 2, vec![0.0; 3]);
    }
}
