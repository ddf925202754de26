//! Compressed sparse column matrices — the solver's working format.

use crate::pattern::check_dims;
use crate::{Permutation, SparseError, SparsityPattern};

/// A numeric sparse matrix in compressed-column form.
///
/// Values are stored parallel to the pattern's row indices; explicit zeros
/// are allowed (static symbolic factorization deliberately pads structures).
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    pattern: SparsityPattern,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Builds a matrix from a pattern and values of matching length.
    pub fn from_pattern_values(
        pattern: SparsityPattern,
        values: Vec<f64>,
    ) -> Result<Self, SparseError> {
        if values.len() != pattern.nnz() {
            return Err(SparseError::InvalidStructure(format!(
                "value count {} != nnz {}",
                values.len(),
                pattern.nnz()
            )));
        }
        Ok(CscMatrix { pattern, values })
    }

    /// Builds a matrix from `(row, col, value)` triplets, summing duplicates.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self, SparseError> {
        Self::from_triplets_iter(nrows, ncols, triplets.iter().copied())
    }

    /// Iterator-based triplet constructor, summing duplicates.
    pub fn from_triplets_iter<I>(
        nrows: usize,
        ncols: usize,
        triplets: I,
    ) -> Result<Self, SparseError>
    where
        I: IntoIterator<Item = (usize, usize, f64)>,
    {
        check_dims(nrows, ncols)?;
        let mut per_col: Vec<Vec<(u32, f64)>> = vec![Vec::new(); ncols];
        for (r, c, v) in triplets {
            if r >= nrows || c >= ncols {
                return Err(SparseError::IndexOutOfBounds {
                    row: r,
                    col: c,
                    nrows,
                    ncols,
                });
            }
            per_col[c].push((r as u32, v));
        }
        // Duplicates are summed first, so the arrays below are sized exactly.
        for col in &mut per_col {
            col.sort_unstable_by_key(|&(r, _)| r);
            col.dedup_by(|next, kept| {
                let same = next.0 == kept.0;
                if same {
                    kept.1 += next.1;
                }
                same
            });
        }
        let nnz = per_col.iter().map(Vec::len).sum();
        let mut col_ptr = Vec::with_capacity(ncols + 1);
        let mut row_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        col_ptr.push(0);
        for col in &per_col {
            row_idx.extend(col.iter().map(|&(r, _)| r));
            values.extend(col.iter().map(|&(_, v)| v));
            col_ptr.push(row_idx.len());
        }
        let pattern = SparsityPattern::new(nrows, ncols, col_ptr, row_idx)?;
        Ok(CscMatrix { pattern, values })
    }

    /// The dense `n × n` identity.
    pub fn identity(n: usize) -> Self {
        CscMatrix {
            pattern: SparsityPattern::identity(n),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.pattern.nrows()
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.pattern.ncols()
    }

    /// Number of stored entries (including explicit zeros).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.pattern.nnz()
    }

    /// Borrow the structure.
    #[inline]
    pub fn pattern(&self) -> &SparsityPattern {
        &self.pattern
    }

    /// Borrow the value array (parallel to `pattern().row_indices()`).
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable borrow of the value array.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The pattern and the values, taken apart without a copy.
    pub fn into_parts(self) -> (SparsityPattern, Vec<f64>) {
        (self.pattern, self.values)
    }

    /// Bytes the pattern's index arrays and the values occupy on the heap.
    pub fn heap_bytes(&self) -> u64 {
        self.pattern.heap_bytes() + std::mem::size_of_val(&self.values[..]) as u64
    }

    /// The matrix as a borrowed pattern and values.
    #[inline]
    pub fn view(&self) -> CscRef<'_> {
        CscRef {
            pattern: &self.pattern,
            values: &self.values,
        }
    }

    /// Row indices and values of column `j`.
    pub fn col(&self, j: usize) -> (&[u32], &[f64]) {
        self.view().col(j)
    }

    /// Value at `(i, j)`, zero when not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (rows, vals) = self.col(j);
        match u32::try_from(i).map(|i| rows.binary_search(&i)) {
            Ok(Ok(k)) => vals[k],
            _ => 0.0,
        }
    }

    /// Iterator over `(row, col, value)` in column-major order.
    pub fn triplets(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.view().triplets()
    }

    /// `y ← y + A x`.
    pub fn mat_vec_add(&self, x: &[f64], y: &mut [f64]) {
        self.view().mat_vec_add(x, y)
    }

    /// `y ← y − A x`.
    pub fn mat_vec_sub(&self, x: &[f64], y: &mut [f64]) {
        self.view().mat_vec_sub(x, y)
    }

    /// `y = A x` into a fresh vector.
    pub fn mat_vec(&self, x: &[f64]) -> Vec<f64> {
        self.view().mat_vec(x)
    }

    /// Infinity norm: maximum absolute row sum. Each row sums its entries
    /// in column order, as a walk of [`Self::triplets`] would.
    pub fn inf_norm(&self) -> f64 {
        self.view().inf_norm()
    }

    /// One norm: maximum absolute column sum.
    pub fn one_norm(&self) -> f64 {
        self.view().one_norm()
    }

    /// Transposed matrix.
    pub fn transpose(&self) -> CscMatrix {
        self.view().transpose()
    }

    /// Permuted matrix `B[i][j] = A[rp[i]][cp[j]]`.
    pub fn permuted(&self, row_perm: &Permutation, col_perm: &Permutation) -> CscMatrix {
        assert_eq!(row_perm.len(), self.nrows());
        assert_eq!(col_perm.len(), self.ncols());
        CscMatrix::from_triplets_iter(
            self.nrows(),
            self.ncols(),
            self.triplets()
                .map(|(i, j, v)| (row_perm.new_of(i), col_perm.new_of(j), v)),
        )
        .expect("permutation preserves validity")
    }
}

/// A compressed-column matrix borrowed as its two halves: a pattern and the
/// values parallel to its row indices, which need not be held together (a
/// daemon session keeps its values against the pattern its analysis
/// shares). `&CscMatrix` converts into it.
#[derive(Debug, Clone, Copy)]
pub struct CscRef<'a> {
    pattern: &'a SparsityPattern,
    values: &'a [f64],
}

impl<'a> From<&'a CscMatrix> for CscRef<'a> {
    fn from(a: &'a CscMatrix) -> Self {
        a.view()
    }
}

impl<'a> CscRef<'a> {
    /// `values` against `pattern`; panics when they differ in length.
    pub fn new(pattern: &'a SparsityPattern, values: &'a [f64]) -> Self {
        assert_eq!(values.len(), pattern.nnz(), "one value per stored entry");
        CscRef { pattern, values }
    }

    /// The structure.
    #[inline]
    pub fn pattern(self) -> &'a SparsityPattern {
        self.pattern
    }

    /// The values, parallel to `pattern().row_indices()`.
    #[inline]
    pub fn values(self) -> &'a [f64] {
        self.values
    }

    /// Row indices and values of column `j`.
    pub fn col(self, j: usize) -> (&'a [u32], &'a [f64]) {
        let (lo, hi) = (self.pattern.col_ptr()[j], self.pattern.col_ptr()[j + 1]);
        (&self.pattern.row_indices()[lo..hi], &self.values[lo..hi])
    }

    /// Iterator over `(row, col, value)` in column-major order.
    pub fn triplets(self) -> impl Iterator<Item = (usize, usize, f64)> + 'a {
        (0..self.pattern.ncols()).flat_map(move |j| {
            let (rows, vals) = self.col(j);
            rows.iter()
                .zip(vals)
                .map(move |(&i, &v)| (i as usize, j, v))
        })
    }

    /// `y ← y + A x`.
    pub fn mat_vec_add(self, x: &[f64], y: &mut [f64]) {
        self.mat_vec_signed(x, y, 1.0)
    }

    /// `y ← y − A x`.
    pub fn mat_vec_sub(self, x: &[f64], y: &mut [f64]) {
        self.mat_vec_signed(x, y, -1.0)
    }

    /// `y ← y + sign · A x`, `sign` being ±1 (exact: `−(v·x) = (−v)·x`).
    fn mat_vec_signed(self, x: &[f64], y: &mut [f64], sign: f64) {
        assert_eq!(x.len(), self.pattern.ncols());
        assert_eq!(y.len(), self.pattern.nrows());
        for j in 0..self.pattern.ncols() {
            let xj = sign * x[j];
            if xj == 0.0 {
                continue;
            }
            let (rows, vals) = self.col(j);
            for (&i, &v) in rows.iter().zip(vals) {
                y[i as usize] += v * xj;
            }
        }
    }

    /// `y ← y − Aᵀ x`: entry `j` subtracts the terms of column `j`'s dot
    /// product with `x` one by one, in stored order — the order in which
    /// [`Self::mat_vec_sub`] subtracts them on the transpose.
    pub fn mat_vec_sub_transposed(self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.pattern.nrows());
        assert_eq!(y.len(), self.pattern.ncols());
        for (j, yj) in y.iter_mut().enumerate() {
            let (rows, vals) = self.col(j);
            for (&i, &v) in rows.iter().zip(vals) {
                *yj -= v * x[i as usize];
            }
        }
    }

    /// `y = A x` into a fresh vector.
    pub fn mat_vec(self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.pattern.nrows()];
        self.mat_vec_add(x, &mut y);
        y
    }

    /// Infinity norm: maximum absolute row sum. Each row sums its entries
    /// in column order, as a walk of [`Self::triplets`] would.
    pub fn inf_norm(self) -> f64 {
        let mut row_sum = vec![0.0_f64; self.pattern.nrows()];
        for (&i, &v) in self.pattern.row_indices().iter().zip(self.values) {
            row_sum[i as usize] += v.abs();
        }
        row_sum.iter().fold(0.0_f64, |m, &s| m.max(s))
    }

    /// One norm: maximum absolute column sum, `‖Aᵀ‖∞`.
    pub fn one_norm(self) -> f64 {
        (0..self.pattern.ncols())
            .map(|j| self.col(j).1.iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0_f64, f64::max)
    }

    /// Transposed matrix.
    pub fn transpose(self) -> CscMatrix {
        CscMatrix::from_triplets_iter(
            self.pattern.ncols(),
            self.pattern.nrows(),
            self.triplets().map(|(i, j, v)| (j, i, v)),
        )
        .expect("transpose preserves validity")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CscMatrix {
        // [ 1  0  2 ]
        // [ 0 -3  0 ]
        // [ 4  0  5 ]
        CscMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 1.0),
                (2, 0, 4.0),
                (1, 1, -3.0),
                (0, 2, 2.0),
                (2, 2, 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn get_and_col_access() {
        let a = sample();
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(1, 0), 0.0);
        let (rows, vals) = a.col(2);
        assert_eq!(rows, &[0, 2]);
        assert_eq!(vals, &[2.0, 5.0]);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = sample();
        let y = a.mat_vec(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![1.0 + 6.0, -6.0, 4.0 + 15.0]);
    }

    #[test]
    fn norms() {
        let a = sample();
        assert_eq!(a.inf_norm(), 9.0); // row 2: 4 + 5
        assert_eq!(a.one_norm(), 7.0); // col 2: 2 + 5
    }

    #[test]
    fn transpose_roundtrip() {
        let a = sample();
        let at = a.transpose();
        assert_eq!(at.get(0, 2), 4.0);
        assert_eq!(at.transpose(), a);
    }

    #[test]
    fn permuted_matches_definition() {
        let a = sample();
        let rp = Permutation::from_vec(vec![2, 0, 1]).unwrap();
        let cp = Permutation::from_vec(vec![1, 2, 0]).unwrap();
        let b = a.permuted(&rp, &cp);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(b.get(i, j), a.get(rp.old_of(i), cp.old_of(j)));
            }
        }
    }

    #[test]
    fn identity_has_one_entry_per_column() {
        let i3 = CscMatrix::identity(3);
        assert_eq!(i3.nnz(), 3);
    }

    #[test]
    fn from_pattern_values_validates_length() {
        let p = SparsityPattern::identity(2);
        assert!(CscMatrix::from_pattern_values(p.clone(), vec![1.0]).is_err());
        let m = CscMatrix::from_pattern_values(p, vec![1.0, 2.0]).unwrap();
        assert_eq!(m.get(1, 1), 2.0);
    }

    #[test]
    fn triplet_constructor_rejects_out_of_bounds() {
        assert!(CscMatrix::from_triplets(1, 1, &[(0, 1, 1.0)]).is_err());
    }
}
