//! Compressed sparse row matrices — used where row-wise traversal dominates
//! (static symbolic factorization walks rows, not columns).

use crate::{CscMatrix, SparseError};

/// A numeric sparse matrix in compressed-row form.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a matrix from `(row, col, value)` triplets, summing duplicates.
    pub fn from_triplets_iter<I>(
        nrows: usize,
        ncols: usize,
        triplets: I,
    ) -> Result<Self, SparseError>
    where
        I: IntoIterator<Item = (usize, usize, f64)>,
    {
        // Reuse the CSC constructor on the transposed coordinates, then
        // reinterpret: a CSC of Aᵀ has exactly the arrays of a CSR of A.
        let t = CscMatrix::from_triplets_iter(
            ncols,
            nrows,
            triplets.into_iter().map(|(r, c, v)| (c, r, v)),
        )?;
        Ok(CsrMatrix {
            nrows,
            ncols,
            row_ptr: t.pattern().col_ptr().to_vec(),
            col_idx: t.pattern().row_indices().to_vec(),
            values: t.values().to_vec(),
        })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column indices and values of row `i` (columns strictly increasing).
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Value at `(i, j)`, zero when not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match u32::try_from(j).map(|j| cols.binary_search(&j)) {
            Ok(Ok(k)) => vals[k],
            _ => 0.0,
        }
    }

    /// Row pointer array (length `nrows + 1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Conversion to compressed-column form.
    pub fn to_csc(&self) -> CscMatrix {
        CscMatrix::from_triplets_iter(
            self.nrows,
            self.ncols,
            (0..self.nrows).flat_map(|i| {
                let (cols, vals) = self.row(i);
                cols.iter()
                    .zip(vals)
                    .map(move |(&j, &v)| (i, j as usize, v))
            }),
        )
        .expect("valid matrix converts")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_csc_roundtrip() {
        let a = CscMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]).unwrap();
        let r = a.to_csr();
        assert_eq!(r.nnz(), 3);
        assert_eq!(r.get(0, 2), 2.0);
        assert_eq!(r.get(1, 0), 0.0);
        let (cols, vals) = r.row(0);
        assert_eq!(cols, &[0, 2]);
        assert_eq!(vals, &[1.0, 2.0]);
        assert_eq!(r.to_csc(), a);
    }

    #[test]
    fn duplicates_are_summed() {
        let r = CsrMatrix::from_triplets_iter(1, 1, vec![(0, 0, 1.0), (0, 0, 4.0)]).unwrap();
        assert_eq!(r.get(0, 0), 5.0);
        assert_eq!(r.nnz(), 1);
        assert_eq!(r.row_ptr(), &[0, 1]);
    }

    #[test]
    fn dims_reported() {
        let r = CsrMatrix::from_triplets_iter(2, 5, std::iter::empty()).unwrap();
        assert_eq!((r.nrows(), r.ncols(), r.nnz()), (2, 5, 0));
    }
}
