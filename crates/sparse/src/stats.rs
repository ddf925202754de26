//! Structural statistics of sparse matrices: bandwidth, profile, symmetry.

use crate::{CscMatrix, SparsityPattern};

/// Summary statistics of a matrix's structure and values.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixStats {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Stored entries.
    pub nnz: usize,
    /// Average entries per column.
    pub mean_col_nnz: f64,
    /// Maximum entries in any column.
    pub max_col_nnz: usize,
    /// Maximum `|i − j|` over stored entries.
    pub bandwidth: usize,
    /// Sum over columns of the distance from the first entry to the
    /// diagonal (the Jennings profile, lower part).
    pub profile: usize,
    /// Fraction of off-diagonal entries whose transpose position is also
    /// present (1.0 = structurally symmetric).
    pub structural_symmetry: f64,
    /// Fraction of structurally matched pairs with equal values
    /// (1.0 on a numerically symmetric matrix).
    pub numerical_symmetry: f64,
    /// `true` when every diagonal position is present.
    pub zero_free_diagonal: bool,
}

/// Computes structural statistics of a pattern (value-based fields are set
/// to the structural ones).
pub fn pattern_stats(p: &SparsityPattern) -> MatrixStats {
    let nnz = p.nnz();
    let ncols = p.ncols();
    let mut bandwidth = 0usize;
    let mut profile = 0usize;
    let mut max_col = 0usize;
    for j in 0..ncols {
        let col = p.col(j);
        max_col = max_col.max(col.len());
        for &i in col {
            bandwidth = bandwidth.max((i as usize).abs_diff(j));
        }
        if let Some(&last) = col.last() {
            profile += (last as usize).saturating_sub(j);
        }
    }
    let mut matched = 0usize;
    let mut offdiag = 0usize;
    for (i, j) in p.entries() {
        if i != j {
            offdiag += 1;
            if p.contains(j, i) {
                matched += 1;
            }
        }
    }
    let sym = if offdiag == 0 {
        1.0
    } else {
        matched as f64 / offdiag as f64
    };
    MatrixStats {
        nrows: p.nrows(),
        ncols,
        nnz,
        mean_col_nnz: if ncols == 0 {
            0.0
        } else {
            nnz as f64 / ncols as f64
        },
        max_col_nnz: max_col,
        bandwidth,
        profile,
        structural_symmetry: sym,
        numerical_symmetry: sym,
        zero_free_diagonal: p.has_zero_free_diagonal(),
    }
}

/// Computes full statistics of a numeric matrix.
pub fn matrix_stats(a: &CscMatrix) -> MatrixStats {
    let mut s = pattern_stats(a.pattern());
    let mut matched = 0usize;
    let mut equal = 0usize;
    for (i, j, v) in a.triplets() {
        if i != j && a.pattern().contains(j, i) {
            matched += 1;
            if (a.get(j, i) - v).abs() <= 1e-14 * v.abs().max(1.0) {
                equal += 1;
            }
        }
    }
    s.numerical_symmetry = if matched == 0 {
        1.0
    } else {
        equal as f64 / matched as f64
    };
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_a_tridiagonal_matrix() {
        let n = 5;
        let mut trips = Vec::new();
        for i in 0..n {
            trips.push((i, i, 2.0));
            if i + 1 < n {
                trips.push((i + 1, i, -1.0));
                trips.push((i, i + 1, -1.0));
            }
        }
        let a = CscMatrix::from_triplets(n, n, &trips).unwrap();
        let s = matrix_stats(&a);
        assert_eq!(s.bandwidth, 1);
        assert_eq!(s.profile, 4);
        assert_eq!(s.max_col_nnz, 3);
        assert!((s.structural_symmetry - 1.0).abs() < 1e-15);
        assert!((s.numerical_symmetry - 1.0).abs() < 1e-15);
        assert!(s.zero_free_diagonal);
    }

    #[test]
    fn unsymmetric_values_are_detected() {
        let a =
            CscMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0), (0, 1, 3.0), (1, 0, -3.0)])
                .unwrap();
        let s = matrix_stats(&a);
        assert!((s.structural_symmetry - 1.0).abs() < 1e-15);
        assert_eq!(s.numerical_symmetry, 0.0);
    }

    #[test]
    fn structurally_unsymmetric() {
        let a =
            CscMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (0, 2, 5.0)])
                .unwrap();
        let s = matrix_stats(&a);
        assert_eq!(s.structural_symmetry, 0.0);
        assert_eq!(s.bandwidth, 2);
    }

    #[test]
    fn empty_matrix() {
        let s = pattern_stats(&SparsityPattern::empty(0, 0));
        assert_eq!(s.nnz, 0);
        assert_eq!(s.bandwidth, 0);
        assert_eq!(s.structural_symmetry, 1.0);
    }
}
