//! Compressed column-major sparsity patterns (structure without values).

use crate::{Permutation, SparseError};

/// A column-compressed sparsity pattern.
///
/// Rows within each column are stored strictly increasing. This is the
/// structure type consumed by every symbolic algorithm in the workspace
/// (orderings, static symbolic factorization, elimination forests,
/// supernode detection).
///
/// Row indices are `u32` and column pointers `usize` offsets, so both
/// dimensions stay below 2^32 ([`SparseError::DimensionTooLarge`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsityPattern {
    nrows: usize,
    ncols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
}

/// `Err` unless both dimensions fit a `u32` index.
pub(crate) fn check_dims(nrows: usize, ncols: usize) -> Result<(), SparseError> {
    if nrows.max(ncols) > u32::MAX as usize {
        return Err(SparseError::DimensionTooLarge { nrows, ncols });
    }
    Ok(())
}

impl SparsityPattern {
    /// Builds a pattern from raw compressed-column arrays, validating the
    /// invariants (monotone pointers, strictly increasing in-column rows,
    /// rows in range).
    pub fn new(
        nrows: usize,
        ncols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<u32>,
    ) -> Result<Self, SparseError> {
        check_dims(nrows, ncols)?;
        if col_ptr.len() != ncols + 1 {
            return Err(SparseError::InvalidStructure(format!(
                "col_ptr length {} != ncols + 1 = {}",
                col_ptr.len(),
                ncols + 1
            )));
        }
        if col_ptr[0] != 0 || *col_ptr.last().unwrap() != row_idx.len() {
            return Err(SparseError::InvalidStructure(
                "col_ptr endpoints do not bracket row_idx".into(),
            ));
        }
        for j in 0..ncols {
            if col_ptr[j] > col_ptr[j + 1] {
                return Err(SparseError::InvalidStructure(format!(
                    "col_ptr not monotone at column {j}"
                )));
            }
            let col = &row_idx[col_ptr[j]..col_ptr[j + 1]];
            for w in col.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::InvalidStructure(format!(
                        "rows not strictly increasing in column {j}"
                    )));
                }
            }
            if let Some(&last) = col.last() {
                if last as usize >= nrows {
                    return Err(SparseError::IndexOutOfBounds {
                        row: last as usize,
                        col: j,
                        nrows,
                        ncols,
                    });
                }
            }
        }
        Ok(SparsityPattern {
            nrows,
            ncols,
            col_ptr,
            row_idx,
        })
    }

    /// Builds a pattern from compressed-column arrays **known** to satisfy
    /// the invariants (monotone pointers bracketing `row_idx`, strictly
    /// increasing in-range rows per column).
    ///
    /// The hot symbolic assembly paths construct multi-million-entry
    /// patterns whose sortedness holds by construction (counting scatters,
    /// branch walks); this constructor skips the release-mode re-validation
    /// scan that [`Self::new`] performs. Debug builds still validate fully,
    /// so the test-suite keeps the invariants honest.
    ///
    /// # Panics
    /// Debug builds panic when the invariants do not hold. Release builds
    /// accept the arrays as-is — callers must guarantee them.
    pub fn from_sorted_parts(
        nrows: usize,
        ncols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<u32>,
    ) -> Self {
        if cfg!(debug_assertions) {
            return SparsityPattern::new(nrows, ncols, col_ptr, row_idx)
                .expect("from_sorted_parts invariants violated");
        }
        SparsityPattern {
            nrows,
            ncols,
            col_ptr,
            row_idx,
        }
    }

    /// Pattern with no entries.
    ///
    /// # Panics
    /// When a dimension does not fit a `u32` index.
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        check_dims(nrows, ncols).expect("pattern dimensions exceed u32");
        SparsityPattern {
            nrows,
            ncols,
            col_ptr: vec![0; ncols + 1],
            row_idx: Vec::new(),
        }
    }

    /// The `n × n` identity pattern.
    ///
    /// # Panics
    /// When `n` does not fit a `u32` index.
    pub fn identity(n: usize) -> Self {
        check_dims(n, n).expect("pattern dimensions exceed u32");
        SparsityPattern {
            nrows: n,
            ncols: n,
            col_ptr: (0..=n).collect(),
            row_idx: (0..n as u32).collect(),
        }
    }

    /// Builds a pattern from unsorted `(row, col)` entries; duplicates are
    /// merged. A counting sort by column places the rows, then each column
    /// is sorted and deduplicated in place, so the arrays hold exactly the
    /// entries. Errs on a dimension past `u32`, and on the first entry
    /// outside `nrows × ncols` ([`SparseError::IndexOutOfBounds`]).
    pub fn from_entries<I>(nrows: usize, ncols: usize, entries: I) -> Result<Self, SparseError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        check_dims(nrows, ncols)?;
        let entries = entries.into_iter();
        // Sized once from the upper bound when there is one (a filtered
        // list's lower bound is 0).
        let (least, most) = entries.size_hint();
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(most.unwrap_or(least));
        for (r, c) in entries {
            if r >= nrows || c >= ncols {
                return Err(SparseError::IndexOutOfBounds {
                    row: r,
                    col: c,
                    nrows,
                    ncols,
                });
            }
            pairs.push((r as u32, c as u32));
        }
        // Counts, then prefix sums; scattering through `col_ptr[c]` leaves
        // it at the end of column `c`.
        let mut col_ptr = vec![0usize; ncols + 1];
        for &(_, c) in &pairs {
            col_ptr[c as usize + 1] += 1;
        }
        for j in 0..ncols {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut row_idx = vec![0u32; pairs.len()];
        for (r, c) in pairs {
            row_idx[col_ptr[c as usize]] = r;
            col_ptr[c as usize] += 1;
        }
        // Each column sorted and moved down over its duplicates.
        let (mut lo, mut len) = (0, 0);
        for j in 0..ncols {
            let hi = std::mem::replace(&mut col_ptr[j], len);
            row_idx[lo..hi].sort_unstable();
            for t in lo..hi {
                if len == col_ptr[j] || row_idx[len - 1] != row_idx[t] {
                    row_idx[len] = row_idx[t];
                    len += 1;
                }
            }
            lo = hi;
        }
        col_ptr[ncols] = len;
        row_idx.truncate(len);
        row_idx.shrink_to_fit();
        Ok(SparsityPattern {
            nrows,
            ncols,
            col_ptr,
            row_idx,
        })
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

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// `true` for square patterns.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Row indices of column `j`, strictly increasing.
    #[inline]
    pub fn col(&self, j: usize) -> &[u32] {
        &self.row_idx[self.col_ptr[j]..self.col_ptr[j + 1]]
    }

    /// Column pointer array (length `ncols + 1`).
    #[inline]
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Concatenated row indices.
    #[inline]
    pub fn row_indices(&self) -> &[u32] {
        &self.row_idx
    }

    /// Bytes the two index arrays occupy on the heap.
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of_val;
        (size_of_val(&self.col_ptr[..]) + size_of_val(&self.row_idx[..])) as u64
    }

    /// `true` if entry `(i, j)` is structurally present (binary search).
    pub fn contains(&self, i: usize, j: usize) -> bool {
        u32::try_from(i).is_ok_and(|i| self.col(j).binary_search(&i).is_ok())
    }

    /// Iterator over all `(row, col)` entries in column-major order.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.ncols).flat_map(move |j| self.col(j).iter().map(move |&i| (i as usize, j)))
    }

    /// `true` when every diagonal entry `(i, i)` is present.
    pub fn has_zero_free_diagonal(&self) -> bool {
        self.is_square() && (0..self.ncols).all(|j| self.contains(j, j))
    }

    /// Transposed pattern (a column-compressed view of the rows).
    pub fn transpose(&self) -> SparsityPattern {
        let mut counts = vec![0usize; self.nrows + 1];
        for &r in &self.row_idx {
            counts[r as usize + 1] += 1;
        }
        for i in 0..self.nrows {
            counts[i + 1] += counts[i];
        }
        let col_ptr = counts.clone();
        let mut next = counts;
        let mut row_idx = vec![0u32; self.nnz()];
        for j in 0..self.ncols {
            for &r in self.col(j) {
                let r = r as usize;
                row_idx[next[r]] = j as u32;
                next[r] += 1;
            }
        }
        // Columns of the transpose are filled in increasing j, so they are
        // already sorted.
        SparsityPattern {
            nrows: self.ncols,
            ncols: self.nrows,
            col_ptr,
            row_idx,
        }
    }

    /// Pattern of `AᵀA` (square, `ncols × ncols`), including the diagonal.
    ///
    /// Entry `(i, j)` is present iff columns `i` and `j` of `A` share a row.
    /// This is the graph the column minimum-degree ordering runs on, exactly
    /// as SuperLU orders the column elimination tree's matrix.
    pub fn ata(&self) -> SparsityPattern {
        let at = self.transpose();
        let n = self.ncols;
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut row_idx = Vec::new();
        col_ptr.push(0);
        let mut mark = vec![usize::MAX; n];
        let mut scratch: Vec<u32> = Vec::new();
        for j in 0..n {
            scratch.clear();
            // Union of all rows of Aᵀ (i.e. columns of A) that intersect
            // column j of A.
            mark[j] = j;
            scratch.push(j as u32);
            for &r in self.col(j) {
                for &c in at.col(r as usize) {
                    if mark[c as usize] != j {
                        mark[c as usize] = j;
                        scratch.push(c);
                    }
                }
            }
            scratch.sort_unstable();
            row_idx.extend_from_slice(&scratch);
            col_ptr.push(row_idx.len());
        }
        SparsityPattern {
            nrows: n,
            ncols: n,
            col_ptr,
            row_idx,
        }
    }

    /// Entry-wise union of two patterns with identical dimensions.
    pub fn union(&self, other: &SparsityPattern) -> SparsityPattern {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        let mut col_ptr = Vec::with_capacity(self.ncols + 1);
        let mut row_idx = Vec::new();
        col_ptr.push(0);
        for j in 0..self.ncols {
            let (a, b) = (self.col(j), other.col(j));
            let (mut ia, mut ib) = (0, 0);
            while ia < a.len() || ib < b.len() {
                let next = match (a.get(ia), b.get(ib)) {
                    (Some(&x), Some(&y)) if x == y => {
                        ia += 1;
                        ib += 1;
                        x
                    }
                    (Some(&x), Some(&y)) if x < y => {
                        ia += 1;
                        x
                    }
                    (Some(_), Some(&y)) => {
                        ib += 1;
                        y
                    }
                    (Some(&x), None) => {
                        ia += 1;
                        x
                    }
                    (None, Some(&y)) => {
                        ib += 1;
                        y
                    }
                    (None, None) => unreachable!(),
                };
                row_idx.push(next);
            }
            col_ptr.push(row_idx.len());
        }
        SparsityPattern {
            nrows: self.nrows,
            ncols: self.ncols,
            col_ptr,
            row_idx,
        }
    }

    /// Permuted pattern `B[i][j] = A[rp[i]][cp[j]]` (see [`Permutation`] for
    /// the vector convention).
    pub fn permuted(&self, row_perm: &Permutation, col_perm: &Permutation) -> SparsityPattern {
        assert_eq!(row_perm.len(), self.nrows, "row permutation length");
        assert_eq!(col_perm.len(), self.ncols, "column permutation length");
        let mut col_ptr = Vec::with_capacity(self.ncols + 1);
        let mut row_idx = Vec::with_capacity(self.nnz());
        col_ptr.push(0);
        let mut scratch: Vec<u32> = Vec::new();
        let new_row = |&old_i: &u32| row_perm.new_of(old_i as usize) as u32;
        for new_j in 0..self.ncols {
            let old_j = col_perm.old_of(new_j);
            scratch.clear();
            scratch.extend(self.col(old_j).iter().map(new_row));
            scratch.sort_unstable();
            row_idx.extend_from_slice(&scratch);
            col_ptr.push(row_idx.len());
        }
        SparsityPattern {
            nrows: self.nrows,
            ncols: self.ncols,
            col_ptr,
            row_idx,
        }
    }

    /// The lower-triangular part (diagonal included).
    pub fn lower(&self) -> SparsityPattern {
        SparsityPattern::from_entries(
            self.nrows,
            self.ncols,
            self.entries().filter(|&(i, j)| i >= j),
        )
        .expect("subset of a valid pattern")
    }

    /// The upper-triangular part (diagonal included).
    pub fn upper(&self) -> SparsityPattern {
        SparsityPattern::from_entries(
            self.nrows,
            self.ncols,
            self.entries().filter(|&(i, j)| i <= j),
        )
        .expect("subset of a valid pattern")
    }

    /// `true` when no entry lies strictly above the diagonal.
    pub fn is_lower_triangular(&self) -> bool {
        self.entries().all(|(i, j)| i >= j)
    }

    /// `true` when no entry lies strictly below the diagonal.
    pub fn is_upper_triangular(&self) -> bool {
        self.entries().all(|(i, j)| i <= j)
    }

    /// Dense boolean dump (row-major), for tests and tiny examples.
    pub fn to_dense(&self) -> Vec<Vec<bool>> {
        let mut d = vec![vec![false; self.ncols]; self.nrows];
        for (i, j) in self.entries() {
            d[i][j] = true;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SparsityPattern {
        // 3x4:
        // x . x .
        // . x x .
        // x . . x
        SparsityPattern::from_entries(3, 4, vec![(0, 0), (2, 0), (1, 1), (0, 2), (1, 2), (2, 3)])
            .unwrap()
    }

    #[test]
    fn from_entries_sorts_and_dedups() {
        let p = SparsityPattern::from_entries(3, 2, vec![(2, 0), (0, 0), (2, 0), (1, 1)]).unwrap();
        assert_eq!(p.col(0), &[0, 2]);
        assert_eq!(p.col(1), &[1]);
        assert_eq!(p.nnz(), 3);
    }

    #[test]
    fn new_validates_invariants() {
        assert!(SparsityPattern::new(2, 2, vec![0, 1, 2], vec![0, 1]).is_ok());
        // unsorted rows in column
        assert!(SparsityPattern::new(2, 1, vec![0, 2], vec![1, 0]).is_err());
        // row out of range
        assert!(SparsityPattern::new(2, 1, vec![0, 1], vec![5]).is_err());
        // wrong col_ptr length
        assert!(SparsityPattern::new(2, 2, vec![0, 1], vec![0]).is_err());
        // non-monotone col_ptr
        assert!(SparsityPattern::new(2, 2, vec![0, 2, 1], vec![0, 1]).is_err());
    }

    #[test]
    fn contains_and_entries() {
        let p = small();
        assert!(p.contains(0, 0));
        assert!(!p.contains(1, 0));
        assert_eq!(p.entries().count(), p.nnz());
    }

    #[test]
    fn transpose_is_involutive() {
        let p = small();
        let t = p.transpose();
        assert_eq!(t.nrows(), 4);
        assert_eq!(t.ncols(), 3);
        assert!(t.contains(0, 0) && t.contains(3, 2));
        assert_eq!(t.transpose(), p);
    }

    #[test]
    fn ata_matches_bruteforce() {
        let p = small();
        let ata = p.ata();
        for i in 0..4 {
            for j in 0..4 {
                let expect = i == j || (0..3).any(|r| p.contains(r, i) && p.contains(r, j));
                assert_eq!(ata.contains(i, j), expect, "({i},{j})");
            }
        }
        assert!(ata.has_zero_free_diagonal());
    }

    #[test]
    fn union_merges_sorted() {
        let a = SparsityPattern::from_entries(3, 1, vec![(0, 0), (2, 0)]).unwrap();
        let b = SparsityPattern::from_entries(3, 1, vec![(1, 0), (2, 0)]).unwrap();
        assert_eq!(a.union(&b).col(0), &[0, 1, 2]);
    }

    #[test]
    fn permuted_matches_definition() {
        let p = small();
        let rp = Permutation::from_vec(vec![2, 0, 1]).unwrap();
        let cp = Permutation::from_vec(vec![1, 3, 0, 2]).unwrap();
        let b = p.permuted(&rp, &cp);
        for i in 0..3 {
            for j in 0..4 {
                assert_eq!(b.contains(i, j), p.contains(rp.old_of(i), cp.old_of(j)));
            }
        }
    }

    #[test]
    fn triangular_parts_partition_the_pattern() {
        let p = SparsityPattern::from_entries(
            3,
            3,
            vec![(0, 0), (2, 0), (0, 2), (1, 1), (2, 2), (1, 2)],
        )
        .unwrap();
        let lo = p.lower();
        let up = p.upper();
        assert!(lo.is_lower_triangular());
        assert!(up.is_upper_triangular());
        // lower ∪ upper = pattern; intersection = diagonal part.
        assert_eq!(lo.union(&up), p);
        assert_eq!(lo.nnz() + up.nnz() - 3, p.nnz());
        assert!(!p.is_lower_triangular());
        assert!(!p.is_upper_triangular());
        assert!(SparsityPattern::identity(4).is_lower_triangular());
        assert!(SparsityPattern::identity(4).is_upper_triangular());
    }

    #[test]
    fn identity_and_zero_free_diagonal() {
        assert!(SparsityPattern::identity(5).has_zero_free_diagonal());
        assert!(!small().has_zero_free_diagonal()); // not square
        let sq = SparsityPattern::from_entries(2, 2, vec![(0, 0), (0, 1)]).unwrap();
        assert!(!sq.has_zero_free_diagonal());
    }
}
