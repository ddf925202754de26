//! Borrowed column-major matrix views with a leading dimension.
//!
//! The zero-copy panel storage keeps a block column's whole L-region as one
//! tall [`crate::DenseMat`]; the individual sub-blocks the kernels operate
//! on are then **row ranges** of that panel — column-major with a leading
//! dimension (`ld`) larger than their own row count. [`MatRef`]/[`MatMut`]
//! describe exactly that: element `(i, j)` lives at `data[i + j * ld]`, and
//! column `j` is still one contiguous slice of length `nrows`, so the
//! kernels keep their unit-stride inner loops.

use crate::DenseMat;
use std::ops::Range;

/// An immutable column-major view: element `(i, j)` at `data[i + j * ld]`.
#[derive(Clone, Copy)]
pub struct MatRef<'a> {
    data: &'a [f64],
    nrows: usize,
    ncols: usize,
    ld: usize,
}

impl<'a> MatRef<'a> {
    /// Wraps a raw column-major slice. `ld ≥ nrows`, and `data` must cover
    /// the last element `(nrows-1, ncols-1)`.
    pub fn from_slice(data: &'a [f64], nrows: usize, ncols: usize, ld: usize) -> Self {
        assert!(ld >= nrows.max(1), "leading dimension below row count");
        if ncols > 0 && nrows > 0 {
            assert!(
                (ncols - 1) * ld + nrows <= data.len(),
                "view exceeds backing slice"
            );
        }
        MatRef {
            data,
            nrows,
            ncols,
            ld,
        }
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

    /// Column `j` — contiguous even in a strided view.
    #[inline]
    pub fn col(&self, j: usize) -> &'a [f64] {
        &self.data[j * self.ld..j * self.ld + self.nrows]
    }

    /// Copies the view into an owned matrix (tests/diagnostics only).
    pub fn to_dense(&self) -> DenseMat {
        DenseMat::from_fn(self.nrows, self.ncols, |i, j| self[(i, j)])
    }
}

impl std::ops::Index<(usize, usize)> for MatRef<'_> {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[i + j * self.ld]
    }
}

/// A mutable column-major view with a leading dimension.
pub struct MatMut<'a> {
    data: &'a mut [f64],
    nrows: usize,
    ncols: usize,
    ld: usize,
}

impl<'a> MatMut<'a> {
    /// Wraps a raw column-major slice mutably; see [`MatRef::from_slice`].
    pub fn from_slice(data: &'a mut [f64], nrows: usize, ncols: usize, ld: usize) -> Self {
        assert!(ld >= nrows.max(1), "leading dimension below row count");
        if ncols > 0 && nrows > 0 {
            assert!(
                (ncols - 1) * ld + nrows <= data.len(),
                "view exceeds backing slice"
            );
        }
        MatMut {
            data,
            nrows,
            ncols,
            ld,
        }
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

    /// Leading dimension of the underlying storage.
    #[inline]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Column `j` immutably.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.ld..j * self.ld + self.nrows]
    }

    /// Column `j` mutably — contiguous even in a strided view.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.ld..j * self.ld + self.nrows]
    }

    /// Reborrows as an immutable view.
    #[inline]
    pub fn rb(&self) -> MatRef<'_> {
        MatRef {
            data: self.data,
            nrows: self.nrows,
            ncols: self.ncols,
            ld: self.ld,
        }
    }

    /// Swaps rows `r1` and `r2` across all columns.
    pub fn swap_rows(&mut self, r1: usize, r2: usize) {
        if r1 == r2 {
            return;
        }
        for j in 0..self.ncols {
            self.data.swap(r1 + j * self.ld, r2 + j * self.ld);
        }
    }

    /// Splits columns `j1 < j2` into two disjoint mutable column slices
    /// (columns never overlap because `ld ≥ nrows`).
    pub fn two_cols_mut(&mut self, j1: usize, j2: usize) -> (&mut [f64], &mut [f64]) {
        assert!(j1 < j2 && j2 < self.ncols, "column pair out of order/range");
        let (m, ld) = (self.nrows, self.ld);
        let (_, rest) = self.data.split_at_mut(j1 * ld);
        let (a, rest) = rest.split_at_mut((j2 - j1) * ld);
        (&mut a[..m], &mut rest[..m])
    }

    /// Splits `N` consecutive columns `j..j + N` into disjoint mutable
    /// column slices (columns never overlap because `ld ≥ nrows`).
    #[inline(always)]
    pub fn cols_mut<const N: usize>(&mut self, j: usize) -> [&mut [f64]; N] {
        assert!(j + N <= self.ncols, "column group out of range");
        let (m, ld) = (self.nrows, self.ld);
        if m == 0 {
            // A view without rows may have no storage to offset into.
            return std::array::from_fn(|_| Default::default());
        }
        let mut rest = &mut self.data[j * ld..];
        std::array::from_fn(|q| {
            // The last column of the storage may stop after `nrows`.
            let take = if q + 1 < N { ld } else { m };
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(take);
            rest = tail;
            &mut head[..m]
        })
    }

    /// Splits the view into columns `..j` and columns `j..`.
    pub fn split_at_col(&mut self, j: usize) -> (MatMut<'_>, MatMut<'_>) {
        assert!(j <= self.ncols, "column split out of range");
        let at = (j * self.ld).min(self.data.len());
        let (left, right) = self.data.split_at_mut(at);
        let view = |data, ncols| MatMut {
            data,
            nrows: self.nrows,
            ncols,
            ld: self.ld,
        };
        (view(left, j), view(right, self.ncols - j))
    }
}

impl std::ops::Index<(usize, usize)> for MatMut<'_> {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[i + j * self.ld]
    }
}

impl std::ops::IndexMut<(usize, usize)> for MatMut<'_> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[i + j * self.ld]
    }
}

impl DenseMat {
    /// The whole matrix as an immutable view (`ld = nrows`).
    #[inline]
    pub fn as_view(&self) -> MatRef<'_> {
        MatRef {
            data: self.data(),
            nrows: self.nrows(),
            ncols: self.ncols(),
            ld: self.nrows().max(1),
        }
    }

    /// The whole matrix as a mutable view (`ld = nrows`).
    #[inline]
    pub fn as_view_mut(&mut self) -> MatMut<'_> {
        let (nrows, ncols) = (self.nrows(), self.ncols());
        MatMut {
            data: self.data_mut(),
            nrows,
            ncols,
            ld: nrows.max(1),
        }
    }

    /// Rows `r` of every column, as a strided immutable view — how a
    /// sub-block of a stacked panel is read without copying.
    pub fn row_range(&self, r: Range<usize>) -> MatRef<'_> {
        assert!(r.start <= r.end && r.end <= self.nrows(), "row range");
        let ld = self.nrows();
        MatRef {
            data: &self.data()[r.start..],
            nrows: r.end - r.start,
            ncols: self.ncols(),
            ld: ld.max(1),
        }
    }

    /// Rows `r` of every column, as a strided mutable view.
    pub fn row_range_mut(&mut self, r: Range<usize>) -> MatMut<'_> {
        assert!(r.start <= r.end && r.end <= self.nrows(), "row range");
        let ld = self.nrows();
        let ncols = self.ncols();
        MatMut {
            data: &mut self.data_mut()[r.start..],
            nrows: r.end - r.start,
            ncols,
            ld: ld.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_range_views_share_storage() {
        let m = DenseMat::from_fn(5, 3, |i, j| (i * 10 + j) as f64);
        let v = m.row_range(2..4);
        assert_eq!(v.nrows(), 2);
        assert_eq!(v.ncols(), 3);
        assert_eq!(v[(0, 0)], 20.0);
        assert_eq!(v[(1, 2)], 32.0);
        assert_eq!(v.col(1), &[21.0, 31.0]);
        assert_eq!(v.to_dense()[(0, 1)], 21.0);
    }

    #[test]
    fn mutable_views_write_through() {
        let mut m = DenseMat::zeros(4, 2);
        {
            let mut v = m.row_range_mut(1..3);
            v[(0, 0)] = 5.0;
            v.col_mut(1)[1] = 7.0;
            v.swap_rows(0, 1);
        }
        assert_eq!(m[(2, 0)], 5.0);
        assert_eq!(m[(1, 1)], 7.0);
    }

    #[test]
    fn column_group_split_is_disjoint_and_aligned() {
        let mut m = DenseMat::from_fn(3, 5, |i, j| (i + 100 * j) as f64);
        let mut v = m.row_range_mut(1..3);
        let [c0, c1, c2, c3] = v.cols_mut::<4>(1);
        assert_eq!(c0[0], 101.0);
        assert_eq!(c1[1], 202.0);
        assert_eq!(c2[0], 301.0);
        assert_eq!(c3[1], 402.0);
        c3[0] = -1.0;
        assert_eq!(m[(1, 4)], -1.0);
    }

    #[test]
    fn column_split_yields_both_sides() {
        let mut m = DenseMat::from_fn(3, 4, |i, j| (i + 10 * j) as f64);
        let mut v = m.row_range_mut(1..3);
        let (left, mut right) = v.split_at_col(3);
        assert_eq!((left.ncols(), right.ncols()), (3, 1));
        assert_eq!(left.col(2), &[21.0, 22.0]);
        right.col_mut(0)[1] = -1.0;
        let (all, none) = v.split_at_col(4);
        assert_eq!((all.ncols(), none.ncols()), (4, 0));
        assert_eq!(m[(2, 3)], -1.0);
    }

    #[test]
    #[should_panic(expected = "view exceeds backing slice")]
    fn from_slice_validates_extent() {
        let data = [0.0; 5];
        let _ = MatRef::from_slice(&data, 2, 2, 4);
    }
}
