//! The one kernel source: a register tile, the loop skeletons built on it,
//! and the one-column steps of a triangular solve.
//!
//! The matrix kernels are generic over `MR`, the number of rows of `C` a
//! tile keeps in registers; everything is marked `#[inline(always)]`, so
//! that each entry in [`super::dispatch`] compiles it once more for its own
//! instruction set. Nothing in this file is `unsafe`, and nothing names a
//! vector type: a tile is fixed-size arrays and constant-bound loops, which
//! the compiler unrolls into whatever vectors the enclosing
//! `#[target_feature]` offers.
//!
//! Why tiling keeps the bits: an element `C(i, j)` still sees one
//! [`sub_term`] — `c ← fma(−a, s, c)`, one correctly rounded operation —
//! per listed term, in list order. A tile only changes *where* `c` waits
//! between two terms — a register instead of memory — and elements never
//! interact. A fused multiply-add has one IEEE-754 result, so the
//! instantiations compiled with the `fma` feature (one instruction) and the
//! baseline (`f64::mul_add`, the C library's `fma`, correctly rounded in
//! software where the target has no instruction) agree bit for bit. The
//! one-column steps at the end apply the same terms in the same order as
//! the matrix kernels do on one column, without a tile; the dot product
//! after them is the one step with a contract of its own ([`dot`]).

use crate::view::{MatMut, MatRef};

/// One term applied to one element: `c − a·s` with a single rounding,
/// `fma(−a, s, c)`. Every kernel applies its terms through this.
#[inline(always)]
pub(crate) fn sub_term(c: f64, a: f64, s: f64) -> f64 {
    (-a).mul_add(s, c)
}

/// Most terms (inner indices) applied per load/store of a tile; also the
/// size of the stack scratch, so no kernel allocates.
pub(crate) const KB: usize = 64;
/// Columns of `C` a full tile holds. Remainder columns use 1-column tiles.
pub(crate) const NR: usize = 4;
/// Strip width of the triangular solves and of the panel LU: the rows
/// (columns) eliminated by plain substitution before one tile pass updates
/// everything beyond them.
pub(crate) const SB: usize = 4;

/// The terms of one update `C[.., N cols] −= Σ_t col_t · s_t`: the `A`
/// columns whose scalar group is not all zero, with those scalars, in the
/// order they are to be applied. Compacted once, then reused by every row
/// tile.
pub(crate) struct Terms<'a, const N: usize, const CAP: usize> {
    cols: [&'a [f64]; CAP],
    s: [[f64; N]; CAP],
    len: usize,
}

impl<'a, const N: usize, const CAP: usize> Terms<'a, N, CAP> {
    #[inline(always)]
    pub(crate) fn new() -> Self {
        Terms {
            cols: [&[]; CAP],
            s: [[0.0; N]; CAP],
            len: 0,
        }
    }

    /// Forgets the terms; the scratch is reused.
    #[inline(always)]
    pub(crate) fn clear(&mut self) {
        self.len = 0;
    }

    /// Appends the term `col · s` unless every scalar of `s` is zero (of
    /// either sign; a NaN is not zero). At most `CAP` terms.
    #[inline(always)]
    pub(crate) fn push(&mut self, col: &'a [f64], s: [f64; N]) {
        if s.iter().all(|&v| v == 0.0) {
            return;
        }
        self.cols[self.len] = col;
        self.s[self.len] = s;
        self.len += 1;
    }

    /// Applies the terms to `N` columns of `C` (all as long as the shortest
    /// term column, or shorter), `MR` rows at a time, then 4, then 1.
    #[inline(always)]
    pub(crate) fn apply<const MR: usize>(&self, mut c: [&mut [f64]; N]) {
        if self.len == 0 {
            return;
        }
        let m = c[0].len();
        let mut i = 0;
        while i + MR <= m {
            self.tile::<MR>(&mut c, i);
            i += MR;
        }
        while i + 4 <= m {
            self.tile::<4>(&mut c, i);
            i += 4;
        }
        while i < m {
            self.tile::<1>(&mut c, i);
            i += 1;
        }
    }

    /// Rows `i..i + R` of the `N` columns: loaded once, updated by every
    /// term in order, stored once.
    #[inline(always)]
    fn tile<const R: usize>(&self, c: &mut [&mut [f64]; N], i: usize) {
        let mut acc = [[0.0f64; R]; N];
        for q in 0..N {
            acc[q].copy_from_slice(&c[q][i..i + R]);
        }
        for (col, s) in self.cols[..self.len].iter().zip(&self.s[..self.len]) {
            let a: &[f64; R] = col[i..i + R].try_into().expect("slice of length R");
            for q in 0..N {
                for r in 0..R {
                    acc[q][r] = sub_term(acc[q][r], a[r], s[q]);
                }
            }
        }
        for q in 0..N {
            c[q][i..i + R].copy_from_slice(&acc[q]);
        }
    }
}

/// `C ← C − A · B`; see [`crate::Dispatch::gemm_sub`].
#[inline(always)]
pub(crate) fn gemm_sub<const MR: usize>(mut c: MatMut<'_>, a: MatRef<'_>, b: MatRef<'_>) {
    assert_eq!(a.nrows(), c.nrows(), "gemm_sub: row mismatch");
    assert_eq!(b.ncols(), c.ncols(), "gemm_sub: column mismatch");
    assert_eq!(a.ncols(), b.nrows(), "gemm_sub: inner dimension mismatch");
    let (n, inner) = (c.ncols(), a.ncols());
    if c.nrows() == 0 {
        return;
    }
    let quads = n / NR * NR;
    // Initializing the scratch costs about as much as a small update, so
    // the quads share one.
    let mut quad = Terms::<NR, KB>::new();
    for k0 in (0..inner).step_by(KB) {
        let k1 = (k0 + KB).min(inner);
        for j in (0..quads).step_by(NR) {
            quad.clear();
            for k in k0..k1 {
                quad.push(a.col(k), std::array::from_fn(|q| b[(k, j + q)]));
            }
            quad.apply::<MR>(c.cols_mut(j));
        }
        for j in quads..n {
            let mut single = Terms::<1, KB>::new();
            for k in k0..k1 {
                single.push(a.col(k), [b[(k, j)]]);
            }
            single.apply::<MR>(c.cols_mut(j));
        }
    }
}

/// Forward elimination of columns `k0..k1` of a unit-lower `L` (which may
/// be taller than wide) on one column group `x`: rows `k0..k1` by plain
/// substitution, every row below by one tile pass.
#[inline(always)]
pub(crate) fn forward_strip<const MR: usize, const N: usize>(
    l: MatRef<'_>,
    x: &mut [&mut [f64]; N],
    k0: usize,
    k1: usize,
) {
    let mut terms = Terms::<N, SB>::new();
    for k in k0..k1 {
        let l_col = l.col(k);
        for xq in x.iter_mut() {
            let s = xq[k];
            if s == 0.0 {
                continue;
            }
            for i in k + 1..k1 {
                xq[i] = sub_term(xq[i], l_col[i], s);
            }
        }
        terms.push(&l_col[k1..], std::array::from_fn(|q| x[q][k]));
    }
    terms.apply::<MR>(x.each_mut().map(|xq| &mut xq[k1..]));
}

/// `X ← L⁻¹ · X`; see [`crate::Dispatch::trsm_lower_unit`].
#[inline(always)]
pub(crate) fn trsm_lower_unit<const MR: usize>(l: MatRef<'_>, mut x: MatMut<'_>) {
    assert_eq!(l.nrows(), l.ncols(), "trsm: L must be square");
    assert_eq!(l.nrows(), x.nrows(), "trsm: dimension mismatch");
    let quads = x.ncols() / NR * NR;
    for j in (0..quads).step_by(NR) {
        lower_group::<MR, NR>(l, x.cols_mut(j));
    }
    for j in quads..x.ncols() {
        lower_group::<MR, 1>(l, x.cols_mut(j));
    }
}

#[inline(always)]
fn lower_group<const MR: usize, const N: usize>(l: MatRef<'_>, mut x: [&mut [f64]; N]) {
    let n = l.nrows();
    for k0 in (0..n).step_by(SB) {
        forward_strip::<MR, N>(l, &mut x, k0, (k0 + SB).min(n));
    }
}

/// Backward elimination of columns `k0..k1` of an upper triangular `U` on
/// one column group: rows `k0..k1` by plain substitution (bottom up), every
/// row above by one tile pass whose terms run in the same descending order.
#[inline(always)]
fn backward_strip<const MR: usize, const N: usize>(
    u: MatRef<'_>,
    x: &mut [&mut [f64]; N],
    k0: usize,
    k1: usize,
) {
    let mut terms = Terms::<N, SB>::new();
    for k in (k0..k1).rev() {
        let u_col = u.col(k);
        let diag = u_col[k];
        debug_assert!(diag != 0.0, "trsm_upper: zero diagonal at {k}");
        for xq in x.iter_mut() {
            xq[k] /= diag;
            let s = xq[k];
            if s == 0.0 {
                continue;
            }
            for i in k0..k {
                xq[i] = sub_term(xq[i], u_col[i], s);
            }
        }
        terms.push(&u_col[..k0], std::array::from_fn(|q| x[q][k]));
    }
    terms.apply::<MR>(x.each_mut().map(|xq| &mut xq[..k0]));
}

/// `X ← U⁻¹ · X`; see [`crate::Dispatch::trsm_upper`].
#[inline(always)]
pub(crate) fn trsm_upper<const MR: usize>(u: MatRef<'_>, mut x: MatMut<'_>) {
    assert_eq!(u.nrows(), u.ncols(), "trsm: U must be square");
    assert_eq!(u.nrows(), x.nrows(), "trsm: dimension mismatch");
    let quads = x.ncols() / NR * NR;
    for j in (0..quads).step_by(NR) {
        upper_group::<MR, NR>(u, x.cols_mut(j));
    }
    for j in quads..x.ncols() {
        upper_group::<MR, 1>(u, x.cols_mut(j));
    }
}

#[inline(always)]
fn upper_group<const MR: usize, const N: usize>(u: MatRef<'_>, mut x: [&mut [f64]; N]) {
    for k1 in (1..=u.nrows()).rev().step_by(SB) {
        backward_strip::<MR, N>(u, &mut x, k1.saturating_sub(SB), k1);
    }
}

/// `x ← L⁻¹ · x` on the unit-lower top `w × w` of `panel` (`w = x.len()`),
/// then `y ← −L_below · x` on the `y.len()` rows below it: one pass over the
/// panel. Each element sees the terms of [`trsm_lower_unit`] and then of
/// [`gemm_sub`] into a zeroed `y`, on one column, in their order.
#[inline(always)]
pub(crate) fn forward_column(panel: MatRef<'_>, x: &mut [f64], y: &mut [f64]) {
    let (w, m) = (x.len(), y.len());
    assert!(
        panel.ncols() >= w && panel.nrows() >= w + m,
        "forward_column: panel too small"
    );
    y.fill(0.0);
    for c in 0..w {
        let s = x[c];
        if s == 0.0 {
            continue;
        }
        let col = &panel.col(c)[..w + m];
        for (xr, &v) in x[c + 1..].iter_mut().zip(&col[c + 1..w]) {
            *xr = sub_term(*xr, v, s);
        }
        for (yr, &v) in y.iter_mut().zip(&col[w..]) {
            *yr = sub_term(*yr, v, s);
        }
    }
}

/// `x ← U⁻¹ · x` on the upper `w × w` top of `panel` (`w = x.len()`), the
/// terms of [`trsm_upper`] on one column.
#[inline(always)]
pub(crate) fn backward_column(panel: MatRef<'_>, x: &mut [f64]) {
    assert!(
        panel.ncols() >= x.len() && panel.nrows() >= x.len(),
        "backward_column: panel too small"
    );
    for c in (0..x.len()).rev() {
        let col = panel.col(c);
        x[c] /= col[c];
        let s = x[c];
        if s == 0.0 {
            continue;
        }
        for (xr, &v) in x[..c].iter_mut().zip(col) {
            *xr = sub_term(*xr, v, s);
        }
    }
}

/// `y ← y − A · x` for the entries of `x` in order, the terms of
/// [`gemm_sub`] on one column.
#[inline(always)]
pub(crate) fn gemv_sub(y: &mut [f64], a: MatRef<'_>, x: impl ExactSizeIterator<Item = f64>) {
    assert_eq!(a.nrows(), y.len(), "gemv_sub: row mismatch");
    assert_eq!(a.ncols(), x.len(), "gemv_sub: inner dimension mismatch");
    for (k, s) in x.enumerate() {
        if s == 0.0 {
            continue;
        }
        for (yr, &v) in y.iter_mut().zip(a.col(k)) {
            *yr = sub_term(*yr, v, s);
        }
    }
}

/// Accumulators of [`dot`]: term `r` goes to lane `r mod LANES`.
const LANES: usize = 8;

/// `Σ_r a[r]·x[r]` split across [`LANES`] independent accumulators, so a
/// long dot is not one dependent chain of adds; the lane contract is
/// stated on [`super::Fused::dot`].
#[inline(always)]
pub(crate) fn dot(a: &[f64], x: &[f64]) -> f64 {
    assert_eq!(a.len(), x.len(), "dot: length mismatch");
    let mut lane = [0.0; LANES];
    let (ca, cx) = (a.chunks_exact(LANES), x.chunks_exact(LANES));
    let (ta, tx) = (ca.remainder(), cx.remainder());
    for (va, vx) in ca.zip(cx) {
        for l in 0..LANES {
            lane[l] = va[l].mul_add(vx[l], lane[l]);
        }
    }
    for (l, (&v, &s)) in ta.iter().zip(tx).enumerate() {
        lane[l] = v.mul_add(s, lane[l]);
    }
    let m: [f64; 4] = std::array::from_fn(|l| lane[l] + lane[l + 4]);
    (m[0] + m[2]) + (m[1] + m[3])
}
