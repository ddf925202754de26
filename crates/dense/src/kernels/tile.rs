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
//!
//! The triangular solves and the panel LU eliminate strips of [`SB`]
//! columns: one strip body per width and direction ([`strip_body`])
//! substitutes on fixed arrays loaded from the strip's rows, and one tile
//! pass applies the strip's terms to every row beyond it. Inside a strip a
//! column whose scalar is zero is skipped by a select that keeps the old
//! value, not by a branch, so the constant-bound body unrolls into
//! straight-line code with the same bits. A tile pass ends with one 8-row
//! tile when `MR` is wider, before the 4-row and 1-row ones.

use crate::view::{MatMut, MatRef};
use std::ops::Range;

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
    /// term column, or shorter), `MR` rows at a time, then 8 (when `MR` is
    /// wider), then 4, then 1.
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
        if MR > 8 && i + 8 <= m {
            self.tile::<8>(&mut c, i);
            i += 8;
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
    let n = c.ncols();
    if c.nrows() == 0 {
        return;
    }
    let quads = n / NR * NR;
    // Initializing a scratch costs about as much as a small update, so the
    // quads share one, the remainder columns another, each built only when
    // it has columns. Groups never share an element, so running all quads
    // before the remainder keeps every element's term order.
    if quads > 0 {
        gemm_groups::<MR, NR>(&mut c, a, b, 0..quads);
    }
    if quads < n {
        gemm_groups::<MR, 1>(&mut c, a, b, quads..n);
    }
}

/// [`gemm_sub`] on the columns `cols` of `C`, in groups of `N`, one
/// `KB`-block of the inner index after another.
#[inline(always)]
fn gemm_groups<const MR: usize, const N: usize>(
    c: &mut MatMut<'_>,
    a: MatRef<'_>,
    b: MatRef<'_>,
    cols: Range<usize>,
) {
    let inner = a.ncols();
    let mut terms = Terms::<N, KB>::new();
    for k0 in (0..inner).step_by(KB) {
        let k1 = (k0 + KB).min(inner);
        for j in cols.clone().step_by(N) {
            terms.clear();
            for k in k0..k1 {
                terms.push(a.col(k), std::array::from_fn(|q| b[(k, j + q)]));
            }
            terms.apply::<MR>(c.cols_mut(j));
        }
    }
}

/// Elimination of columns `k0..k1` (at most [`SB`]) of a triangle `t` on
/// one column group `x`: rows `k0..k1` by plain substitution
/// ([`strip_body`]), every row beyond them by one tile pass. Forward on a
/// unit-lower `t` (which may be taller than wide) when `UPPER` is false,
/// the rows below updated in ascending column order; backward on an upper
/// `t` when it is true, the rows above in descending order.
#[inline(always)]
pub(crate) fn strip<const MR: usize, const N: usize, const UPPER: bool>(
    t: MatRef<'_>,
    x: &mut [&mut [f64]; N],
    k0: usize,
    k1: usize,
) {
    let mut terms = Terms::<N, SB>::new();
    let rest = if UPPER { 0..k0 } else { k1..t.nrows() };
    match k1 - k0 {
        4 => strip_body::<N, 4, UPPER>(t, x, k0, rest.clone(), &mut terms),
        3 => strip_body::<N, 3, UPPER>(t, x, k0, rest.clone(), &mut terms),
        2 => strip_body::<N, 2, UPPER>(t, x, k0, rest.clone(), &mut terms),
        1 => strip_body::<N, 1, UPPER>(t, x, k0, rest.clone(), &mut terms),
        w => unreachable!("strip width {w} outside 1..=SB"),
    }
    terms.apply::<MR>(x.each_mut().map(|xq| &mut xq[rest.clone()]));
}

/// The substitution of one strip of width `W` on fixed arrays: the
/// strip's `W × W` block of `t` and the `W` rows of each column are loaded
/// once, eliminated in registers (an upper `t` divides each row by its
/// diagonal first), and stored once; then the strip's columns on the rows
/// `rest` are pushed as the tile pass's terms, in elimination order. A column
/// whose scalar is zero keeps its old values by select, exactly as a
/// skipped loop iteration did.
#[inline(always)]
fn strip_body<'a, const N: usize, const W: usize, const UPPER: bool>(
    t: MatRef<'a>,
    x: &mut [&mut [f64]; N],
    k0: usize,
    rest: Range<usize>,
    terms: &mut Terms<'a, N, SB>,
) {
    let k1 = k0 + W;
    let cols: [&'a [f64]; W] = std::array::from_fn(|b| t.col(k0 + b));
    let tri: [&[f64; W]; W] = cols.map(|c| c[k0..k1].try_into().expect("strip rows"));
    // `v[a][q]` is row `k0 + a` of column `q`: a step is one `N`-lane op.
    let mut v: [[f64; N]; W] = std::array::from_fn(|a| std::array::from_fn(|q| x[q][k0 + a]));
    let order = |i: usize| if UPPER { W - 1 - i } else { i };
    for b in (0..W).map(order) {
        debug_assert!(!UPPER || tri[b][b] != 0.0, "trsm_upper: zero diagonal");
        if UPPER {
            for q in 0..N {
                v[b][q] /= tri[b][b];
            }
        }
        let s = v[b];
        for a in if UPPER { 0..b } else { b + 1..W } {
            let l = tri[b][a];
            for q in 0..N {
                let old = v[a][q];
                v[a][q] = if s[q] == 0.0 {
                    old
                } else {
                    sub_term(old, l, s[q])
                };
            }
        }
    }
    for (q, xq) in x.iter_mut().enumerate() {
        for a in 0..W {
            xq[k0 + a] = v[a][q];
        }
    }
    for b in (0..W).map(order) {
        terms.push(&cols[b][rest.clone()], v[b]);
    }
}

/// `X ← L⁻¹ · X` on a unit-lower `t` when `UPPER` is false, `X ← U⁻¹ · X`
/// on an upper one when it is true; see [`crate::Dispatch::trsm_lower_unit`]
/// and [`crate::Dispatch::trsm_upper`]. Strips run from the top for `L`,
/// and are aligned to the bottom for `U`.
#[inline(always)]
pub(crate) fn trsm<const MR: usize, const UPPER: bool>(t: MatRef<'_>, mut x: MatMut<'_>) {
    assert_eq!(t.nrows(), t.ncols(), "trsm: the triangle must be square");
    assert_eq!(t.nrows(), x.nrows(), "trsm: dimension mismatch");
    let quads = x.ncols() / NR * NR;
    for j in (0..quads).step_by(NR) {
        trsm_group::<MR, NR, UPPER>(t, x.cols_mut(j));
    }
    for j in quads..x.ncols() {
        trsm_group::<MR, 1, UPPER>(t, x.cols_mut(j));
    }
}

#[inline(always)]
fn trsm_group<const MR: usize, const N: usize, const UPPER: bool>(
    t: MatRef<'_>,
    mut x: [&mut [f64]; N],
) {
    let n = t.nrows();
    for i in (0..n).step_by(SB) {
        let k1 = if UPPER { n - i } else { (i + SB).min(n) };
        let k0 = if UPPER { k1.saturating_sub(SB) } else { i };
        strip::<MR, N, UPPER>(t, &mut x, k0, k1);
    }
}

/// `x ← L⁻¹ · x` on the unit-lower top `w × w` of `panel` (`w = x.len()`),
/// then `y ← −L_below · x` on the `y.len()` rows below it: one pass over the
/// panel. Each element sees the terms of [`trsm`] and then of
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
/// terms of [`trsm`] on one column.
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
