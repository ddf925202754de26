//! BLAS-3 style kernels: `gemm` and `trsm` on column-major matrices.
//!
//! The kernels operate on strided views ([`crate::MatRef`] /
//! [`crate::MatMut`]) so sub-blocks of a stacked supernode panel feed them
//! **in place** — no gather into temporaries. The [`DenseMat`] entry points
//! are thin wrappers over whole-matrix views.
//!
//! All of them — and the panel LU — are one source, `tile`, in which an
//! `MR × 4` tile of the updated matrix stays in registers while a block of
//! inner indices is applied to it. [`Dispatch`] holds the instantiation
//! (baseline, AVX2 + FMA, AVX-512F + FMA) a factorization resolved **once** from its
//! [`KernelChoice`]; the free functions here are the baseline one. Every
//! instantiation obeys the contract spelled out on [`Dispatch::gemm_sub`].

pub mod dispatch;
pub(crate) mod tile;

pub use dispatch::{Dispatch, Fused, KernelChoice};

use crate::DenseMat;

/// `C ← C − A · B` on owned matrices, baseline instantiation; see
/// [`Dispatch::gemm_sub`].
pub fn gemm_sub(c: &mut DenseMat, a: &DenseMat, b: &DenseMat) {
    Dispatch::portable().gemm_sub(c.as_view_mut(), a.as_view(), b.as_view());
}

/// `X ← L⁻¹ · X` (`L` unit lower triangular) on owned matrices, baseline
/// instantiation; see [`Dispatch::trsm_lower_unit`].
pub fn trsm_lower_unit(l: &DenseMat, x: &mut DenseMat) {
    Dispatch::portable().trsm_lower_unit(l.as_view(), x.as_view_mut());
}

/// `X ← U⁻¹ · X` (`U` upper triangular) on owned matrices, baseline
/// instantiation; see [`Dispatch::trsm_upper`].
pub fn trsm_upper(u: &DenseMat, x: &mut DenseMat) {
    Dispatch::portable().trsm_upper(u.as_view(), x.as_view_mut());
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_mat(r: usize, c: usize, rng: &mut SmallRng) -> DenseMat {
        DenseMat::from_fn(r, c, |_, _| rng.gen_range(-1.0..1.0))
    }

    /// Each element is its own chain of fused terms `c ← fma(−a, s, c)` in
    /// ascending inner index, bit for bit (random data: no zero scalars to
    /// skip).
    #[test]
    fn gemm_sub_matches_naive() {
        let mut rng = SmallRng::seed_from_u64(1);
        for (m, k, n) in [(1, 1, 1), (3, 2, 4), (7, 7, 7), (65, 70, 33), (130, 5, 2)] {
            let a = random_mat(m, k, &mut rng);
            let b = random_mat(k, n, &mut rng);
            let mut c = random_mat(m, n, &mut rng);
            let mut expect = c.clone();
            for j in 0..n {
                for i in 0..m {
                    for t in 0..k {
                        expect[(i, j)] = (-a[(i, t)]).mul_add(b[(t, j)], expect[(i, j)]);
                    }
                }
            }
            gemm_sub(&mut c, &a, &b);
            assert_eq!(c.data(), expect.data(), "{m}x{k}x{n}");
        }
    }

    /// Strided row-range views must produce bitwise the same results as
    /// gathering the sub-blocks into compact matrices first.
    #[test]
    fn strided_gemm_is_bitwise_identical_to_compact() {
        let mut rng = SmallRng::seed_from_u64(8);
        // A tall "panel" whose row ranges play L(i, k) and C.
        let panel = random_mat(40, 6, &mut rng);
        let b = random_mat(6, 6, &mut rng);
        let mut c_panel = random_mat(40, 6, &mut rng);
        let c_orig = c_panel.clone();
        for (ar, cr) in [((3, 13), (20, 30)), ((0, 6), (34, 40)), ((7, 8), (0, 1))] {
            // Compact reference.
            let a_cmp = panel.row_range(ar.0..ar.1).to_dense();
            let mut c_cmp = c_orig.row_range(cr.0..cr.1).to_dense();
            gemm_sub(&mut c_cmp, &a_cmp, &b);
            // Strided in place.
            c_panel = c_orig.clone();
            Dispatch::portable().gemm_sub(
                c_panel.row_range_mut(cr.0..cr.1),
                panel.row_range(ar.0..ar.1),
                b.as_view(),
            );
            let got = c_panel.row_range(cr.0..cr.1).to_dense();
            assert_eq!(got.data(), c_cmp.data(), "rows {ar:?} -> {cr:?}");
        }
    }

    #[test]
    fn strided_trsm_matches_compact() {
        let mut rng = SmallRng::seed_from_u64(9);
        let panel = random_mat(20, 5, &mut rng);
        let l = panel.row_range(0..5); // top square as unit-lower L
        let mut x_panel = random_mat(20, 5, &mut rng);
        let x_orig = x_panel.clone();
        let mut x_cmp = x_orig.row_range(10..15).to_dense();
        trsm_lower_unit(&l.to_dense(), &mut x_cmp);
        Dispatch::portable().trsm_lower_unit(l, x_panel.row_range_mut(10..15));
        assert_eq!(x_panel.row_range(10..15).to_dense().data(), x_cmp.data());
    }

    #[test]
    fn trsm_lower_unit_solves() {
        let mut rng = SmallRng::seed_from_u64(2);
        for n in [1usize, 2, 5, 20, 64] {
            // Build a unit lower triangular L (junk above the diagonal must
            // be ignored).
            let mut l = random_mat(n, n, &mut rng);
            for i in 0..n {
                l[(i, i)] = 123.0; // must be treated as 1
            }
            let x_true = random_mat(n, 3, &mut rng);
            // b = L_unit * x_true
            let mut l_unit = DenseMat::identity(n);
            for j in 0..n {
                for i in j + 1..n {
                    l_unit[(i, j)] = l[(i, j)];
                }
            }
            let mut b = l_unit.matmul(&x_true);
            trsm_lower_unit(&l, &mut b);
            for j in 0..3 {
                for i in 0..n {
                    assert!((b[(i, j)] - x_true[(i, j)]).abs() < 1e-9, "n={n}");
                }
            }
        }
    }

    #[test]
    fn trsm_upper_solves() {
        let mut rng = SmallRng::seed_from_u64(3);
        for n in [1usize, 2, 6, 31] {
            let mut u = random_mat(n, n, &mut rng);
            for i in 0..n {
                u[(i, i)] = 2.0 + rng.gen_range(0.0..1.0); // well conditioned
            }
            let mut u_clean = DenseMat::zeros(n, n);
            for j in 0..n {
                for i in 0..=j {
                    u_clean[(i, j)] = u[(i, j)];
                }
            }
            let x_true = random_mat(n, 2, &mut rng);
            let mut b = u_clean.matmul(&x_true);
            trsm_upper(&u, &mut b);
            for j in 0..2 {
                for i in 0..n {
                    assert!((b[(i, j)] - x_true[(i, j)]).abs() < 1e-9, "n={n}");
                }
            }
        }
    }

    #[test]
    fn gemm_handles_empty_dimensions() {
        let a = DenseMat::zeros(3, 0);
        let b = DenseMat::zeros(0, 2);
        let mut c = DenseMat::from_fn(3, 2, |i, j| (i + j) as f64);
        let before = c.clone();
        gemm_sub(&mut c, &a, &b);
        assert_eq!(c, before);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn gemm_validates_dims() {
        let a = DenseMat::zeros(2, 3);
        let b = DenseMat::zeros(4, 2);
        let mut c = DenseMat::zeros(2, 2);
        gemm_sub(&mut c, &a, &b);
    }
}
