//! Sparse-matrix substrate for `parsplu`.
//!
//! This crate provides the data structures every other stage of the pipeline
//! is built on:
//!
//! * [`SparsityPattern`] — a compressed column-major index structure without
//!   values, used by the symbolic algorithms (static symbolic factorization,
//!   elimination forests, supernode detection).
//! * [`CooMatrix`], [`CscMatrix`] — numeric sparse storage in triplet and
//!   compressed-column form.
//! * [`Permutation`] — row/column permutations with cached inverses, the
//!   currency of the ordering and postordering steps.
//! * [`io`] — Matrix Market and Harwell–Boeing readers/writers so real
//!   collection files can be substituted for the synthetic generators.
//!
//! Everything is written from scratch: no external sparse or BLAS crates.

// Index-based loops are the natural idiom for the numerical kernels and
// symbolic algorithms in this crate; iterator rewrites obscure the maths.
#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coo;
mod csc;
mod error;
pub mod io;
mod pattern;
mod perm;
pub mod scaling;
pub mod stats;

pub use coo::CooMatrix;
pub use csc::{CscMatrix, CscRef};
pub use error::SparseError;
pub use pattern::SparsityPattern;
pub use perm::Permutation;

/// Infinity norm (maximum absolute entry) of a dense vector; NaN if any
/// entry is NaN (`f64::max` would skip it).
pub fn vec_inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0_f64, |m, &x| {
        let a = x.abs();
        if a > m || a.is_nan() {
            a
        } else {
            m
        }
    })
}

/// The residual `r = b − op(A) x` of a solve and its scaled norm
/// `ω = ‖r‖∞ / (‖op(A)‖∞ ‖x‖∞ + ‖b‖∞)`, the normalized backward error (about
/// machine epsilon for a backward-stable solve). `op(A)` is `Aᵀ` when
/// `transposed`, read off `A`'s columns as dots, with `‖Aᵀ‖∞ = ‖A‖₁`.
/// [`Self::new`] takes the norm once; each [`Self::of`] is one pass over `A`.
#[derive(Debug, Clone, Copy)]
pub struct ScaledResidual<'a> {
    a: CscRef<'a>,
    transposed: bool,
    op_norm: f64,
}

impl<'a> ScaledResidual<'a> {
    /// The residual of solves with `A` (`Aᵀ` when `transposed`).
    pub fn new(a: impl Into<CscRef<'a>>, transposed: bool) -> Self {
        let a = a.into();
        let op_norm = if transposed {
            a.one_norm()
        } else {
            a.inf_norm()
        };
        ScaledResidual {
            a,
            transposed,
            op_norm,
        }
    }

    /// `r = b − op(A) x` and its scaled norm `ω`. A NaN anywhere in `x` or
    /// `b` makes `ω` NaN, so it fails every `<` / `<=` gate.
    pub fn of(&self, x: &[f64], b: &[f64]) -> (Vec<f64>, f64) {
        let mut r = b.to_vec();
        if self.transposed {
            self.a.mat_vec_sub_transposed(x, &mut r);
        } else {
            self.a.mat_vec_sub(x, &mut r);
        }
        let num = vec_inf_norm(&r);
        let den = self.op_norm * vec_inf_norm(x) + vec_inf_norm(b);
        (r, if den == 0.0 { num } else { num / den })
    }
}

/// Scaled residual `‖b − A x‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞)` of a solve of
/// `A x = b` ([`ScaledResidual`]).
pub fn relative_residual<'a>(a: impl Into<CscRef<'a>>, x: &[f64], b: &[f64]) -> f64 {
    ScaledResidual::new(a, false).of(x, b).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_of_exact_solution_is_zero() {
        // A = [[2, 0], [0, 4]], x = [1, 2], b = [2, 8].
        let a = CscMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 4.0)]).unwrap();
        assert_eq!(relative_residual(&a, &[1.0, 2.0], &[2.0, 8.0]), 0.0);
    }

    #[test]
    fn relative_residual_scales() {
        let a = CscMatrix::from_triplets(1, 1, &[(0, 0, 1.0)]).unwrap();
        // x = 0 but b = 1: residual 1, denominator ‖b‖∞ = 1.
        assert_eq!(relative_residual(&a, &[0.0], &[1.0]), 1.0);
    }

    #[test]
    fn vec_inf_norm_handles_negatives_and_empty() {
        assert_eq!(vec_inf_norm(&[]), 0.0);
        assert_eq!(vec_inf_norm(&[-3.0, 2.0]), 3.0);
    }

    #[test]
    fn nan_anywhere_makes_the_residual_nan() {
        let a = CscMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 4.0)]).unwrap();
        let b = [2.0, 8.0];
        assert!(vec_inf_norm(&[1.0, f64::NAN, 3.0]).is_nan());
        assert!(vec_inf_norm(&[f64::NAN, 1.0]).is_nan());
        assert!(ScaledResidual::new(&a, false).of(&[1.0, f64::NAN], &b).0[1].is_nan());
        // An all-NaN "solution" used to report 0 / ‖b‖∞ = 0: a perfect solve.
        assert!(relative_residual(&a, &[f64::NAN, f64::NAN], &b).is_nan());
        assert!(relative_residual(&a, &[f64::NAN, 2.0], &b).is_nan());
        assert!(relative_residual(&a, &[1.0, 2.0], &[f64::NAN, 8.0]).is_nan());
    }
}
