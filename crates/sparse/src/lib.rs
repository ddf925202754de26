//! Sparse-matrix substrate for `parsplu`.
//!
//! This crate provides the data structures every other stage of the pipeline
//! is built on:
//!
//! * [`SparsityPattern`] — a compressed column-major index structure without
//!   values, used by the symbolic algorithms (static symbolic factorization,
//!   elimination forests, supernode detection).
//! * [`CooMatrix`], [`CscMatrix`], [`CsrMatrix`] — numeric sparse storage in
//!   triplet, compressed-column and compressed-row form.
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
mod csr;
mod error;
pub mod io;
mod pattern;
mod perm;
pub mod scaling;
pub mod stats;

pub use coo::CooMatrix;
pub use csc::{CscMatrix, CscRef};
pub use csr::CsrMatrix;
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

/// Computes the backward-error numerator `‖b − A x‖∞`.
pub fn residual_inf_norm<'a>(a: impl Into<CscRef<'a>>, x: &[f64], b: &[f64]) -> f64 {
    let mut r = b.to_vec();
    a.into().mat_vec_sub(x, &mut r);
    vec_inf_norm(&r)
}

/// Scaled residual `‖b − A x‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞)`.
///
/// This is the standard normalized backward error for a linear solve; values
/// around machine epsilon indicate a backward-stable solve. A NaN anywhere
/// in `x` or `b` makes the result NaN, so it fails every `<` / `<=` gate.
pub fn relative_residual<'a>(a: impl Into<CscRef<'a>>, x: &[f64], b: &[f64]) -> f64 {
    let a = a.into();
    let num = residual_inf_norm(a, x, b);
    let den = a.inf_norm() * vec_inf_norm(x) + vec_inf_norm(b);
    if den == 0.0 {
        num
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_of_exact_solution_is_zero() {
        // A = [[2, 0], [0, 4]], x = [1, 2], b = [2, 8].
        let a = CscMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 4.0)]).unwrap();
        assert_eq!(residual_inf_norm(&a, &[1.0, 2.0], &[2.0, 8.0]), 0.0);
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
        assert!(residual_inf_norm(&a, &[1.0, f64::NAN], &b).is_nan());
        // An all-NaN "solution" used to report 0 / ‖b‖∞ = 0: a perfect solve.
        assert!(relative_residual(&a, &[f64::NAN, f64::NAN], &b).is_nan());
        assert!(relative_residual(&a, &[f64::NAN, 2.0], &b).is_nan());
        assert!(relative_residual(&a, &[1.0, 2.0], &[f64::NAN, 8.0]).is_nan());
    }
}
