//! Dense kernels for `parsplu` — the BLAS substitute.
//!
//! The paper's numerical factorization runs on dense supernode panels using
//! the SGI SCSL BLAS (levels 1–3). This workspace has no BLAS bindings, so
//! this crate provides the needed subset, written in plain safe Rust with
//! column-major layout and loop orders chosen for that layout:
//!
//! * [`DenseMat`] — an owned column-major matrix;
//! * [`MatRef`] / [`MatMut`] — borrowed strided views (a leading-dimension
//!   layout), so kernels run in place on row ranges of stacked panels;
//! * [`Dispatch::gemm_sub`] — `C ← C − A·B` (the supernodal update
//!   kernel);
//! * [`Dispatch::trsm_lower_unit`] — `X ← L⁻¹·X` with `L` unit lower
//!   triangular (computes `Ū` blocks from a factored panel);
//! * [`Dispatch::lu_panel_into`] — panel LU with partial pivoting (the
//!   `Factor(k)` task); [`lu_panel`], [`gemm_sub`], [`trsm_lower_unit`] and
//!   [`trsm_upper`] are its owned-matrix, baseline-instantiation
//!   conveniences for oracles and benchmarks;
//! * [`apply_row_swaps`] / [`Pivots`] — the pivot-sequence representation
//!   shared with the sparse driver;
//! * [`lu_full`], [`lu_solve`] — full dense LU, the oracle the test-suites
//!   compare against;
//! * [`KernelChoice`] / [`Dispatch`] — kernel selection: the kernels are
//!   one register-tiled source compiled once per instruction set, the
//!   widest one the CPU supports is picked at run time, and all of them
//!   produce bit-for-bit identical factors and solutions (see the contract on
//!   [`Dispatch::gemm_sub`]).

// Index-based loops are the natural idiom for the numerical kernels and
// symbolic algorithms in this crate; iterator rewrites obscure the maths.
#![allow(clippy::needless_range_loop)]
// The only unsafe in this crate is `Dispatch::run`'s call into a
// `#[target_feature]` entry, one per instruction set, each `#[allow]`ed there.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod kernels;
mod lu;
mod mat;
mod view;

pub use kernels::{gemm_sub, trsm_lower_unit, trsm_upper, Dispatch, Fused, KernelChoice};
pub use lu::{
    apply_row_swaps, lu_full, lu_panel, lu_solve, PanelBreakdown, PanelError, PivotRule, Pivots,
};
pub use mat::DenseMat;
pub use view::{MatMut, MatRef};
