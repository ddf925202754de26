//! Orderings for `parsplu`: pre-pivoting and fill reduction.
//!
//! The paper's pipeline (Section 1) starts with two permutations before any
//! factorization work:
//!
//! 1. a **maximum transversal** (row permutation) so the matrix has a
//!    zero-free diagonal — the paper cites Duff's algorithm \[3\]; see
//!    [`maximum_transversal`];
//! 2. a **fill-reducing column ordering**, "the minimum degree algorithm on
//!    `AᵀA`" — [`column_min_degree`], an approximate minimum degree that
//!    orders the graph of `AᵀA` through the rows of `A` and never forms the
//!    product.
//!
//! [`reverse_cuthill_mckee`] is provided as an additional profile-reducing
//! ordering for comparison experiments (not used by the paper itself).

// Index-based loops are the natural idiom for the numerical kernels and
// symbolic algorithms in this crate; iterator rewrites obscure the maths.
#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mindeg;
mod rcm;
mod transversal;

pub use mindeg::{column_min_degree, column_min_degree_with};
pub use rcm::reverse_cuthill_mckee;
pub use transversal::{maximum_transversal, StructuralRank};
