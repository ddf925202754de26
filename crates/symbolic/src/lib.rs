//! Symbolic machinery of the paper: static symbolic factorization, the LU
//! elimination forest, postordering and L/U supernode partitioning.
//!
//! The modules map one-to-one onto the paper's sections:
//!
//! * [`static_fact`] — George–Ng static symbolic factorization \[6\]
//!   producing `Ā = L̄ + Ū − I`, the structure valid for **every** partial
//!   pivoting row sequence (Section 1, step 2).
//! * [`eforest`] — the LU elimination forest of Definition 1 and the
//!   extended characterization of `L̄` rows (branches) and `Ū` columns
//!   (column subtrees) from Theorems 1–2, including the compact storage
//!   scheme the paper derives from them (Section 2).
//! * [`postorder`] — postordering the eforest: Theorem 3 invariance and the
//!   block-upper-triangular decomposition (Section 3).
//! * [`supernode`] — L/U supernode partitioning and amalgamation (Section 3,
//!   after \[10\]).

// Index-based loops are the natural idiom for the numerical kernels and
// symbolic algorithms in this crate; iterator rewrites obscure the maths.
#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eforest;
pub mod fixtures;
pub mod postorder;
pub mod static_fact;
pub mod supernode;

pub use eforest::{EliminationForest, ExtendedEforest};
pub use postorder::{block_triangular_form, postorder_permutation, BtfBlock};
pub use static_fact::{
    assemble_filled, fill_columns, fill_skeleton, static_symbolic_factorization,
    static_symbolic_reference, FillSkeleton, FilledLu, SymbolicError, UnsortedColumns,
};
pub use supernode::{amalgamate, supernode_partition, BlockStructure, Partition, SupernodeOptions};
