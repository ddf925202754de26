//! # parsplu — Parallel Sparse LU with Postordering and Static Symbolic Factorization
//!
//! A Rust reproduction of *"Using Postordering and Static Symbolic
//! Factorization for Parallel Sparse LU"* (Michel Cosnard & Laura Grigori,
//! IPPS/SPDP 2000). This façade crate re-exports the workspace's public API;
//! see the individual crates for the details:
//!
//! * [`sparse`] — sparse matrix substrate (CSC/CSR/COO, patterns,
//!   permutations, Matrix Market / Harwell–Boeing I/O).
//! * [`ordering`] — maximum transversal (zero-free diagonal) and
//!   minimum-degree ordering on `AᵀA`.
//! * [`symbolic`] — static symbolic factorization (George–Ng), the LU
//!   elimination forest, postordering, block-triangular detection and L/U
//!   supernode partitioning.
//! * [`dense`] — hand-written dense kernels (`gemm`, `trsm`, panel LU).
//! * [`sched`] — S* and eforest-guided task dependence graphs and the
//!   threaded DAG executor (the list-scheduling simulators that stand in
//!   for the paper's machine live in the `splu-bench` crate).
//! * [`core`] — the supernodal numerical factorization with partial pivoting
//!   and the [`core::SparseLu`] end-to-end driver.
//! * [`obs`] — observability primitives: the lock-free metrics registry,
//!   epoch-aligned pipeline spans, and the opt-in counting allocator
//!   (installed by the `alloc-track` cargo feature).
//! * [`matgen`] — deterministic synthetic analogues of the paper's seven
//!   benchmark matrices.
//!
//! ## Quickstart
//!
//! ```
//! use parsplu::core::{SparseLu, Options};
//! use parsplu::matgen;
//!
//! // A small oil-reservoir style 3D grid problem (orsreg1 analogue).
//! let a = matgen::grid3d_anisotropic(6, 6, 3, matgen::GridOptions::default());
//! let n = a.ncols();
//! let b: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
//!
//! let lu = SparseLu::factor(&a, &Options::default()).unwrap();
//! let x = lu.solve(&b);
//!
//! let resid = parsplu::sparse::relative_residual(&a, &x, &b);
//! assert!(resid < 1e-10);
//! ```

pub mod cli;
pub mod persist;
pub mod serve;

pub use splu_core as core;
pub use splu_dense as dense;
pub use splu_matgen as matgen;
pub use splu_obs as obs;
pub use splu_ordering as ordering;
pub use splu_sched as sched;
pub use splu_sparse as sparse;
pub use splu_symbolic as symbolic;
