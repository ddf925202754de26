//! Numerical property tests: the supernodal factorization against the
//! Gilbert–Peierls baseline and the dense oracle, with proptest-driven
//! random matrices.

use proptest::prelude::*;

use parsplu::core::gp::gp_factor;
use parsplu::core::{factor_numeric_with, BlockMatrix, NumericRequest, Options, SparseLu};
use parsplu::dense::{lu_full, lu_solve, DenseMat};
use parsplu::sched::{build_sstar_graph, Mapping};
use parsplu::sparse::{relative_residual, CscMatrix};

/// Strategy: a random well-conditioned sparse matrix (diagonally dominant)
/// plus a right-hand side.
fn matrix_and_rhs(max_n: usize) -> impl Strategy<Value = (CscMatrix, Vec<f64>)> {
    (2..=max_n).prop_flat_map(|n| {
        let entries = proptest::collection::vec((0..n, 0..n, -1.0_f64..1.0), 0..5 * n);
        let rhs = proptest::collection::vec(-2.0_f64..2.0, n);
        (entries, rhs).prop_map(move |(extra, b)| {
            let mut trips: Vec<(usize, usize, f64)> =
                (0..n).map(|i| (i, i, 6.0 + (i % 3) as f64)).collect();
            trips.extend(extra);
            (
                CscMatrix::from_triplets(n, n, &trips).expect("valid triplets"),
                b,
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full pipeline is backward stable on random sparse systems, and
    /// the S* graph handed to the range plan factors bitwise like it at 2
    /// and 4 threads under both mappings.
    #[test]
    fn supernodal_solver_is_backward_stable((a, b) in matrix_and_rhs(40)) {
        let lu = SparseLu::factor(&a, &Options::default()).expect("diagonally dominant");
        let x = lu.solve(&b);
        let r = relative_residual(&a, &x, &b);
        prop_assert!(r < 1e-11, "residual {}", r);
        let sym = lu.symbolic();
        let (bs, permuted) = (&sym.block_structure, sym.permute_matrix(&a));
        let sstar = build_sstar_graph(bs);
        for threads in [2, 4] {
            for mapping in [Mapping::Static1D, Mapping::Dynamic] {
                let bm = BlockMatrix::assemble(&permuted, bs);
                let req = NumericRequest::coarse(&sstar, mapping).threads(threads);
                factor_numeric_with(&bm, &req).expect("diagonally dominant");
                let want = lu.session().block_matrix().unwrap();
                prop_assert_eq!(bm.factor_difference(want), None, "{} {:?}", threads, mapping);
            }
        }
    }

    /// Supernodal, Gilbert–Peierls and dense-oracle solutions agree.
    #[test]
    fn three_solvers_agree((a, b) in matrix_and_rhs(30)) {
        let n = a.ncols();
        let x_super = SparseLu::factor(&a, &Options::default())
            .expect("factors")
            .solve(&b);
        let mut x_gp = b.clone();
        gp_factor(&a, 0.0).expect("factors").solve(&mut x_gp);
        let mut dense = DenseMat::from_fn(n, n, |i, j| a.get(i, j));
        let piv = lu_full(&mut dense).expect("nonsingular");
        let mut x_dense = b.clone();
        lu_solve(&dense, &piv, &mut x_dense);
        for i in 0..n {
            prop_assert!((x_super[i] - x_gp[i]).abs() < 1e-8, "super vs gp at {}", i);
            prop_assert!((x_super[i] - x_dense[i]).abs() < 1e-8, "super vs dense at {}", i);
        }
    }

    /// Solving A·x for x recovered from a manufactured b reproduces x.
    #[test]
    fn manufactured_solution_roundtrip((a, x_true) in matrix_and_rhs(40)) {
        let b = a.mat_vec(&x_true);
        let lu = SparseLu::factor(&a, &Options::default()).expect("factors");
        let x = lu.solve(&b);
        let scale = x_true.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
        for i in 0..a.ncols() {
            prop_assert!((x[i] - x_true[i]).abs() < 1e-9 * scale.max(1.0));
        }
    }
}

/// Ill-conditioned-but-solvable case: pivoting must rescue tiny diagonals.
#[test]
fn pivoting_rescues_tiny_diagonals() {
    let n = 25;
    let mut trips: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, i, 1e-13)).collect();
    for i in 0..n - 1 {
        trips.push((i + 1, i, 2.0 + (i % 5) as f64 * 0.3));
        trips.push((i, i + 1, 1.5 - (i % 3) as f64 * 0.2));
    }
    trips.push((0, n - 1, 0.7));
    let a = CscMatrix::from_triplets(n, n, &trips).unwrap();
    let b: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
    let lu = SparseLu::factor(&a, &Options::default()).unwrap();
    let x = lu.solve(&b);
    assert!(relative_residual(&a, &x, &b) < 1e-9);
}

/// Permutation-heavy case: a matrix whose transversal is a long cycle.
#[test]
fn cyclic_structure_is_solved() {
    let n = 31;
    let mut trips: Vec<(usize, usize, f64)> = (0..n)
        .map(|i| ((i + 7) % n, i, 5.0 + (i % 4) as f64))
        .collect();
    for i in 0..n {
        trips.push(((i + 2) % n, i, 0.5));
    }
    let a = CscMatrix::from_triplets(n, n, &trips).unwrap();
    let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    let lu = SparseLu::factor(&a, &Options::default()).unwrap();
    let x = lu.solve(&b);
    assert!(relative_residual(&a, &x, &b) < 1e-11);
}
