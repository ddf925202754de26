//! Integration coverage of the extended public API: condition estimation,
//! determinant, growth factor, multi-RHS, transpose solve, refinement,
//! left-looking and S*-graph execution — all across the benchmark suite
//! at reduced scale.

use parsplu::core::{
    analyze, estimate_inverse_1norm, factor_left_looking, factor_numeric_with, solve_permuted,
    solve_permuted_parallel, BlockMatrix, NumericRequest, Options, SparseLu,
};
use parsplu::matgen::{manufactured_rhs, paper_suite, Scale};
use parsplu::sched::{build_sstar_graph, Mapping};
use parsplu::sparse::relative_residual;

#[test]
fn condest_is_finite_and_at_least_one_over_norm_suitewide() {
    for m in paper_suite(Scale::Reduced).into_iter().take(4) {
        let lu = SparseLu::factor(&m.a, &Options::default()).unwrap();
        let est = estimate_inverse_1norm(&lu, m.a.ncols(), 5);
        assert!(est.is_finite() && est > 0.0, "{}: {est}", m.name);
        // κ₁ = ‖A‖₁‖A⁻¹‖₁ ≥ 1 always.
        assert!(
            est * m.a.one_norm() >= 1.0 - 1e-9,
            "{}: condition estimate below 1",
            m.name
        );
    }
}

#[test]
fn transpose_and_forward_solves_are_consistent_suitewide() {
    // Solve A x = b, then Aᵀ y = x, and verify both residuals.
    for m in paper_suite(Scale::Reduced).into_iter().take(4) {
        let (_, b) = manufactured_rhs(&m.a, 2);
        let lu = SparseLu::factor(&m.a, &Options::default()).unwrap();
        let x = lu.solve(&b);
        assert!(relative_residual(&m.a, &x, &b) < 1e-10, "{}", m.name);
        let y = lu.solve_transposed(&x);
        let at = m.a.transpose();
        assert!(relative_residual(&at, &y, &x) < 1e-10, "{}", m.name);
    }
}

#[test]
fn left_looking_and_sstar_execution_match_the_driver_numerically() {
    for m in paper_suite(Scale::Reduced).into_iter().take(3) {
        let sym = analyze(m.a.pattern(), &Options::default()).unwrap();
        let permuted = sym.permute_matrix(&m.a);
        let graph = sym.build_graph();

        let solve = |bm: &BlockMatrix, b: &[f64]| {
            let mut y = sym.row_perm.apply_vec(b);
            solve_permuted(bm, &sym.block_structure, &mut y);
            sym.col_perm.apply_inverse_vec(&y)
        };

        // Reference: graph-driven coarse execution.
        let reference = BlockMatrix::assemble(&permuted, &sym.block_structure);
        let req = NumericRequest::coarse(&graph, Mapping::Static1D).threads(2);
        factor_numeric_with(&reference, &req).unwrap();
        let (_, b) = manufactured_rhs(&m.a, 9);
        let x_ref = solve(&reference, &b);

        // Left-looking on a fresh assembly.
        let bm_left = BlockMatrix::assemble(&permuted, &sym.block_structure);
        factor_left_looking(&bm_left, 0.0).unwrap();
        // The S* graph's range plan on a fresh assembly.
        let sstar = build_sstar_graph(&sym.block_structure);
        let bm_sstar = BlockMatrix::assemble(&permuted, &sym.block_structure);
        let req = NumericRequest::coarse(&sstar, Mapping::Dynamic).threads(2);
        factor_numeric_with(&bm_sstar, &req).unwrap();

        // Solve through each factored storage via the permuted interface.
        for bm in [&bm_left, &bm_sstar] {
            assert_eq!(solve(bm, &b), x_ref, "{}: executions disagree", m.name);
        }
    }
}

#[test]
fn parallel_solve_matches_sequential_suitewide() {
    for m in paper_suite(Scale::Reduced) {
        let (_, b) = manufactured_rhs(&m.a, 8);
        let lu = SparseLu::factor(&m.a, &Options::default()).unwrap();
        let x_seq = lu.solve(&b);
        let (sym, bm) = (lu.symbolic(), lu.session().block_matrix().unwrap());
        for threads in [1usize, 2, 4] {
            let mut y = sym.row_perm.apply_vec(&b);
            solve_permuted_parallel(bm, &sym.block_structure, &mut y, threads);
            let x_par = sym.col_perm.apply_inverse_vec(&y);
            assert_eq!(x_par, x_seq, "{}: threads={threads}", m.name);
        }
    }
}

#[test]
fn refinement_never_worsens_the_residual_suitewide() {
    for m in paper_suite(Scale::Reduced) {
        let (_, b) = manufactured_rhs(&m.a, 4);
        let lu = SparseLu::factor(&m.a, &Options::default()).unwrap();
        let x0 = lu.solve(&b);
        let r0 = relative_residual(&m.a, &x0, &b);
        let (x1, _) = lu.try_solve_refined(&m.a, &b, false).unwrap();
        let r1 = relative_residual(&m.a, &x1, &b);
        assert!(
            r1 <= r0 * 10.0 + 1e-15,
            "{}: refinement exploded ({r0} → {r1})",
            m.name
        );
    }
}

#[test]
fn determinant_sign_flips_with_a_row_swap() {
    use parsplu::sparse::CscMatrix;
    let a = CscMatrix::from_triplets(
        3,
        3,
        &[
            (0, 0, 2.0),
            (1, 1, 3.0),
            (2, 2, 4.0),
            (0, 1, 1.0),
            (2, 0, -1.0),
        ],
    )
    .unwrap();
    // Swap rows 0 and 1 of A.
    let swapped = CscMatrix::from_triplets_iter(
        3,
        3,
        a.triplets().map(|(i, j, v)| {
            let i2 = match i {
                0 => 1,
                1 => 0,
                other => other,
            };
            (i2, j, v)
        }),
    )
    .unwrap();
    let (s1, l1) = SparseLu::factor(&a, &Options::default())
        .unwrap()
        .determinant();
    let (s2, l2) = SparseLu::factor(&swapped, &Options::default())
        .unwrap()
        .determinant();
    assert_eq!(s1, -s2, "row swap must flip the determinant sign");
    assert!((l1 - l2).abs() < 1e-10, "magnitude unchanged by a swap");
}
