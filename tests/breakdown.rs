//! Breakdown-policy integration tests on the ill-conditioned pivoting
//! stress family: restricted (diagonal-rule) pivoting genuinely breaks
//! down at designated columns, and the two policies respond as specified —
//! [`BreakdownPolicy::Error`] fails with the exact global column,
//! [`BreakdownPolicy::Perturb`] completes with a health report and the
//! auto-refined solve recovers an accurate solution for the true matrix.

use parsplu::core::{
    BreakdownPolicy, LuError, Options, OrderingChoice, PivotRule, SluSession, SparseLu,
};
use parsplu::matgen::{manufactured_rhs, tiny_pivot_matrix};
use parsplu::sparse::{relative_residual, CscMatrix, ScaledResidual};

/// Natural order, no postordering, no interchanges: the factorization
/// visits the original columns in place, so breakdown columns are
/// predictable.
fn diagonal_rule_opts(threads: usize) -> Options {
    Options {
        ordering: OrderingChoice::Natural,
        postorder: false,
        pivot_rule: PivotRule::Diagonal,
        pivot_threshold: 1e-20,
        threads,
        ..Options::default()
    }
}

#[test]
fn error_policy_reports_the_first_tiny_column() {
    let a = tiny_pivot_matrix(60, &[23], 1e-30, 5);
    let opts = diagonal_rule_opts(1);
    assert_eq!(opts.breakdown, BreakdownPolicy::Error, "default policy");
    match SparseLu::factor(&a, &opts).map(|_| ()) {
        Err(LuError::NumericallySingular { column }) => assert_eq!(column, 23),
        other => panic!("expected NumericallySingular at column 23, got {other:?}"),
    }
}

#[test]
fn perturb_policy_completes_and_refinement_recovers_the_solution() {
    let n = 60;
    let tiny_cols = [11, 37, 52];
    let a = tiny_pivot_matrix(n, &tiny_cols, 1e-30, 5);
    let (_, b) = manufactured_rhs(&a, 3);
    for threads in [1, 4] {
        let opts = Options {
            breakdown: BreakdownPolicy::perturb_default(),
            ..diagonal_rule_opts(threads)
        };
        let lu = SparseLu::factor(&a, &opts).expect("perturb policy must complete");
        let health = lu.health();
        assert_eq!(
            health.perturbed_columns, tiny_cols,
            "threads={threads}: exactly the tiny columns are perturbed"
        );
        assert!(
            health.max_perturbation > 0.0 && health.max_perturbation.is_finite(),
            "threads={threads}: {health:?}"
        );
        assert!(
            health.growth.is_finite() && health.growth >= 1.0,
            "threads={threads}: growth {}",
            health.growth
        );
        let condest = health.condest.expect("perturbed factors carry a condest");
        assert!(condest.is_finite() && condest > 0.0);

        // `solve` auto-routes through refinement against the true input.
        let x = lu.solve(&b);
        let resid = relative_residual(&a, &x, &b);
        assert!(resid < 1e-10, "threads={threads}: residual {resid}");
    }
}

#[test]
fn partial_pivoting_needs_no_perturbation_on_the_same_matrix() {
    // The family is only hard for restricted pivoting: with interchanges
    // the boosted subdiagonal is a perfectly good pivot.
    let a = tiny_pivot_matrix(60, &[11, 37, 52], 1e-30, 5);
    let (_, b) = manufactured_rhs(&a, 3);
    let lu = SparseLu::factor(&a, &Options::default()).unwrap();
    assert!(!lu.health().is_perturbed());
    assert_eq!(lu.health().condest, None);
    let x = lu.solve(&b);
    assert!(relative_residual(&a, &x, &b) < 1e-10);
}

#[test]
fn perturbed_solve_routes_are_consistent() {
    // On perturbed factors every door reaches the one refinement decision,
    // in both directions: the automatic refinement of `solve`,
    // `solve_transposed` and each column of `solve_many` is the explicit
    // refined door of `SparseLu` and of `SluSession`, bit for bit, and
    // each lands at machine precision.
    let perturb = BreakdownPolicy::perturb_default();
    let tiny = tiny_pivot_matrix(48, &[20], 1e-30, 9);
    // [[1, 1, 0], [1, 1, 1], [0, 1, 1]]: the diagonal rule meets an exact
    // zero at column 1.
    let trips = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)].map(|(i, j)| (i, j, 1.0));
    let three = CscMatrix::from_triplets(3, 3, &trips).unwrap();
    let three_opts = Options {
        ordering: OrderingChoice::Natural,
        postorder: false,
        pivot_rule: PivotRule::Diagonal,
        breakdown: perturb,
        ..Options::default()
    };
    let cases = [
        (
            tiny,
            Options {
                breakdown: perturb,
                ..diagonal_rule_opts(1)
            },
        ),
        (three, three_opts),
    ];
    for (a, opts) in &cases {
        let n = a.ncols();
        let (_, b) = manufactured_rhs(a, 7);
        let lu = SparseLu::factor(a, opts).unwrap();
        assert!(lu.health().is_perturbed(), "n={n}");
        let mut s = SluSession::analyze(a.pattern(), opts).unwrap();
        s.factor(a).unwrap();
        for t in [false, true] {
            let auto = if t {
                lu.solve_transposed(&b)
            } else {
                lu.solve(&b)
            };
            let (explicit, steps) = lu.try_solve_refined(a, &b, t).unwrap();
            assert!(steps <= 5, "n={n} transposed={t}: {steps} steps");
            assert_eq!(auto, explicit, "n={n} transposed={t}: SparseLu doors");
            let (session, _) = s.solve_refined(a, &b, t).unwrap();
            assert_eq!(auto, session, "n={n} transposed={t}: session door");
            assert_eq!(s.solve_op(a, &b, t, false).unwrap(), session, "n={n} t={t}");
            let resid = ScaledResidual::new(a, t).of(&auto, &b).1;
            assert!(resid <= 1e-15, "n={n} transposed={t}: residual {resid}");
        }
        // Many right-hand sides: each column is the single solve's.
        let two = [b.clone(), manufactured_rhs(a, 8).1].concat();
        let many = lu.solve_many(&two, 2);
        for (j, (x, bj)) in many.chunks(n).zip(two.chunks(n)).enumerate() {
            assert_eq!(x, &lu.solve(bj)[..], "n={n}: solve_many column {j}");
            let resid = ScaledResidual::new(a, false).of(x, bj).1;
            assert!(
                resid <= 1e-15,
                "n={n}: solve_many column {j} residual {resid}"
            );
        }
    }
}
