//! Session invariance suite: refactorization must be *bitwise* identical
//! to a fresh factorization of the same values, across thread counts and
//! mappings; pattern mismatches and premature solves are structured
//! errors; an interrupted refactorization leaves the session reusable;
//! and a refactorization runs no symbolic phase at all (phase walls).

use parsplu::core::{
    pattern_hash, BlockMatrix, LuError, ObsSession, Options, RunBudget, SluSession,
};
use parsplu::matgen::{manufactured_rhs, paper_suite, Scale};
use parsplu::sched::Mapping;
use parsplu::sparse::{relative_residual, CscMatrix};
use std::time::{Duration, Instant};

/// Same pattern, deterministically reshuffled values.
fn revalue(a: &CscMatrix, salt: u64) -> CscMatrix {
    let mut b = a.clone();
    for (t, v) in b.values_mut().iter_mut().enumerate() {
        let wig = (((t as u64).wrapping_mul(salt * 2 + 1) % 101) as f64) / 101.0;
        *v += 0.2 * (wig - 0.5) * (1.0 + v.abs());
    }
    b
}

/// Same pivots (as global rows) and the same word at every global
/// position; a word only one side stores — the in-block storage leaves out
/// what pivots inside their blocks never fill — is exactly zero.
fn assert_bitwise_equal(x: &BlockMatrix, y: &BlockMatrix, what: &str) {
    assert_eq!(x.factor_difference(y), None, "{what}");
}

#[test]
fn refactor_is_bitwise_identical_across_threads_and_mappings() {
    for m in paper_suite(Scale::Reduced).into_iter().take(3) {
        let a2 = revalue(&m.a, 7);
        // Reference: a fresh one-shot factorization of the new values.
        let mut reference = SluSession::analyze(m.a.pattern(), &Options::default()).unwrap();
        reference.factor(&a2).unwrap();
        for threads in [1usize, 2, 4, 8] {
            for mapping in [Mapping::Static1D, Mapping::Dynamic] {
                let opts = Options {
                    threads,
                    mapping,
                    ..Options::default()
                };
                let mut s = SluSession::analyze(m.a.pattern(), &opts).unwrap();
                s.factor(&m.a).unwrap();
                s.refactor(&a2).unwrap();
                assert_bitwise_equal(
                    s.block_matrix().unwrap(),
                    reference.block_matrix().unwrap(),
                    &format!("{} threads={threads} {mapping:?}", m.name),
                );
                let (_, b) = manufactured_rhs(&a2, 3);
                let x = s.try_solve(&b).unwrap();
                assert!(relative_residual(&a2, &x, &b) < 1e-9, "{}", m.name);
            }
        }
    }
}

#[test]
fn refactor_runs_no_symbolic_phase() {
    let m = &paper_suite(Scale::Reduced)[0];
    let mut s = SluSession::analyze(m.a.pattern(), &Options::default()).unwrap();
    s.factor(&m.a).unwrap();
    let obs = ObsSession::new();
    s.refactor_observed(&revalue(&m.a, 3), &obs).unwrap();
    let walls = obs.phase_walls();
    assert!(
        walls
            .iter()
            .any(|(name, secs)| *name == "numeric" && *secs > 0.0),
        "refactor must record numeric time, got {walls:?}"
    );
    for (name, secs) in &walls {
        assert!(
            *name == "numeric",
            "refactor ran symbolic phase `{name}` for {secs}s"
        );
    }
}

#[test]
fn pattern_mismatch_is_a_structured_error_and_nonfatal() {
    let suite = paper_suite(Scale::Reduced);
    let (a, other) = (&suite[0].a, &suite[1].a);
    let mut s = SluSession::analyze(a.pattern(), &Options::default()).unwrap();
    s.factor(a).unwrap();
    match s.refactor(other) {
        Err(LuError::PatternMismatch { expected, got }) => {
            assert_eq!(expected, pattern_hash(a.pattern()));
            assert_eq!(got, pattern_hash(other.pattern()));
        }
        r => panic!("expected PatternMismatch, got {r:?}"),
    }
    // Untouched: the session still factors and solves the right pattern.
    assert!(s.is_factored());
    let a2 = revalue(a, 11);
    s.refactor(&a2).unwrap();
    let (_, b) = manufactured_rhs(&a2, 5);
    let x = s.try_solve(&b).unwrap();
    assert!(relative_residual(&a2, &x, &b) < 1e-9);
}

#[test]
fn deadline_during_refactor_leaves_session_reusable() {
    let m = &paper_suite(Scale::Reduced)[0];
    let a2 = revalue(&m.a, 9);
    let mut s = SluSession::analyze(m.a.pattern(), &Options::default()).unwrap();
    s.factor(&m.a).unwrap();
    // An already-expired deadline trips before the first task.
    s.set_budget(RunBudget {
        deadline: Some(Instant::now() - Duration::from_millis(10)),
        ..RunBudget::default()
    });
    match s.refactor(&a2) {
        Err(LuError::DeadlineExceeded { .. }) => {}
        r => panic!("expected DeadlineExceeded, got {r:?}"),
    }
    assert!(!s.is_factored());
    assert!(matches!(
        s.try_solve(&vec![0.0; m.a.ncols()]),
        Err(LuError::NotFactored)
    ));
    // Lift the budget: the session recovers, bitwise identical to fresh.
    s.set_budget(RunBudget::unbounded());
    s.refactor(&a2).unwrap();
    let mut fresh = SluSession::analyze(m.a.pattern(), &Options::default()).unwrap();
    fresh.factor(&a2).unwrap();
    assert_bitwise_equal(
        s.block_matrix().unwrap(),
        fresh.block_matrix().unwrap(),
        "after deadline recovery",
    );
}

#[test]
fn cancel_during_refactor_leaves_session_reusable() {
    use parsplu::core::CancelToken;
    let m = &paper_suite(Scale::Reduced)[0];
    let a2 = revalue(&m.a, 13);
    let mut s = SluSession::analyze(m.a.pattern(), &Options::default()).unwrap();
    s.factor(&m.a).unwrap();
    let token = CancelToken::new();
    token.cancel_after_checkpoints(2);
    s.set_budget(RunBudget {
        token: Some(token),
        ..RunBudget::default()
    });
    match s.refactor(&a2) {
        Err(LuError::Cancelled { .. }) => {}
        r => panic!("expected Cancelled, got {r:?}"),
    }
    assert!(!s.is_factored());
    s.set_budget(RunBudget::unbounded());
    s.refactor(&a2).unwrap();
    let (_, b) = manufactured_rhs(&a2, 7);
    let x = s.try_solve(&b).unwrap();
    assert!(relative_residual(&a2, &x, &b) < 1e-9);
}

#[test]
fn sparse_lu_is_a_session_wrapper_with_fallible_solves() {
    let m = &paper_suite(Scale::Reduced)[0];
    let lu = parsplu::core::SparseLu::factor(&m.a, &Options::default()).unwrap();
    assert!(lu.session().is_factored());
    let n = m.a.ncols();
    let (_, b) = manufactured_rhs(&m.a, 29);
    let x = lu.try_solve(&b).unwrap();
    assert!(relative_residual(&m.a, &x, &b) < 1e-10);
    assert!(matches!(
        lu.try_solve(&b[..n - 1]),
        Err(LuError::DimensionMismatch {
            got,
            expected
        }) if got == n - 1 && expected == n
    ));
    assert!(lu.try_solve_transposed(&vec![0.0; n + 1]).is_err());
    assert!(lu.try_solve_many(&vec![0.0; 2 * n + 1], 2).is_err());
    assert!(lu.try_solve_many(&vec![0.0; 2 * n], 2).is_ok());
}

#[test]
fn options_are_validated_at_analysis() {
    use parsplu::core::{Analysis, BreakdownPolicy, PivotRule, SparseLu};
    let opts = Options {
        threads: 3,
        equilibrate: true,
        ..Options::default()
    };
    assert_eq!(opts.validate(), Ok(()));
    assert_eq!(Options::default().validate(), Ok(()));
    let a = &paper_suite(Scale::Reduced)[0].a;
    let invalid = |r: Result<(), LuError>| matches!(r, Err(LuError::InvalidOptions { .. }));
    for bad in [
        Options {
            threads: 0,
            ..Options::default()
        },
        Options {
            pivot_threshold: -1.0,
            ..Options::default()
        },
        Options {
            pivot_threshold: f64::NAN,
            ..Options::default()
        },
        Options {
            pivot_rule: PivotRule::Threshold(1.5),
            ..Options::default()
        },
        Options {
            breakdown: BreakdownPolicy::Perturb { eps: -1e-8 },
            ..Options::default()
        },
    ] {
        assert!(invalid(bad.validate()), "{bad:?}");
        // Every door into analysis refuses them.
        assert!(invalid(SparseLu::factor(a, &bad).map(drop)), "{bad:?}");
        assert!(invalid(SluSession::analyze(a.pattern(), &bad).map(drop)));
        assert!(invalid(Analysis::new(a.pattern(), &bad).map(drop)));
    }
}

#[test]
fn factor_then_many_refactors_stay_consistent() {
    let m = &paper_suite(Scale::Reduced)[1];
    let opts = Options {
        threads: 2,
        ..Options::default()
    };
    let mut s = SluSession::analyze(m.a.pattern(), &opts).unwrap();
    for step in 0..5u64 {
        let vals = revalue(&m.a, step);
        s.refactor(&vals).unwrap();
        let (_, b) = manufactured_rhs(&vals, step + 31);
        let (x, iters) = s.solve_refined(&vals, &b, false).unwrap();
        assert!(iters <= 5);
        assert!(
            relative_residual(&vals, &x, &b) < 1e-10,
            "step {step}: residual too large"
        );
    }
}

/// A one-thread session factors the whole matrix as one range: it builds
/// and holds no task graph and no schedule, and `resident_bytes` drops by
/// exactly the term the previous accounting charged for them — on the
/// full-scale sherman3 analogue, 7,281 tasks and 11,182 edges:
/// `tasks · (size_of(Task) + Vec header + word) + edges · word + N · word`
/// for the graph, two words per task for the schedule (bottom level and
/// one-worker position). A session of two threads holds the range plan
/// contracted from the eforest graph of its in-block lists (5,452 tasks) —
/// subtrees as one node each: 817 nodes and 1,286 edges, every vector at
/// its length — and is charged exactly that, less than the graph term
/// above.
#[test]
fn one_thread_sessions_hold_no_graph_or_schedule() {
    use parsplu::matgen::paper_matrix;
    use std::mem::size_of;
    /// The previous `resident_bytes` of this analyzed, unfactored session
    /// (when it held the graph), less what that accounting charged for the
    /// per-supernode block-list `Vec`s and the block forest a session no
    /// longer holds, less what the static lists held beyond the in-block
    /// ones the session now holds in their place, less 4 bytes for each of
    /// the 26,476 entries of those lists, whose indices are `u32`, and less
    /// 4 bytes for each of the 4 · 5,005 entries of the two permutations
    /// and their inverses, `u32` as well:
    /// 1,301,784 − 121,664 − 113,304 − 105,904 − 80,080.
    const RESIDENT_WITH_GRAPH: u64 = 880_832;
    let a = paper_matrix("sherman3", Scale::Full).unwrap();
    let one = SluSession::analyze(a.pattern(), &Options::default()).unwrap();
    let st = one.stats();
    let (tasks, edges, nb) = (
        st.graph_tasks as u64,
        st.graph_edges as u64,
        st.supernodes as u64,
    );
    assert_eq!((tasks, edges, nb), (7281, 11182, 1690));
    let word = size_of::<usize>() as u64;
    let graph_term = tasks * (size_of::<parsplu::sched::Task>() + size_of::<Vec<usize>>()) as u64
        + (tasks + edges + nb) * word;
    assert_eq!(
        RESIDENT_WITH_GRAPH - one.resident_bytes(),
        graph_term + tasks * 2 * 8
    );

    let opts = Options {
        threads: 2,
        ..Options::default()
    };
    let two = SluSession::analyze(a.pattern(), &opts).unwrap();
    let in_block = parsplu::sched::build_eforest_graph(&two.symbolic().block_structure);
    assert_eq!((in_block.len(), in_block.num_edges()), (5452, 7524));
    let plan = two.resident_bytes() - one.resident_bytes();
    // Per node one word each of bound, owner, priority and edge pointer
    // (one more bound and pointer), per edge one `u32`: 817 · 32 + 16 +
    // 1,286 · 4.
    assert_eq!(plan, 31_304);
    assert!(plan < graph_term, "the graph term is {graph_term}");
}
