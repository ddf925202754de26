//! Deterministic fault-injection suite (the `failpoints` cargo feature).
//!
//! Property: any single injected fault — a worker panic inside a `Factor`
//! task, a forced pivot breakdown at a chosen column, or a non-finite
//! input value — yields a clean structured error or a perturbed-but-
//! refined solution on every thread count and mapping. Never a hang,
//! never a panic escaping the library, never a nondeterministic outcome.
//!
//! Scenarios are serialized by [`FailScenario`]'s process-wide lock, so
//! `cargo test`'s default test-level parallelism cannot interleave armed
//! injection points.

#![cfg(feature = "failpoints")]

mod common;

use common::StaticFactors;
use parsplu::core::failpoints::FailScenario;
use parsplu::core::{
    analyze, BreakdownPolicy, CancelToken, LuError, Options, OrderingChoice, PivotRule, RunBudget,
    SparseLu, WatchdogConfig,
};
use parsplu::matgen::{manufactured_rhs, random_unsymmetric};
use parsplu::sched::Mapping;
use proptest::prelude::*;
use std::time::Duration;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn opts(threads: usize, mapping: Mapping) -> Options {
    Options {
        threads,
        mapping,
        ..Options::default()
    }
}

fn arb_mapping() -> impl Strategy<Value = Mapping> {
    (0usize..2).prop_map(|i| {
        if i == 0 {
            Mapping::Static1D
        } else {
            Mapping::Dynamic
        }
    })
}

proptest! {
    // Each case runs the full pipeline on up to 8 threads for every entry
    // of THREADS; keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// An injected panic inside `Factor(k)` surfaces as
    /// [`LuError::WorkerPanic`] naming the task — on every thread count
    /// and mapping (at one thread from inside the range of the whole
    /// matrix, on several from a range or a task of its own), with the
    /// executor quiescent afterwards (the test returning at all proves no
    /// worker was left parked).
    #[test]
    fn injected_factor_panic_becomes_worker_panic_error(
        seed in 0u64..32,
        k_raw in 0usize..64,
        mapping in arb_mapping(),
    ) {
        let a = random_unsymmetric(40, 3, seed);
        let scenario = FailScenario::new();
        for &threads in &THREADS {
            let o = opts(threads, mapping);
            let nb = analyze(a.pattern(), &o).unwrap().block_structure.num_blocks();
            let k = k_raw % nb;
            scenario.panic_at_factor(k);
            match SparseLu::factor(&a, &o).map(|_| ()) {
                Err(LuError::WorkerPanic { worker, task }) => {
                    prop_assert!(worker < threads.max(1), "worker {worker}");
                    prop_assert_eq!(&task, &format!("F({k})"));
                }
                other => {
                    return Err(TestCaseError::fail(format!(
                        "threads={threads}: expected WorkerPanic, got {other:?}"
                    )))
                }
            }
        }
    }

    /// A forced pivot breakdown under [`BreakdownPolicy::Error`] is a
    /// deterministic [`LuError::NumericallySingular`] at exactly the
    /// forced global column, independent of thread count and mapping.
    #[test]
    fn forced_breakdown_error_policy_is_deterministic(
        seed in 0u64..32,
        col in 0usize..40,
        mapping in arb_mapping(),
    ) {
        let a = random_unsymmetric(40, 3, seed);
        let scenario = FailScenario::new();
        scenario.force_breakdown_at(col);
        for &threads in &THREADS {
            match SparseLu::factor(&a, &opts(threads, mapping)).map(|_| ()) {
                Err(LuError::NumericallySingular { column }) => {
                    prop_assert_eq!(column, col, "threads={}", threads)
                }
                other => {
                    return Err(TestCaseError::fail(format!(
                        "threads={threads}: expected NumericallySingular({col}), got {other:?}"
                    )))
                }
            }
        }
    }

    /// The same forced breakdown under [`BreakdownPolicy::Perturb`]
    /// completes, reports exactly the forced column in the health record,
    /// and the solve path produces bitwise-identical finite output on
    /// every thread count — the perturbed-column set and the factors are
    /// schedule-independent.
    #[test]
    fn forced_breakdown_perturb_policy_is_deterministic(
        seed in 0u64..32,
        col in 0usize..40,
        mapping in arb_mapping(),
    ) {
        let a = random_unsymmetric(40, 3, seed);
        let (_, b) = manufactured_rhs(&a, seed ^ 0x5eed);
        let scenario = FailScenario::new();
        scenario.force_breakdown_at(col);
        let mut reference: Option<(Vec<usize>, f64, Vec<f64>)> = None;
        for &threads in &THREADS {
            let o = Options {
                breakdown: BreakdownPolicy::perturb_default(),
                ..opts(threads, mapping)
            };
            let lu = SparseLu::factor(&a, &o).expect("perturb policy completes");
            let health = lu.health().clone();
            prop_assert_eq!(&health.perturbed_columns, &vec![col], "threads={}", threads);
            prop_assert!(health.max_perturbation > 0.0 && health.max_perturbation.is_finite());
            prop_assert!(health.condest.is_some(), "perturbed factors carry a condest");
            let x = lu.solve(&b);
            prop_assert!(x.iter().all(|v| v.is_finite()), "threads={}", threads);
            match &reference {
                None => reference = Some((health.perturbed_columns, health.max_perturbation, x)),
                Some((cols, maxp, x0)) => {
                    prop_assert_eq!(&health.perturbed_columns, cols, "threads={}", threads);
                    prop_assert_eq!(health.max_perturbation, *maxp, "threads={}", threads);
                    prop_assert_eq!(&x, x0, "solution bits differ at threads={}", threads);
                }
            }
        }
    }

    /// Non-finite input values are rejected up front as
    /// [`LuError::NonFiniteInput`] naming the offending column — the
    /// parallel numeric phase never sees them.
    #[test]
    fn non_finite_input_is_rejected_before_factorization(
        seed in 0u64..32,
        pos in 0usize..1000,
        inf in 0usize..2,
        mapping in arb_mapping(),
    ) {
        let a = random_unsymmetric(40, 3, seed);
        let bad = if inf == 1 { f64::INFINITY } else { f64::NAN };
        let (mut coo_r, mut coo_c, mut coo_v) = (Vec::new(), Vec::new(), Vec::new());
        for (i, j, v) in a.triplets() {
            coo_r.push(i);
            coo_c.push(j);
            coo_v.push(v);
        }
        let hit = pos % coo_v.len();
        coo_v[hit] = bad;
        let expect_col = coo_c[hit];
        let t: Vec<(usize, usize, f64)> = coo_r
            .into_iter()
            .zip(coo_c)
            .zip(coo_v)
            .map(|((i, j), v)| (i, j, v))
            .collect();
        let poisoned = parsplu::sparse::CscMatrix::from_triplets(40, 40, &t).unwrap();
        for &threads in &THREADS {
            match SparseLu::factor(&poisoned, &opts(threads, mapping)).map(|_| ()) {
                Err(LuError::NonFiniteInput { column }) => {
                    prop_assert_eq!(column, expect_col, "threads={}", threads)
                }
                other => {
                    return Err(TestCaseError::fail(format!(
                        "threads={threads}: expected NonFiniteInput, got {other:?}"
                    )))
                }
            }
        }
    }
}

/// After a contained injected panic, the very same process can factor the
/// same matrix cleanly — no poisoned locks, no leaked abort flags.
#[test]
fn factorization_recovers_after_injected_panic() {
    let a = random_unsymmetric(48, 3, 7);
    let (_, b) = manufactured_rhs(&a, 8);
    for &threads in &THREADS {
        let o = opts(threads, Mapping::Dynamic);
        {
            let scenario = FailScenario::new();
            scenario.panic_at_factor(0);
            let err = SparseLu::factor(&a, &o).map(|_| ()).unwrap_err();
            assert!(matches!(err, LuError::WorkerPanic { .. }), "{err:?}");
        }
        // Scenario dropped: the same inputs now factor and solve cleanly.
        let lu = SparseLu::factor(&a, &o).expect("clean run after contained panic");
        let x = lu.solve(&b);
        assert!(parsplu::sparse::relative_residual(&a, &x, &b) < 1e-10);
    }
}

/// A cancellation that fires inside the analysis — after the skeleton,
/// before the block lists — surfaces as [`LuError::Cancelled`] from the
/// front half: the run budget covers the symbolic phases, not just the
/// numeric one, and a fresh budget lets the same inputs analyze cleanly
/// afterwards.
#[test]
fn cancel_during_symbolic_fill_is_contained() {
    let a = random_unsymmetric(40, 3, 5);
    let scenario = FailScenario::new();
    scenario.cancel_during_symbolic();
    let token = CancelToken::new();
    let o = Options {
        budget: RunBudget {
            token: Some(token.clone()),
            ..RunBudget::default()
        },
        ..Options::default()
    };
    match analyze(a.pattern(), &o).map(|_| ()) {
        Err(LuError::Cancelled { .. }) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert!(
        token.is_cancelled(),
        "the failpoint cancels the caller's own token"
    );
    drop(scenario);
    // Scenario dropped, fresh budget: the same pattern analyzes cleanly.
    analyze(a.pattern(), &Options::default()).expect("clean analysis after contained cancellation");
}

/// A `Factor` task parked indefinitely by the stall failpoint is diagnosed
/// by the liveness watchdog as [`LuError::Stalled`] on every thread count
/// and mapping, with a stall report covering all workers — and the
/// watchdog's abort releases the parked task, so the test returning at all
/// proves the run drained instead of leaking a thread.
#[test]
fn stalled_factor_task_is_diagnosed_by_the_watchdog() {
    let a = random_unsymmetric(40, 3, 9);
    for mapping in [Mapping::Static1D, Mapping::Dynamic] {
        for &threads in &THREADS {
            let o = Options {
                budget: RunBudget::unbounded()
                    .with_watchdog(WatchdogConfig::new(Duration::from_millis(60))),
                ..opts(threads, mapping)
            };
            let scenario = FailScenario::new();
            scenario.stall_at_factor(0);
            match SparseLu::factor(&a, &o).map(|_| ()) {
                Err(LuError::Stalled {
                    columns_done,
                    report,
                }) => {
                    assert_eq!(
                        report.workers.len(),
                        threads,
                        "stall report covers every worker (threads={threads}, {mapping:?})"
                    );
                    assert!(report.stalled_for >= Duration::from_millis(60));
                    assert!(report.tasks_pending > 0);
                    assert!(columns_done < a.ncols());
                }
                other => panic!("threads={threads} {mapping:?}: expected Stalled, got {other:?}"),
            }
            drop(scenario);
            // The same process factors cleanly afterwards.
            SparseLu::factor(&a, &opts(threads, mapping)).expect("clean run after stall");
        }
    }
}

/// A caller-side cancellation also releases a stalled task: the stall
/// failpoint's release predicate watches the run token, so cancelling from
/// another thread unblocks the parked worker and the run drains to
/// [`LuError::Cancelled`].
#[test]
fn cancellation_releases_a_stalled_task() {
    let a = random_unsymmetric(40, 3, 5);
    let token = CancelToken::new();
    let canceller = {
        let t = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            t.cancel();
        })
    };
    let o = Options {
        budget: RunBudget::unbounded().with_token(token),
        ..opts(2, Mapping::Dynamic)
    };
    let scenario = FailScenario::new();
    scenario.stall_at_factor(0);
    match SparseLu::factor(&a, &o).map(|_| ()) {
        Err(LuError::Cancelled { .. }) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    canceller.join().unwrap();
}

/// Poison audit: a thread that panics while *holding* a [`FailScenario`]
/// must not poison the process-wide scenario lock — the guard's drop
/// releases the lock and disarms the knobs during the unwind, so the next
/// scenario (and an unrelated factorization) proceed cleanly. A poisoning
/// `std::sync::Mutex` here would cascade a spurious failure into every
/// later fault-injection test in the process.
#[test]
fn scenario_lock_survives_a_panicking_holder() {
    let holder = std::thread::spawn(|| {
        let scenario = FailScenario::new();
        scenario.panic_at_factor(3);
        panic!("deliberate panic while holding the scenario lock");
    });
    assert!(holder.join().is_err(), "the holder must have panicked");
    // Re-acquire immediately: must neither block forever nor report poison,
    // and the panicking holder's armed knob must be gone.
    let _scenario = FailScenario::new();
    let a = random_unsymmetric(24, 2, 1);
    SparseLu::factor(&a, &opts(2, Mapping::Dynamic))
        .expect("no leaked failpoint and no poisoned lock after a panicking holder");
}

/// An injected worker panic *during a refactorization* is contained, the
/// session stays reusable, and the recovery refactor is bitwise the static
/// factors of the same values — the cached schedule and recycled storage
/// carry no state over from the aborted run.
#[test]
fn session_survives_injected_panic_during_refactor() {
    use parsplu::core::SluSession;
    let a = random_unsymmetric(48, 3, 11);
    let mut vals = a.clone();
    for v in vals.values_mut() {
        *v *= 1.25;
    }
    for &threads in &THREADS {
        for mapping in [Mapping::Static1D, Mapping::Dynamic] {
            let o = opts(threads, mapping);
            let mut s = SluSession::analyze(a.pattern(), &o).unwrap();
            s.factor(&a).unwrap();
            {
                let scenario = FailScenario::new();
                scenario.panic_at_factor(0);
                let err = s.refactor(&vals).map(|_| ()).unwrap_err();
                assert!(
                    matches!(err, LuError::WorkerPanic { .. }),
                    "threads={threads} {mapping:?}: {err:?}"
                );
                assert!(!s.is_factored());
                assert!(matches!(
                    s.try_solve(&vec![0.0; a.ncols()]),
                    Err(LuError::NotFactored)
                ));
            }
            // Scenario dropped: the same session refactors cleanly, and the
            // factors are the static ones bit for bit.
            s.refactor(&vals)
                .expect("session reusable after contained panic");
            let reference = StaticFactors::of(&vals);
            let x = s.block_matrix().unwrap();
            assert_eq!(
                x.factor_difference(&reference.bm),
                None,
                "threads={threads} {mapping:?}"
            );
        }
    }
}

/// The same containment while the session refactors on the **in-block**
/// structure: a panic, a cancellation or a deadline that lands in such a
/// run leaves the session unfactored and still on that structure, and the
/// next refactor is bitwise the static factors
/// (`BlockMatrix::factor_difference`).
#[test]
fn realised_refactor_survives_panic_cancel_and_deadline() {
    use parsplu::core::SluSession;
    use std::time::Instant;
    let a = random_unsymmetric(48, 3, 11);
    let mut vals = a.clone();
    for v in vals.values_mut() {
        *v *= 1.25;
    }
    let reference = StaticFactors::of(&vals);
    for threads in [1usize, 2, 4] {
        for mapping in [Mapping::Static1D, Mapping::Dynamic] {
            let what = format!("threads={threads} {mapping:?}");
            let o = opts(threads, mapping);
            let mut s = SluSession::analyze(a.pattern(), &o).unwrap();
            s.factor(&a).unwrap();
            assert!(s.is_realised(), "{what}");
            for fault in ["panic", "cancel", "deadline"] {
                let scenario = FailScenario::new();
                match fault {
                    "panic" => scenario.panic_at_factor(s.stats().supernodes / 2),
                    "cancel" => {
                        let token = CancelToken::new();
                        token.cancel_after_checkpoints(2);
                        s.set_budget(RunBudget::unbounded().with_token(token));
                    }
                    _ => s.set_budget(RunBudget {
                        deadline: Some(Instant::now() - Duration::from_millis(10)),
                        ..RunBudget::default()
                    }),
                }
                let err = s.refactor(&vals).unwrap_err();
                assert!(
                    matches!(
                        (fault, &err),
                        ("panic", LuError::WorkerPanic { .. })
                            | ("cancel", LuError::Cancelled { .. })
                            | ("deadline", LuError::DeadlineExceeded { .. })
                    ),
                    "{what} {fault}: {err:?}"
                );
                assert!(!s.is_factored() && s.is_realised(), "{what} {fault}");
                drop(scenario);
                s.set_budget(RunBudget::unbounded());
                s.refactor(&vals).expect("session reusable after the fault");
                assert!(s.is_realised(), "{what} {fault}");
                let x = s.block_matrix().unwrap();
                assert_eq!(x.factor_difference(&reference.bm), None, "{what} {fault}");
            }
        }
    }
}

/// A fault during the speculative run of `SparseLu::factor` — an injected
/// panic, a forced breakdown, a cancellation — ends the call with the error
/// a run on the static storage returns under the same options, on every
/// thread count and mapping: no fault becomes a fallback.
#[test]
fn faults_during_the_speculative_run_are_the_static_paths_errors() {
    let a = random_unsymmetric(40, 3, 13);
    let col = a.ncols() / 2;
    for mapping in [Mapping::Static1D, Mapping::Dynamic] {
        for &threads in &THREADS {
            let nb = analyze(a.pattern(), &opts(threads, mapping))
                .unwrap()
                .block_structure
                .num_blocks();
            for fault in ["panic", "breakdown", "cancel"] {
                let scenario = FailScenario::new();
                match fault {
                    "panic" => scenario.panic_at_factor(nb / 2),
                    "breakdown" => scenario.force_breakdown_at(col),
                    _ => {}
                }
                // A token per run, cancelling at the third task boundary
                // of the numeric phase (the analysis only reads it).
                let budgeted = || {
                    let token = CancelToken::new();
                    if fault == "cancel" {
                        token.cancel_after_checkpoints(3);
                    }
                    Options {
                        budget: RunBudget::unbounded().with_token(token),
                        ..opts(threads, mapping)
                    }
                };
                let one_shot = SparseLu::factor(&a, &budgeted()).map(|_| ()).unwrap_err();
                let fixed = StaticFactors::factor(&a, &budgeted())
                    .map(|_| ())
                    .unwrap_err();
                let what =
                    format!("threads={threads} {mapping:?} {fault}: {one_shot:?} vs {fixed:?}");
                match (&one_shot, &fixed) {
                    (
                        LuError::WorkerPanic { task, .. },
                        LuError::WorkerPanic { task: want, .. },
                    ) => assert!(task == want && *task == format!("F({})", nb / 2), "{what}"),
                    (
                        LuError::NumericallySingular { column },
                        LuError::NumericallySingular { column: want },
                    ) => assert!(column == want && *column == col, "{what}"),
                    (LuError::Cancelled { .. }, LuError::Cancelled { .. }) => {}
                    _ => panic!("{what}"),
                }
            }
        }
    }
}

/// Arming a failpoint while [`PivotRule::Diagonal`] and natural ordering
/// are active exercises the restricted-pivoting panel path too.
#[test]
fn forced_breakdown_hits_the_diagonal_rule_path() {
    let a = random_unsymmetric(32, 2, 3);
    let o = Options {
        ordering: OrderingChoice::Natural,
        postorder: false,
        pivot_rule: PivotRule::Diagonal,
        threads: 2,
        ..Options::default()
    };
    let scenario = FailScenario::new();
    scenario.force_breakdown_at(17);
    match SparseLu::factor(&a, &o).map(|_| ()) {
        Err(LuError::NumericallySingular { column }) => assert_eq!(column, 17),
        other => panic!("expected NumericallySingular(17), got {other:?}"),
    }
}

/// A watchdog-armed one-thread run still beats its heart once per task:
/// the whole matrix is one range on one worker, and a `Factor` stalled in
/// its middle is diagnosed at that very task — the worker's last task is
/// that `F(k)`, its heartbeats one per task started up to it.
#[test]
fn a_one_thread_watchdog_hears_every_task_of_the_range() {
    use parsplu::core::SluSession;
    use parsplu::sched::Task;
    let a = random_unsymmetric(40, 3, 9);
    let o = Options {
        budget: RunBudget::unbounded()
            .with_watchdog(WatchdogConfig::new(Duration::from_millis(60))),
        ..opts(1, Mapping::Static1D)
    };
    let mut s = SluSession::analyze(a.pattern(), &o).unwrap();
    let k = s.stats().supernodes / 2;
    let scenario = FailScenario::new();
    scenario.stall_at_factor(k);
    let report = match s.factor(&a) {
        Err(LuError::Stalled { report, .. }) => report,
        other => panic!("expected Stalled, got {other:?}"),
    };
    drop(scenario);
    let id = (s.block_matrix().unwrap().tasks())
        .position(|t| t == Task::Factor(k))
        .unwrap();
    assert!(id > 0, "the stalled task is not the range's first");
    let [w] = report.workers.as_slice() else {
        panic!("one worker");
    };
    assert_eq!((w.last_task, w.heartbeats), (Some(id), id as u64 + 1));
}
