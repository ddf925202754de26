//! Cancellation, deadline, and watchdog determinism suite (no failpoints
//! needed — these paths are part of the production API).
//!
//! Property: tripping a [`CancelToken`] at an *arbitrary* task boundary —
//! on any thread count and either mapping — always yields a structured
//! outcome (`Ok` or [`LuError::Cancelled`] with progress), never a hang,
//! never an escaped panic, and never corrupted state: re-running the
//! factorization afterwards without a budget produces bitwise-identical
//! solutions to a never-cancelled reference. Every factorization runs on
//! a watchdog thread with a hard test-side timeout, so a lost wakeup or a
//! non-draining abort fails the test instead of wedging the suite.

use parsplu::core::{CancelToken, LuError, Options, RunBudget, SparseLu, WatchdogConfig};
use parsplu::matgen::{manufactured_rhs, random_unsymmetric};
use parsplu::sched::Mapping;
use proptest::prelude::*;
use std::time::{Duration, Instant};

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

/// Runs `f` on its own thread and fails the test if it does not finish
/// within `limit` — the suite's hang detector. (On timeout the worker
/// thread is leaked; the test harness is exiting anyway.)
fn with_timeout<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit)
        .expect("factorization exceeded the test-side timeout (hang?)")
}

proptest! {
    // Each case sweeps all of THREADS; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cancelling after a proptest-chosen number of task acquisitions is
    /// always structured and recoverable, on every thread count and both
    /// mappings.
    #[test]
    fn cancellation_at_any_boundary_is_structured_and_recoverable(
        seed in 0u64..16,
        trip_at in 0usize..160,
        mapping in arb_mapping(),
    ) {
        let a = random_unsymmetric(40, 3, seed);
        let (_, b) = manufactured_rhs(&a, seed ^ 0xcafe);
        // Never-cancelled reference solution (single-threaded).
        let x_ref = SparseLu::factor(&a, &opts(1, mapping))
            .unwrap()
            .solve(&b);
        for &threads in &THREADS {
            let token = CancelToken::new();
            token.cancel_after_checkpoints(trip_at);
            let o = Options {
                budget: RunBudget::unbounded().with_token(token),
                ..opts(threads, mapping)
            };
            let (a2, b2) = (a.clone(), b.clone());
            let outcome = with_timeout(Duration::from_secs(60), move || {
                SparseLu::factor(&a2, &o).map(|lu| lu.solve(&b2))
            });
            match outcome {
                // Trip point past the end of the run: completes normally
                // and matches the reference bitwise.
                Ok(x) => prop_assert_eq!(&x, &x_ref, "threads={}", threads),
                Err(LuError::Cancelled { tasks_pending, .. }) => {
                    prop_assert!(tasks_pending > 0, "a cancelled run has pending tasks");
                }
                Err(other) => {
                    return Err(TestCaseError::fail(format!(
                        "threads={threads}: expected Ok or Cancelled, got {other:?}"
                    )))
                }
            }
            // Whatever happened, an unbudgeted re-run in the same process
            // is bitwise identical to the reference — the cancelled run
            // left no shared state behind.
            let x2 = SparseLu::factor(&a, &opts(threads, mapping))
                .unwrap()
                .solve(&b);
            prop_assert_eq!(&x2, &x_ref, "re-run differs (threads={})", threads);
        }
    }
}

/// An already-expired deadline interrupts before any task runs, carrying
/// zero progress, on every thread count and both mappings.
#[test]
fn expired_deadline_is_deterministic() {
    let a = random_unsymmetric(40, 3, 2);
    for mapping in [Mapping::Static1D, Mapping::Dynamic] {
        for &threads in &THREADS {
            let o = Options {
                budget: RunBudget::unbounded().with_deadline(Instant::now()),
                ..opts(threads, mapping)
            };
            match SparseLu::factor(&a, &o).map(|_| ()) {
                Err(LuError::DeadlineExceeded {
                    columns_done,
                    tasks_pending,
                }) => {
                    assert_eq!(columns_done, 0, "threads={threads} {mapping:?}");
                    assert!(tasks_pending > 0);
                }
                other => {
                    panic!(
                        "threads={threads} {mapping:?}: expected DeadlineExceeded, got {other:?}"
                    )
                }
            }
        }
    }
}

/// A generous deadline and an armed watchdog leave a healthy run entirely
/// alone: it completes with the same bits as an unbudgeted one.
#[test]
fn armed_budget_does_not_perturb_a_healthy_run() {
    let a = random_unsymmetric(48, 3, 7);
    let (_, b) = manufactured_rhs(&a, 11);
    let x_ref = SparseLu::factor(&a, &opts(2, Mapping::Dynamic))
        .unwrap()
        .solve(&b);
    let o = Options {
        budget: RunBudget::unbounded()
            .with_deadline(Instant::now() + Duration::from_secs(600))
            .with_watchdog(WatchdogConfig::new(Duration::from_secs(10))),
        ..opts(2, Mapping::Dynamic)
    };
    let x = SparseLu::factor(&a, &o).unwrap().solve(&b);
    assert_eq!(x, x_ref, "budgeted healthy run must be bitwise identical");
}

/// Ctrl-C style cancellation mid-run from another thread: the run drains
/// to `Cancelled` (or completes if it won the race) and never hangs.
#[test]
fn asynchronous_cancel_mid_run_drains() {
    let a = random_unsymmetric(64, 4, 13);
    for trip_delay_us in [0u64, 50, 200, 1000] {
        let token = CancelToken::new();
        let canceller = {
            let t = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_micros(trip_delay_us));
                t.cancel();
            })
        };
        let o = Options {
            budget: RunBudget::unbounded().with_token(token),
            ..opts(4, Mapping::Dynamic)
        };
        let a2 = a.clone();
        let outcome = with_timeout(Duration::from_secs(60), move || {
            SparseLu::factor(&a2, &o).map(|_| ())
        });
        match outcome {
            Ok(()) | Err(LuError::Cancelled { .. }) => {}
            other => panic!("delay={trip_delay_us}us: expected Ok or Cancelled, got {other:?}"),
        }
        canceller.join().unwrap();
    }
}

/// At one thread the whole matrix is one range, and the budget is polled
/// before every task of it: a token armed for `n` checkpoints stops the
/// run at the `n`-th task boundary — the first `n − 1` tasks of the
/// left-looking order ran, exactly the block columns whose `Factor` is
/// among them are factored, and the rest is pending. One checkpoint more
/// than there are tasks lets the run finish.
#[test]
fn one_thread_cancellation_stops_at_the_nth_task_boundary() {
    use parsplu::core::SluSession;
    use parsplu::sched::Task;
    let a = random_unsymmetric(40, 3, 4);
    let tasks: Vec<Task> = {
        let mut s = SluSession::analyze(a.pattern(), &opts(1, Mapping::Static1D)).unwrap();
        s.factor(&a).unwrap();
        s.block_matrix().unwrap().tasks().collect()
    };
    for n in [
        1,
        2,
        3,
        7,
        20,
        tasks.len() / 2,
        tasks.len(),
        tasks.len() + 1,
    ] {
        let mut s = SluSession::analyze(a.pattern(), &opts(1, Mapping::Static1D)).unwrap();
        let token = CancelToken::new();
        token.cancel_after_checkpoints(n);
        s.set_budget(RunBudget::unbounded().with_token(token));
        let outcome = s.factor(&a);
        if n > tasks.len() {
            outcome.expect("a checkpoint for every task and one to spare");
            continue;
        }
        let ran = &tasks[..n - 1];
        let factored: Vec<usize> = (ran.iter())
            .filter_map(|t| match *t {
                Task::Factor(k) => Some(k),
                Task::Update { .. } => None,
            })
            .collect();
        match outcome {
            Err(LuError::Cancelled {
                columns_done,
                tasks_pending,
            }) => {
                assert_eq!(tasks_pending, tasks.len() - (n - 1), "n={n}");
                assert_eq!(columns_done, factored.len(), "n={n}");
            }
            other => panic!("n={n}: expected Cancelled, got {other:?}"),
        }
        let bm = s.block_matrix().expect("storage assembled");
        for k in 0..bm.num_block_cols() {
            let has_pivots = bm.column(k).read().pivots.is_some();
            assert_eq!(has_pivots, factored.contains(&k), "n={n}, column {k}");
        }
    }
}
