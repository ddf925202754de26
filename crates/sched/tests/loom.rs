//! Loom model checks for the executor's synchronization primitives
//! (`splu_sched::sync`) and the abort/cancel accounting invariant.
//!
//! Built only with `RUSTFLAGS="--cfg loom"` (the CI `loom` job):
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p splu-sched --test loom --release
//! ```
//!
//! Three invariants are checked, each over many explored schedules:
//!
//! 1. **No lost wakeup** — a producer pushing through the gate protocol
//!    (push under the pool lock, notify under the gate lock) can never
//!    strand a consumer that parked after seeing an empty pool.
//! 2. **Abort broadcast terminates all workers** — once the abort latch is
//!    set and every gate broadcast, every parked worker wakes, observes
//!    the latch under the gate lock, and exits.
//! 3. **`started == retired` under abort/cancel** — the abort path only
//!    blocks *new* task acquisitions, so every started task retires and
//!    the run's counters balance whether it was cancelled at any boundary
//!    or ran to completion.
//!
//! With the vendored loom stand-in the exploration is a bounded randomized
//! schedule sweep (see `vendor/loom`); against real loom the same source
//! model-checks exhaustively.

#![cfg(loom)]

use splu_sched::sync::{AbortFlag, Countdown, Gate, Park};
use splu_sched::{run, CancelToken, ExecRequest, RunBudget, TraceConfig};
use std::sync::{Arc, Mutex};

/// Invariant 1: the push-then-notify / check-then-park protocol never
/// loses a wakeup. Two consumers drain items a producer feeds one at a
/// time; if a notify could fall between a consumer's emptiness re-check
/// and its wait, a schedule would leave the consumer parked forever with
/// the countdown nonzero, and the join below would hang the model.
#[test]
fn no_lost_wakeup_between_push_and_park() {
    loom::model(|| {
        const ITEMS: usize = 3;
        let gate = Arc::new(Gate::new());
        let pool = Arc::new(Mutex::new(Vec::<usize>::new()));
        let left = Arc::new(Countdown::new(ITEMS));

        let producer = {
            let (gate, pool) = (Arc::clone(&gate), Arc::clone(&pool));
            loom::thread::spawn(move || {
                for i in 0..ITEMS {
                    pool.lock().unwrap().push(i);
                    gate.notify_one();
                }
            })
        };

        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let (gate, pool, left) = (Arc::clone(&gate), Arc::clone(&pool), Arc::clone(&left));
                loom::thread::spawn(move || loop {
                    // Pop into a local first: an `if let` on the guard
                    // temporary would hold the pool lock through the body,
                    // inverting lock order against `park_if`'s under-gate
                    // `has_work` pool probe.
                    let item = pool.lock().unwrap().pop();
                    if item.is_some() {
                        if left.retire() {
                            gate.notify_all();
                        }
                        continue;
                    }
                    match gate.park_if(|| left.is_done(), || !pool.lock().unwrap().is_empty()) {
                        Park::Exit => return,
                        Park::Retry | Park::Waited => continue,
                    }
                })
            })
            .collect();

        producer.join().unwrap();
        for c in consumers {
            c.join().unwrap();
        }
        assert!(left.is_done(), "every pushed item must be consumed");
    });
}

/// Invariant 2: the abort broadcast wakes and terminates every parked
/// worker. Both workers park with nothing to do; the aborter latches the
/// flag and broadcasts once. A schedule where the broadcast slipped past
/// a worker's under-lock re-check would hang the join.
#[test]
fn abort_broadcast_terminates_all_workers() {
    loom::model(|| {
        let gate = Arc::new(Gate::new());
        let abort = Arc::new(AbortFlag::new());

        let workers: Vec<_> = (0..2)
            .map(|_| {
                let (gate, abort) = (Arc::clone(&gate), Arc::clone(&abort));
                loom::thread::spawn(move || loop {
                    match gate.park_if(|| abort.is_set(), || false) {
                        Park::Exit => return,
                        Park::Retry | Park::Waited => continue,
                    }
                })
            })
            .collect();

        let aborter = {
            let (gate, abort) = (Arc::clone(&gate), Arc::clone(&abort));
            loom::thread::spawn(move || {
                abort.set();
                gate.notify_all();
            })
        };

        aborter.join().unwrap();
        for w in workers {
            w.join().unwrap();
        }
        assert!(abort.is_set());
    });
}

/// Invariant 3: under cancellation at an arbitrary task boundary the
/// executor's accounting stays balanced — every *started* task retires
/// (the abort only blocks new acquisitions), so `tasks_started ==
/// tasks_retired` in every explored schedule, interrupted or not.
#[test]
fn started_equals_retired_under_cancel() {
    // A diamond: 0 → {1, 2} → 3.
    const N: usize = 4;
    const PREDS: [usize; N] = [0, 1, 1, 2];

    for trip_at in 0..=4usize {
        loom::model(move || {
            let succs: [Vec<usize>; N] = [vec![1, 2], vec![3], vec![3], vec![]];
            let token = CancelToken::new();
            token.cancel_after_checkpoints(trip_at);
            let budget = RunBudget::unbounded().with_token(token);
            let req = ExecRequest {
                threads: 2,
                trace: TraceConfig::counters(),
                budget: &budget,
                ..ExecRequest::new(&PREDS, &succs)
            };
            let report = run(&req, |_, _| {});
            assert!(report.panic.is_none());
            assert_eq!(
                report.stats.tasks_started, report.stats.tasks_retired,
                "every started task must retire (trip_at = {trip_at})"
            );
            if report.interrupt.is_none() {
                assert_eq!(
                    report.stats.tasks_retired, N as u64,
                    "clean run retires all"
                );
            }
        });
    }
}
