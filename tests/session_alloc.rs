//! The zero-allocation guarantee of the refactor hot path, asserted with
//! the counting global allocator: after the first factorization (which
//! lays the storage out on the in-block structure), a one-thread untraced
//! `SluSession::refactor` must not grow the heap high-water mark by a
//! single byte — storage reset, value scatter, the one range of the whole
//! matrix, pivot recycling and the wire's per-column check all run in
//! place. An *observed* refactor (counters session) is
//! the same range with one recorder attached: what it allocates is bounded
//! by a constant, whatever the task count — no worker loop ran. And
//! `Analysis::factor_bytes`, priced from the block lists before any value
//! exists, is what a first `factor` adds: to 2 % on a session that shares
//! a laid-out analysis, and beside the layout and slots on the first.
//!
//! This file installs the counting allocator for its whole test binary.
//! Each window runs on one thread (a one-thread refactor replays inline)
//! and reads that thread's counters, so what the harness's other threads
//! allocate meanwhile does not count.

mod common;

use common::alloc::{live_of, peak_of};
use parsplu::core::{Analysis, ObsSession, Options, SluSession};
use parsplu::matgen::{fem2d_unsymmetric, manufactured_rhs, paper_matrix, paper_suite, Scale};
use parsplu::obs::CountingAlloc;
use parsplu::sparse::{relative_residual, CscMatrix};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn revalue(a: &CscMatrix, salt: u64) -> CscMatrix {
    let mut b = a.clone();
    for (t, v) in b.values_mut().iter_mut().enumerate() {
        let wig = (((t as u64).wrapping_mul(salt * 2 + 1) % 89) as f64) / 89.0;
        *v += 0.2 * (wig - 0.5) * (1.0 + v.abs());
    }
    b
}

#[test]
fn refactor_hot_path_allocates_nothing() {
    let m = &paper_suite(Scale::Reduced)[0];
    let mut s = SluSession::analyze(m.a.pattern(), &Options::default()).unwrap();
    s.factor(&m.a).unwrap();
    let new_values: Vec<CscMatrix> = (0..3).map(|k| revalue(&m.a, k)).collect();
    // Warm-up: the first refactor allocates the pivot vectors.
    s.refactor(&new_values[0]).unwrap();
    assert!(
        s.is_realised(),
        "the steady state under test is the in-block one"
    );
    for (round, vals) in new_values.iter().enumerate() {
        let ((), grown) = peak_of(|| s.refactor(vals).unwrap());
        assert_eq!(
            grown, 0,
            "refactor round {round} allocated {grown} heap bytes on the hot path"
        );
    }
    assert!(s.is_realised(), "no round left the in-block structure");
    // The factors produced under the no-alloc regime are still right.
    let last = new_values.last().unwrap();
    let (_, b) = manufactured_rhs(last, 41);
    let x = s.try_solve(&b).unwrap();
    assert!(relative_residual(last, &x, &b) < 1e-9);

    // Observed, counters mode: the same inline replay with the recorder of
    // its one worker attached. The report's single `WorkerStats`, a phase
    // span and the captured aggregates are all it allocates — no in-degree
    // vector, no ready pool, no event or label per task — so the growth of
    // the high-water mark stays under one bound on graphs whose task counts
    // are far apart, a bound that a single word per task would break: the
    // count-based proof that no worker loop ran.
    const OBSERVED_BOUND: u64 = 1024;
    let mut task_counts = Vec::new();
    for scale in [Scale::Reduced, Scale::Full] {
        let a = paper_matrix("sherman3", scale).unwrap();
        let mut s = SluSession::analyze(a.pattern(), &Options::default()).unwrap();
        s.factor(&a).unwrap();
        s.refactor_observed(&a, &ObsSession::new()).unwrap();
        assert!(s.is_realised());
        let obs = ObsSession::new();
        let ((), grown) = peak_of(|| s.refactor_observed(&a, &obs).unwrap());
        let tasks = s.stats().graph_tasks as u64;
        assert!(
            grown <= OBSERVED_BOUND,
            "an observed refactor of {tasks} tasks grew the heap peak by {grown} bytes"
        );
        task_counts.push(tasks);
    }
    assert!(
        task_counts[1] >= 16 * task_counts[0] && 8 * task_counts[1] > 16 * OBSERVED_BOUND,
        "task counts {task_counts:?}: far apart, and a word per task breaks the bound"
    );
}

/// `Analysis::factor_bytes` is what a first `factor` adds: exactly on a
/// session whose analysis another session laid out, and on the first
/// session beside what laying the analysis out adds to it (its
/// `resident_bytes` before and after) — each to 2 % of the allocator's live
/// bytes, on the full sherman3 analogue and the benchmark's mesh.
#[test]
fn factor_bytes_prices_the_first_factor() {
    let inputs = [
        ("sherman3", paper_matrix("sherman3", Scale::Full).unwrap()),
        ("mesh40x40", fem2d_unsymmetric(40, 40, 2, 1)),
    ];
    // Warm up the thread's update scratch and the kernel dispatch.
    SluSession::analyze(inputs[1].1.pattern(), &Options::default())
        .unwrap()
        .factor(&inputs[1].1)
        .unwrap();
    let within_2_percent = |what: &str, live: u64, priced: u64| {
        assert!(
            live.abs_diff(priced) * 50 <= live,
            "{what}: priced at {priced} bytes, the allocator counts {live}"
        );
    };
    for (name, a) in &inputs {
        let analysis = Arc::new(Analysis::new(a.pattern(), &Options::default()).unwrap());
        let price = analysis.factor_bytes();
        let mut first = SluSession::on(Arc::clone(&analysis));
        let unlaid = analysis.resident_bytes();
        let ((), live) = live_of(|| first.factor(a).unwrap());
        let laid_out = analysis.resident_bytes() - unlaid;
        within_2_percent(&format!("{name} first"), live, price + laid_out);
        let mut second = SluSession::on(Arc::clone(&analysis));
        let ((), live) = live_of(|| second.factor(a).unwrap());
        within_2_percent(&format!("{name} second"), live, price);
        assert_eq!(second.factor_resident_bytes(), price, "{name}");
        assert_eq!(
            analysis.resident_bytes() - unlaid,
            laid_out,
            "{name}: laid out once"
        );
    }
}
