//! The zero-allocation guarantee of the refactor hot path, asserted with
//! the counting global allocator: once the session has settled on the
//! structure of its pivot history (a factorization and two refactors: the
//! second derives the realised structure), a one-thread untraced
//! `SluSession::refactor` must not grow the heap high-water mark by a
//! single byte — storage reset, value scatter, the one range of the whole
//! matrix, pivot recycling and the per-column compare against the recorded
//! history all run in place. An *observed* refactor (counters session) is
//! the same range with one recorder attached: what it allocates is bounded
//! by a constant, whatever the task count — no worker loop ran.
//!
//! This file installs the counting allocator for its whole test binary,
//! so it holds exactly one test: a concurrent test in the same process
//! would race the global peak counter.

use parsplu::core::{ObsSession, Options, SluSession};
use parsplu::matgen::{manufactured_rhs, paper_matrix, paper_suite, Scale};
use parsplu::obs::{heap_stats, reset_heap_peak, CountingAlloc};
use parsplu::sparse::{relative_residual, CscMatrix};

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
    // Warm-up: the first refactor records the pivot history (its buffer is
    // allocated here), the second finds it repeated and moves the session
    // onto the realised structure (new storage, maps, pivot vectors).
    s.refactor(&new_values[0]).unwrap();
    s.refactor(&new_values[1]).unwrap();
    assert!(
        s.is_realised(),
        "the steady state under test is the realised one"
    );
    for (round, vals) in new_values.iter().enumerate() {
        reset_heap_peak();
        let base = heap_stats().expect("allocator installed").peak_bytes;
        s.refactor(vals).unwrap();
        let after = heap_stats().unwrap().peak_bytes;
        assert_eq!(
            after,
            base,
            "refactor round {round} allocated {} heap bytes on the hot path",
            after - base
        );
    }
    assert!(s.is_realised(), "no round left the recorded history");
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
        s.refactor_observed(&a, &ObsSession::new()).unwrap();
        assert!(s.is_realised());
        let obs = ObsSession::new();
        reset_heap_peak();
        let base = heap_stats().unwrap().peak_bytes;
        s.refactor_observed(&a, &obs).unwrap();
        let grown = heap_stats().unwrap().peak_bytes - base;
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
