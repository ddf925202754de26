//! What the analysis costs in heap, asserted with the counting global
//! allocator: no scalar `L̄`/`Ū` is written, so `analyze` peaks far below
//! one word per filled entry and leaves only the per-supernode lists, the
//! permutations and the block forest behind; a one-thread session makes
//! not one allocation more (no task graph, no schedule); and a session's
//! `resident_bytes` (what the daemon's pool budgets and evicts on) says
//! what the session really holds, to 10 %.
//!
//! This file installs the counting allocator for its whole test binary,
//! so it holds exactly one test: a concurrent test in the same process
//! would race the global peak counter.

use parsplu::core::{analyze, Options, SluSession};
use parsplu::matgen::{fem2d_unsymmetric, paper_matrix, Scale};
use parsplu::obs::{heap_stats, reset_heap_peak, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live_bytes() -> u64 {
    heap_stats().expect("allocator installed").current_bytes
}

#[test]
fn analysis_never_holds_the_filled_structure() {
    let mesh = fem2d_unsymmetric(40, 40, 2, 1);
    let goodwin = paper_matrix("goodwin", Scale::Full).unwrap();
    for (name, a) in [("mesh40x40", &mesh), ("goodwin", &goodwin)] {
        let before = live_bytes();
        reset_heap_peak();
        let sym = analyze(a.pattern(), &Options::default()).unwrap();
        let peak = heap_stats().unwrap().peak_bytes - before;
        let resident = live_bytes() - before;
        let nnz_filled = sym.stats.nnz_filled as u64;
        // Three index arrays of `nnz_filled` words each were 24 bytes per
        // entry before anything else was counted.
        assert!(
            peak < 8 * nnz_filled,
            "{name}: analysis peaked at {peak} bytes for {nnz_filled} filled entries"
        );
        assert!(
            resident < nnz_filled,
            "{name}: analysis left {resident} bytes for {nnz_filled} filled entries"
        );
    }

    // A one-thread session factors the whole matrix as one range: its
    // analysis is the plain one to the allocation — no task graph, no
    // schedule, not even transiently — and it holds what that holds. Two
    // threads add the graph and its schedule. Either way the session's own
    // estimate must be the right size for a pool to budget on.
    for (name, a) in [("mesh40x40", &mesh), ("goodwin", &goodwin)] {
        let heap = |threads: usize| {
            let (before, allocations) = (live_bytes(), heap_stats().unwrap().allocations);
            let s = SluSession::analyze(
                a.pattern(),
                &Options {
                    threads,
                    ..Options::default()
                },
            )
            .unwrap();
            let live = live_bytes() - before;
            (
                heap_stats().unwrap().allocations - allocations,
                live,
                s.resident_bytes(),
            )
        };
        let plain = {
            let (before, allocations) = (live_bytes(), heap_stats().unwrap().allocations);
            let sym = analyze(a.pattern(), &Options::default()).unwrap();
            let live = live_bytes() - before;
            drop(sym);
            (heap_stats().unwrap().allocations - allocations, live)
        };
        let (allocations, live, estimate) = heap(1);
        assert_eq!(
            (allocations, live),
            plain,
            "{name}: one thread adds nothing"
        );
        assert!(
            live * 9 / 10 <= estimate && estimate <= live * 11 / 10,
            "{name}: resident_bytes says {estimate}, the allocator counts {live}"
        );
        let (allocations, live_two, estimate) = heap(2);
        assert!(
            allocations > plain.0 && live_two > live,
            "{name}: two threads hold a graph"
        );
        assert!(
            live_two * 9 / 10 <= estimate && estimate <= live_two * 11 / 10,
            "{name}: resident_bytes says {estimate}, the allocator counts {live_two}"
        );
    }
}
