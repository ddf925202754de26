//! What the analysis costs in heap, asserted with the counting global
//! allocator: no scalar `L̄`/`Ū` is written, so `analyze` peaks far below
//! one word per filled entry and leaves only the per-supernode lists, the
//! permutations and the block forest behind — and a session's
//! `resident_bytes` (what the daemon's pool budgets and evicts on) says
//! what the session really holds.
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

    // The session adds the task graph and its schedule to that; its own
    // estimate must be the right size for a pool to budget on.
    let before = live_bytes();
    let session = SluSession::analyze(mesh.pattern(), &Options::default()).unwrap();
    let live = live_bytes() - before;
    let estimate = session.resident_bytes();
    assert!(
        live / 2 <= estimate && estimate <= 2 * live,
        "mesh40x40: resident_bytes says {estimate}, the allocator counts {live}"
    );
}
