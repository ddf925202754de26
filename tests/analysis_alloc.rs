//! What the analysis costs in heap, asserted with the counting global
//! allocator: no scalar `L̄`/`Ū` is written, so `analyze` peaks far below
//! one word per filled entry and leaves only the per-supernode lists, the
//! permutations and the block forest behind; a one-thread session makes
//! only the few allocations more of deriving its in-block lists (no task
//! graph, no schedule) and holds no more than the analysis; a two-thread
//! one adds a bounded number of allocations for the graph it contracts
//! and drops, whatever the size; the forests are two arrays each, not a
//! list per node; and a session's `resident_bytes` (what the daemon's pool
//! budgets and evicts on) says what the session really holds, to 10 %.
//!
//! This file installs the counting allocator for its whole test binary.
//! Each window runs on one thread and reads that thread's counters, so
//! what the harness's other threads allocate meanwhile does not count.

mod common;

use common::alloc::window;
use parsplu::core::{analyze, Options, SluSession};
use parsplu::matgen::{fem2d_unsymmetric, paper_matrix, Scale};
use parsplu::obs::CountingAlloc;
use parsplu::sched::block_forest;
use parsplu::sparse::CscMatrix;
use parsplu::symbolic::{fill_skeleton, EliminationForest};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// What deriving the in-block lists allocates: the flags, the cursors, the
/// kept lists and their block lists — a constant count.
const DERIVE_ALLOCATIONS: u64 = 20;

/// What a forest's construction allocates: its children pattern's two
/// arrays (and the block forest's parent array), whatever the node count.
const FOREST_ALLOCATIONS: u64 = 8;

/// What a two-thread analysis allocates beyond a one-thread one: the
/// eforest graph (tasks and two edge arrays), and the contraction's
/// per-column and per-node arrays, some grown by doubling — a count that
/// grows with the logarithm of the size, not with the node count.
const PLAN_ALLOCATIONS: u64 = 256;

fn inputs() -> [(&'static str, CscMatrix); 2] {
    [
        ("mesh40x40", fem2d_unsymmetric(40, 40, 2, 1)),
        ("goodwin", paper_matrix("goodwin", Scale::Full).unwrap()),
    ]
}

#[test]
fn analysis_never_holds_the_filled_structure() {
    let inputs = inputs();
    for (name, a) in &inputs {
        let (sym, w) = window(|| analyze(a.pattern(), &Options::default()).unwrap());
        let nnz_filled = sym.stats.nnz_filled as u64;
        // Three index arrays of `nnz_filled` words each were 24 bytes per
        // entry before anything else was counted.
        assert!(
            w.peak < 8 * nnz_filled,
            "{name}: analysis peaked at {} bytes for {nnz_filled} filled entries",
            w.peak
        );
        assert!(
            w.live < nnz_filled,
            "{name}: analysis left {} bytes for {nnz_filled} filled entries",
            w.live
        );
    }

    // A one-thread session factors the whole matrix as one range: its
    // analysis is the plain one plus the derivation of the in-block lists,
    // a few arrays whatever the size — no task graph, no schedule, not even
    // transiently — and it holds the in-block lists in place of the static
    // ones, which are no smaller. Two threads add the range plan contracted
    // from the task graph, which they drop. Either way the session's own
    // estimate must be the right size for a pool to budget on.
    for (name, a) in &inputs {
        let heap = |threads: usize| {
            let opts = Options {
                threads,
                ..Options::default()
            };
            let (s, w) = window(|| SluSession::analyze(a.pattern(), &opts).unwrap());
            (w.allocations, w.live, s.resident_bytes())
        };
        let plain = {
            let (sym, w) = window(|| analyze(a.pattern(), &Options::default()).unwrap());
            drop(sym);
            (w.allocations, w.live)
        };
        let (allocations, live, estimate) = heap(1);
        assert!(
            allocations <= plain.0 + DERIVE_ALLOCATIONS && live <= plain.1,
            "{name}: one thread made {allocations} allocations and holds {live} bytes, \
             the analysis {plain:?}"
        );
        assert!(
            live * 9 / 10 <= estimate && estimate <= live * 11 / 10,
            "{name}: resident_bytes says {estimate}, the allocator counts {live}"
        );
        let (allocations_two, live_two, estimate) = heap(2);
        assert!(
            allocations_two > plain.0 && live_two > live,
            "{name}: two threads hold a plan"
        );
        assert!(
            allocations_two <= allocations + PLAN_ALLOCATIONS,
            "{name}: two threads made {allocations_two} allocations, one thread {allocations}"
        );
        assert!(
            live_two * 9 / 10 <= estimate && estimate <= live_two * 11 / 10,
            "{name}: resident_bytes says {estimate}, the allocator counts {live_two}"
        );
    }
}

/// The scalar eforest the analysis postorders by and the block forest of
/// its lists are each built in a constant number of allocations.
#[test]
fn forests_are_built_in_a_constant_number_of_allocations() {
    for (name, a) in &inputs() {
        let sym = analyze(a.pattern(), &Options::default()).unwrap();
        let skel = fill_skeleton(sym.permute_matrix(a).pattern()).unwrap();
        let parent = skel.parents().to_vec();
        let (scalar, w) = window(|| EliminationForest::from_parent_vec(parent));
        assert!(
            w.allocations <= FOREST_ALLOCATIONS,
            "{name}: the scalar forest of {} nodes made {} allocations",
            scalar.n(),
            w.allocations
        );
        let (block, w) = window(|| block_forest(&sym.block_structure));
        assert!(
            w.allocations <= FOREST_ALLOCATIONS,
            "{name}: the block forest of {} nodes made {} allocations",
            block.n(),
            w.allocations
        );
    }
}
