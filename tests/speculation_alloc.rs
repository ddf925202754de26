//! What the speculative one-shot factorization holds, asserted with the
//! counting global allocator against the static path (analysis, then the
//! input assembled into the storage of the static structure and factored)
//! on the same input:
//!
//! * a speculation that holds never allocates the static storage: its heap
//!   peak stays below the static path's by at least half of what the values
//!   of the static storage and of the in-block one differ by;
//! * a fallback frees the in-block storage before it assembles the static
//!   one: its heap peak stays below the static path's plus half of the
//!   in-block storage's values — holding both at once would add all of
//!   them;
//! * a one-shot factorization holds what its session's `resident_bytes`
//!   says, to 10 %, and no scatter map: a held session on the same input
//!   holds exactly one map slot per nonzero more.
//!
//! This file installs the counting allocator for its whole test binary,
//! so it holds exactly one test: a concurrent test in the same process
//! would race the global peak counter.

use parsplu::core::{analyze, factor_left_looking, BlockMatrix, Options, SluSession, SparseLu};
use parsplu::matgen::{cross_block_pivots, fem2d_unsymmetric, paper_matrix, Scale};
use parsplu::obs::{heap_stats, reset_heap_peak, CountingAlloc};
use parsplu::sparse::CscMatrix;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `f`'s result and the growth of the heap peak over the live bytes before
/// it ran.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = heap_stats().expect("allocator installed").current_bytes;
    reset_heap_peak();
    let out = f();
    (out, heap_stats().unwrap().peak_bytes - before)
}

/// One slot of a held session's scatter map: block column, U block and
/// flat index, three `u32`s.
const MAP_SLOT_BYTES: u64 = 12;

/// `f`'s result and the live bytes it leaves behind.
fn live_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = heap_stats().expect("allocator installed").current_bytes;
    let out = f();
    (out, heap_stats().unwrap().current_bytes - before)
}

/// The heap peak of the static path.
fn static_peak(a: &CscMatrix) -> u64 {
    peak_of(|| {
        let sym = analyze(a.pattern(), &Options::default()).unwrap();
        let bm = BlockMatrix::assemble(&sym.permute_matrix(a), &sym.block_structure);
        factor_left_looking(&bm, 0.0).unwrap();
        (sym, bm)
    })
    .1
}

/// `a` with every value replaced by a column-dominant one: no interchange,
/// so the speculation holds on `a`'s pattern.
fn dominant(a: &CscMatrix) -> CscMatrix {
    let trips: Vec<(usize, usize, f64)> = a
        .triplets()
        .map(|(i, j, _)| (i, j, if i == j { 1e3 } else { 1e-3 }))
        .collect();
    CscMatrix::from_triplets(a.nrows(), a.ncols(), &trips).unwrap()
}

#[test]
fn speculation_never_holds_the_static_storage_beside_the_realised_one() {
    let held = [
        ("mesh40x40", fem2d_unsymmetric(40, 40, 2, 1)),
        ("sherman3", paper_matrix("sherman3", Scale::Full).unwrap()),
    ];

    // Warm up what outlives a factorization (thread-local scratch, kernel
    // dispatch) before counting what one holds.
    let (_, mesh) = &held[0];
    drop(SparseLu::factor(mesh, &Options::default()).unwrap());
    let (lu, lu_live) = live_of(|| SparseLu::factor(mesh, &Options::default()).unwrap());
    let resident = lu.session().resident_bytes();
    assert!(
        lu_live.abs_diff(resident) * 10 <= resident,
        "resident_bytes says {resident}, the allocator counts {lu_live}"
    );
    let (session, session_live) = live_of(|| {
        let mut s = SluSession::analyze(mesh.pattern(), &Options::default()).unwrap();
        s.factor(mesh).unwrap();
        s
    });
    let map = MAP_SLOT_BYTES * mesh.nnz() as u64;
    assert_eq!(
        session_live - lu_live,
        map,
        "live bytes beyond the one-shot's"
    );
    assert_eq!(session.resident_bytes() - resident, map);
    drop((lu, session));

    for (name, a) in &held {
        let (lu, spec) = peak_of(|| SparseLu::factor(a, &Options::default()).unwrap());
        assert!(lu.session().is_realised(), "{name}");
        let st = lu.storage();
        drop(lu);
        let stat = static_peak(a);
        let gap = 8 * (st.static_words - st.words) as u64;
        assert!(
            spec + gap / 2 < stat,
            "{name}: {spec} + {gap} / 2 >= {stat}"
        );
    }

    let a = cross_block_pivots(400, 7);
    let (lu, fallback) = peak_of(|| SparseLu::factor(&a, &Options::default()).unwrap());
    assert!(!lu.session().is_realised(), "the pivots leave their blocks");
    drop(lu);
    let held = SparseLu::factor(&dominant(&a), &Options::default()).unwrap();
    assert!(held.session().is_realised());
    let in_block_values = 8 * held.storage().words as u64;
    drop(held);
    let stat = static_peak(&a);
    assert!(
        fallback < stat + in_block_values / 2,
        "a fallback peaked at {fallback}: the static path's {stat} plus the in-block values' {in_block_values}"
    );
}
