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
//! * a one-shot factorization and a held session each hold what their
//!   `resident_bytes` says, to 2 %, on the full sherman3 analogue (narrow
//!   supernodes, many blocks) and the benchmark's mesh (wide ones), and
//!   the one-shot holds no scatter map: the held session on the same
//!   input holds exactly one map slot per nonzero more, and its
//!   `resident_bytes` reads it to within 512 bytes;
//! * a held session's first `factor` on the full sherman3 analogue makes
//!   at most one allocation per block column (its buffer; the pivots of
//!   all columns are one array) plus a constant. A session holds one block
//!   structure — the in-block lists derived at analysis, the static ones
//!   never beside them, shared by the storage's index maps rather than
//!   re-encoded there — and every index at 32 bits, so the analyzed
//!   session holds at most 253,920 bytes and the held one after its
//!   `factor` at most 2,550,708 (333,704 and 2,865,100 with `usize`
//!   permutations, per-column pivot vectors and the maps' copies of the
//!   lists).
//!
//! This file installs the counting allocator for its whole test binary.
//! Every window runs on one thread (one-thread factorizations replay
//! inline) and reads that thread's counters, so what the harness's other
//! threads allocate meanwhile does not count.

mod common;

use common::alloc::{live_of, peak_of, window};
use parsplu::core::{analyze, factor_left_looking, BlockMatrix, Options, SluSession, SparseLu};
use parsplu::matgen::{cross_block_pivots, fem2d_unsymmetric, paper_matrix, Scale};
use parsplu::obs::CountingAlloc;
use parsplu::sparse::CscMatrix;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One slot of a held session's scatter map: the offset of its word in
/// its block column's buffer, one `u32`.
const MAP_SLOT_BYTES: u64 = 4;

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
    let within_2_percent = |what: &str, live: u64, resident: u64| {
        assert!(
            live.abs_diff(resident) * 50 <= live,
            "{what}: resident_bytes says {resident}, the allocator counts {live}"
        );
    };
    for (name, a) in &held {
        let (lu, lu_live) = live_of(|| SparseLu::factor(a, &Options::default()).unwrap());
        let resident = lu.session().resident_bytes();
        within_2_percent(&format!("{name} one-shot"), lu_live, resident);
        let (mut s, analyzed) =
            window(|| SluSession::analyze(a.pattern(), &Options::default()).unwrap());
        let analyzed_live = analyzed.live;
        within_2_percent(
            &format!("{name} analyzed"),
            analyzed_live,
            s.resident_bytes(),
        );
        let ((), factored) = window(|| s.factor(a).unwrap());
        let session_live = analyzed_live + factored.live;
        let map = MAP_SLOT_BYTES * a.nnz() as u64;
        assert_eq!(
            session_live,
            lu_live + map,
            "{name}: live bytes beyond the one-shot's"
        );
        within_2_percent(&format!("{name} held"), session_live, s.resident_bytes());
        // Every array is counted once, at its element size: what is left
        // over is the header of the structure the session and its storage
        // share (its `Arc` allocation, 296 bytes), nothing per row or block.
        assert!(
            session_live.abs_diff(s.resident_bytes()) <= 512,
            "{name}: resident_bytes says {}, the allocator counts {session_live}",
            s.resident_bytes()
        );
        assert_eq!(s.resident_bytes() - resident, map, "{name}");
        if *name == "sherman3" {
            let nb = s.symbolic().block_structure.num_blocks() as u64;
            let allocations = factored.allocations;
            assert!(
                allocations <= nb + 64,
                "{name}: the first factor made {allocations} allocations over {nb} block columns"
            );
            assert!(
                analyzed_live <= 253_920,
                "{name}: an analyzed session holds {analyzed_live} bytes"
            );
            assert!(
                session_live <= 2_550_708,
                "{name}: a held session holds {session_live} bytes"
            );
        }
        drop((lu, s));
    }

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
