//! The minimum-degree ordering's workspace, asserted with the counting
//! global allocator: it is sized once, from `nnz(A)` and `n`, before the
//! first pivot, and a dense row costs its length — `AᵀA` is never formed.
//!
//! This file installs the counting allocator for its whole test binary.
//! Its window runs on one thread and reads that thread's counters, so what
//! the harness's other threads allocate meanwhile does not count.

mod common;

use common::alloc::peak_of;
use parsplu::matgen::{paper_matrix, Scale};
use parsplu::obs::{thread_heap_stats, CountingAlloc};
use parsplu::ordering::column_min_degree_with;
use parsplu::sparse::SparsityPattern;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Tridiagonal of order `n` with row 0 made dense: `AᵀA` is full
/// (`n²` entries — 288 MB of indices at `n = 6000`), `A` has about `4n`.
fn bordered(n: usize) -> SparsityPattern {
    let band = (0..n).flat_map(|i| [i.saturating_sub(1), i, (i + 1).min(n - 1)].map(|j| (i, j)));
    SparsityPattern::from_entries(n, n, band.chain((0..n).map(|j| (0, j)))).unwrap()
}

#[test]
fn the_ordering_workspace_is_sized_once_from_nnz_and_n() {
    let sherman3 = paper_matrix("sherman3", Scale::Full).unwrap();
    // The bordered pattern is over after one pivot (everything else is
    // absorbed or mass-eliminated with it); sherman3 takes thousands.
    for (name, p, least_pivots) in [
        ("bordered", bordered(6000), 1),
        ("sherman3", sherman3.pattern().clone(), 1000),
    ] {
        // The high-water mark at every poll: one per pivot, the first
        // after the workspace is built.
        let mut peaks = Vec::with_capacity(p.ncols());
        let (perm, peak) = peak_of(|| {
            column_min_degree_with(&p, None, &mut || {
                peaks.push(thread_heap_stats().unwrap().peak_bytes);
                true
            })
            .unwrap()
        });
        assert_eq!(perm.len(), p.ncols());
        assert!(
            peaks.len() >= least_pivots,
            "{name}: {} pivots",
            peaks.len()
        );
        assert_eq!(
            peaks.first(),
            peaks.last(),
            "{name}: the heap grew between the first pivot and the last"
        );
        let bound = 64 * (p.nnz() + p.ncols()) as u64;
        assert!(
            peak < bound,
            "{name}: ordering peaked at {peak} bytes, bound {bound}"
        );
    }
}
