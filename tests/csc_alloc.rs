//! What a compressed-column matrix holds, asserted with the counting
//! global allocator: a `u32` row index and an `f64` value per stored
//! entry, a `usize` pointer per column and one more —
//! `12·nnz + 8·(n + 1)` bytes, which is what `CscMatrix::heap_bytes`
//! says — for the benchmark's 40x40 mesh and the full sherman3 analogue,
//! as the generators build them, as the Matrix Market reader reads the
//! writer's file and as a clone copies them.
//!
//! This file installs the counting allocator for its whole test binary.
//! Each window runs on one thread and reads that thread's live bytes, so
//! what the harness's other threads allocate meanwhile does not count.

mod common;

use common::alloc::live_of;
use parsplu::matgen::{fem2d_unsymmetric, paper_matrix, Scale};
use parsplu::obs::CountingAlloc;
use parsplu::sparse::io::{format_matrix_market, parse_matrix_market};
use parsplu::sparse::CscMatrix;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `make`'s matrix, as built, as read back from the writer's file and as
/// cloned, holds at most 64 bytes beyond what `heap_bytes` counts, and that
/// count is 12 bytes per entry and a word per column pointer.
fn holds_its_arrays(name: &str, make: impl FnOnce() -> CscMatrix) {
    let (a, built_live) = live_of(make);
    let (nnz, n) = (a.nnz() as u64, a.ncols() as u64);
    let exact = 12 * nnz + 8 * (n + 1);
    assert_eq!(a.heap_bytes(), exact, "{name}");
    let text = format_matrix_market(&a);
    let (read, read_live) = live_of(|| parse_matrix_market(&text).unwrap());
    let (copy, copy_live) = live_of(|| a.clone());
    assert!(read == a && copy == a, "{name}");
    for (how, live) in [
        ("generated", built_live),
        ("read", read_live),
        ("cloned", copy_live),
    ] {
        assert!(
            live <= exact + 64,
            "{name} {how}: {live} bytes live, {nnz} entries and {n} columns allow {exact} + 64"
        );
    }
}

#[test]
fn a_matrix_holds_twelve_bytes_per_entry_and_a_word_per_column() {
    holds_its_arrays("mesh40x40", || fem2d_unsymmetric(40, 40, 2, 1));
    holds_its_arrays("sherman3", || {
        paper_matrix("sherman3", Scale::Full).unwrap()
    });
}
