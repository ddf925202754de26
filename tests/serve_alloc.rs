//! What a daemon job holds beyond the sessions, asserted with the counting
//! global allocator on the in-process serve loop, one job in flight:
//!
//! * a `refactor` of a session that holds a matrix streams its values file
//!   against the held pattern: the job's heap peak stays within one value
//!   array (`nnz` × 8 bytes) and one read buffer of the live bytes before
//!   it, and the job's own bookkeeping — no text of the file, no
//!   triplets, no second pattern;
//! * a `solve --rhs` streams its right-hand side the same way: the peak
//!   stays within a few `n`-vectors, one read buffer and the bookkeeping.
//!
//! This file installs the counting allocator for its whole test binary,
//! so it holds exactly one test: a concurrent test in the same process
//! would race the global peak counter.

mod common;

use common::stepped::stepped;
use parsplu::matgen::{manufactured_rhs, paper_matrix, Scale};
use parsplu::obs::CountingAlloc;
use parsplu::serve::serve_loop;
use parsplu::sparse::io::{format_matrix_market, STREAM_CHUNK};
use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The counting allocator, with a high-water mark of this test's own: an
/// observed job's phase spans reset the shared one as they attribute the
/// heap to phases.
struct JobPeak;

static LIVE: AtomicU64 = AtomicU64::new(0);
static HIGH: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    HIGH.fetch_max(now, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for JobPeak {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = CountingAlloc.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CountingAlloc.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = CountingAlloc.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = CountingAlloc.realloc(ptr, layout, new_size);
        if !p.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => shrank(layout.size() - new_size),
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: JobPeak = JobPeak;

/// What any job allocates before it reads its input, whatever the input:
/// the job line and its tokens, the pinned session, the observation
/// session.
const JOB_BOOKKEEPING: u64 = 2048;

#[test]
fn streamed_jobs_hold_one_array_and_one_buffer() {
    let mut a = paper_matrix("sherman3", Scale::Full).unwrap();
    let (n, nnz) = (a.nrows() as u64, a.nnz() as u64);
    let dir = std::env::temp_dir();
    let path = |name: &str| {
        let p = dir.join(format!("parsplu-serve-alloc-{}-{name}", std::process::id()));
        p.to_str().unwrap().to_string()
    };
    let (base, values, rhs) = (path("a.mtx"), path("b.mtx"), path("rhs.txt"));
    std::fs::write(&base, format_matrix_market(&a)).unwrap();
    a.values_mut().iter_mut().for_each(|v| *v *= 1.5);
    let file_bytes = format_matrix_market(&a);
    std::fs::write(&values, &file_bytes).unwrap();
    let b = manufactured_rhs(&a, 3).1;
    std::fs::write(
        &rhs,
        b.iter().map(|v| format!("{v:e}\n")).collect::<String>(),
    )
    .unwrap();

    let script = [
        format!("analyze s {base}"),
        format!("factor s {base}"),
        // The first refactor allocates what every later one reuses.
        format!("refactor s {values}"),
        format!("solve s --rhs {rhs}"),
        format!("refactor s {base}"),
        format!("solve s --rhs {rhs}"),
        "quit".to_string(),
    ];
    // Growth of the heap peak over the live bytes as each line is handed
    // out, measured when the next line is.
    let mut peaks = vec![0u64; script.len()];
    let mut before = 0;
    let hook = |i: usize| {
        // The reply is written before the job drops what it holds: wait
        // for the worker to come to rest.
        let mut live = LIVE.load(Ordering::Relaxed);
        loop {
            std::thread::sleep(std::time::Duration::from_millis(10));
            let again = LIVE.load(Ordering::Relaxed);
            if again == live {
                break;
            }
            live = again;
        }
        if i > 0 {
            peaks[i - 1] = HIGH.load(Ordering::Relaxed) - before;
        }
        before = live;
        HIGH.store(live, Ordering::Relaxed);
    };
    let (reader, replies) = stepped(&script, hook);
    let writer = Mutex::new(replies);
    serve_loop(reader, &writer, 1, None).unwrap();
    for reply in writer.into_inner().unwrap().lines() {
        assert!(reply.contains(r#""status":"ok""#), "{reply}");
    }
    for p in [&base, &values, &rhs] {
        let _ = std::fs::remove_file(p);
    }
    let buffer = STREAM_CHUNK as u64;
    let (refactor, solve) = (peaks[4], peaks[5]);
    assert!(
        refactor <= nnz * 8 + buffer + JOB_BOOKKEEPING,
        "a streamed refactor of {nnz} values grew the heap peak by {refactor} bytes"
    );
    assert!(
        solve <= 4 * n * 8 + buffer + JOB_BOOKKEEPING,
        "a streamed solve of {n} values grew the heap peak by {solve} bytes"
    );
    // The general reader held the text, three triplet arrays and a pattern
    // at once: more than the file's size.
    assert!(refactor < file_bytes.len() as u64 / 2, "{refactor} bytes");
}
