//! Allocation windows over the calling thread's counters
//! (`obs::thread_heap_stats`): what a window's closure allocates on this
//! thread, untouched by what the harness's other threads allocate
//! meanwhile. A binary using them installs `obs::CountingAlloc` as its
//! global allocator, and each closure must do its work on the calling
//! thread.

use parsplu::obs::{reset_heap_peak, thread_heap_stats, ThreadHeapStats};

fn counters() -> ThreadHeapStats {
    thread_heap_stats().expect("allocator installed")
}

/// What one window allocated on this thread.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Live bytes it left behind.
    pub live: u64,
    /// Growth of the heap peak over the live bytes before it ran.
    pub peak: u64,
    /// Allocations (and growing reallocations) it made.
    pub allocations: u64,
}

/// `f`'s result and what it allocated on this thread.
pub fn window<T>(f: impl FnOnce() -> T) -> (T, Window) {
    let before = counters();
    reset_heap_peak();
    let out = f();
    let after = counters();
    let window = Window {
        live: (after.current_bytes - before.current_bytes) as u64,
        peak: (after.peak_bytes - before.current_bytes) as u64,
        allocations: after.allocations - before.allocations,
    };
    (out, window)
}

/// `f`'s result and the growth of the heap peak over the live bytes before
/// it ran.
pub fn peak_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, w) = window(f);
    (out, w.peak)
}

/// `f`'s result and the live bytes it leaves behind.
pub fn live_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, w) = window(f);
    (out, w.live)
}
