//! Opt-in counting global allocator for peak-heap accounting.
//!
//! Install [`CountingAlloc`] as the binary's `#[global_allocator]` (the
//! `parsplu` CLI does this behind the `alloc-track` feature) and
//! [`heap_stats`] reports live and high-water heap bytes and counts the
//! allocations; the driver resets the high-water mark at each phase
//! boundary to attribute peaks per phase. [`thread_heap_stats`] reads the
//! calling thread's own live and high-water bytes and allocation count,
//! which other threads do not move. When no counting allocator is
//! installed, both return `None` and the whole module costs nothing.
//!
//! The counters are relaxed atomics on the allocation path — three adds
//! and a `fetch_max` per allocation, and a thread-local cell — which is
//! measurable but small next to the allocation itself; that is why
//! installation is opt-in rather than default.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static CURRENT: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static INSTALLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// This thread's live bytes, their high-water mark and its allocation
    /// count. `const` and without a destructor: the allocator reaches it
    /// without allocating.
    static THREAD: Cell<(i64, i64, u64)> = const { Cell::new((0, 0, 0)) };
}

/// Live and high-water heap byte counts from the counting allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapStats {
    /// Bytes currently allocated.
    pub current_bytes: u64,
    /// High-water mark since process start or the last
    /// [`reset_heap_peak`].
    pub peak_bytes: u64,
    /// Allocations (and growing reallocations) since process start.
    pub allocations: u64,
}

/// Heap counters, or `None` when no [`CountingAlloc`] is installed as the
/// global allocator.
pub fn heap_stats() -> Option<HeapStats> {
    if !INSTALLED.load(Ordering::Relaxed) {
        return None;
    }
    Some(HeapStats {
        current_bytes: CURRENT.load(Ordering::Relaxed),
        peak_bytes: PEAK.load(Ordering::Relaxed),
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
    })
}

/// The calling thread's heap counts from the counting allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadHeapStats {
    /// Bytes this thread allocated less the bytes it freed (a block counts
    /// against the thread that frees it, so this may be negative).
    pub current_bytes: i64,
    /// High-water mark of `current_bytes` since the thread started or its
    /// last [`reset_heap_peak`].
    pub peak_bytes: i64,
    /// Allocations (and growing reallocations) this thread made.
    pub allocations: u64,
}

/// The calling thread's counters, or `None` when no [`CountingAlloc`] is
/// installed as the global allocator.
pub fn thread_heap_stats() -> Option<ThreadHeapStats> {
    let (current_bytes, peak_bytes, allocations) = THREAD.with(Cell::get);
    let stats = ThreadHeapStats {
        current_bytes,
        peak_bytes,
        allocations,
    };
    INSTALLED.load(Ordering::Relaxed).then_some(stats)
}

/// Resets the high-water mark to the current live size, so the next
/// [`heap_stats`] reports the peak *since this call* — the per-phase
/// attribution primitive — and likewise the calling thread's in
/// [`thread_heap_stats`]. No-op without a counting allocator.
pub fn reset_heap_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
    THREAD.with(|t| t.set((t.get().0, t.get().0, t.get().2)));
}

/// A counting wrapper over the system allocator. Install with
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: splu_obs::alloc::CountingAlloc = splu_obs::alloc::CountingAlloc;
/// ```
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn on_alloc(size: usize) {
        INSTALLED.store(true, Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let now = CURRENT.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        PEAK.fetch_max(now, Ordering::Relaxed);
        let _ = THREAD.try_with(|t| {
            let now = t.get().0 + size as i64;
            t.set((now, t.get().1.max(now), t.get().2 + 1));
        });
    }

    #[inline]
    fn on_dealloc(size: usize) {
        CURRENT.fetch_sub(size as u64, Ordering::Relaxed);
        let _ = THREAD.try_with(|t| t.set((t.get().0 - size as i64, t.get().1, t.get().2)));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::on_dealloc(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Grow or shrink: account the delta against the old size.
            if new_size >= layout.size() {
                Self::on_alloc(new_size - layout.size());
            } else {
                Self::on_dealloc(layout.size() - new_size);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install the allocator, so stats stay None
    // and the reset is a harmless no-op — exactly the uninstrumented
    // production behavior.
    #[test]
    fn uninstalled_reports_none() {
        assert_eq!(heap_stats(), None);
        reset_heap_peak();
        assert_eq!(heap_stats(), None);
        assert_eq!(thread_heap_stats(), None);
    }
}
