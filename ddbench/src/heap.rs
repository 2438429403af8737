//! Peak heap use of the process, counted by a global allocator that wraps
//! the system one. Unlike the kernel's `VmHWM`, whose per-CPU counters
//! blur a 5–10 MB process by a few hundred KB from run to run, the count is
//! exact, so a pass at one seed reads the same peak every time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, with live and peak byte counts.
struct Counting;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The most bytes live on the heap at once so far, in MiB.
pub fn peak_mib() -> f64 {
    PEAK.load(Relaxed) as f64 / (1 << 20) as f64
}

/// Runs `f`, which must free everything it allocates before it returns,
/// without letting its allocations raise the peak. A pass runs on one
/// thread; a peak that another thread reached during `f` is forgotten too.
pub fn untracked<R>(f: impl FnOnce() -> R) -> R {
    let peak = PEAK.load(Relaxed);
    let r = f();
    PEAK.store(peak, Relaxed);
    r
}
