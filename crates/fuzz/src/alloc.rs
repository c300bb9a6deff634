//! A counting global allocator: the fuzz harness's bounded-allocation
//! oracle.
//!
//! Register it in a binary with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: retypd_fuzz::alloc::CountingAlloc = retypd_fuzz::alloc::CountingAlloc;
//! ```
//!
//! and read [`CountingAlloc::current`] / [`CountingAlloc::peak`] between
//! iterations, or [`CountingAlloc::allocations`] around one call to count
//! the allocations it makes. The counters are process-wide relaxed
//! atomics — cheap enough to leave on for every allocation, precise enough
//! to catch a mutant that makes the server (or the decode path) balloon by
//! hundreds of megabytes. Note that [`retypd_core::Symbol`] interning leaks by
//! design (symbols live for the process), so live-growth bounds must be
//! generous rather than tight.

use std::alloc::{GlobalAlloc, Layout, System};
// A global allocator must not route through the model-checking facade:
// under `--cfg retypd_model_check` every facade op may allocate (trace
// recording), and an allocator that allocates on its own path re-enters
// itself. Raw std atomics are load-bearing here, not an oversight.
// retypd-lint: allow(no-raw-atomics) GlobalAlloc cannot re-enter the facade
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// The counting allocator: forwards to [`System`], tracking live bytes,
/// the high-water mark and the number of allocation calls.
pub struct CountingAlloc;

fn on_alloc(n: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let live = CURRENT.fetch_add(n, Ordering::Relaxed) + n;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: defers all allocation to `System`; the bookkeeping only touches
// atomics and never allocates itself.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: `layout` is forwarded to `System.alloc` unchanged, so the
    // returned pointer satisfies exactly the contract `System` promises;
    // the counter update happens only on success and never allocates.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    // SAFETY: the caller guarantees `ptr` came from this allocator with
    // this `layout` (the GlobalAlloc contract); both are forwarded to
    // `System.dealloc` verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    // SAFETY: `ptr`/`layout`/`new_size` obey the GlobalAlloc realloc
    // contract by the caller's guarantee and are forwarded to
    // `System.realloc` unchanged; on failure the original allocation is
    // untouched, so the counters are only adjusted on success.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

impl CountingAlloc {
    /// Live heap bytes right now.
    pub fn current() -> usize {
        CURRENT.load(Ordering::Relaxed)
    }

    /// High-water mark of live heap bytes since process start (or the
    /// last [`CountingAlloc::reset_peak`]).
    pub fn peak() -> usize {
        PEAK.load(Ordering::Relaxed)
    }

    /// Allocation calls (`alloc`, `alloc_zeroed` and `realloc`) that have
    /// succeeded since process start.
    pub fn allocations() -> usize {
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Resets the high-water mark to the current live count.
    pub fn reset_peak() {
        PEAK.store(Self::current(), Ordering::Relaxed);
    }
}
