//! Counting global allocator: the probe behind `asic.allocs_per_pkt` and
//! `asic.alloc_bytes_per_pkt`.
//!
//! The library crates stay `forbid(unsafe_code)`; this is the one place the
//! benchmark touches the allocator API (the `micro_dataplane` bench set the
//! precedent). The `dejavu-perf` binary installs [`CountingAlloc`] as its
//! global allocator; it forwards every call to [`System`] unchanged and
//! bumps two relaxed counters. In a process that does not install it (the
//! crate's tests) the counters stay at zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// [`System`] plus an allocation and a byte counter.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with its arguments unchanged,
// so `System`'s guarantees carry over; the only addition is two relaxed
// atomic increments, which touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout` (caller's contract).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes requested)` since process start, across all
/// threads. Take it before and after a region and subtract.
pub fn snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}
