//! Bounds the heap high-water mark of Table 13's EIE layer build.
//!
//! The layer is `gen::uniform(4096, 9216, 3_700_000, 0xE1E)`: 4.16M drawn
//! triplets (~50 MB) deduplicated in place into a 3.7M-entry COO, then
//! converted to the CSC that the app keeps (~30 MB). Converting from a
//! borrowed COO holds both at once and peaks near 80 MB; the owned
//! conversion (`From<Coo> for Csc`) reuses the COO's storage, so the
//! build peaks at the drawn triplets. A counting global allocator tracks
//! live bytes and their peak.
//!
//! The test lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide; it is the binary's only test,
//! so no other test's allocations overlap the measurement.

use capstan_tensor::{gen, Csc};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct PeakAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose `GlobalAlloc` contract is the one the caller already meets; the
// only extra work is updating two atomic counters, which neither
// allocates nor touches the memory being handed out.
unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size <= layout.size() {
                // The system allocator shrinks a block in place (the
                // conversion shrinks the COO's storage chunk by chunk).
                shrink(layout.size() - new_size);
            } else {
                // Count the larger size until the old block is released,
                // so a growing realloc's peak is never under-reported.
                grow(new_size);
                shrink(layout.size());
            }
        }
        new
    }
}

#[global_allocator]
static GLOBAL: PeakAllocator = PeakAllocator;

/// Bound on the peak live heap bytes above the starting level while
/// generating the layer and converting it. The owned conversion peaks
/// at ~52 MB, the drawn triplets; the borrowed one peaked at ~80 MB.
const PEAK_BOUND_BYTES: usize = 64_000_000;

#[test]
fn eie_layer_build_peaks_at_the_drawn_triplets() {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let csc = Csc::from(gen::uniform(4096, 9216, 3_700_000, 0xE1E));
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert_eq!(csc.nnz(), 3_700_000, "layer shape changed");
    assert!(
        peak < PEAK_BOUND_BYTES,
        "EIE layer build peaked at {peak} heap bytes above its start (bound {PEAK_BOUND_BYTES})"
    );
}
