//! Bounds the heap high-water mark of the planner's largest BCSR probe.
//!
//! The planner records `BcsrSpmv` over Flickr at the `small` graph scale
//! (12,313 rows, 147,558 non-zeros, 85,452 16×16 blocks at under two
//! non-zeros each). Dense host payloads would hold `blocks * 256` `f32`
//! values, ~83 MiB of mostly zeros; the host layout keeps only the
//! non-zeros, and `record` expands one block at a time into a scratch
//! payload. A counting global allocator tracks live bytes and their peak,
//! and the test bounds the peak reached while building and recording.
//!
//! The test lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide; it is the binary's only test,
//! so no other test's allocations overlap the measurement.

use capstan_apps::spmv::BcsrSpmv;
use capstan_core::config::CapstanConfig;
use capstan_tensor::gen::Dataset;
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
            // Count the larger size until the old block is released, so
            // a growing realloc's peak is never under-reported.
            grow(new_size);
            shrink(layout.size());
        }
        new
    }
}

#[global_allocator]
static GLOBAL: PeakAllocator = PeakAllocator;

/// Bound on the peak live heap bytes above the starting level while
/// building and recording the probe. The sparse host layout peaks at
/// ~5.3 MB (1.9 MB of matrix, the rest the recorded workload); dense
/// payloads peaked at ~91.3 MB. The bound sits near their geometric mean,
/// over 4× from each.
const PEAK_BOUND_BYTES: usize = 22_000_000;

#[test]
fn planner_bcsr_probe_of_flickr_stays_sparse_on_the_host() {
    let coo = Dataset::Flickr.generate_scaled(0.015);
    let cfg = CapstanConfig::paper_default();
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let app = BcsrSpmv::new(&coo, 16);
    let (workload, y) = app.record(&cfg);
    let peak = PEAK.load(Ordering::Relaxed) - base;
    let blocks = app.matrix().blocks();
    drop((app, workload, y));
    assert_eq!(
        (coo.nnz(), blocks),
        (147_558, 85_452),
        "probe shape changed"
    );
    assert!(
        peak < PEAK_BOUND_BYTES,
        "BCSR probe peaked at {peak} heap bytes above its start (bound {PEAK_BOUND_BYTES})"
    );
}
