//! A counting `#[global_allocator]` wrapper (feature `count-alloc`).
//!
//! Dependency-free allocation instrumentation for tests and benches:
//! [`CountingAlloc`] forwards every call to [`std::alloc::System`] and
//! bumps relaxed atomic counters. Install it in a test or bench
//! *binary* —
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: gfd_util::alloc::CountingAlloc = gfd_util::alloc::CountingAlloc;
//! ```
//!
//! — then bracket the code under measurement with
//! [`allocation_count`] deltas. The counters are process-global, so
//! measurements from concurrently running threads interleave; probes
//! that assert exact counts should run the bracketed section several
//! times and take the minimum delta.
//!
//! The wrapper costs one relaxed `fetch_add` per allocator call and is
//! compiled only under the `count-alloc` feature, which only the
//! bench/test crates enable — production builds of the library crates
//! never pay for it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);

/// System-allocator wrapper that counts calls; see the module docs.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is a fresh acquisition of heap space: count it as
        // an allocation so "zero allocations" really means the hot
        // path never grows a buffer.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Total allocator acquisitions (alloc + alloc_zeroed + realloc) since
/// process start. Meaningful only when [`CountingAlloc`] is installed
/// as the global allocator.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Total bytes requested since process start.
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

/// Bytes requested and not yet given back — what the program retains.
/// A realloc gives back its old size and requests its new one. The two
/// counters are read one after the other, so the figure is exact only
/// while no other thread allocates.
pub fn live_bytes() -> u64 {
    let freed = FREED_BYTES.load(Ordering::Relaxed);
    ALLOCATED_BYTES.load(Ordering::Relaxed) - freed
}

/// Runs `f` repeatedly (`rounds` times) and returns the **minimum**
/// allocation-count delta observed across rounds — the robust probe
/// statistic when unrelated threads (e.g. a test harness) may allocate
/// concurrently.
pub fn min_allocation_delta(rounds: usize, mut f: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..rounds.max(1) {
        let before = allocation_count();
        f();
        best = best.min(allocation_count() - before);
    }
    best
}
