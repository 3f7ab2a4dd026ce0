//! A counting `#[global_allocator]` wrapper (feature `count-alloc`).
//!
//! Dependency-free allocation instrumentation for tests and benches:
//! [`CountingAlloc`] forwards every call to [`std::alloc::System`] and
//! counts it twice — in process-wide relaxed atomics and in the calling
//! thread's own counters. Install it in a test or bench *binary* —
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: gfd_util::alloc::CountingAlloc = gfd_util::alloc::CountingAlloc;
//! ```
//!
//! — then bracket the code under measurement with deltas of two
//! readings.
//!
//! * **This thread** ([`thread_allocation_count`],
//!   [`thread_allocated_bytes`], [`thread_live_bytes`]): exact for code
//!   that runs on the calling thread, whatever other threads — a test
//!   harness spawning the next test, a neighbouring test warming up —
//!   do meanwhile. Zero-allocation gates read these, once per gate.
//! * **The process** ([`allocation_count`], [`allocated_bytes`]): every
//!   thread's calls. A reader whose measured code fans out onto worker
//!   threads needs these — the threaded unit loop runs units on scoped
//!   threads, so the lifecycle benchmark's `*_alloc_*` metrics and the
//!   microbench's `allocs_per_iter` rows stay process-wide, and read
//!   exactly only while nothing else in the process allocates.
//!
//! The thread counters are `const`-initialized thread-locals of plain
//! `Cell`s: reading or bumping one allocates nothing and registers no
//! destructor, so the allocator may touch them on any thread at any
//! time. The wrapper costs two relaxed `fetch_add`s and three
//! thread-local adds per allocation, and is compiled only under the
//! `count-alloc` feature, which only the bench/test crates enable —
//! production builds of the library crates never pay for it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// One thread's allocator calls: acquisitions, bytes requested, bytes
/// given back.
struct ThreadCounters {
    allocations: Cell<u64>,
    allocated: Cell<u64>,
    freed: Cell<u64>,
}

thread_local! {
    static THREAD: ThreadCounters = const {
        ThreadCounters {
            allocations: Cell::new(0),
            allocated: Cell::new(0),
            freed: Cell::new(0),
        }
    };
}

/// Counts one acquisition of `size` bytes that gives back `freed`.
fn count(size: usize, freed: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let _ = THREAD.try_with(|t| {
        t.allocations.set(t.allocations.get() + 1);
        t.allocated.set(t.allocated.get() + size as u64);
        t.freed.set(t.freed.get() + freed as u64);
    });
}

/// System-allocator wrapper that counts calls; see the module docs.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is a fresh acquisition of heap space: count it as
        // an allocation so "zero allocations" really means the hot
        // path never grows a buffer.
        count(new_size, layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = THREAD.try_with(|t| t.freed.set(t.freed.get() + layout.size() as u64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Total allocator acquisitions (alloc + alloc_zeroed + realloc) since
/// process start, on every thread. Meaningful only when
/// [`CountingAlloc`] is installed as the global allocator.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Total bytes requested since process start, on every thread.
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

/// Acquisitions the calling thread has made since it started.
pub fn thread_allocation_count() -> u64 {
    THREAD.with(|t| t.allocations.get())
}

/// Bytes the calling thread has requested since it started.
pub fn thread_allocated_bytes() -> u64 {
    THREAD.with(|t| t.allocated.get())
}

/// Bytes the calling thread has requested minus the bytes it has given
/// back — what its allocations retain, between two readings. A realloc
/// gives back its old size and requests its new one. Memory one thread
/// allocates and another frees counts against the freeing thread, so a
/// single reading may be negative; the difference of two readings
/// around code that keeps to one thread is exact.
pub fn thread_live_bytes() -> i64 {
    THREAD.with(|t| t.allocated.get() as i64 - t.freed.get() as i64)
}
