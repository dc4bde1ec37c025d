//! A counting global allocator: heap use as a deterministic work counter,
//! beside [`crate::crypto::sha256_block_count`].
//!
//! A test binary that wants its allocations counted declares
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: hc_types::CountingAlloc = hc_types::CountingAlloc;
//! ```
//!
//! and reads [`CountingAlloc::counts`] around the work it measures. The
//! counters are process-wide, so such a binary holds one `#[test]`, as the
//! SHA-256 guards do.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// What the process has allocated through [`CountingAlloc`] so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// Allocations made (a reallocation counts as one).
    pub calls: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
    /// Bytes allocated and not yet freed.
    pub live: u64,
    /// The most bytes live at once since the last
    /// [`CountingAlloc::reset_peak`].
    pub peak: u64,
}

/// The system allocator, counting calls, bytes, live bytes and their peak.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

impl CountingAlloc {
    /// The counters now.
    pub fn counts() -> AllocCounts {
        AllocCounts {
            calls: CALLS.load(Relaxed),
            bytes: BYTES.load(Relaxed),
            live: LIVE.load(Relaxed),
            peak: PEAK.load(Relaxed),
        }
    }

    /// Starts a new peak from the bytes live now.
    pub fn reset_peak() {
        PEAK.store(LIVE.load(Relaxed), Relaxed);
    }

    fn note_alloc(size: usize) {
        let size = size as u64;
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size, Relaxed);
        let live = LIVE.fetch_add(size, Relaxed) + size;
        PEAK.fetch_max(live, Relaxed);
    }
}

#[allow(unsafe_code)]
// SAFETY: a global allocator implements an unsafe trait. Every method hands
// its arguments to `System` unchanged and returns what `System` returns; the
// counting beside it touches only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            Self::note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }
}
