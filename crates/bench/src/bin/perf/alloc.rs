//! Counting global allocator: allocation count, bytes requested, live bytes
//! and the live-bytes high-water mark.
//!
//! The benchmark is single-threaded, so every counter uses `Relaxed`: each is
//! a statistic that publishes no other data.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator with counters in front of it.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    // RELAXED-OK: statistics read on the same thread after the measured section.
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    // RELAXED-OK: same as above.
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    // RELAXED-OK: same as above.
    let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    // RELAXED-OK: same as above.
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn on_free(size: usize) {
    // RELAXED-OK: statistic read on the same thread after the measured section.
    LIVE.fetch_sub(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the GlobalAlloc contract; the counter updates
// touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: unsafe per the GlobalAlloc trait; layout validity is the
    // caller's obligation and is forwarded unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller's layout goes unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: unsafe per the GlobalAlloc trait; the ptr/layout pairing is the
    // caller's obligation and is forwarded unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        // SAFETY: `ptr` came from `alloc`/`realloc` above, that is from the
        // system allocator, with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: unsafe per the GlobalAlloc trait; the ptr/layout pairing and
    // the validity of `new_size` are the caller's obligations.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_free(layout.size());
        on_alloc(new_size);
        // SAFETY: `ptr` came from the system allocator with `layout`; all
        // three arguments are forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A reading of the counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocations (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// Bytes allocated and not yet freed.
    pub live: u64,
    /// Highest `live` since the last [`reset_peak`].
    pub peak: u64,
}

/// Reads every counter.
pub fn snapshot() -> Snapshot {
    // RELAXED-OK: single-threaded benchmark; the loads order nothing.
    Snapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        live: LIVE.load(Ordering::Relaxed),
        peak: PEAK.load(Ordering::Relaxed),
    }
}

/// Restarts the high-water mark from the current live bytes (per workload).
pub fn reset_peak() {
    // RELAXED-OK: single-threaded benchmark; the accesses order nothing.
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test harness runs tests on several threads, so the counters see
    // other tests' traffic: assert only what holds under interference.
    #[test]
    fn counts_allocations_bytes_and_a_high_water_mark() {
        let before = snapshot();
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        let during = snapshot();
        assert!(during.allocs > before.allocs);
        assert!(during.bytes >= before.bytes + (1 << 20));
        assert!(during.peak >= 1 << 20);
        drop(v);
        reset_peak();
        assert!(snapshot().peak <= during.peak);
    }
}
