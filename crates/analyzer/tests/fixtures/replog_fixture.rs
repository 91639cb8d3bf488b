//! Replica read-path fixture: the seqlock-style catch-up loop held to the
//! no-alloc and concurrency gates. Scanned as `fixture_facade` so the
//! nm-sync facade rule applies — mirroring crates/replog, where the op-log
//! ring and replica reads must stay allocation-free and loom-modelable.

use std::sync::atomic::{AtomicU64, Ordering}; // 1x facade-bypass

pub struct Slot {
    pub marker: AtomicU64,
}

/// Publish with a bare Relaxed marker store: 1x atomic-mixed-relaxed
/// (`marker` is acquire-only via `apply_pending`). A seqlock publish needs
/// Release — Relaxed lets the word stores reorder after the marker and
/// readers observe torn ops.
pub fn publish(slot: &Slot, seq: u64) {
    slot.marker.store(seq + 1, Ordering::Relaxed);
}

/// Justified Relaxed on a pure diagnostic: clean.
pub fn lag_estimate(slot: &Slot) -> u64 {
    // RELAXED-OK: resync diagnostic, never ordered against op data.
    slot.marker.load(Ordering::Relaxed)
}

fn lap_snapshot() -> Vec<u64> {
    Vec::new()
}

/// Catch-up loop reaching an allocating lap fallback: 1x no-alloc
/// (transitive, `apply_pending` -> `lap_snapshot`).
// nm-analyzer: no_alloc
pub fn apply_pending(slots: &[Slot], idx: usize) -> u64 {
    let m = slots[idx].marker.load(Ordering::Acquire);
    if m == 0 {
        return lap_snapshot().len() as u64;
    }
    m
}

/// Cold resync may allocate when the reason is written down: 1x allowed
/// no-alloc.
// nm-analyzer: no_alloc
pub fn resync_state(master: &[u64]) -> Vec<u64> {
    // nm-analyzer: allow(no-alloc) -- cold lap-recovery path, bounded by ring capacity
    master.to_vec()
}
