//! Blocking-reachability fixture: hot-path fns that reach a lock
//! acquisition or a blocking call, directly and through a call chain.

use nm_sync::Mutex;
use std::sync::mpsc::Receiver;

pub struct DevA {
    m1: Mutex<u32>,
}

fn grab_a(a: &DevA) -> u32 {
    *a.m1.lock()
}

/// Hot fn reaching a lock acquisition transitively through `grab_a`:
/// 1x hot-path-blocking (message names the chain).
// nm-analyzer: hot_path
pub fn hot_lookup(a: &DevA) -> u32 {
    grab_a(a)
}

/// Hot fn blocking directly on a channel receive: 1x hot-path-blocking.
// nm-analyzer: hot_path
pub fn hot_poll(rx: &Receiver<u32>) -> u32 {
    rx.recv().unwrap_or(0)
}

/// Blocking in a hot fn with the reason written down: allowed.
// nm-analyzer: hot_path
pub fn hot_cold_fallback(a: &DevA) -> u32 {
    // nm-analyzer: allow(hot-path-blocking) -- cold-start fallback, measured off the fast path
    *a.m1.lock()
}
