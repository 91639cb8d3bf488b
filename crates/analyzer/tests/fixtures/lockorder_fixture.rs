//! Lock-discipline fixture: a deliberate two-lock cycle plus hot-path
//! blocking reachability. `DevA::m1` and `DevB::m2` are acquired in both
//! orders across `lock_both` / `lock_back` (the latter through the free
//! fn `grab_a`), so the global lock-order graph carries an A->B->A cycle:
//! 1x lock-order-cycle, reported with both witnessing acquisition chains.

use nm_sync::Mutex;
use std::sync::mpsc::Receiver;

pub struct DevA {
    m1: Mutex<u32>,
}

pub struct DevB {
    m2: Mutex<u32>,
}

impl DevA {
    /// Acquires `m1` then `m2`: the A -> B edge.
    pub fn lock_both(&self, b: &DevB) -> u32 {
        let g = self.m1.lock();
        *g + *b.m2.lock()
    }
}

impl DevB {
    /// Acquires `m2` then reaches `m1` through `grab_a`: the B -> A edge,
    /// witnessed by a two-hop chain.
    pub fn lock_back(&self, a: &DevA) -> u32 {
        let g = self.m2.lock();
        *g + grab_a(a)
    }
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

/// Two lock-owning types with a same-named `capacity`, each asking the
/// collection *behind* its own lock — one through a guard alias, one
/// through the call result. Those `.capacity()` calls target the protected
/// `Vec`, not the other type's method; resolved by name, each would seem to
/// take the other's lock under its own and close a phantom second cycle.
/// 0 findings.
pub struct Slots {
    items: Vec<u32>,
}

pub struct QueueA {
    inner: Mutex<Slots>,
}

pub struct QueueB {
    inner: Mutex<Slots>,
}

impl QueueA {
    pub fn capacity(&self) -> usize {
        let q = self.inner.lock();
        q.items.capacity()
    }
}

impl QueueB {
    pub fn capacity(&self) -> usize {
        self.inner.lock().items.capacity()
    }
}
