//! Synchronization shims: model-checked inside [`crate::model`],
//! plain `std`-backed outside it.
//!
//! The `Mutex` API mirrors the workspace's `parking_lot` shim
//! (guard-returning `lock`, no poisoning) so the `nm-sync` facade can
//! re-export either unchanged.

use crate::rt;

pub use std::sync::Arc;

pub mod atomic;

fn addr_of<T: ?Sized>(v: &T) -> usize {
    v as *const T as *const () as usize
}

/// A mutex whose `lock` returns the guard directly (no poisoning).
/// Inside the model, acquisition order is a scheduler choice; outside,
/// it delegates to `std::sync::Mutex`.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex::lock`]. Fields drop in declaration order: the
/// real lock is released before the model hands ownership on.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
    /// Model bookkeeping (`None` outside the model).
    _model: Option<ModelOwnership>,
}

/// Model-level ownership of the mutex at `addr` by thread `tid`, given up
/// on drop.
struct ModelOwnership {
    rt: Arc<rt::Rt>,
    tid: usize,
    addr: usize,
}

impl Drop for ModelOwnership {
    fn drop(&mut self) {
        self.rt.mutex_unlock(self.tid, self.addr);
    }
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex { inner: std::sync::Mutex::new(value) }
    }
}

impl<T: ?Sized> Mutex<T> {
    fn real_lock(&self) -> std::sync::MutexGuard<'_, T> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Acquires the lock.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match rt::ctx() {
            None => MutexGuard { inner: self.real_lock(), _model: None },
            Some((rt, tid)) => {
                let addr = addr_of(self);
                rt.mutex_lock(tid, addr);
                // Model ownership is exclusive, so the real lock is
                // uncontended; a blocking lock() would still be correct
                // but try_lock asserts the serialization invariant.
                let inner = self
                    .inner
                    .try_lock()
                    .unwrap_or_else(|_| panic!("loom shim: model mutex contended for real"));
                MutexGuard { inner, _model: Some(ModelOwnership { rt, tid, addr }) }
            }
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}
