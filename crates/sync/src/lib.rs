//! Synchronization facade for the one crate loom model-checks.
//!
//! `nm-replog` imports its primitives from here instead of `std::sync` /
//! `parking_lot` directly (nm-analyzer's `facade-bypass` rule enforces this
//! for the crates `analyzer.toml` lists under `[facade]`). Compiled
//! normally, the facade re-exports the production primitives; compiled with
//! `RUSTFLAGS="--cfg loom"` it re-exports the vendored loom model-checker's
//! shims, so the same code can be driven through `loom::model` and have its
//! interleavings explored exhaustively (up to the preemption bound). Code
//! no loom lane compiles (`nm-runtime`'s pool and `nm-core`'s real-thread
//! driver park in a channel `recv` the vendored loom does not model) uses
//! `std` directly.
//!
//! Surface kept deliberately small — exactly what that crate uses:
//! * [`Arc`]
//! * [`atomic`][]: `AtomicU64`, `fence` + [`atomic::Ordering`]
//! * [`Mutex`]/[`MutexGuard`] (parking_lot-style: `lock()` returns the
//!   guard, no poisoning)
//! * [`thread`]: `spawn`, `JoinHandle`

#![forbid(unsafe_code)]

#[cfg(loom)]
mod imp {
    pub use loom::sync::atomic;
    pub use loom::sync::Arc;
    pub use loom::sync::{Mutex, MutexGuard};
    pub use loom::thread;
}

#[cfg(not(loom))]
mod imp {
    pub use parking_lot::{Mutex, MutexGuard};
    pub use std::sync::atomic;
    pub use std::sync::Arc;
    pub use std::thread;
}

pub use imp::*;

#[cfg(test)]
mod tests {
    use super::*;

    // Exercises the whole facade surface once so an API drift between the
    // loom and non-loom halves is caught in whichever mode the tests run.
    #[test]
    fn facade_surface_compiles_and_works() {
        let flag = Arc::new(atomic::AtomicBool::new(false));
        let count = Arc::new(atomic::AtomicU64::new(0));
        let m = Arc::new(Mutex::new(0u32));

        let (f2, c2, m2) = (Arc::clone(&flag), Arc::clone(&count), Arc::clone(&m));
        let h = thread::spawn(move || {
            c2.fetch_add(1, atomic::Ordering::AcqRel);
            *m2.lock() += 1;
            f2.store(true, atomic::Ordering::Release);
        });

        h.join().unwrap();
        assert!(flag.load(atomic::Ordering::Acquire), "spawned thread never ran");
        assert_eq!(count.load(atomic::Ordering::Acquire), 1);
        assert_eq!(*m.lock(), 1);
    }
}
