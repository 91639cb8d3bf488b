//! Synchronization facade for the engine.
//!
//! Every crate that shares mutable state across threads imports its
//! primitives from here instead of `std::sync` / `parking_lot` directly
//! (nm-analyzer's `facade-bypass` rule enforces this for the crates
//! `analyzer.toml` lists under `[facade]`: `nm-runtime`, `nm-core` and
//! `nm-replog`). Compiled normally, the facade re-exports the production
//! primitives; compiled with `RUSTFLAGS="--cfg loom"` it re-exports the
//! vendored loom model-checker's shims, so the same code can be driven
//! through `loom::model` and have its interleavings explored exhaustively
//! (up to the preemption bound).
//!
//! Surface kept deliberately small — exactly what those three crates use:
//! * [`Arc`]
//! * [`atomic`][]: `AtomicBool`/`AtomicU32`/`AtomicU64`/`AtomicUsize`/
//!   `AtomicI64` + [`atomic::Ordering`]
//! * [`Mutex`]/[`MutexGuard`] (parking_lot-style: `lock()` returns the
//!   guard, no poisoning)
//! * [`thread`]: `spawn`, `yield_now`, `sleep`, `Builder`, `JoinHandle`
//! * [`mpsc`]: `channel`, `Sender`, `Receiver` — `std`'s in both modes (the
//!   vendored loom models no channel, so code that parks in `recv` is not
//!   model-checked: see `nm-runtime`'s crate docs)
//! * [`time::Instant`] (logical, deadlock-rule-driven time under loom)

#![forbid(unsafe_code)]

#[cfg(loom)]
mod imp {
    pub use loom::sync::atomic;
    pub use loom::sync::Arc;
    pub use loom::sync::{Mutex, MutexGuard};
    pub use loom::thread;
    pub use std::sync::mpsc;

    /// Time source (logical ticks inside `loom::model`).
    pub mod time {
        pub use loom::time::Instant;
    }
}

#[cfg(not(loom))]
mod imp {
    pub use parking_lot::{Mutex, MutexGuard};
    pub use std::sync::atomic;
    pub use std::sync::mpsc;
    pub use std::sync::Arc;
    pub use std::thread;

    /// Time source (real wall clock outside loom).
    pub mod time {
        pub use std::time::Instant;
    }
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

        let t0 = time::Instant::now();
        h.join().unwrap();
        assert!(flag.load(atomic::Ordering::Acquire), "spawned thread never ran");
        assert_eq!(count.load(atomic::Ordering::Acquire), 1);
        assert_eq!(*m.lock(), 1);
        let _ = t0.elapsed();
        thread::yield_now();
    }
}
