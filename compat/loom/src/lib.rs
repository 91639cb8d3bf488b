//! Minimal API-compatible shim for the `loom` concurrency model checker.
//! Vendored because this build environment has no registry access.
//!
//! Unlike the other shims in `compat/`, this one is not a thin delegation:
//! it implements a real (small) model checker. [`model`] re-runs a closure
//! under a cooperative scheduler that serializes all model threads and
//! explores interleavings by depth-first search over preemption choices at
//! every synchronization operation, bounded by a preemption budget
//! (`LOOM_MAX_PREEMPTIONS`, default 2) and an iteration cap
//! (`LOOM_MAX_ITERS`, default 4000) — the same knobs real loom exposes.
//!
//! What it checks: panics/assertion failures in any explored interleaving,
//! deadlocks (every-thread-blocked states are reported), leaked (unjoined)
//! model threads, and double/missed execution observable through model
//! state.
//!
//! The surface is what the one loom lane (`nm-replog`'s, through the
//! `nm-sync` facade) uses: atomics and fences, a mutex, `Arc`, and
//! `thread::spawn`/`join`. There is no condition variable, channel, clock
//! or timed wait.
//!
//! Known limitations vs. real loom:
//! * **Sequentially consistent memory only.** Execution is serialized, so
//!   `Ordering` arguments are accepted but weak-memory reorderings are not
//!   explored. Relaxed/acquire-release *logic* bugs that require actual
//!   reordering need the ThreadSanitizer CI lane.
//! * No `UnsafeCell`/`lazy_static` modeling; `Arc` is `std::sync::Arc`.
//!
//! Dual-mode: every shim type also works *outside* [`model`], delegating
//! to the real `std` primitive. Code compiled with `--cfg loom` therefore
//! still runs correctly in ordinary unit tests and doctests.

mod rt;

pub mod sync;
pub mod thread;

/// Explores interleavings of `f`. See the crate docs for bounds and
/// limitations; panics with the failing schedule if any interleaving
/// fails.
pub fn model<F: Fn()>(f: F) {
    rt::model_impl(f);
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicUsize, Ordering};
    use super::sync::Mutex;
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    /// The canonical torn read-modify-write: two threads doing
    /// load-then-store increments lose an update in some interleaving.
    /// The checker MUST find that interleaving (this is the test that the
    /// model checker actually checks something).
    #[test]
    fn finds_lost_update_race() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            model(|| {
                let c = Arc::new(AtomicUsize::new(0));
                let hs: Vec<_> = (0..2)
                    .map(|_| {
                        let c = Arc::clone(&c);
                        thread::spawn(move || {
                            let v = c.load(Ordering::SeqCst);
                            c.store(v + 1, Ordering::SeqCst);
                        })
                    })
                    .collect();
                for h in hs {
                    h.join().unwrap();
                }
                assert_eq!(c.load(Ordering::SeqCst), 2, "lost update");
            });
        }));
        let err = result.expect_err("model must find the lost-update interleaving");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("loom model failed"), "unexpected panic: {msg}");
    }

    /// The same program with a proper atomic RMW has no failing
    /// interleaving: the model must pass (and exhaust its search).
    #[test]
    fn passes_correct_fetch_add() {
        model(|| {
            let c = Arc::new(AtomicUsize::new(0));
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let c = Arc::clone(&c);
                    thread::spawn(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            assert_eq!(c.load(Ordering::SeqCst), 2);
        });
    }

    /// Mutual exclusion: increments under a mutex never tear.
    #[test]
    fn passes_mutex_counter() {
        model(|| {
            let c = Arc::new(Mutex::new(0u32));
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let c = Arc::clone(&c);
                    thread::spawn(move || {
                        *c.lock() += 1;
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            assert_eq!(*c.lock(), 2);
        });
    }

    /// A genuine deadlock (lock-order inversion) is detected and reported
    /// rather than hanging the test.
    #[test]
    fn finds_lock_order_deadlock() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            model(|| {
                let a = Arc::new(Mutex::new(()));
                let b = Arc::new(Mutex::new(()));
                let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
                let h = thread::spawn(move || {
                    let _g1 = a2.lock();
                    let _g2 = b2.lock();
                });
                let _g1 = b.lock();
                let _g2 = a.lock();
                drop(_g2);
                drop(_g1);
                let _ = h.join();
            });
        }));
        let err = result.expect_err("model must find the AB/BA deadlock");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("deadlock"), "expected a deadlock report, got: {msg}");
    }

    /// Dual-mode sanity: the shim primitives behave like std outside
    /// `model()`.
    #[test]
    fn works_outside_model() {
        let c = Arc::new(AtomicUsize::new(0));
        let m = Arc::new(Mutex::new(0u32));
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                    *m.lock() += 1;
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(c.load(Ordering::SeqCst), 4);
        assert_eq!(*m.lock(), 4);
    }
}
