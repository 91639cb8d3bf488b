//! Thread shims: model threads inside [`crate::model`], real `std`
//! threads outside it (dual-mode, so loom-built code still runs normally
//! in ordinary tests and doctests).

use crate::rt;
use std::sync::{Arc, Mutex as StdMutex};

enum Inner<T> {
    Real(std::thread::JoinHandle<T>),
    Model { rt: Arc<rt::Rt>, tid: usize, slot: Arc<StdMutex<Option<std::thread::Result<T>>>> },
}

/// Join handle for [`spawn`].
pub struct JoinHandle<T> {
    inner: Inner<T>,
}

impl<T> JoinHandle<T> {
    /// Waits for the thread to finish and returns its result (`Err` holds
    /// the panic payload, mirroring `std`).
    pub fn join(self) -> std::thread::Result<T> {
        match self.inner {
            Inner::Real(h) => h.join(),
            Inner::Model { rt, tid, slot } => {
                let me = rt::ctx().expect("model JoinHandle joined outside the model").1;
                rt.join(me, tid);
                match match slot.lock() {
                    Ok(mut g) => g.take(),
                    Err(p) => p.into_inner().take(),
                } {
                    Some(r) => r,
                    // The thread unwound without storing a value (it
                    // panicked / was cancelled). Surface an Err rather
                    // than panicking here — join often runs inside Drop
                    // during teardown, where a second panic would abort.
                    None => Err(Box::new(rt::Cancelled)),
                }
            }
        }
    }
}

/// Spawns a thread (a model thread when called inside `loom::model`).
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    match rt::ctx() {
        None => JoinHandle { inner: Inner::Real(std::thread::spawn(f)) },
        Some((rt, me)) => {
            let slot: Arc<StdMutex<Option<std::thread::Result<T>>>> = Arc::new(StdMutex::new(None));
            let slot2 = Arc::clone(&slot);
            let tid = rt.spawn(
                me,
                Box::new(move || {
                    // The rt wrapper catches panics around this closure and
                    // records them; store the value for join(). A panic
                    // unwinds past this store and is reported by the
                    // wrapper, so the slot stays None — join() then cannot
                    // run because the model is being cancelled.
                    let value = f();
                    match slot2.lock() {
                        Ok(mut g) => *g = Some(Ok(value)),
                        Err(p) => *p.into_inner() = Some(Ok(value)),
                    }
                }),
            );
            JoinHandle { inner: Inner::Model { rt, tid, slot } }
        }
    }
}
