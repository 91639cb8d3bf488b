//! The model-checking runtime: a cooperative scheduler that serializes
//! model threads and explores interleavings by depth-first search over
//! scheduling choices.
//!
//! Execution model: at most one model thread runs at a time. Every shim
//! synchronization operation (atomic access, mutex acquire, spawn) is a
//! *yield point* where the scheduler may preempt the
//! running thread and hand the token to another runnable thread. Which
//! thread continues is a recorded *choice*; re-running the model with a
//! mutated choice prefix replays a different interleaving. Exploration is
//! exhaustive up to a preemption bound (like real loom's
//! `LOOM_MAX_PREEMPTIONS`) and an iteration cap.
//!
//! Memory model: sequential consistency. Because execution is serialized,
//! the underlying `std` primitives observe a total order; weak-memory
//! reorderings are *not* modeled. The checker therefore finds logic races
//! (lost work, double execution, deadlocks) but cannot
//! find bugs that only a relaxed-memory machine exhibits — that is what
//! the ThreadSanitizer lane is for.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};

/// Panic payload used to unwind model threads when an execution is torn
/// down (after a failure in a sibling thread or a step-budget overrun).
/// Not itself a failure.
pub(crate) struct Cancelled;

/// One recorded scheduling decision: which of `options` runnable
/// continuations was taken at a yield point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Choice {
    pub taken: usize,
    pub options: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Blocked {
    /// Runnable (or currently running).
    No,
    /// Waiting for the mutex keyed by this address.
    Mutex(usize),
    /// Waiting for thread `tid` to finish.
    Join(usize),
    /// Finished executing.
    Finished,
}

#[derive(Default)]
struct MutexSt {
    owner: Option<usize>,
}

/// Exploration limits (env-overridable, see [`crate::model`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Limits {
    pub max_preemptions: usize,
    pub max_iterations: usize,
    pub max_steps: usize,
}

struct Sched {
    /// Each model thread's state, by thread id.
    threads: Vec<Blocked>,
    current: usize,
    /// Choice sequence: replayed prefix then recorded extensions.
    choices: Vec<Choice>,
    cursor: usize,
    preemptions: usize,
    steps: usize,
    limits: Limits,
    mutexes: HashMap<usize, MutexSt>,
    cancelled: bool,
    failure: Option<String>,
}

/// One execution's scheduler. Shared by all model threads of that
/// execution via `Arc`.
pub(crate) struct Rt {
    sched: StdMutex<Sched>,
    cv: StdCondvar,
    /// Real OS join handles for every spawned model thread, joined by the
    /// driver at execution teardown.
    handles: StdMutex<Vec<std::thread::JoinHandle<()>>>,
}

thread_local! {
    static CTX: std::cell::RefCell<Option<(Arc<Rt>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// The (runtime, thread-id) context of the calling thread, when it is a
/// model thread of an active execution.
pub(crate) fn ctx() -> Option<(Arc<Rt>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

fn set_ctx(v: Option<(Arc<Rt>, usize)>) {
    CTX.with(|c| *c.borrow_mut() = v);
}

fn lock<T>(m: &StdMutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

impl Rt {
    fn new(limits: Limits, prefix: Vec<Choice>) -> Self {
        Rt {
            sched: StdMutex::new(Sched {
                threads: vec![Blocked::No],
                current: 0,
                choices: prefix,
                cursor: 0,
                preemptions: 0,
                steps: 0,
                limits,
                mutexes: HashMap::new(),
                cancelled: false,
                failure: None,
            }),
            cv: StdCondvar::new(),
            handles: StdMutex::new(Vec::new()),
        }
    }

    // ---- scheduling core -------------------------------------------------

    /// Bails out of the current thread if the execution was cancelled.
    /// Never called while the thread is already unwinding (callers check).
    fn check_cancelled(s: &Sched) {
        if s.cancelled && !std::thread::panicking() {
            panic::panic_any(Cancelled);
        }
    }

    fn bump_step(s: &mut Sched) {
        s.steps += 1;
        if s.steps > s.limits.max_steps {
            // Budget overrun: tear the execution down without recording a
            // failure — the schedule was legal, just too long to finish.
            s.cancelled = true;
        }
    }

    /// Runnable thread ids other than `me`, in ascending order.
    fn runnable_others(s: &Sched, me: usize) -> Vec<usize> {
        (0..s.threads.len()).filter(|&t| t != me && s.threads[t] == Blocked::No).collect()
    }

    /// Takes (replaying) or records the next scheduling choice.
    fn next_choice(s: &mut Sched, options: usize) -> usize {
        let taken = if s.cursor < s.choices.len() {
            let c = s.choices[s.cursor];
            assert_eq!(
                c.options, options,
                "loom shim: nondeterministic replay (expected {} options at step {}, got {})",
                c.options, s.cursor, options
            );
            c.taken
        } else {
            s.choices.push(Choice { taken: 0, options });
            0
        };
        s.cursor += 1;
        taken
    }

    /// A preemptible yield point: the scheduler may (as a recorded choice)
    /// switch execution to another runnable thread before the caller's
    /// next operation.
    pub(crate) fn yield_point(self: &Arc<Self>, me: usize) {
        let mut s = lock(&self.sched);
        Self::check_cancelled(&s);
        Self::bump_step(&mut s);
        Self::check_cancelled(&s);
        if s.cancelled {
            // Teardown in progress on an already-unwinding thread: scheduling
            // is defunct, run free (real primitives keep this sound).
            return;
        }
        debug_assert_eq!(s.current, me, "yield from a thread that is not scheduled");
        let others = Self::runnable_others(&s, me);
        if others.is_empty() || s.preemptions >= s.limits.max_preemptions {
            return;
        }
        let taken = Self::next_choice(&mut s, 1 + others.len());
        if taken > 0 {
            s.preemptions += 1;
            s.current = others[taken - 1];
            self.cv.notify_all();
            self.wait_scheduled(s, me);
        }
    }

    /// Blocks the calling thread until it is scheduled again.
    fn wait_scheduled(&self, mut s: std::sync::MutexGuard<'_, Sched>, me: usize) {
        loop {
            if s.cancelled {
                drop(s);
                if !std::thread::panicking() {
                    panic::panic_any(Cancelled);
                }
                return;
            }
            if s.current == me && s.threads[me] == Blocked::No {
                return;
            }
            s = match self.cv.wait(s) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }

    /// Parks `me` as blocked and hands the token to another thread. The
    /// caller must re-check its wait condition after this returns.
    fn block_and_switch(
        self: &Arc<Self>,
        mut s: std::sync::MutexGuard<'_, Sched>,
        me: usize,
        why: Blocked,
    ) {
        s.threads[me] = why;
        self.pick_next_locked(&mut s, me);
        self.wait_scheduled(s, me);
    }

    /// Chooses the next thread to run after `me` stopped being runnable.
    /// Round-robin over runnable threads; if none, the model is deadlocked.
    fn pick_next_locked(&self, s: &mut Sched, me: usize) {
        let n = s.threads.len();
        if let Some(next) = (1..=n).map(|d| (me + d) % n).find(|&t| s.threads[t] == Blocked::No) {
            s.current = next;
            self.cv.notify_all();
            return;
        }
        if s.threads.iter().all(|&t| t == Blocked::Finished) {
            // Execution over; nothing to schedule (the driver notices).
            return;
        }
        s.cancelled = true;
        if s.failure.is_none() {
            let states: Vec<String> =
                s.threads.iter().enumerate().map(|(i, t)| format!("t{i}:{t:?}")).collect();
            s.failure =
                Some(format!("model deadlock: every thread is blocked [{}]", states.join(", ")));
        }
        self.cv.notify_all();
    }

    // ---- primitives ------------------------------------------------------

    /// Model-level mutex acquire (the caller then takes the uncontended
    /// real lock).
    pub(crate) fn mutex_lock(self: &Arc<Self>, me: usize, addr: usize) {
        self.yield_point(me);
        let mut s = lock(&self.sched);
        loop {
            Self::check_cancelled(&s);
            let st = s.mutexes.entry(addr).or_default();
            if st.owner.is_none() {
                st.owner = Some(me);
                return;
            }
            self.block_and_switch_inner(&mut s, me, Blocked::Mutex(addr));
            s = self.re_lock(s);
        }
    }

    /// In-place variant of [`Self::block_and_switch`] for callers that
    /// need to keep looping on the scheduler lock.
    fn block_and_switch_inner(&self, s: &mut Sched, me: usize, why: Blocked) {
        s.threads[me] = why;
        self.pick_next_locked(s, me);
    }

    fn re_lock<'a>(
        &'a self,
        s: std::sync::MutexGuard<'a, Sched>,
    ) -> std::sync::MutexGuard<'a, Sched> {
        // Wait (parked on the real condvar) until scheduled again.
        let mut s = s;
        loop {
            if s.cancelled {
                drop(s);
                if !std::thread::panicking() {
                    panic::panic_any(Cancelled);
                }
                return lock(&self.sched);
            }
            let me = ctx().expect("model thread").1;
            if s.current == me && s.threads[me] == Blocked::No {
                return s;
            }
            s = match self.cv.wait(s) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }

    pub(crate) fn mutex_unlock(self: &Arc<Self>, me: usize, addr: usize) {
        let mut s = lock(&self.sched);
        let st = s.mutexes.entry(addr).or_default();
        debug_assert_eq!(st.owner, Some(me), "unlock by non-owner");
        st.owner = None;
        for t in 0..s.threads.len() {
            if s.threads[t] == Blocked::Mutex(addr) {
                s.threads[t] = Blocked::No;
            }
        }
        self.cv.notify_all();
    }

    /// Registers and starts a new model thread running `f`.
    pub(crate) fn spawn(self: &Arc<Self>, me: usize, f: Box<dyn FnOnce() + Send>) -> usize {
        let tid = {
            let mut s = lock(&self.sched);
            Self::check_cancelled(&s);
            s.threads.push(Blocked::No);
            s.threads.len() - 1
        };
        let rt = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("loom-model-{tid}"))
            .spawn(move || {
                set_ctx(Some((Arc::clone(&rt), tid)));
                {
                    let s = lock(&rt.sched);
                    rt.wait_scheduled(s, tid);
                }
                let result = panic::catch_unwind(AssertUnwindSafe(f));
                rt.finish_thread(tid, result.err());
                set_ctx(None);
            })
            .expect("spawn model thread");
        lock(&self.handles).push(handle);
        // Spawn is itself a yield point: some schedules run the child
        // immediately, others let the parent race ahead.
        self.yield_point(me);
        tid
    }

    fn finish_thread(
        self: &Arc<Self>,
        me: usize,
        panic_payload: Option<Box<dyn std::any::Any + Send>>,
    ) {
        let mut s = lock(&self.sched);
        if let Some(p) = panic_payload {
            if !p.is::<Cancelled>() && s.failure.is_none() {
                s.failure = Some(payload_msg(&p));
                s.cancelled = true;
            }
        }
        s.threads[me] = Blocked::Finished;
        for t in 0..s.threads.len() {
            if s.threads[t] == Blocked::Join(me) {
                s.threads[t] = Blocked::No;
            }
        }
        if s.cancelled {
            self.cv.notify_all();
            return;
        }
        if s.current == me {
            self.pick_next_locked(&mut s, me);
        } else {
            self.cv.notify_all();
        }
    }

    /// True once thread `tid` finished; blocks the caller until then.
    pub(crate) fn join(self: &Arc<Self>, me: usize, tid: usize) {
        loop {
            let s = lock(&self.sched);
            Self::check_cancelled(&s);
            if s.threads[tid] == Blocked::Finished {
                return;
            }
            self.block_and_switch(s, me, Blocked::Join(tid));
        }
    }
}

fn payload_msg(p: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "model thread panicked (non-string payload)".to_string()
    }
}

// ---- driver --------------------------------------------------------------

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

static HOOK_INSTALLED: AtomicBool = AtomicBool::new(false);

/// Silences panic output for [`Cancelled`] teardown unwinds (they are
/// bookkeeping, not failures) while delegating everything else to the
/// previously installed hook.
fn install_quiet_hook() {
    if HOOK_INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let prev = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<Cancelled>().is_some() {
            return;
        }
        prev(info);
    }));
}

/// Explores interleavings of `f` until the choice space (bounded by the
/// preemption budget) is exhausted or the iteration cap is hit. Panics,
/// reporting the failing schedule, if any execution of `f` panics,
/// deadlocks, or leaks an unjoined thread.
///
/// Environment overrides: `LOOM_MAX_PREEMPTIONS` (default 2),
/// `LOOM_MAX_ITERS` (default 4000), `LOOM_MAX_STEPS` (default 50000),
/// `LOOM_LOG=1` prints a per-model exploration summary.
pub(crate) fn model_impl<F: Fn()>(f: F) {
    assert!(ctx().is_none(), "nested loom::model calls are not supported");
    install_quiet_hook();
    let limits = Limits {
        max_preemptions: env_usize("LOOM_MAX_PREEMPTIONS", 2),
        max_iterations: env_usize("LOOM_MAX_ITERS", 4000),
        max_steps: env_usize("LOOM_MAX_STEPS", 50_000),
    };
    let mut prefix: Vec<Choice> = Vec::new();
    let mut iterations = 0usize;
    let mut exhausted = false;
    loop {
        iterations += 1;
        let rt = Arc::new(Rt::new(limits, prefix.clone()));
        set_ctx(Some((Arc::clone(&rt), 0)));
        let main_result = panic::catch_unwind(AssertUnwindSafe(&f));
        set_ctx(None);

        // Tear down: cancel whatever is still parked, then join the real
        // OS threads of this execution.
        {
            let mut s = lock(&rt.sched);
            if let Err(p) = main_result {
                if !p.is::<Cancelled>() && s.failure.is_none() {
                    s.failure = Some(payload_msg(&p));
                }
                s.cancelled = true;
            } else if !s.cancelled && s.threads.iter().skip(1).any(|&t| t != Blocked::Finished) {
                // Thread 0 is the driver itself and is never marked
                // Finished; only spawned model threads can leak.
                // Main returned while a model thread is still alive.
                if s.failure.is_none() {
                    s.failure =
                        Some("model closure returned with unjoined model threads".to_string());
                }
                s.cancelled = true;
            }
            rt.cv.notify_all();
        }
        for h in lock(&rt.handles).drain(..) {
            let _ = h.join();
        }

        let (failure, choices) = {
            let s = lock(&rt.sched);
            (s.failure.clone(), s.choices.clone())
        };
        if let Some(msg) = failure {
            let schedule: Vec<usize> = choices.iter().map(|c| c.taken).collect();
            panic!(
                "loom model failed on iteration {iterations} \
                 (schedule {schedule:?}, {} choice points):\n{msg}",
                choices.len()
            );
        }

        // Depth-first backtrack: advance the deepest choice that still has
        // unexplored options.
        let mut next = choices;
        loop {
            match next.pop() {
                None => {
                    exhausted = true;
                    break;
                }
                Some(c) if c.taken + 1 < c.options => {
                    next.push(Choice { taken: c.taken + 1, options: c.options });
                    break;
                }
                Some(_) => {}
            }
        }
        if exhausted {
            break;
        }
        prefix = next;
        if iterations >= limits.max_iterations {
            break;
        }
    }
    if std::env::var("LOOM_LOG").is_ok() {
        eprintln!(
            "loom: explored {iterations} executions ({})",
            if exhausted { "state space exhausted" } else { "iteration cap reached" }
        );
    }
}
