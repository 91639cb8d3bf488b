//! The worker pool: one thread per logical core, with idle tracking.
//!
//! This is the mechanism behind the paper's Fig 7: the strategy computes a
//! split, registers per-chunk work, and *idle cores* execute the PIO copies
//! in parallel while the application resumes computing. The pool exposes
//! the two facts only it knows: **which workers are idle right now** (bounds
//! the split width, §III-B: "min{number of idle NICs, number of idle cores}
//! chunks at most") and, per submission, **whether the target was busy** —
//! the path the paper measures at 6 µs instead of 3 µs (§III-D). What either
//! path costs on a given host is for the caller to time (`table_offload`).

use crate::tasklet::Tasklet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

enum Msg {
    Run(Tasklet),
    Stop,
}

struct WorkerShared {
    idle: AtomicBool,
    queued: AtomicUsize,
}

/// A pool of per-core worker threads executing tasklets.
///
/// ```
/// use nm_runtime::{Tasklet, WorkerPool};
/// use std::sync::atomic::{AtomicU32, Ordering};
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// let pool = WorkerPool::dual_dual_core(); // the paper's 4-core node
/// let hits = Arc::new(AtomicU32::new(0));
/// let h = hits.clone();
/// let signaled = pool.submit_to(2, Tasklet::new("pio-copy", move || {
///     h.fetch_add(1, Ordering::SeqCst);
/// }));
/// assert!(!signaled, "worker 2 was idle: the 3 µs path");
/// assert!(pool.wait_quiescent(Duration::from_secs(5)));
/// assert_eq!(hits.load(Ordering::SeqCst), 1);
/// ```
pub struct WorkerPool {
    senders: Vec<Sender<Msg>>,
    shared: Vec<Arc<WorkerShared>>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// A pool of `cores` workers (one per logical CPU; at least one).
    pub fn new(cores: usize) -> Self {
        assert!(cores >= 1, "a pool needs at least one worker");
        let mut senders = Vec::with_capacity(cores);
        let mut shared = Vec::with_capacity(cores);
        let mut handles = Vec::with_capacity(cores);
        for i in 0..cores {
            let (tx, rx): (Sender<Msg>, Receiver<Msg>) = channel();
            let sh =
                Arc::new(WorkerShared { idle: AtomicBool::new(true), queued: AtomicUsize::new(0) });
            let sh2 = sh.clone();
            let handle = thread::Builder::new()
                .name(format!("nm-worker-{i}"))
                .spawn(move || worker_loop(rx, sh2))
                .expect("spawn worker");
            senders.push(tx);
            shared.push(sh);
            handles.push(handle);
        }
        WorkerPool { senders, shared, handles }
    }

    /// The paper's node shape: 2 packages × 2 cores.
    pub fn dual_dual_core() -> Self {
        WorkerPool::new(4)
    }

    /// Number of workers.
    pub fn worker_count(&self) -> usize {
        self.senders.len()
    }

    /// Workers currently idle (not executing and nothing queued).
    pub fn idle_workers(&self) -> Vec<usize> {
        self.shared
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.idle.load(Ordering::Acquire) && s.queued.load(Ordering::Acquire) == 0
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Count of idle workers.
    pub fn idle_count(&self) -> usize {
        self.idle_workers().len()
    }

    /// Submits a tasklet to a specific worker. Returns whether the worker
    /// was busy (running or with work queued) at that instant: the
    /// "signaled" submission, the paper's preemption path.
    pub fn submit_to(&self, worker: usize, tasklet: Tasklet) -> bool {
        let sh = &self.shared[worker];
        let signaled = !sh.idle.load(Ordering::Acquire) || sh.queued.load(Ordering::Acquire) > 0;
        // `queued` rises before the channel send so `idle_workers` can never
        // report a worker idle-with-empty-queue while a message it cannot
        // yet have received is in the channel (pairs with the worker's
        // post-run AcqRel decrement).
        sh.queued.fetch_add(1, Ordering::AcqRel);
        self.senders[worker]
            .send(Msg::Run(tasklet))
            // The receiver lives until shutdown() drains the pool; submitting
            // to a shut-down pool is a caller bug worth failing loudly on.
            .expect("worker alive");
        signaled
    }

    /// Blocks until every worker is idle with empty queues, or `timeout`
    /// expires. Returns `true` on quiescence.
    pub fn wait_quiescent(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.idle_count() == self.worker_count() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            thread::yield_now();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(Msg::Stop);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(rx: Receiver<Msg>, shared: Arc<WorkerShared>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Run(tasklet) => {
                shared.idle.store(false, Ordering::Release);
                tasklet.run();
                // Decrement `queued` before raising `idle`: quiescence is
                // "idle && queued == 0", and this order makes the pair
                // monotonic — an observer can see busy-with-work but never
                // idle-with-phantom-work after the run completed.
                shared.queued.fetch_sub(1, Ordering::AcqRel);
                shared.idle.store(true, Ordering::Release);
            }
            Msg::Stop => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn all_submitted_work_executes() {
        let pool = WorkerPool::dual_dual_core();
        let counter = Arc::new(AtomicUsize::new(0));
        for i in 0..40 {
            let c = counter.clone();
            pool.submit_to(
                i % 4,
                Tasklet::new("inc", move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        assert!(pool.wait_quiescent(Duration::from_secs(5)));
        assert_eq!(counter.load(Ordering::SeqCst), 40);
    }

    #[test]
    fn work_on_one_worker_is_fifo() {
        let pool = WorkerPool::dual_dual_core();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..20 {
            let log = log.clone();
            pool.submit_to(1, Tasklet::new("ordered", move || log.lock().unwrap().push(i)));
        }
        assert!(pool.wait_quiescent(Duration::from_secs(5)));
        assert_eq!(*log.lock().unwrap(), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn idle_tracking_reflects_running_work() {
        let pool = WorkerPool::dual_dual_core();
        assert_eq!(pool.idle_count(), 4);
        let gate = Arc::new(Mutex::new(()));
        let guard = gate.lock().unwrap();
        let g2 = gate.clone();
        pool.submit_to(
            2,
            Tasklet::new("block", move || {
                let _hold = g2.lock().unwrap();
            }),
        );
        // Worker 2 is pinned on the gate: it must leave the idle set.
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.idle_workers().contains(&2) {
            assert!(Instant::now() < deadline, "worker never became busy");
            thread::yield_now();
        }
        assert!(!pool.idle_workers().contains(&2));
        drop(guard);
        assert!(pool.wait_quiescent(Duration::from_secs(5)));
        assert_eq!(pool.idle_count(), 4);
    }

    #[test]
    fn back_to_back_submissions_count_as_signaled() {
        let pool = WorkerPool::dual_dual_core();
        // First submission to an idle worker: not signaled. Queue ten more
        // immediately behind it: those find a non-empty queue.
        let gate = Arc::new(Mutex::new(()));
        let guard = gate.lock().unwrap();
        let g = gate.clone();
        let first = pool.submit_to(
            0,
            Tasklet::new("gate", move || {
                let _hold = g.lock().unwrap();
            }),
        );
        assert!(!first, "an idle worker is the unsignaled path");
        for i in 0..10 {
            let signaled = pool.submit_to(0, Tasklet::new("queued", || {}));
            assert!(signaled, "submission {i} queued behind the gate is the signaled path");
        }
        drop(guard);
        assert!(pool.wait_quiescent(Duration::from_secs(5)));
    }

    #[test]
    fn a_worker_reported_idle_has_run_what_was_submitted_to_it() {
        // `submit_to` raises `queued` before the send and the worker lowers
        // it after the run, so once a submission has returned, its worker
        // can only be seen idle-with-empty-queue after the tasklet ran. The
        // first look falls while the message may still be in the channel
        // (`idle` still true from the round before); the last is the first
        // to find the worker idle again.
        let pool = WorkerPool::new(2);
        let deadline = Instant::now() + Duration::from_secs(60);
        for i in 0..10_000 {
            let w = i % 2;
            let ran = Arc::new(AtomicBool::new(false));
            let r = ran.clone();
            pool.submit_to(w, Tasklet::new("flag", move || r.store(true, Ordering::SeqCst)));
            while !pool.idle_workers().contains(&w) {
                assert!(Instant::now() < deadline, "round {i}: worker {w} never idle again");
                thread::yield_now();
            }
            assert!(ran.load(Ordering::SeqCst), "round {i}: worker {w} idle, tasklet not run");
        }
    }

    #[test]
    fn drop_runs_every_tasklet_still_queued() {
        // Worker 0's gate opens when this sender is dropped. It is parked in
        // a thread-local of worker 1, which exits only on the `Stop` that
        // `drop` sends — after worker 0's — so the hundred tasklets behind
        // the gate are all still queued when `drop` begins.
        thread_local!(static OPENER: std::cell::RefCell<Option<Sender<()>>> =
            const { std::cell::RefCell::new(None) });
        let pool = WorkerPool::new(2);
        let (open, gate) = channel::<()>();
        pool.submit_to(1, Tasklet::new("park", move || OPENER.set(Some(open))));
        pool.submit_to(
            0,
            Tasklet::new("gate", move || {
                let _ = gate.recv();
            }),
        );
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let r = ran.clone();
            pool.submit_to(
                0,
                Tasklet::new("queued", move || {
                    r.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        drop(pool);
        assert_eq!(ran.load(Ordering::SeqCst), 100);
    }
}
