//! §III-D in-text numbers — the offload cost T_O.
//!
//! Paper: handing a send to another core costs 3 µs, 6 µs when the target
//! thread must be preempted by a signal. This harness measures the same
//! quantity on *this machine* with the real-thread runtime, for both the
//! idle-worker path and the queued/"signaled" path: a probe tasklet reports
//! how long after its submission it began to execute. The pool keeps no
//! statistics of its own; it only says which path a submission took.
//!
//! Absolute numbers depend on the host (the paper's were dual dual-core
//! Opterons); the property that must hold is signaled ≥ idle > 0.

use nm_bench::Table;
use nm_runtime::{Tasklet, WorkerPool};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const ROUNDS: usize = 400;
const WORKER: usize = 1;

/// `ROUNDS` probes of one worker of a fresh pool, one at a time: how many
/// the pool routed as signaled, and each probe's submit → execution-start
/// latency. With `busy` the probe queues behind a tasklet parked on a gate
/// (the preemption analogue: the worker must be interrupted/drained); only
/// the probes are timed — the gate tasklets go to an idle worker and would
/// dilute the row 1 : 1.
fn probe_path(busy: bool) -> (usize, Vec<Duration>) {
    let pool = WorkerPool::dual_dual_core();
    let gate = Arc::new(Mutex::new(()));
    let (report, latency) = channel();
    let mut signaled = 0;
    let mut latencies = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let hold = busy.then(|| {
            let hold = gate.lock().unwrap();
            let g = gate.clone();
            pool.submit_to(WORKER, Tasklet::new("gate", move || drop(g.lock().unwrap())));
            hold
        });
        let report = report.clone();
        let t0 = Instant::now();
        let probe = Tasklet::new("probe", move || {
            let _ = report.send(t0.elapsed());
        });
        signaled += usize::from(pool.submit_to(WORKER, probe));
        drop(hold);
        assert!(pool.wait_quiescent(Duration::from_secs(2)), "probe never ran");
        latencies.push(latency.recv().expect("probe ran"));
    }
    (signaled, latencies)
}

fn main() {
    println!("# Table (paper SIII-D): offload cost T_O, measured with real threads");
    println!("# paper: 3us to an idle core, 6us with signal preemption\n");

    let (idle_signaled, idle) = probe_path(false);
    let (busy_signaled, busy) = probe_path(true);
    // The routes are the pool's own account and must be exact: every probe
    // of an idle worker unsignaled, every probe behind the gate signaled.
    assert_eq!((idle_signaled, busy_signaled), (0, ROUNDS), "idle/busy probes signaled");

    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let mean_us = |l: &[Duration]| us(l.iter().sum()) / l.len() as f64;
    let mut t = Table::new(&["path", "count", "signaled", "min (us)", "mean (us)", "max (us)"]);
    for (name, signaled, l) in
        [("idle worker", idle_signaled, &idle), ("busy worker", busy_signaled, &busy)]
    {
        t.row(vec![
            name.into(),
            l.len().to_string(),
            signaled.to_string(),
            format!("{:.2}", us(*l.iter().min().expect("probed"))),
            format!("{:.2}", mean_us(l)),
            format!("{:.2}", us(*l.iter().max().expect("probed"))),
        ]);
    }
    t.print();

    println!(
        "\n# paper testbed: 3us idle / 6us signaled; this host: {:.2}us / {:.2}us (mean)",
        mean_us(&idle),
        mean_us(&busy)
    );
    println!("# the engine charges the paper's 3us per offloaded chunk; nothing charges the 6us");
}
