//! §III-D in-text numbers — the offload cost T_O.
//!
//! Paper: handing a send to another core costs 3 µs, 6 µs when the target
//! thread must be preempted by a signal. This harness measures the same
//! quantity on *this machine* with the real-thread runtime (submit →
//! execution-start latency through the worker pool), for both the
//! idle-worker path and the queued/"signaled" path.
//!
//! Absolute numbers depend on the host (the paper's were dual dual-core
//! Opterons); the property that must hold is signaled ≥ idle > 0.

use nm_bench::Table;
use nm_runtime::{Tasklet, WorkerPool};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn main() {
    println!("# Table (paper SIII-D): offload cost T_O, measured with real threads");
    println!("# paper: 3us to an idle core, 6us with signal preemption\n");

    const ROUNDS: usize = 400;

    // Path 1: target worker idle and parked.
    let pool = WorkerPool::dual_dual_core();
    for _ in 0..ROUNDS {
        pool.submit_to(1, Tasklet::new("noop", || {}));
        pool.wait_quiescent(Duration::from_secs(2));
    }
    let idle = pool.stats().snapshot().expect("recorded");

    // Path 2: target worker busy; submissions queue behind running work
    // (the preemption analogue: the worker must be interrupted/drained).
    let pool2 = WorkerPool::dual_dual_core();
    let gate = Arc::new(Mutex::new(()));
    for _ in 0..ROUNDS {
        let hold = gate.lock().unwrap();
        let g = gate.clone();
        pool2.submit_to(
            1,
            Tasklet::new("gate", move || {
                let _x = g.lock().unwrap();
            }),
        );
        pool2.submit_to(1, Tasklet::new("queued", || {}));
        drop(hold);
        pool2.wait_quiescent(Duration::from_secs(2));
    }
    let busy = pool2.stats().snapshot().expect("recorded");

    // The busy row is the signaled submissions alone: the gate tasklets that
    // made the worker busy went to an idle worker, and averaging them in
    // would dilute the preemption path 1 : 1 with the idle one.
    let busy_mean = busy.signaled_mean.expect("every queued submission found its worker busy");
    let mut t = Table::new(&["path", "count", "signaled", "min (us)", "mean (us)", "max (us)"]);
    for (name, count, mean, s) in [
        ("idle worker", idle.count, idle.mean, &idle),
        ("busy worker", busy.signaled, busy_mean, &busy),
    ] {
        t.row(vec![
            name.into(),
            count.to_string(),
            s.signaled.to_string(),
            format!("{:.2}", s.min.as_secs_f64() * 1e6),
            format!("{:.2}", mean.as_secs_f64() * 1e6),
            format!("{:.2}", s.max.as_secs_f64() * 1e6),
        ]);
    }
    t.print();
    println!(
        "# busy worker: mean over the {} signaled of {} submissions; min/max over all of them",
        busy.signaled, busy.count
    );

    println!(
        "\n# paper testbed: 3us idle / 6us signaled; this host: {:.2}us / {:.2}us (mean)",
        idle.mean.as_secs_f64() * 1e6,
        busy_mean.as_secs_f64() * 1e6
    );
    println!("# the simulator uses the paper's calibrated 3us/6us constants");
}
