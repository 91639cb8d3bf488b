//! Multicore eager sending (paper Fig 7): medium eager messages with and
//! without idle-core offload, plus a live T_O measurement with real threads.
//!
//! ```text
//! cargo run -p nm-examples --bin multicore_eager --release
//! ```

use nm_core::prelude::*;
use nm_core::strategy::StrategyKind;
use nm_runtime::{Tasklet, WorkerPool};
use std::time::Duration;

fn one_way(kind: StrategyKind, size: u64) -> f64 {
    let mut s = Session::builder().strategy(kind).build_sim();
    let id = s.post_send(size);
    s.wait(id).duration.as_micros_f64()
}

fn main() {
    println!("eager messages: single fastest rail vs multicore offloaded split");
    println!("(T_O = 3us charged per offloaded chunk)\n");
    println!("{:>10} {:>14} {:>16} {:>8}", "size(KiB)", "single (us)", "multicore (us)", "gain");
    for size in [KIB, 4 * KIB, 16 * KIB, 64 * KIB] {
        let single = one_way(StrategyKind::SingleRail(None), size);
        let multi = one_way(StrategyKind::MulticoreEager, size);
        println!(
            "{:>10} {:>14.2} {:>16.2} {:>7.1}%",
            size / KIB,
            single,
            multi,
            (1.0 - multi / single) * 100.0
        );
    }
    println!("\n(tiny messages refuse to split — the offload cost would dominate —");
    println!("so 'multicore' matches 'single' there)\n");

    // The real-thread counterpart: what does handing work to another core
    // actually cost on THIS machine? (paper: 3us on 2008 Opterons)
    let pool = WorkerPool::dual_dual_core();
    for _ in 0..2000 {
        pool.submit_to(1, Tasklet::new("probe", || {}));
        pool.wait_quiescent(Duration::from_secs(1));
    }
    if let Some(snap) = pool.stats().snapshot() {
        println!(
            "measured offload latency on this host: min {:.2}us / mean {:.2}us / max {:.2}us \
             over {} probes",
            snap.min.as_secs_f64() * 1e6,
            snap.mean.as_secs_f64() * 1e6,
            snap.max.as_secs_f64() * 1e6,
            snap.count
        );
    }
}
