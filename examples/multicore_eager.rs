//! Multicore eager sending (paper Fig 7): medium eager messages with and
//! without idle-core offload. What T_O costs on *this* host's real threads
//! is `table_offload`'s to measure:
//!
//! ```text
//! cargo run -p nm-examples --bin multicore_eager --release
//! cargo run -p nm-bench --bin repro --release -- table_offload
//! ```

use nm_core::prelude::*;
use nm_core::strategy::StrategyKind;

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
    println!("so 'multicore' matches 'single' there)");
}
