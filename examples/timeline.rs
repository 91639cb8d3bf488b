//! Timeline view of the paper's Fig 4 scenarios: render core/NIC occupancy
//! for two 8 KiB eager segments under (a) one-core greedy, (b) aggregation
//! on the fastest NIC, and (c) two-core offloaded split.
//!
//! ```text
//! cargo run -p nm-examples --bin timeline --release
//! ```

use nm_model::units::KIB;
use nm_model::{SimDuration, TransferMode};
use nm_sim::{gantt, ClusterSpec, CoreId, NodeId, RailId, SendSpec, Simulator};

fn show(title: &str, build: impl FnOnce(&mut Simulator)) {
    let mut sim = Simulator::new(ClusterSpec::paper_testbed()).with_trace();
    build(&mut sim);
    sim.run_until_idle();
    println!("== {title} (finished at t = {}) ==", sim.now());
    print!("{}", gantt::render_all(sim.trace(), 64));
    println!();
}

fn main() {
    let seg = 8 * KIB;

    show("(a) greedy: both segments from core 0, PIO copies serialize", |sim| {
        sim.submit(
            SendSpec::simple(NodeId(0), NodeId(1), RailId(0), seg).with_mode(TransferMode::Eager),
        );
        sim.submit(
            SendSpec::simple(NodeId(0), NodeId(1), RailId(1), seg).with_mode(TransferMode::Eager),
        );
    });

    show("(b) aggregated: one packet on the fastest NIC", |sim| {
        sim.submit(
            SendSpec::simple(NodeId(0), NodeId(1), RailId(1), 2 * seg)
                .with_mode(TransferMode::Eager),
        );
    });

    show("(c) offloaded: send copies on cores 1 and 2, T_O = 3us", |sim| {
        for (rail, core) in [(RailId(0), CoreId(1)), (RailId(1), CoreId(2))] {
            sim.submit(
                SendSpec::simple(NodeId(0), NodeId(1), rail, seg)
                    .with_mode(TransferMode::Eager)
                    .on_core(core)
                    .with_offload_delay(SimDuration::from_micros(3)),
            );
        }
    });

    println!("note how (a) serializes on n0/c0 while (c) overlaps the two");
    println!("injections on n0/c1 and n0/c2 after the 3us offload gap.");
}
