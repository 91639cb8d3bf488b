//! Ablation: the three PIO timelines of Fig 4.
//!
//! Two 8 KiB eager messages to the same peer, three ways:
//!
//! * (a) greedy over both rails from **one core** — PIO copies serialize;
//! * (b) aggregated into one packet on the fastest rail;
//! * (c) split over both rails with the copies **offloaded to two cores**
//!   (T_O = 3 µs each).
//!
//! The paper's claim: (b) beats (a); (c) beats both once messages are big
//! enough to amortize T_O. The sweep shows where (c) takes over.

use crate::{delivery_instants, Args, Output, Table};
use nm_model::units::{format_size, pow2_sizes, KIB};
use nm_model::{SimDuration, TransferMode};
use nm_proto::aggregate::ENTRY_OVERHEAD;
use nm_sim::{ClusterSpec, CoreId, NodeId, RailId, SendSpec, Simulator};

fn completion(sim: &mut Simulator, ids: &[nm_sim::TransferId]) -> f64 {
    delivery_instants(sim, ids).into_iter().map(|at| at.as_micros_f64()).fold(0.0, f64::max)
}

fn scenario_a_greedy_one_core(seg: u64) -> f64 {
    let mut sim = Simulator::new(ClusterSpec::paper_testbed());
    let a = sim.submit(
        SendSpec::simple(NodeId(0), NodeId(1), RailId(0), seg).with_mode(TransferMode::Eager),
    );
    let b = sim.submit(
        SendSpec::simple(NodeId(0), NodeId(1), RailId(1), seg).with_mode(TransferMode::Eager),
    );
    completion(&mut sim, &[a, b])
}

fn scenario_b_aggregate(seg: u64) -> f64 {
    let mut sim = Simulator::new(ClusterSpec::paper_testbed());
    let pack = 2 * (seg + ENTRY_OVERHEAD as u64);
    // The fastest rail for the pack: Quadrics below ~8K, Myri above.
    let myri = nm_model::builtin::myri_10g().one_way_us_in_mode(pack, TransferMode::Eager);
    let quad = nm_model::builtin::qsnet2().one_way_us_in_mode(pack, TransferMode::Eager);
    let rail = if myri <= quad { RailId(0) } else { RailId(1) };
    let id = sim
        .submit(SendSpec::simple(NodeId(0), NodeId(1), rail, pack).with_mode(TransferMode::Eager));
    completion(&mut sim, &[id])
}

fn scenario_c_offloaded(seg: u64) -> f64 {
    let mut sim = Simulator::new(ClusterSpec::paper_testbed());
    let t_o = SimDuration::from_micros(3);
    let a = sim.submit(
        SendSpec::simple(NodeId(0), NodeId(1), RailId(0), seg)
            .with_mode(TransferMode::Eager)
            .on_core(CoreId(1))
            .with_offload_delay(t_o),
    );
    let b = sim.submit(
        SendSpec::simple(NodeId(0), NodeId(1), RailId(1), seg)
            .with_mode(TransferMode::Eager)
            .on_core(CoreId(2))
            .with_offload_delay(t_o),
    );
    completion(&mut sim, &[a, b])
}

pub fn run(_: &Args) -> Output {
    let mut out = String::new();
    outln!(out, "# Ablation (Fig 4): PIO transfer combinations, two eager segments");
    outln!(out, "# (a) greedy 1 core | (b) aggregated | (c) offloaded on 2 cores, T_O=3us\n");

    let mut table =
        Table::new(&["segment", "(a) greedy", "(b) aggregate", "(c) offload", "winner"]);
    for seg in pow2_sizes(64, 32 * KIB) {
        let a = scenario_a_greedy_one_core(seg);
        let b = scenario_b_aggregate(seg);
        let c = scenario_c_offloaded(seg);
        let winner = if b <= a && b <= c {
            "(b)"
        } else if c <= a && c <= b {
            "(c)"
        } else {
            "(a)"
        };
        table.row(vec![
            format_size(seg),
            format!("{a:.2}"),
            format!("{b:.2}"),
            format!("{c:.2}"),
            winner.into(),
        ]);
    }
    out.push_str(&table.render());
    outln!(out, "\n# expected: (b) wins for small segments, (c) for medium, never (a)");
    out.into()
}
