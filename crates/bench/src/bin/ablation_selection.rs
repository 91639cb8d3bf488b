//! Ablation: busy-until-aware NIC selection (Fig 2).
//!
//! A 1 MiB message is posted while the Myri-10G NIC is pre-busied for `w`
//! µs. Strategies that know the busy-until (hetero-split) shrink or drop
//! the busy rail as `w` grows; the static ratio split keeps feeding it and
//! pays the wait. The table shows per-strategy completion vs `w` and the
//! busy rail's share under hetero.

use nm_bench::{delivery_instants, sample_predictor, Table};
use nm_core::predictor::Predictor;
use nm_core::selection::select_rails;
use nm_model::units::MIB;
use nm_proto::split_by_ratios;
use nm_sim::{ClusterSpec, NodeId, RailId, SendSpec, Simulator};

/// Completion time of `layout` submitted while Myri is busy for `wait_us`
/// (emulated by a pre-submitted filler transfer on rail 0).
fn run_with_busy_myri(layout: &[(RailId, u64)], wait_us: f64) -> f64 {
    let mut sim = Simulator::new(ClusterSpec::paper_testbed());
    if wait_us > 0.0 {
        // Filler sized so its DMA occupies rail 0 for ~wait_us.
        let bw = 1226.8; // decimal MB/s of the Myri model's top regime
        let filler = ((wait_us * bw) as u64).max(1024 * 1024);
        sim.submit(SendSpec::simple(NodeId(0), NodeId(1), RailId(0), filler));
    }
    let ids: Vec<_> = layout
        .iter()
        .map(|&(r, b)| sim.submit(SendSpec::simple(NodeId(0), NodeId(1), r, b)))
        .collect();
    let start: f64 = 0.0;
    delivery_instants(&mut sim, &ids).into_iter().map(|at| at.as_micros_f64()).fold(start, f64::max)
}

fn hetero_layout(predictor: &Predictor, size: u64, wait_us: f64) -> Vec<(RailId, u64)> {
    select_rails(&predictor.natural_cost(), &[(RailId(0), wait_us), (RailId(1), 0.0)], size, 2)
        .assignments
        .to_vec()
}

fn static_layout(size: u64) -> Vec<(RailId, u64)> {
    // Asymptotic bandwidth ratio Myri:Quadrics ~ 1226.8 : 877.6.
    let r = 1226.8 / (1226.8 + 877.6);
    split_by_ratios(size, &[r, 1.0 - r])
        .into_iter()
        .filter(|c| c.len > 0)
        .map(|c| (RailId(c.index as usize), c.len))
        .collect()
}

fn main() {
    println!("# Ablation (Fig 2): selection with vs without busy-until knowledge");
    println!("# 1 MiB message; Myri-10G NIC pre-busied for w us\n");

    let predictor = sample_predictor(&ClusterSpec::paper_testbed());
    let size = MIB;
    let mut table = Table::new(&[
        "busy w (us)",
        "hetero (us)",
        "static-ratio (us)",
        "hetero Myri share",
        "penalty",
    ]);
    for wait_us in [0.0, 100.0, 300.0, 600.0, 1000.0, 2000.0, 4000.0] {
        let hetero = hetero_layout(&predictor, size, wait_us);
        let t_hetero = run_with_busy_myri(&hetero, wait_us);
        let t_static = run_with_busy_myri(&static_layout(size), wait_us);
        let myri_share = hetero
            .iter()
            .find(|&&(r, _)| r == RailId(0))
            .map(|&(_, b)| b as f64 / size as f64)
            .unwrap_or(0.0);
        table.row(vec![
            format!("{wait_us:.0}"),
            format!("{t_hetero:.0}"),
            format!("{t_static:.0}"),
            format!("{:.0}%", myri_share * 100.0),
            format!("{:+.0}%", (t_static / t_hetero - 1.0) * 100.0),
        ]);
    }
    table.print();
    println!("\n# as w grows, hetero shifts bytes off the busy rail (share -> 0%)");
    println!("# while the static ratio keeps paying the wait");
}
