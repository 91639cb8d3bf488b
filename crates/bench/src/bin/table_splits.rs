//! §IV-A in-text numbers — iso vs hetero split of a 4 MB message.
//!
//! Paper: under iso-split, the 2 MB Myri chunk takes ~1730 µs and the 2 MB
//! Quadrics chunk ~2400 µs, leaving Myri-10G unused for ~670 µs; under
//! hetero-split a 2437 KB / 1757 KB split finishes in ~1999 µs / ~2001 µs.
//! This harness submits the same chunk layouts to a traced simulator and
//! reports per-chunk durations plus the measured idle gap.

use nm_bench::{delivery_instants, sample_predictor, Table};
use nm_core::predictor::Predictor;
use nm_core::strategy::{Action, Ctx, StrategyKind};
use nm_model::units::{KIB, MIB};
use nm_sim::{ClusterSpec, CoreId, NodeId, RailId, SendSpec, Simulator};

fn chunks_for(kind: StrategyKind, predictor: &Predictor, size: u64) -> Vec<(RailId, u64)> {
    match kind.build().decide(&Ctx::quiet(predictor, &[0, 1, 2, 3].map(CoreId), &[size])) {
        Action::Split(chunks) => chunks.into_iter().map(|c| (c.rail, c.bytes)).collect(),
        other => panic!("expected a split, got {other:?}"),
    }
}

fn run_layout(layout: &[(RailId, u64)]) -> Vec<(RailId, u64, f64)> {
    let mut sim = Simulator::new(ClusterSpec::paper_testbed()).with_trace();
    let ids: Vec<_> = layout
        .iter()
        .map(|&(rail, bytes)| sim.submit(SendSpec::simple(NodeId(0), NodeId(1), rail, bytes)))
        .collect();
    layout
        .iter()
        .zip(delivery_instants(&mut sim, &ids))
        .map(|(&(rail, bytes), at)| (rail, bytes, at.as_micros_f64()))
        .collect()
}

fn main() {
    println!("# Table (paper SIV-A): 4 MB split under iso vs hetero");
    println!("# paper iso: 2MB/Myri ~1730us vs 2MB/Quadrics ~2400us -> ~670us idle");
    println!("# paper hetero: 2437KB/1999us (Myri) vs 1757KB/2001us (Quadrics)\n");

    let spec = ClusterSpec::paper_testbed();
    let predictor = sample_predictor(&spec);
    let size = 4 * MIB;
    let rail_name = |r: RailId| spec.rails[r.index()].name.clone();

    let mut table = Table::new(&["strategy", "rail", "chunk (KiB)", "duration (us)"]);
    let mut summaries = Vec::new();
    for kind in [StrategyKind::IsoSplit, StrategyKind::HeteroSplit] {
        let layout = chunks_for(kind, &predictor, size);
        let results = run_layout(&layout);
        let slowest = results.iter().map(|r| r.2).fold(0.0, f64::max);
        let fastest = results.iter().map(|r| r.2).fold(f64::INFINITY, f64::min);
        for (rail, bytes, us) in &results {
            table.row(vec![
                format!("{kind:?}"),
                rail_name(*rail),
                format!("{}", bytes / KIB),
                format!("{us:.0}"),
            ]);
        }
        summaries.push((kind, slowest, slowest - fastest));
    }
    table.print();

    println!();
    for (kind, completion, idle_gap) in summaries {
        println!(
            "# {kind:?}: message completes in {completion:.0}us; \
             fast rail idle for {idle_gap:.0}us at the tail"
        );
    }
}
