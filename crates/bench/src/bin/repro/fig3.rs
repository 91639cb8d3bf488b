//! Figure 3 — "Performance of the greedy balancing strategy".
//!
//! Two equal eager segments per round, total size 4 B – 16 KB. Series:
//! both segments aggregated over Myri-10G, both aggregated over Quadrics,
//! and the two segments greedily balanced over both rails (one NIC each,
//! PIO copies serializing on the sending core). The paper's point: greedy
//! balancing of eager packets *loses* to aggregating on one network.

use crate::{batch_completion_us, Args, Output, Table};
use nm_core::strategy::{Action, Ctx, Strategy, StrategyKind};
use nm_model::units::{format_size, pow2_sizes, KIB};
use nm_sim::RailId;

/// A strategy that aggregates the whole queue onto one fixed rail —
/// the "two aggregated segments over `<rail>`" series, and a demo of the
/// strategy plug-in interface.
#[derive(Debug, Clone)]
struct AggregateOn(RailId);

impl Strategy for AggregateOn {
    fn name(&self) -> &'static str {
        "aggregate-on-fixed-rail"
    }

    fn decide(&mut self, ctx: &Ctx<'_>) -> Action {
        Action::Aggregate { count: ctx.queued_sizes.len(), rail: self.0 }
    }
}

pub fn run(_: &Args) -> Output {
    let mut out = String::new();
    outln!(out, "# Fig 3: greedy balancing vs aggregation, eager packets");
    outln!(out, "# two segments of size/2 each; transfer time in us\n");

    let mut table =
        Table::new(&["total", "agg/Myri", "agg/Quadrics", "balanced", "balanced/best-agg"]);
    let mut worst_ratio: f64 = f64::INFINITY;
    for total in pow2_sizes(4, 16 * KIB) {
        let seg = (total / 2).max(1);
        let segments = [seg, seg];
        let myri = batch_completion_us(Box::new(AggregateOn(RailId(0))), &segments).get();
        let quad = batch_completion_us(Box::new(AggregateOn(RailId(1))), &segments).get();
        let balanced = batch_completion_us(StrategyKind::GreedyBalance.build(), &segments).get();
        let best_agg = myri.min(quad);
        let ratio = balanced / best_agg;
        worst_ratio = worst_ratio.min(ratio);
        table.row(vec![
            format_size(total),
            format!("{myri:.2}"),
            format!("{quad:.2}"),
            format!("{balanced:.2}"),
            format!("{ratio:.2}x"),
        ]);
    }
    out.push_str(&table.render());
    outln!(
        out,
        "\n# balanced/best-agg stays >= {worst_ratio:.2}x across the sweep \
         (paper: balancing never wins for eager packets)"
    );
    out.into()
}
