//! Ablation: small-message *rate* on a multirail node (paper §II intro:
//! "data packets can be spread across the available networks, increasing
//! the message rate").
//!
//! A burst of N small messages is enqueued at once; we measure how long
//! until all are delivered (simulated time) and report messages/second.
//! Aggregation amortizes per-packet overhead; greedy spreads packets but
//! serializes PIO copies on the single posting core; multicore-eager uses
//! idle cores.

use crate::{batch_completion_us, Args, Output, Table};
use nm_core::strategy::StrategyKind;
use nm_model::units::format_size;

fn rate_msgs_per_sec(kind: StrategyKind, size: u64, count: usize) -> f64 {
    count as f64 / (batch_completion_us(kind.build(), &vec![size; count]).get() / 1e6)
}

pub fn run(_: &Args) -> Output {
    let mut out = String::new();
    outln!(out, "# Ablation: small-message rate, burst of 64 messages (msgs/s)");
    outln!(out, "# paper SII: spreading packets across networks raises message rate\n");

    let strategies = [
        ("single", StrategyKind::SingleRail(None)),
        ("greedy", StrategyKind::GreedyBalance),
        ("aggregation", StrategyKind::Aggregation),
        ("multicore", StrategyKind::MulticoreEager),
    ];
    let mut table = Table::new(&["size", "single", "greedy", "aggregation", "multicore", "best"]);
    for size in [64u64, 256, 1024, 4096, 16 * 1024] {
        let rates: Vec<f64> =
            strategies.iter().map(|&(_, k)| rate_msgs_per_sec(k, size, 64)).collect();
        let best = strategies
            .iter()
            .zip(&rates)
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("non-empty")
            .0
             .0;
        let mut row = vec![format_size(size)];
        row.extend(rates.iter().map(|r| format!("{:.0}", r)));
        row.push(best.into());
        table.row(row);
    }
    out.push_str(&table.render());
    outln!(out, "\n# aggregation dominates tiny messages (one packet, one overhead);");
    outln!(out, "# the gap narrows as per-message copies start to dominate");
    out.into()
}
