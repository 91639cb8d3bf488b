//! Figure 8 — "Message splitting - Bandwidth".
//!
//! Ping-pong bandwidth over 32 KB – 8 MB for four configurations:
//! Myri-10G alone, Quadrics alone, Iso-split, and the sampling-based
//! Hetero-split. Paper reference points: 1170 MB/s (Myri), 837 MB/s
//! (Quadrics), ~1670 MB/s (iso), ~1987 MB/s (hetero, near the theoretical
//! aggregate). Bandwidths are in the paper's unit (MB = 2^20 bytes).
//!
//! The same report over the chaos driver with an empty fault schedule
//! (`fig8_chaos`) must be these bytes too: the fault-free resilience path
//! adds no event, RNG draw, rounding or health-driven planning change.

use crate::{chaos_paper_engine_kind, Args, Output, Table};
use nm_bench::{one_way_us_in, paper_engine_kind};
use nm_core::engine::Engine;
use nm_core::strategy::StrategyKind;
use nm_core::transport::Transport;
use nm_core::HealthConfig;
use nm_faults::FaultSchedule;
use nm_model::units::{format_size, pow2_sizes, KIB, MIB};
use nm_sim::RailId;

pub fn run(_: &Args) -> Output {
    report(paper_engine_kind).into()
}

pub fn run_chaos(_: &Args) -> Output {
    report(|kind| chaos_paper_engine_kind(kind, FaultSchedule::empty(), HealthConfig::default()))
        .into()
}

/// The report (header, bandwidth table, maxima footer) for engines made by
/// `make` — one fresh engine per (strategy, size) point.
fn report<T: Transport>(mut make: impl FnMut(StrategyKind) -> Engine<T>) -> String {
    let series: Vec<(&str, StrategyKind)> = vec![
        ("Myri-10G", StrategyKind::SingleRail(Some(RailId(0)))),
        ("Quadrics", StrategyKind::SingleRail(Some(RailId(1)))),
        ("Iso-split", StrategyKind::IsoSplit),
        ("Hetero-split", StrategyKind::HeteroSplit),
    ];

    let mut out = String::new();
    out.push_str("# Fig 8: Message splitting - Bandwidth (MB/s, MB = 2^20 bytes)\n");
    out.push_str("# paper: Myri 1170, Quadrics 837, iso ~1670, hetero ~1987 (max)\n\n");

    let mut table = Table::new(&["size", "Myri-10G", "Quadrics", "Iso-split", "Hetero-split"]);
    let mut maxima = vec![0.0f64; series.len()];
    for size in pow2_sizes(32 * KIB, 8 * MIB) {
        let mut cells = vec![format_size(size)];
        for (i, (_, kind)) in series.iter().enumerate() {
            let us = one_way_us_in(&mut make(*kind), size).get();
            let bw = size as f64 / (1024.0 * 1024.0) / (us / 1e6);
            maxima[i] = maxima[i].max(bw);
            cells.push(format!("{bw:.0}"));
        }
        table.row(cells);
    }
    out.push_str(&table.render());

    out.push('\n');
    for ((name, _), max) in series.iter().zip(&maxima) {
        outln!(out, "# max {name}: {max:.0} MB/s");
    }
    let aggregate = maxima[0] + maxima[1];
    outln!(
        out,
        "# hetero reaches {:.1}% of the single-rail sum ({aggregate:.0} MB/s)",
        100.0 * maxima[3] / aggregate
    );
    out
}
