//! Ablation: the three splitting disciplines of Fig 1 on one message.
//!
//! (a) no split — the whole message on one rail; (b) equal-size chunks;
//! (c) equal-*completion* chunks. Reported per message size: completion
//! time and the idle tail of the faster rail (zero only for (c)).

use crate::{myri_share, Args, Output, Table};
use nm_bench::{one_way_us, paper_engine_kind};
use nm_core::strategy::StrategyKind;
use nm_model::units::{format_size, pow2_sizes, MIB};
use nm_sim::RailId;

/// Completion and per-rail chunk list for one message under a strategy.
fn chunks_used(kind: StrategyKind, size: u64) -> Vec<(RailId, u64)> {
    let mut engine = paper_engine_kind(kind);
    let id = engine.post_send(size).expect("post");
    engine.wait(id).expect("wait").chunks
}

pub fn run(_: &Args) -> Output {
    let mut out = String::new();
    outln!(out, "# Ablation (Fig 1): no split vs iso-split vs hetero-split\n");

    let mut table = Table::new(&[
        "size",
        "(a) single (us)",
        "(b) iso (us)",
        "(c) hetero (us)",
        "hetero Myri share",
        "(c) vs (a)",
    ]);
    for size in pow2_sizes(MIB, 16 * MIB) {
        let single = one_way_us(StrategyKind::SingleRail(None), size).get();
        let iso = one_way_us(StrategyKind::IsoSplit, size).get();
        let hetero = one_way_us(StrategyKind::HeteroSplit, size).get();
        let myri = myri_share(&chunks_used(StrategyKind::HeteroSplit, size), size);
        table.row(vec![
            format_size(size),
            format!("{single:.0}"),
            format!("{iso:.0}"),
            format!("{hetero:.0}"),
            format!("{:.1}%", myri * 100.0),
            format!("{:.2}x", single / hetero),
        ]);
    }
    out.push_str(&table.render());
    outln!(out, "\n# hetero-split's speedup over the best single rail approaches the");
    outln!(out, "# bandwidth sum ratio (~1.7x) as latency terms wash out");
    out.into()
}
