//! Ablation: the Open MPI static-ratio critique (§II-A).
//!
//! "A split ratio for a 8 MB message may not fit a 256 KB message." The
//! static ratio is computed from asymptotic bandwidths; the dichotomy
//! recomputes per size from the sampled profiles. This sweep reports both
//! ratios and the completion penalty of using the static one.

use crate::{myri_share, Args, Output, Table};
use nm_bench::{one_way_us, sample_predictor};
use nm_core::split::dichotomy_split;
use nm_core::strategy::StrategyKind;
use nm_model::units::{format_size, pow2_sizes, KIB, MIB};
use nm_sim::{ClusterSpec, RailId};

pub fn run(_: &Args) -> Output {
    let mut out = String::new();
    outln!(out, "# Ablation (SII-A): per-size dichotomy vs static bandwidth ratio");
    outln!(out, "# ratio shown is the Myri-10G share of the message\n");

    let predictor = sample_predictor(&ClusterSpec::paper_testbed());
    let cost = predictor.natural_cost();

    let mut table = Table::new(&[
        "size",
        "dichotomy ratio",
        "static ratio",
        "hetero (us)",
        "static (us)",
        "penalty",
    ]);
    for size in pow2_sizes(64 * KIB, 8 * MIB) {
        let d = dichotomy_split(&cost, (RailId(0), 0.0), (RailId(1), 0.0), size, 60);
        let myri_share = myri_share(&d.assignments, size);
        let static_share = 1226.8 / (1226.8 + 877.6);
        let t_hetero = one_way_us(StrategyKind::HeteroSplit, size).get();
        let t_static = one_way_us(StrategyKind::RatioSplit, size).get();
        table.row(vec![
            format_size(size),
            format!("{:.1}%", myri_share * 100.0),
            format!("{:.1}%", static_share * 100.0),
            format!("{t_hetero:.0}"),
            format!("{t_static:.0}"),
            format!("{:+.1}%", (t_static / t_hetero - 1.0) * 100.0),
        ]);
    }
    out.push_str(&table.render());
    outln!(out, "\n# the dichotomy ratio drifts with size (latency terms, protocol");
    outln!(out, "# regimes); the static ratio is only right asymptotically");
    out.into()
}
