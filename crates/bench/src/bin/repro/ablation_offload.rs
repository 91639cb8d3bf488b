//! Ablation: sensitivity of eager splitting to the offload cost T_O.
//!
//! The paper measured T_O = 3 µs (6 µs with preemption) and hoped "an
//! optimized implementation would achieve better results". This sweep
//! answers: for each T_O, from which message size does splitting eager
//! messages across cores start to win (equation 1), and what is the gain
//! at 64 KB?

use crate::{Args, Output, Table};
use nm_bench::sample_predictor;
use nm_core::estimate::estimate_eager_split;
use nm_model::units::{format_size, pow2_sizes, Micros, KIB};
use nm_sim::ClusterSpec;

pub fn run(_: &Args) -> Output {
    let mut out = String::new();
    outln!(out, "# Ablation: split profitability vs offload cost T_O (equation 1)");
    outln!(out, "# paper operating points: T_O = 3us (tasklet), 6us (signal)\n");

    let predictor = sample_predictor(&ClusterSpec::paper_testbed());
    let mut table = Table::new(&["T_O (us)", "break-even size", "gain @16K", "gain @64K"]);
    for t_o in [0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 10.0, 20.0, 50.0] {
        let break_even = pow2_sizes(4, 64 * KIB)
            .into_iter()
            .find(|&s| estimate_eager_split(&predictor, s, Micros::new(t_o)).splitting_wins());
        let g16 = estimate_eager_split(&predictor, 16 * KIB, Micros::new(t_o)).gain;
        let g64 = estimate_eager_split(&predictor, 64 * KIB, Micros::new(t_o)).gain;
        table.row(vec![
            format!("{t_o:.0}"),
            break_even.map_or("never <= 64K".into(), format_size),
            format!("{:+.1}%", g16 * 100.0),
            format!("{:+.1}%", g64 * 100.0),
        ]);
    }
    out.push_str(&table.render());
    outln!(out, "\n# lower T_O pushes the break-even toward smaller messages —");
    outln!(out, "# the paper's motivation for optimizing its synchronization path");
    out.into()
}
