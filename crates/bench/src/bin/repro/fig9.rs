//! Figure 9 — "Splitting small messages - Latency" (estimation).
//!
//! The paper evaluates equation (1): `T(s) = T_O + max(T_D(s·r, N1),
//! T_D(s·(1−r), N2))` with T_O = 3 µs, over sampled *eager* profiles, and
//! compares it to each network's own eager latency. Splitting loses below
//! ~4 KB (offload cost dominates) and saves up to ~30% at 64 KB.

use crate::{Args, Output, Table};
use nm_bench::sample_predictor;
use nm_core::estimate::estimate_eager_split;
use nm_model::units::{format_size, pow2_sizes, Micros, KIB};
use nm_sim::ClusterSpec;

pub fn run(_: &Args) -> Output {
    let mut out = String::new();
    outln!(out, "# Fig 9: estimated multicore eager-split latency (us), T_O = 3us");
    outln!(out, "# paper: split costly below ~4KB, up to 30% gain by 64KB\n");

    let predictor = sample_predictor(&ClusterSpec::paper_testbed());
    let myri = &predictor.rails()[0].eager;
    let quad = &predictor.rails()[1].eager;

    let mut table = Table::new(&["size", "Myri-10G", "Quadrics", "hetero-split est.", "gain"]);
    let mut crossover: Option<u64> = None;
    let mut best_gain = f64::MIN;
    for size in pow2_sizes(4, 64 * KIB) {
        let est = estimate_eager_split(&predictor, size, Micros::new(3.0));
        if est.splitting_wins() && crossover.is_none() {
            crossover = Some(size);
        }
        best_gain = best_gain.max(est.gain);
        table.row(vec![
            format_size(size),
            format!("{:.2}", myri.predict_us(size)),
            format!("{:.2}", quad.predict_us(size)),
            format!("{:.2}", est.split_us),
            format!("{:+.1}%", est.gain * 100.0),
        ]);
    }
    out.push_str(&table.render());

    outln!(out);
    match crossover {
        Some(s) => outln!(out, "# splitting starts to win at {}", format_size(s)),
        None => outln!(out, "# splitting never wins in this range"),
    }
    outln!(out, "# best gain in range: {:.1}% (paper: up to ~30%)", best_gain * 100.0);
    out.into()
}
