//! # nm-bench — figure/table harnesses and shared measurement helpers
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md §4):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig3` | Fig 3 — greedy balancing vs aggregation for eager packets |
//! | `fig8` | Fig 8 — ping-pong bandwidth, 4 strategies, 32 KB–8 MB |
//! | `fig9` | Fig 9 — estimated multicore eager-split latency (eq. 1) |
//! | `table_splits` | §IV-A in-text: iso vs hetero chunk sizes/durations for 4 MB |
//! | `table_offload` | §III-D in-text: measured offload cost (3 µs / 6 µs) |
//! | `ablation_selection` | Fig 2 behaviour: busy-until-aware NIC selection |
//! | `ablation_pio` | Fig 4 timelines: serialized vs aggregated vs offloaded PIO |
//! | `ablation_ratio` | §II-A critique: static ratio error across sizes |
//! | `ablation_offload` | T_O sensitivity: split break-even vs offload cost |
//! | `ablation_split` | Fig 1: no-split vs iso vs hetero on one message |
//!
//! Wall-clock cost per layer and end to end is the `perf` bin's ledger
//! (`src/bin/perf/README.md`); `scaling` and `table_offload` time the two
//! things it has no row for (replicated-state reads across threads, T_O).

// No unsafe anywhere in this crate; keep it that way.
#![forbid(unsafe_code)]

use nm_core::driver::faulty::FaultSimDriver;
use nm_core::driver::sim::SimDriver;
use nm_core::engine::Engine;
use nm_core::predictor::Predictor;
use nm_core::strategy::{Strategy, StrategyKind};
use nm_core::transport::Transport;
use nm_core::HealthConfig;
use nm_faults::FaultSchedule;
use nm_model::units::{format_size, pow2_sizes, KIB, MIB};
use nm_model::{Micros, SimTime};
use nm_sampler::{SamplingConfig, SimTransport};
use nm_sim::{ClusterSpec, RailId, SimEvent, Simulator, TransferId};

/// Samples a cluster spec into a [`Predictor`] (natural + forced-eager
/// profiles per rail) — what a session does at init, exposed for harnesses
/// that drive the engine manually.
pub fn sample_predictor(spec: &ClusterSpec) -> Predictor {
    let cfg = SamplingConfig { iters: 1, warmup: 0, ..Default::default() };
    let threshold_of = |i: usize| spec.rails[i].rdv_threshold;
    Predictor::sampled(&mut SimTransport::new(spec.clone()), &cfg, threshold_of).expect("sampling")
}

/// Builds an engine over a fresh paper-testbed simulator with the given
/// strategy (predictor sampled from the same spec).
pub fn paper_engine(strategy: Box<dyn Strategy>) -> Engine<SimDriver> {
    let spec = ClusterSpec::paper_testbed();
    let predictor = sample_predictor(&spec);
    Engine::new(SimDriver::new(spec), predictor, strategy).expect("engine")
}

/// Builds a paper-testbed engine from a [`StrategyKind`].
pub fn paper_engine_kind(kind: StrategyKind) -> Engine<SimDriver> {
    paper_engine(kind.build())
}

/// One-way duration of a single `size`-byte message under `kind` on a
/// fresh paper-testbed engine.
pub fn one_way_us(kind: StrategyKind, size: u64) -> Micros {
    let mut engine = paper_engine_kind(kind);
    let id = engine.post_send(size).expect("post");
    let done = engine.wait(id).expect("wait");
    Micros::new(done.duration.as_micros_f64())
}

/// Bandwidth in MiB/s (the paper's Fig 8 unit) for a one-way transfer.
pub fn bandwidth_mibps(kind: StrategyKind, size: u64) -> f64 {
    let us = one_way_us(kind, size).get();
    size as f64 / (1024.0 * 1024.0) / (us / 1e6)
}

/// One-way duration of a single message on an existing engine over
/// any transport (the generic sibling of [`one_way_us`]).
pub fn one_way_us_in<T: Transport>(engine: &mut Engine<T>, size: u64) -> Micros {
    let id = engine.post_send(size).expect("post");
    Micros::new(engine.wait(id).expect("wait").duration.as_micros_f64())
}

/// A paper-testbed engine over the chaos driver, replaying `schedule` with
/// fault tolerance `cfg` — the resilience harness substrate.
pub fn chaos_paper_engine_kind(
    kind: StrategyKind,
    schedule: FaultSchedule,
    cfg: HealthConfig,
) -> Engine<FaultSimDriver> {
    let spec = ClusterSpec::paper_testbed();
    let predictor = sample_predictor(&spec);
    Engine::new(FaultSimDriver::new(spec, schedule), predictor, kind.build())
        .expect("engine")
        .with_fault_tolerance(cfg)
        .expect("health config")
}

/// Renders the Fig 8 report (header, bandwidth table, maxima footer) for
/// engines produced by `make` — one fresh engine per (strategy, size)
/// point, exactly like the `fig8` binary. Generic over the transport so
/// the resilience harness can pin its fault-free path to the same bytes.
pub fn fig8_report<T: Transport>(mut make: impl FnMut(StrategyKind) -> Engine<T>) -> String {
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
        out.push_str(&format!("# max {name}: {max:.0} MB/s\n"));
    }
    let aggregate = maxima[0] + maxima[1];
    out.push_str(&format!(
        "# hetero reaches {:.1}% of the single-rail sum ({aggregate:.0} MB/s)\n",
        100.0 * maxima[3] / aggregate
    ));
    out
}

/// Time for a batch of messages enqueued together to all complete
/// (the Fig 3 scenario uses two segments). Batch posting matters: the
/// strategy sees the whole queue, so aggregation can pack it.
pub fn batch_completion_us(strategy: Box<dyn Strategy>, sizes: &[u64]) -> Micros {
    let mut engine = paper_engine(strategy);
    engine.post_send_batch(sizes).expect("post batch");
    let done = engine.drain().expect("drain");
    Micros::new(done.iter().map(|c| c.delivered_at.as_micros_f64()).fold(0.0, f64::max))
}

/// Runs `sim` dry and returns when each of `ids` was delivered, in order —
/// read off its `Delivered` event, since the simulator keeps nothing about
/// a transfer once it has delivered.
pub fn delivery_instants(sim: &mut Simulator, ids: &[TransferId]) -> Vec<SimTime> {
    let events = sim.run_until_idle();
    let delivered = |id| {
        events.iter().find_map(|e| match *e {
            SimEvent::Delivered { transfer, at, .. } if transfer == id => Some(at),
            _ => None,
        })
    };
    ids.iter().map(|&id| delivered(id).unwrap_or_else(|| panic!("{id} never delivered"))).collect()
}

/// A strategy that aggregates the whole queue onto one fixed rail —
/// Fig 3's "two aggregated segments over `<rail>`" series, and a demo of
/// the strategy plug-in interface.
#[derive(Debug, Clone)]
pub struct AggregateOn(pub RailId);

impl Strategy for AggregateOn {
    fn name(&self) -> &'static str {
        "aggregate-on-fixed-rail"
    }

    fn decide(&mut self, ctx: &nm_core::strategy::Ctx<'_>) -> nm_core::strategy::Action {
        nm_core::strategy::Action::Aggregate { count: ctx.queued_sizes.len(), rail: self.0 }
    }
}

/// Simple aligned table printer for harness output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header count).
    // nm-analyzer: allow(unbounded-growth) -- one row per bench configuration; tables are
    // rendered and dropped at the end of the run
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_model::units::MIB;

    #[test]
    fn helpers_produce_plausible_numbers() {
        let myri = bandwidth_mibps(StrategyKind::SingleRail(Some(RailId(0))), 8 * MIB);
        let hetero = bandwidth_mibps(StrategyKind::HeteroSplit, 8 * MIB);
        assert!(myri > 1000.0 && myri < 1300.0, "myri {myri}");
        assert!(hetero > myri, "hetero {hetero} must beat single-rail {myri}");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["size", "MB/s"]);
        t.row(vec!["32K".into(), "612.1".into()]);
        t.row(vec!["8M".into(), "1987.0".into()]);
        let s = t.render();
        assert!(s.contains("size"));
        assert!(s.lines().count() == 4);
    }
}
