//! # nm-bench — the paper's harnesses and the helpers they share
//!
//! The evaluation's tables and figures, the ablations and the extension
//! harnesses are subcommands of the `repro` bin (`src/bin/repro/`, see
//! DESIGN.md §4); wall-clock cost per layer and end to end is the `perf`
//! bin's ledger (`src/bin/perf/README.md`). This library holds what both
//! bins, the examples and the allocation proof build engines with.

// No unsafe anywhere in this crate; keep it that way.
#![forbid(unsafe_code)]

use nm_core::driver::sim::SimDriver;
use nm_core::engine::Engine;
use nm_core::predictor::Predictor;
use nm_core::strategy::{Strategy, StrategyKind};
use nm_core::transport::Transport;
use nm_model::Micros;
use nm_sampler::{SamplingConfig, SimTransport};
use nm_sim::ClusterSpec;

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

/// One-way duration of a single message on an existing engine over
/// any transport (the generic sibling of [`one_way_us`]).
pub fn one_way_us_in<T: Transport>(engine: &mut Engine<T>, size: u64) -> Micros {
    let id = engine.post_send(size).expect("post");
    Micros::new(engine.wait(id).expect("wait").duration.as_micros_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_model::units::MIB;
    use nm_sim::RailId;

    #[test]
    fn helpers_produce_plausible_numbers() {
        let mibps = |kind| 8.0 / (one_way_us(kind, 8 * MIB).get() / 1e6);
        let myri = mibps(StrategyKind::SingleRail(Some(RailId(0))));
        let hetero = mibps(StrategyKind::HeteroSplit);
        assert!(myri > 1000.0 && myri < 1300.0, "myri {myri}");
        assert!(hetero > myri, "hetero {hetero} must beat single-rail {myri}");
    }
}
