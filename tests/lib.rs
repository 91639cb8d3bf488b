//! # nm-tests — cross-crate integration tests
//!
//! The tests live in `tests/` (one file per concern): figure-shape
//! assertions that pin the paper's qualitative results, the in-text
//! measurement reproductions, engine behaviour across strategies and
//! drivers, the sampling pipeline, and property-based workload tests.
//!
//! This library only hosts shared helpers.

use nm_core::driver::sim::SimDriver;
use nm_core::engine::Engine;
use nm_core::predictor::Predictor;
use nm_core::strategy::{Strategy, StrategyKind};
use nm_model::SimTime;
use nm_sampler::{SamplingConfig, SimTransport};
use nm_sim::{ClusterSpec, SimEvent, TransferId};

/// Samples `spec` into a predictor (natural + forced-eager per rail).
pub fn sample_predictor(spec: &ClusterSpec) -> Predictor {
    let cfg = SamplingConfig { iters: 1, warmup: 0, ..Default::default() };
    let threshold_of = |i: usize| spec.rails[i].rdv_threshold;
    Predictor::sampled(&mut SimTransport::new(spec.clone()), &cfg, threshold_of).expect("sampling")
}

/// A paper-testbed engine with the given strategy object.
pub fn paper_engine(strategy: Box<dyn Strategy>) -> Engine<SimDriver> {
    let spec = ClusterSpec::paper_testbed();
    let predictor = sample_predictor(&spec);
    Engine::new(SimDriver::new(spec), predictor, strategy).expect("engine")
}

/// A paper-testbed engine from a [`StrategyKind`].
pub fn paper_engine_kind(kind: StrategyKind) -> Engine<SimDriver> {
    paper_engine(kind.build())
}

/// One-way duration (µs) for one message of `size` under `kind`.
pub fn one_way_us(kind: StrategyKind, size: u64) -> f64 {
    let mut engine = paper_engine_kind(kind);
    let id = engine.post_send(size).expect("post");
    engine.wait(id).expect("wait").duration.as_micros_f64()
}

/// When `id` was delivered, from a run's events (the simulator keeps
/// nothing about a transfer once it has delivered).
pub fn delivered_at(events: &[SimEvent], id: TransferId) -> SimTime {
    events
        .iter()
        .find_map(|e| match *e {
            SimEvent::Delivered { transfer, at, .. } if transfer == id => Some(at),
            _ => None,
        })
        .unwrap_or_else(|| panic!("{id} was never delivered"))
}

/// Bandwidth in MiB/s (paper Fig 8 unit).
pub fn bandwidth_mibps(kind: StrategyKind, size: u64) -> f64 {
    let us = one_way_us(kind, size);
    size as f64 / (1024.0 * 1024.0) / (us / 1e6)
}
