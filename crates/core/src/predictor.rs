//! Transfer-time prediction from sampled profiles (paper §II-B, §III-C).
//!
//! All strategy decisions flow through this module: given the sampled
//! [`PerfProfile`] of each rail and the time each NIC still needs before
//! going idle, the predictor answers "when would `n` bytes complete on rail
//! `r` if submitted now?" — the quantity the paper uses both to discard
//! NICs (Fig 2) and to equalize chunk completions (Fig 1c).

// Hot path: no panicking construct anywhere in this file (tests excepted, clippy.toml).
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::todo, clippy::unreachable)]

use nm_model::{ModelError, PerfProfile, SimTime, TransferMode, MAX_RAILS};
use nm_sampler::{sample_rail, SampleTransport, SamplingConfig};
use nm_sim::RailId;
use std::sync::Arc;

/// The engine's knowledge of one rail.
#[derive(Debug, Clone)]
pub struct RailView {
    /// Rail index (matches the transport).
    pub rail: RailId,
    /// Rail name. Shared (`Arc<str>`) so cloning a view — e.g. when the
    /// feedback loop rebuilds the predictor — bumps a refcount instead of
    /// copying the string.
    pub name: Arc<str>,
    /// Profile sampled with the rail's natural protocol choice.
    pub natural: PerfProfile,
    /// Profile sampled with the eager protocol forced — what the multicore
    /// eager strategy (and the paper's equation (1)) reasons about.
    pub eager: PerfProfile,
    /// The rail's rendezvous threshold.
    pub rdv_threshold: u64,
}

impl RailView {
    /// The profile that prices a chunk sent in `mode`: an eager-forced
    /// chunk on the eager profile, anything else on the natural one.
    #[must_use]
    pub fn profile(&self, mode: Option<TransferMode>) -> &PerfProfile {
        match mode {
            Some(TransferMode::Eager) => &self.eager,
            _ => &self.natural,
        }
    }
}

/// A per-rail cost oracle: the interface the split/selection algorithms
/// need. Implemented by the predictor's natural and eager views.
pub trait CostModel {
    /// Number of rails.
    fn rail_count(&self) -> usize;

    /// Predicted transfer duration of `bytes` on `rail`, in microseconds.
    fn time_us(&self, rail: RailId, bytes: u64) -> f64;

    /// Largest size predicted to finish within `budget_us` on `rail`: the
    /// exact inverse of [`Self::time_us`] (the largest `n` with
    /// `time_us(rail, n) <= budget_us`). The water-fill locates capacity
    /// steps from `time_us` and reads capacity from here, so the two must
    /// agree to the byte.
    fn bytes_within(&self, rail: RailId, budget_us: f64) -> u64;

    /// Marginal bandwidth (bytes per µs) of `rail` around `bytes` — the
    /// slope the water-fill's Newton step follows. Only steers the search:
    /// no split depends on its exact value.
    fn marginal_rate(&self, rail: RailId, bytes: u64) -> f64;
}

/// Sampled knowledge of every rail plus prediction arithmetic.
#[derive(Debug, Clone)]
pub struct Predictor {
    rails: Vec<RailView>,
}

impl Predictor {
    /// Builds a predictor; rails must be indexed contiguously from 0 and
    /// number at most [`MAX_RAILS`] (the engine's inline-collection bound).
    pub fn new(rails: Vec<RailView>) -> Self {
        assert!(!rails.is_empty(), "predictor needs at least one rail");
        assert!(rails.len() <= MAX_RAILS, "at most {MAX_RAILS} rails supported");
        for (i, r) in rails.iter().enumerate() {
            assert_eq!(r.rail.index(), i, "rails must be sorted by index");
        }
        Predictor { rails }
    }

    /// Samples every rail of `transport` into a predictor — the natural
    /// protocol choice first, then eager forced — as NewMadeleine does once
    /// at initialization (paper §III-C). `rdv_threshold_of(i)` supplies
    /// rail `i`'s rendezvous threshold, which a sampling transport does not
    /// report.
    pub fn sampled<S: SampleTransport>(
        transport: &mut S,
        config: &SamplingConfig,
        rdv_threshold_of: impl Fn(usize) -> u64,
    ) -> Result<Self, ModelError> {
        let eager_config = SamplingConfig { mode: Some(TransferMode::Eager), ..*config };
        let rails = (0..transport.rail_count())
            .map(|i| {
                Ok(RailView {
                    rail: RailId(i),
                    natural: sample_rail(transport, i, config)?,
                    eager: sample_rail(transport, i, &eager_config)?,
                    name: transport.rail_name(i).into(),
                    rdv_threshold: rdv_threshold_of(i),
                })
            })
            .collect::<Result<Vec<_>, ModelError>>()?;
        Ok(Predictor::new(rails))
    }

    /// All rail views.
    pub fn rails(&self) -> &[RailView] {
        &self.rails
    }

    /// One rail's view.
    #[must_use]
    #[expect(clippy::indexing_slicing, reason = "rail ids are validated contiguous in new()")]
    pub fn rail(&self, rail: RailId) -> &RailView {
        &self.rails[rail.index()]
    }

    /// Number of rails.
    pub fn rail_count(&self) -> usize {
        self.rails.len()
    }

    /// Natural-protocol cost oracle.
    pub fn natural_cost(&self) -> NaturalCost<'_> {
        NaturalCost { p: self }
    }

    /// Forced-eager cost oracle.
    pub fn eager_cost(&self) -> EagerCost<'_> {
        EagerCost { p: self }
    }

    /// Predicted completion (µs from now) of `bytes` on `rail` when the NIC
    /// frees up `wait_us` from now — Fig 2's quantity: "the time remaining
    /// before it becomes idle is added to its predicted transfer time".
    // nm-analyzer: allow(unit-bare) -- µs-f64 numeric core shared with the
    // CostModel trait; callers wrap at the API boundary
    #[must_use]
    pub fn completion_us(&self, rail: RailId, bytes: u64, wait_us: f64) -> f64 {
        wait_us.max(0.0) + self.rail(rail).natural.predict_us(bytes)
    }

    /// The rail with the lowest predicted completion for sending `bytes`
    /// whole, given per-rail waits ("the fastest available network").
    #[must_use]
    pub fn fastest_rail(&self, bytes: u64, waits_us: &[f64]) -> RailId {
        assert_eq!(waits_us.len(), self.rails.len());
        // Total scan: NaN completions lose every `<` comparison, so a
        // degenerate profile falls back to rail 0 rather than panicking.
        let mut best_rail = RailId(0);
        let mut best_us = f64::INFINITY;
        for (r, &wait) in self.rails.iter().zip(waits_us) {
            let t = self.completion_us(r.rail, bytes, wait);
            if t < best_us {
                best_us = t;
                best_rail = r.rail;
            }
        }
        best_rail
    }

    /// Converts a transport's absolute busy-until into "µs of wait from
    /// now" for prediction.
    // nm-analyzer: allow(unit-bare) -- µs-f64 numeric core shared with the
    // CostModel trait; callers wrap at the API boundary
    #[must_use]
    pub fn wait_us(now: SimTime, busy_until: SimTime) -> f64 {
        busy_until.saturating_since(now).as_micros_f64()
    }
}

/// Natural-protocol view of a [`Predictor`].
#[derive(Debug, Clone, Copy)]
pub struct NaturalCost<'a> {
    p: &'a Predictor,
}

impl CostModel for NaturalCost<'_> {
    fn rail_count(&self) -> usize {
        self.p.rails.len()
    }
    fn time_us(&self, rail: RailId, bytes: u64) -> f64 {
        self.p.rail(rail).natural.predict_us(bytes)
    }
    fn bytes_within(&self, rail: RailId, budget_us: f64) -> u64 {
        self.p.rail(rail).natural.bytes_within_us(budget_us)
    }
    fn marginal_rate(&self, rail: RailId, bytes: u64) -> f64 {
        self.p.rail(rail).natural.marginal_rate(bytes)
    }
}

/// Forced-eager view of a [`Predictor`].
#[derive(Debug, Clone, Copy)]
pub struct EagerCost<'a> {
    p: &'a Predictor,
}

impl CostModel for EagerCost<'_> {
    fn rail_count(&self) -> usize {
        self.p.rails.len()
    }
    fn time_us(&self, rail: RailId, bytes: u64) -> f64 {
        self.p.rail(rail).eager.predict_us(bytes)
    }
    fn bytes_within(&self, rail: RailId, budget_us: f64) -> u64 {
        self.p.rail(rail).eager.bytes_within_us(budget_us)
    }
    fn marginal_rate(&self, rail: RailId, bytes: u64) -> f64 {
        self.p.rail(rail).eager.marginal_rate(bytes)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// A predictor over two synthetic rails with clean affine laws:
    /// rail 0: 3 + s/1000 µs, rail 1: 1 + s/500 µs (sampled 4 B..8 MiB).
    pub fn two_rail_predictor() -> Predictor {
        Predictor::new(vec![
            affine_rail(0, "fast", 3.0, 1000.0),
            affine_rail(1, "slow", 1.0, 500.0),
        ])
    }

    /// Builds a rail view with `lat + s/bw` laws for both protocols.
    pub fn affine_rail(index: usize, name: &str, lat_us: f64, bw: f64) -> RailView {
        let samples: Vec<(u64, f64)> =
            (2..=23).map(|p| (1u64 << p, lat_us + (1u64 << p) as f64 / bw)).collect();
        let profile = PerfProfile::from_samples(name, samples).unwrap();
        RailView {
            rail: RailId(index),
            name: name.into(),
            natural: profile.clone(),
            eager: profile,
            rdv_threshold: 128 * 1024,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;

    #[test]
    fn completion_adds_wait_to_prediction() {
        let p = two_rail_predictor();
        let bare = p.completion_us(RailId(0), 10_000, 0.0);
        assert!((bare - 13.0).abs() < 0.01, "{bare}");
        let waited = p.completion_us(RailId(0), 10_000, 100.0);
        assert!((waited - 113.0).abs() < 0.01);
        // Negative wait (already idle) clamps to zero.
        assert_eq!(p.completion_us(RailId(0), 10_000, -5.0), bare);
    }

    #[test]
    fn fastest_rail_depends_on_size_and_wait() {
        let p = two_rail_predictor();
        // Tiny message: rail 1 wins on latency (1 vs 3 µs).
        assert_eq!(p.fastest_rail(4, &[0.0, 0.0]), RailId(1));
        // Large message: rail 0 wins on bandwidth.
        assert_eq!(p.fastest_rail(1 << 20, &[0.0, 0.0]), RailId(0));
        // But not if rail 0 is busy for a long time (Fig 2).
        assert_eq!(p.fastest_rail(1 << 20, &[10_000.0, 0.0]), RailId(1));
    }

    #[test]
    fn cost_views_expose_their_protocols() {
        let p = two_rail_predictor();
        let n = p.natural_cost();
        let e = p.eager_cost();
        assert_eq!(n.rail_count(), 2);
        assert_eq!(n.time_us(RailId(0), 2048), e.time_us(RailId(0), 2048));
        let fit = n.bytes_within(RailId(1), 21.0); // 1 + s/500 <= 21 => s <= 10000
        assert!((fit as f64 - 10_000.0).abs() < 50.0, "{fit}");
    }

    #[test]
    fn only_an_eager_chunk_is_priced_on_the_eager_profile() {
        let mut view = affine_rail(0, "x", 3.0, 1000.0);
        view.eager = affine_rail(0, "x", 5.0, 1000.0).eager;
        let price = |mode| view.profile(mode).predict_us(4096);
        assert_eq!(price(Some(TransferMode::Eager)), view.eager.predict_us(4096));
        for natural in [None, Some(TransferMode::Rendezvous)] {
            assert_eq!(price(natural), view.natural.predict_us(4096));
        }
        assert!(price(Some(TransferMode::Eager)) > price(None));
    }

    #[test]
    fn wait_us_saturates() {
        let now = SimTime::from_micros(100);
        assert_eq!(Predictor::wait_us(now, SimTime::from_micros(130)), 30.0);
        assert_eq!(Predictor::wait_us(now, SimTime::from_micros(50)), 0.0);
    }

    #[test]
    #[should_panic(expected = "sorted by index")]
    fn out_of_order_rails_rejected() {
        let _ = Predictor::new(vec![affine_rail(1, "x", 1.0, 100.0)]);
    }
}
