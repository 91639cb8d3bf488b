//! Equation (1): the paper's estimator for multicore eager splitting.
//!
//! Fig 9 is not a measurement but a *model estimate*: the paper computes
//! `T(size) = T_O + max(T_D(size·ratio, N1), T_D(size·(1−ratio), N2))`
//! from sampled eager profiles and the measured offload cost T_O = 3 µs,
//! and compares it against each network's own eager latency. This module
//! reproduces that computation (generalized to k rails through the same
//! water-filling split the engine uses).

// Hot path: no panicking construct anywhere in this file (tests excepted, clippy.toml).
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::todo, clippy::unreachable)]

use crate::predictor::{CostModel, Predictor};
use crate::split::equal_completion_split;
use nm_model::Micros;
use nm_sim::RailId;

/// Result of the equation-(1) estimate for one message size.
#[derive(Debug, Clone, PartialEq)]
pub struct EagerSplitEstimate {
    /// Message size in bytes.
    pub size: u64,
    /// Bytes per rail in the equal-completion split.
    pub assignments: Vec<(RailId, u64)>,
    /// Estimated split latency: `T_O + max(T_D)`, in µs.
    pub split_us: f64,
    /// Best single-rail eager latency, in µs.
    pub best_single_us: f64,
    /// Relative gain of splitting: `1 - split/best_single` (negative when
    /// splitting loses — the tiny-message regime).
    pub gain: f64,
}

impl EagerSplitEstimate {
    /// True when the estimator says splitting pays off.
    #[must_use]
    pub fn splitting_wins(&self) -> bool {
        self.gain > 0.0
    }
}

/// Computes the equation-(1) estimate for `size` bytes with offload cost
/// `offload_us`, using the predictor's forced-eager profiles and idle rails.
///
/// ```
/// use nm_core::estimate::estimate_eager_split;
/// use nm_core::predictor::{Predictor, RailView};
/// use nm_model::{Micros, PerfProfile};
/// use nm_sim::RailId;
///
/// let rail = |i: usize, name: &str, lat: f64, bw: f64| {
///     let p = PerfProfile::from_samples(
///         name,
///         (2..=18).map(|q| (1u64 << q, lat + (1u64 << q) as f64 / bw)).collect(),
///     )
///     .unwrap();
///     RailView { rail: RailId(i), name: name.into(), natural: p.clone(), eager: p,
///                rdv_threshold: 128 * 1024 }
/// };
/// let p = Predictor::new(vec![rail(0, "a", 3.0, 900.0), rail(1, "b", 2.0, 800.0)]);
///
/// // Tiny message: the 3 µs offload cost dominates — splitting loses.
/// assert!(!estimate_eager_split(&p, 256, Micros::new(3.0)).splitting_wins());
/// // 64 KiB: parallel copies amortize it — splitting wins (paper Fig 9).
/// assert!(estimate_eager_split(&p, 64 * 1024, Micros::new(3.0)).splitting_wins());
/// ```
#[must_use]
pub fn estimate_eager_split(
    predictor: &Predictor,
    size: u64,
    offload_us: Micros,
) -> EagerSplitEstimate {
    assert!(size > 0, "empty messages are not modeled");
    let offload_us = offload_us.get();
    assert!(offload_us >= 0.0);
    let cost = predictor.eager_cost();
    let rails: Vec<(RailId, f64)> = (0..predictor.rail_count()).map(|i| (RailId(i), 0.0)).collect();

    let best_single_us =
        rails.iter().map(|&(r, _)| cost.time_us(r, size)).fold(f64::INFINITY, f64::min);

    let split = equal_completion_split(&cost, &rails, size);
    let split_us = offload_us + split.completion_us;
    EagerSplitEstimate {
        size,
        assignments: split.assignments.to_vec(),
        split_us,
        best_single_us,
        gain: 1.0 - split_us / best_single_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::test_support::two_rail_predictor;

    #[test]
    fn tiny_messages_lose_large_messages_win() {
        // Synthetic rails 3 + s/1000 and 1 + s/500, T_O = 3 µs.
        let p = two_rail_predictor();
        let tiny = estimate_eager_split(&p, 64, Micros::new(3.0));
        assert!(!tiny.splitting_wins(), "64B split must lose: {tiny:?}");
        let large = estimate_eager_split(&p, 64 * 1024, Micros::new(3.0));
        assert!(large.splitting_wins(), "64KB split must win: {large:?}");
        // Gain grows with size in this regime.
        let medium = estimate_eager_split(&p, 8 * 1024, Micros::new(3.0));
        assert!(large.gain > medium.gain);
    }

    #[test]
    fn estimate_matches_hand_computation() {
        // Rails 3 + x/1000 / 1 + y/500, size 64 KiB:
        // equal completion at x = (2S - 2000)/3, T = 3 + x/1000; plus T_O.
        let p = two_rail_predictor();
        let size = 64 * 1024u64;
        let e = estimate_eager_split(&p, size, Micros::new(3.0));
        let x = (2.0 * size as f64 - 2000.0) / 3.0;
        let want = 3.0 + (3.0 + x / 1000.0);
        assert!((e.split_us - want).abs() < 0.05, "{} vs {want}", e.split_us);
        let want_single = (3.0 + size as f64 / 1000.0).min(1.0 + size as f64 / 500.0);
        assert!((e.best_single_us - want_single).abs() < 1e-9);
    }

    #[test]
    fn zero_offload_makes_splitting_win_earlier() {
        let p = two_rail_predictor();
        // Find the break-even with and without offload cost.
        let crossover = |to: f64| {
            (2..20)
                .map(|p2| 1u64 << p2)
                .find(|&s| estimate_eager_split(&p, s, Micros::new(to)).splitting_wins())
                .unwrap_or(u64::MAX)
        };
        assert!(crossover(0.0) < crossover(3.0));
        assert!(crossover(3.0) < crossover(30.0));
    }
}
