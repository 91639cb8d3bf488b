//! Prediction-driven algorithm selection with observed-vs-predicted
//! feedback.
//!
//! For each collective the [`Selector`] compares the cost model's
//! predicted makespans of the algorithm variants and picks the cheapest —
//! after scaling each prediction by a per-algorithm *correction factor*,
//! an EWMA of observed `measured / predicted` ratios. The model's absolute
//! error (it ignores switch contention, strategy packing, eager/rdv mode
//! flips mid-schedule) is largely systematic per algorithm shape, so a
//! multiplicative correction converges fast while preserving the model's
//! size/node-count structure. Every completed operation is also kept as an
//! [`OpRecord`] — the observability trail the bench serializes.
//!
//! This file is on the analyzer's hot-path list: selection runs on every
//! collective post, so it must be panic-free (no unwrap/expect/indexing).

// Hot path: no panicking construct anywhere in this file (tests excepted, clippy.toml).
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::todo, clippy::unreachable)]

use crate::schedule::{Algorithm, Collective, HopDag, ALGORITHMS};

/// EWMA weight of the newest observation.
const ALPHA: f64 = 0.25;

/// Added cost (µs) per hop per unit of endpoint sickness. Sickness is the
/// runner's per-node failure EWMA in `[0, 1)`; at 50 µs/unit a flat
/// schedule hammering one sick hub accrues roughly a retry-timeout's worth
/// of penalty per touching hop, which is what shifts selection to shapes
/// that spread load off the hub (flat → tree) under sustained degradation.
const HEALTH_PENALTY_US: f64 = 50.0;

/// Health penalty of running `dag` given per-node sickness: every hop is
/// charged for the sickness of both its endpoints, so schedules that
/// concentrate traffic on degraded nodes price themselves out.
// nm-analyzer: hot_path
// nm-analyzer: allow(unit-bare) -- µs-f64 numeric core of the DAG cost
// model, beneath the typed Micros boundary
pub fn dag_health_penalty_us(dag: &HopDag, sickness: &[f64]) -> f64 {
    dag.hops
        .iter()
        .map(|h| {
            let s = sickness.get(h.src).copied().unwrap_or(0.0)
                + sickness.get(h.dst).copied().unwrap_or(0.0);
            HEALTH_PENALTY_US * s
        })
        .sum()
}

/// One completed collective: what was predicted, what happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpRecord {
    /// Which primitive ran.
    pub collective: Collective,
    /// Which variant was executed.
    pub algorithm: Algorithm,
    /// Participant count.
    pub nodes: usize,
    /// Block size.
    pub bytes: u64,
    /// Model makespan at selection time (µs, correction *not* applied).
    pub predicted_us: f64,
    /// Simulated makespan (µs).
    pub measured_us: f64,
}

impl OpRecord {
    /// `measured / predicted`; 1.0 for degenerate predictions.
    pub fn ratio(&self) -> f64 {
        if self.predicted_us > 0.0 && self.predicted_us.is_finite() {
            self.measured_us / self.predicted_us
        } else {
            1.0
        }
    }
}

/// Algorithm chooser: corrected-prediction argmin plus the feedback state.
#[derive(Debug, Clone)]
pub struct Selector {
    /// Per-algorithm multiplicative correction, indexed by
    /// [`Algorithm::ordinal`]; starts at 1.0 (trust the model).
    correction: [f64; ALGORITHMS.len()],
    records: Vec<OpRecord>,
}

impl Default for Selector {
    fn default() -> Self {
        Selector::new()
    }
}

impl Selector {
    /// A selector with no history: corrections all 1.0.
    pub fn new() -> Self {
        Selector { correction: [1.0; ALGORITHMS.len()], records: Vec::new() }
    }

    /// Current correction factor for an algorithm.
    // nm-analyzer: hot_path
    pub fn correction(&self, algo: Algorithm) -> f64 {
        self.correction.get(algo.ordinal()).copied().unwrap_or(1.0)
    }

    /// A raw model prediction scaled by the algorithm's correction.
    // nm-analyzer: hot_path
    // nm-analyzer: allow(unit-bare) -- µs-f64 numeric core of the DAG cost
    // model, beneath the typed Micros boundary
    pub fn corrected_us(&self, algo: Algorithm, predicted_us: f64) -> f64 {
        predicted_us * self.correction(algo)
    }

    /// Picks the candidate with the lowest corrected prediction. `None`
    /// only for an empty candidate list. Ties keep the earlier candidate
    /// (stable for the `algorithms()` ordering).
    // nm-analyzer: hot_path
    pub fn choose(&self, candidates: &[(Algorithm, f64)]) -> Option<(Algorithm, f64)> {
        let mut best: Option<(Algorithm, f64)> = None;
        for &(algo, predicted) in candidates {
            let cost = self.corrected_us(algo, predicted);
            let beat = match best {
                Some((_, b)) => cost < b,
                None => true,
            };
            if beat {
                best = Some((algo, cost));
            }
        }
        best
    }

    /// Like [`Selector::choose`], but each candidate carries an additive
    /// health penalty (µs) on top of its corrected prediction — the
    /// faulted runner's selection path. A zero penalty reduces to
    /// `choose` exactly.
    // nm-analyzer: hot_path
    pub fn choose_penalized(
        &self,
        candidates: &[(Algorithm, f64, f64)],
    ) -> Option<(Algorithm, f64)> {
        let mut best: Option<(Algorithm, f64)> = None;
        for &(algo, predicted, penalty) in candidates {
            let cost = self.corrected_us(algo, predicted) + penalty;
            let beat = match best {
                Some((_, b)) => cost < b,
                None => true,
            };
            if beat {
                best = Some((algo, cost));
            }
        }
        best
    }

    /// Feeds back one completed operation: updates the algorithm's EWMA
    /// correction and appends to the record trail.
    // nm-analyzer: hot_path
    // nm-analyzer: allow(unbounded-growth) -- record trail holds one entry per completed
    // collective, the observability product of the selector; callers own its lifetime
    pub fn record(&mut self, rec: OpRecord) {
        let ratio = rec.ratio();
        if ratio.is_finite() && ratio > 0.0 {
            if let Some(c) = self.correction.get_mut(rec.algorithm.ordinal()) {
                *c = (1.0 - ALPHA) * *c + ALPHA * ratio;
            }
        }
        self.records.push(rec);
    }

    /// Every operation recorded so far, oldest first.
    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(algo: Algorithm, predicted: f64, measured: f64) -> OpRecord {
        OpRecord {
            collective: algo.collective(),
            algorithm: algo,
            nodes: 4,
            bytes: 1024,
            predicted_us: predicted,
            measured_us: measured,
        }
    }

    #[test]
    fn fresh_selector_trusts_the_model() {
        let s = Selector::new();
        let picked = s.choose(&[(Algorithm::BcastFlat, 120.0), (Algorithm::BcastTree, 80.0)]);
        assert_eq!(picked.map(|(a, _)| a), Some(Algorithm::BcastTree));
        assert_eq!(s.correction(Algorithm::BcastTree), 1.0);
        assert_eq!(s.choose(&[]), None);
    }

    #[test]
    fn feedback_shifts_the_correction_toward_observed_ratios() {
        let mut s = Selector::new();
        // Tree consistently runs 2x the prediction.
        for _ in 0..20 {
            s.record(rec(Algorithm::BcastTree, 100.0, 200.0));
        }
        assert!((s.correction(Algorithm::BcastTree) - 2.0).abs() < 0.05);
        assert_eq!(s.correction(Algorithm::BcastFlat), 1.0, "other algorithms untouched");
        // Now a nominal 80 vs 120 flips: corrected tree is ~160.
        let picked = s.choose(&[(Algorithm::BcastFlat, 120.0), (Algorithm::BcastTree, 80.0)]);
        assert_eq!(picked.map(|(a, _)| a), Some(Algorithm::BcastFlat));
    }

    #[test]
    fn degenerate_observations_cannot_poison_the_state() {
        let mut s = Selector::new();
        s.record(rec(Algorithm::BarrierFlat, 0.0, 50.0));
        s.record(rec(Algorithm::BarrierFlat, f64::NAN, 50.0));
        assert_eq!(s.correction(Algorithm::BarrierFlat), 1.0);
        assert_eq!(s.records().len(), 2, "records keep everything for observability");
    }

    #[test]
    fn a_sick_hub_prices_flat_out_of_selection() {
        // Node 0 is degraded: every flat hop touches it, only log-ish many
        // tree hops do, so the penalty gap flips an otherwise-flat choice.
        let mut sickness = vec![0.0; 8];
        sickness[0] = 0.8;
        let flat = Algorithm::BarrierFlat.dag(8, 1);
        let tree = Algorithm::BarrierTree.dag(8, 1);
        let p_flat = dag_health_penalty_us(&flat, &sickness);
        let p_tree = dag_health_penalty_us(&tree, &sickness);
        assert!(p_flat > 2.0 * p_tree, "flat {p_flat} vs tree {p_tree}");
        let s = Selector::new();
        // Model says flat is slightly cheaper; health says otherwise.
        let picked = s.choose_penalized(&[
            (Algorithm::BarrierFlat, 100.0, p_flat),
            (Algorithm::BarrierTree, 120.0, p_tree),
        ]);
        assert_eq!(picked.map(|(a, _)| a), Some(Algorithm::BarrierTree));
        // Zero penalties reduce to plain choice.
        let same = s.choose_penalized(&[
            (Algorithm::BarrierFlat, 100.0, 0.0),
            (Algorithm::BarrierTree, 120.0, 0.0),
        ]);
        assert_eq!(same.map(|(a, _)| a), Some(Algorithm::BarrierFlat));
        // Healthy cluster: no penalty anywhere.
        assert_eq!(dag_health_penalty_us(&flat, &[0.0; 8]), 0.0);
    }

    #[test]
    fn ties_prefer_the_earlier_candidate() {
        let s = Selector::new();
        let picked = s.choose(&[(Algorithm::BarrierFlat, 10.0), (Algorithm::BarrierTree, 10.0)]);
        assert_eq!(picked.map(|(a, _)| a), Some(Algorithm::BarrierFlat));
    }
}
