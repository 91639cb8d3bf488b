//! Sampled performance profiles — the engine's knowledge of a rail.
//!
//! NewMadeleine profiles each NIC at initialization with a ping-pong
//! benchmark at power-of-two sizes and stores the results; at runtime, the
//! strategy estimates a transfer duration by retrieving "the sampled sizes
//! that are the closest to the message size ... for instance using a
//! logarithm in the case of power of 2 samples" and applying "a linear
//! interpolation" (paper §III-C). [`PerfProfile`] is that table.
//!
//! Durations are kept monotone non-decreasing in size (measurement noise is
//! smoothed with a running maximum) so that prediction — and therefore the
//! dichotomy split built on it — is well-defined.

use crate::error::ModelError;
use crate::time::SimDuration;
use crate::units::log2_floor;

/// A sampled (message size → one-way duration) table for one rail.
///
/// ```
/// use nm_model::PerfProfile;
///
/// // Sampled at powers of two; 2 µs latency + 1000 B/µs law.
/// let samples = (2..=20)
///     .map(|p| (1u64 << p, 2.0 + (1u64 << p) as f64 / 1000.0))
///     .collect();
/// let profile = PerfProfile::from_samples("myri-10g", samples).unwrap();
///
/// // Prediction interpolates between the sampled sizes (paper §III-C).
/// let t = profile.predict_us(100_000);
/// assert!((t - 102.0).abs() < 0.01);
/// // ...and inverts: how much fits in 52 µs?
/// assert!((profile.bytes_within_us(52.0) as f64 - 50_000.0).abs() < 10.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PerfProfile {
    name: String,
    /// Sorted by size; durations in microseconds, non-decreasing.
    samples: Vec<(u64, f64)>,
    /// Set when sizes form an exact power-of-two ladder starting at
    /// `2^min_log`, enabling O(1) log-indexed lookup.
    pow2_base: Option<u32>,
}

impl PerfProfile {
    /// Builds a profile from raw `(size, duration_us)` measurements.
    ///
    /// Samples are sorted by size; duplicate sizes are averaged; durations
    /// are then smoothed to be non-decreasing with a running maximum (the
    /// prediction invariant). At least two distinct sizes are required.
    pub fn from_samples(
        name: impl Into<String>,
        mut raw: Vec<(u64, f64)>,
    ) -> Result<Self, ModelError> {
        let name = name.into();
        raw.retain(|&(_, t)| t.is_finite() && t >= 0.0);
        if raw.is_empty() {
            return Err(ModelError::InvalidProfile(format!("{name}: no valid samples")));
        }
        raw.sort_by_key(|&(size, _)| size);

        // Average duplicate sizes.
        let mut samples: Vec<(u64, f64)> = Vec::with_capacity(raw.len());
        let mut i = 0;
        while i < raw.len() {
            let size = raw[i].0;
            let mut sum = 0.0;
            let mut n = 0u32;
            while i < raw.len() && raw[i].0 == size {
                sum += raw[i].1;
                n += 1;
                i += 1;
            }
            samples.push((size, sum / n as f64));
        }
        if samples.len() < 2 {
            return Err(ModelError::InvalidProfile(format!(
                "{name}: need at least 2 distinct sizes, got {}",
                samples.len()
            )));
        }
        if samples[0].0 == 0 {
            return Err(ModelError::InvalidProfile(format!(
                "{name}: zero-byte sample not allowed (log lookup)"
            )));
        }

        // Monotone smoothing.
        let mut hi = samples[0].1;
        for s in samples.iter_mut() {
            hi = hi.max(s.1);
            s.1 = hi;
        }

        let pow2_base = Self::detect_pow2_ladder(&samples);
        Ok(PerfProfile { name, samples, pow2_base })
    }

    fn detect_pow2_ladder(samples: &[(u64, f64)]) -> Option<u32> {
        let first = samples[0].0;
        if !first.is_power_of_two() {
            return None;
        }
        let base = log2_floor(first);
        for (i, &(size, _)) in samples.iter().enumerate() {
            let expect = 1u64.checked_shl(base + i as u32)?;
            if size != expect {
                return None;
            }
        }
        Some(base)
    }

    /// Profile name (usually the rail name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sampled points, sorted by size.
    pub fn samples(&self) -> &[(u64, f64)] {
        &self.samples
    }

    /// True when O(1) log-indexed lookup is in effect.
    pub fn is_pow2_ladder(&self) -> bool {
        self.pow2_base.is_some()
    }

    /// Index of the sample at or below `size` (clamped into range).
    fn bracket(&self, size: u64) -> usize {
        if let Some(base) = self.pow2_base {
            if size <= self.samples[0].0 {
                return 0;
            }
            let idx = (log2_floor(size) - base) as usize;
            return idx.min(self.samples.len() - 2);
        }
        match self.samples.binary_search_by_key(&size, |s| s.0) {
            Ok(i) => i.min(self.samples.len() - 2),
            Err(0) => 0,
            Err(i) => (i - 1).min(self.samples.len() - 2),
        }
    }

    /// Predicted one-way duration for `size` bytes, in microseconds.
    ///
    /// Linear interpolation between the bracketing samples; linear
    /// extrapolation (clamped to ≥ 0) outside the sampled range, so large
    /// messages extend at the last measured bandwidth.
    // nm-analyzer: allow(unit-bare) -- µs-f64 numeric core of the link
    // model, beneath the typed Micros boundary
    pub fn predict_us(&self, size: u64) -> f64 {
        let i = self.bracket(size);
        let (s0, t0) = self.samples[i];
        let (s1, t1) = self.samples[i + 1];
        debug_assert!(s1 > s0);
        let slope = (t1 - t0) / (s1 - s0) as f64;
        let t = t0 + slope * (size as f64 - s0 as f64);
        t.max(0.0)
    }

    /// Predicted one-way duration for `size` bytes.
    pub fn predict(&self, size: u64) -> SimDuration {
        SimDuration::from_micros_f64(self.predict_us(size))
    }

    /// Effective bandwidth (decimal MB/s) the profile predicts at `size`.
    pub fn bandwidth_mbps_at(&self, size: u64) -> f64 {
        let us = self.predict_us(size);
        if us <= 0.0 {
            f64::INFINITY
        } else {
            size as f64 / us
        }
    }

    /// Reciprocal slope (bytes per µs) of the segment starting at sample
    /// `i`; infinite where the running-max smoothing left it flat.
    fn segment_rate(&self, i: usize) -> f64 {
        let (s0, t0) = self.samples[i];
        let (s1, t1) = self.samples[i + 1];
        (s1 - s0) as f64 / (t1 - t0)
    }

    /// Marginal bandwidth (bytes per µs) of the segment `size` falls on —
    /// the reciprocal of the slope [`Self::predict_us`] interpolates with.
    /// Infinite on a flat segment.
    pub fn marginal_rate(&self, size: u64) -> f64 {
        self.segment_rate(self.bracket(size))
    }

    /// Largest size predicted to complete within `budget_us` microseconds:
    /// the exact inverse of [`Self::predict_us`], i.e. the largest `n` with
    /// `predict_us(n) <= budget_us` (predictions are monotone, so it is
    /// unique). Returns 0 if not even one byte fits and `u64::MAX` when
    /// every representable size does (a flat tail).
    ///
    /// O(log samples): the table is inverted directly — locate the last
    /// segment whose start fits, invert its line — and the integer is then
    /// settled against `predict_us` by galloping outward from that guess,
    /// which costs two probes when the guess is exact and stays correct
    /// however far floating-point rounding pushed it.
    // nm-analyzer: allow(unit-bare) -- µs-f64 numeric core of the link
    // model, beneath the typed Micros boundary
    pub fn bytes_within_us(&self, budget_us: f64) -> u64 {
        let fits = |n: u64| self.predict_us(n) <= budget_us;
        let starts_within = self.samples.partition_point(|&(_, t)| t <= budget_us);
        // A budget at or past the first sample's duration covers one byte.
        if starts_within == 0 && self.predict_us(1) > budget_us {
            return 0;
        }
        let i = starts_within.saturating_sub(1).min(self.samples.len() - 2);
        let (s0, t0) = self.samples[i];
        // A flat segment is only ever picked as the tail, where its start
        // fitting means everything fits.
        let rate = self.segment_rate(i);
        let guess =
            if rate.is_finite() { s0 as f64 + (budget_us - t0) * rate } else { f64::INFINITY };
        // Sizes are searched below `cap`, the last sampled size doubled as
        // far as `u64` allows; a budget that still covers it is unbounded.
        let last = self.samples.last().expect("non-empty").0.max(2);
        let cap = last << last.leading_zeros();
        let guess = (guess as u64).clamp(1, cap);

        // Bracket the answer: fits(lo) && !fits(hi), galloping away from
        // the guess with doubling strides.
        let (mut lo, mut hi, mut stride) = (guess, guess, 1u64);
        if fits(guess) {
            loop {
                if lo == cap {
                    return u64::MAX;
                }
                hi = lo.saturating_add(stride).min(cap);
                if !fits(hi) {
                    break;
                }
                lo = hi;
                stride = stride.saturating_mul(2);
            }
        } else {
            loop {
                lo = hi.saturating_sub(stride).max(1);
                // One byte fits (checked on entry), so the descent ends.
                if lo == 1 || fits(lo) {
                    break;
                }
                hi = lo;
                stride = stride.saturating_mul(2);
            }
        }
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if fits(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The exponential + binary search [`Self::bytes_within_us`] replaced,
    /// kept verbatim as the differential oracle.
    #[cfg(test)]
    fn bytes_within_us_by_search(&self, budget_us: f64) -> u64 {
        if self.predict_us(1) > budget_us {
            return 0;
        }
        // Exponential search for an upper bound, then binary search.
        let mut hi = self.samples.last().expect("non-empty").0.max(2);
        while self.predict_us(hi) <= budget_us {
            match hi.checked_mul(2) {
                Some(next) => hi = next,
                None => return u64::MAX,
            }
        }
        let mut lo = 1u64; // predict(lo) <= budget here
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if self.predict_us(mid) <= budget_us {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Smallest and largest sampled sizes.
    pub fn sampled_range(&self) -> (u64, u64) {
        (self.samples[0].0, self.samples.last().expect("non-empty").0)
    }

    /// Serializes to the NewMadeleine-style plain-text sampling format:
    /// comment header, then one `size<TAB>duration_us` line per sample.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# nmad sampling for {}\n", self.name));
        out.push_str("# size(bytes)\tduration(us)\n");
        for &(size, us) in &self.samples {
            out.push_str(&format!("{size}\t{us:.6}\n"));
        }
        out
    }

    /// Parses the plain-text sampling format produced by [`Self::to_text`].
    pub fn from_text(name: impl Into<String>, text: &str) -> Result<Self, ModelError> {
        let mut samples = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split_whitespace();
            let size = fields
                .next()
                .and_then(|f| f.parse::<u64>().ok())
                .ok_or_else(|| ModelError::Parse(format!("line {}: bad size", lineno + 1)))?;
            let us = fields
                .next()
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| ModelError::Parse(format!("line {}: bad duration", lineno + 1)))?;
            if fields.next().is_some() {
                return Err(ModelError::Parse(format!("line {}: trailing fields", lineno + 1)));
            }
            samples.push((size, us));
        }
        PerfProfile::from_samples(name, samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    fn ladder() -> PerfProfile {
        // A clean alpha-beta law sampled at powers of two: 2 + s/1000 us.
        let samples = (2..=23)
            .map(|p| {
                let s = 1u64 << p;
                (s, 2.0 + s as f64 / 1000.0)
            })
            .collect();
        PerfProfile::from_samples("test", samples).unwrap()
    }

    #[test]
    fn detects_pow2_ladder() {
        assert!(ladder().is_pow2_ladder());
        let irregular =
            PerfProfile::from_samples("x", vec![(4, 1.0), (10, 2.0), (100, 3.0)]).unwrap();
        assert!(!irregular.is_pow2_ladder());
    }

    #[test]
    fn interpolation_recovers_linear_law() {
        let p = ladder();
        for size in [4u64, 100, 1000, 12345, 1 << 20, (1 << 22) + 7] {
            let got = p.predict_us(size);
            let want = 2.0 + size as f64 / 1000.0;
            assert!((got - want).abs() / want < 1e-9, "size {size}: got {got}, want {want}");
        }
    }

    #[test]
    fn extrapolates_beyond_both_ends() {
        let p = ladder();
        // Below the first sample (4 bytes): extrapolate the first segment.
        let got = p.predict_us(1);
        assert!((got - 2.001).abs() < 1e-6, "tiny extrapolation: {got}");
        // Beyond the last sample: last bandwidth continues.
        let size = 1u64 << 26;
        let want = 2.0 + size as f64 / 1000.0;
        assert!((p.predict_us(size) - want).abs() / want < 1e-9);
    }

    #[test]
    fn duplicate_sizes_average_and_noise_smooths_monotone() {
        let p = PerfProfile::from_samples(
            "noisy",
            vec![(4, 2.0), (4, 4.0), (8, 2.5), (16, 10.0), (32, 9.0)],
        )
        .unwrap();
        // (4 -> 3.0 averaged), 8 -> max(3.0, 2.5) = 3.0, 32 -> max(10,9)=10.
        assert_eq!(p.samples(), &[(4, 3.0), (8, 3.0), (16, 10.0), (32, 10.0)]);
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(PerfProfile::from_samples("x", vec![]).is_err());
        assert!(PerfProfile::from_samples("x", vec![(4, 1.0)]).is_err());
        assert!(PerfProfile::from_samples("x", vec![(4, 1.0), (4, 2.0)]).is_err());
        assert!(PerfProfile::from_samples("x", vec![(0, 1.0), (4, 2.0)]).is_err());
        assert!(PerfProfile::from_samples("x", vec![(4, f64::NAN), (8, 1.0)]).is_err());
    }

    #[test]
    fn inverse_is_consistent_with_prediction() {
        let p = ladder();
        for budget in [2.5, 10.0, 1000.0, 123.456] {
            let fit = p.bytes_within_us(budget);
            assert!(p.predict_us(fit) <= budget + 1e-9, "budget {budget}");
            assert!(p.predict_us(fit + 1) > budget - 1e-6, "budget {budget}");
        }
        assert_eq!(p.bytes_within_us(1.0), 0, "below base latency nothing fits");
    }

    // One ulp either side of a finite, positive duration (`f64::next_up`
    // postdates the workspace's minimum Rust).
    fn ulp_above(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }
    fn ulp_below(x: f64) -> f64 {
        f64::from_bits(x.to_bits().saturating_sub(1))
    }

    /// A random monotone ladder: power-of-two or irregular sizes (the
    /// `binary_search` bracket path), 2–24 samples, flat runs and
    /// near-flat steps mixed with ordinary ones.
    fn random_ladder(rng: &mut TestRng) -> PerfProfile {
        let len = 2 + rng.below(23) as usize;
        let pow2 = rng.below(2) == 0;
        let mut size = if pow2 { 1u64 << rng.below(6) } else { 1 + rng.below(64) };
        let mut t = [0.0, 0.05, 1.6, 45.0][rng.below(4) as usize];
        let mut samples = Vec::with_capacity(len);
        for _ in 0..len {
            samples.push((size, t));
            let max_gap = 1u64 << rng.below(18);
            size = if pow2 { size * 2 } else { size + 1 + rng.below(max_gap) };
            t += match rng.below(8) {
                0 | 1 => 0.0,
                2 => t * f64::EPSILON * (1 + rng.below(4)) as f64,
                3 => rng.unit_f64() * 1e-6,
                4 => rng.unit_f64() * 1e4,
                _ => rng.unit_f64() * size as f64 / 500.0,
            };
        }
        PerfProfile::from_samples("random", samples).unwrap()
    }

    /// Budgets at every edge the inverse has: under one byte's duration,
    /// on sample durations and on predictions exactly (± an ulp), inside
    /// segments, far past the table, and the non-numbers.
    fn random_budget(p: &PerfProfile, rng: &mut TestRng) -> f64 {
        let (first, last) = p.sampled_range();
        let on_sample = p.samples()[rng.below(p.samples().len() as u64) as usize].1;
        let on_prediction = p.predict_us(1 + rng.below(last * 4));
        let t_last = p.samples().last().unwrap().1;
        match rng.below(12) {
            0 => p.predict_us(1) * rng.unit_f64(),
            1 => on_sample,
            2 => ulp_above(on_sample),
            3 => ulp_below(on_sample),
            4 => on_prediction,
            5 => ulp_above(on_prediction),
            6 => ulp_below(on_prediction),
            7 => p.predict_us(1 + rng.below(first + 1)),
            8 => t_last * (1.0 + rng.unit_f64() * 1e3),
            9 => t_last * 1e12 * rng.unit_f64(),
            10 => [0.0, -1.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, f64::MAX]
                [rng.below(6) as usize],
            _ => t_last * rng.unit_f64(),
        }
    }

    fn assert_inverse_matches_search(p: &PerfProfile, budget: f64) {
        assert_eq!(
            p.bytes_within_us(budget),
            p.bytes_within_us_by_search(budget),
            "budget {budget:?} ({:#x}) on {:?}",
            budget.to_bits(),
            p.samples()
        );
    }

    /// Natural and forced-eager profiles of a link model at the sampler's
    /// default sizes (4 B … 8 MiB, powers of two).
    fn builtin_profiles() -> Vec<PerfProfile> {
        use crate::builtin::{gige, ib_ddr, myri_10g, qsnet2, shmem};
        let mut out = Vec::new();
        for link in [myri_10g(), qsnet2(), gige(), ib_ddr(), shmem()] {
            let sizes = (2..=23).map(|p| 1u64 << p);
            let natural = sizes.clone().map(|s| (s, link.one_way_us(s).get())).collect();
            let eager = sizes
                .map(|s| (s, link.one_way_us_in_mode(s, crate::TransferMode::Eager).get()))
                .collect();
            out.push(PerfProfile::from_samples(link.name.clone(), natural).unwrap());
            out.push(PerfProfile::from_samples(link.name.clone(), eager).unwrap());
        }
        out
    }

    #[test]
    fn inverse_edge_cases_match_search() {
        // Two samples, flat: nothing below the plateau, everything on it.
        let flat = PerfProfile::from_samples("flat", vec![(4, 3.0), (8, 3.0)]).unwrap();
        assert_eq!(flat.bytes_within_us(2.9), 0);
        assert_eq!(flat.bytes_within_us(3.0), u64::MAX);
        // Flat tail behind a rising segment.
        let tail = PerfProfile::from_samples("tail", vec![(4, 1.0), (8, 3.0), (16, 3.0)]).unwrap();
        assert_eq!(tail.bytes_within_us(3.0), u64::MAX);
        assert_eq!(tail.bytes_within_us(ulp_below(3.0)), 7);
        // Flat run in the middle: the budget that covers its start covers
        // it whole.
        let mid = PerfProfile::from_samples("mid", vec![(4, 1.0), (8, 2.0), (16, 2.0), (32, 4.0)])
            .unwrap();
        assert_eq!(mid.bytes_within_us(2.0), 16);
        for p in [&flat, &tail, &mid, &ladder()] {
            for &(_, t) in p.samples() {
                for budget in [t, ulp_above(t), ulp_below(t), 0.0, f64::NAN, f64::INFINITY] {
                    assert_inverse_matches_search(p, budget);
                }
            }
        }
    }

    #[test]
    fn inverse_matches_search_on_builtin_link_models() {
        let mut rng = TestRng::seed_from_u64(0x1d1c);
        for p in builtin_profiles() {
            for _ in 0..2_000 {
                assert_inverse_matches_search(&p, random_budget(&p, &mut rng));
            }
        }
    }

    /// The long lane (`ci.sh` runs it in release mode): a million seeded
    /// inversions, half on random ladders, half on the built-in models.
    #[test]
    #[ignore = "long differential lane; run by ci.sh in release mode"]
    fn inverse_matches_search_long() {
        let mut rng = TestRng::seed_from_u64(15);
        let builtin = builtin_profiles();
        for round in 0..10_000 {
            let random = random_ladder(&mut rng);
            let p = if round % 2 == 0 { &random } else { &builtin[round / 2 % builtin.len()] };
            for _ in 0..100 {
                assert_inverse_matches_search(p, random_budget(p, &mut rng));
            }
        }
    }

    #[test]
    fn text_round_trip() {
        let p = ladder();
        let text = p.to_text();
        assert!(text.starts_with("# nmad sampling for test"));
        let q = PerfProfile::from_text("test", &text).unwrap();
        assert_eq!(p.samples().len(), q.samples().len());
        for (a, b) in p.samples().iter().zip(q.samples()) {
            assert_eq!(a.0, b.0);
            assert!((a.1 - b.1).abs() < 1e-5);
        }
        assert!(PerfProfile::from_text("x", "garbage line\n").is_err());
        assert!(PerfProfile::from_text("x", "4 1.0 extra\n8 2.0\n").is_err());
    }

    proptest! {
        /// The closed-form inverse returns exactly what the search it
        /// replaced returns, on random monotone ladders.
        #[test]
        fn inverse_matches_search_on_random_ladders(seed in any::<u64>()) {
            let mut rng = TestRng::seed_from_u64(seed);
            let p = random_ladder(&mut rng);
            for _ in 0..32 {
                assert_inverse_matches_search(&p, random_budget(&p, &mut rng));
            }
        }

        /// Interpolated predictions always land between the bracketing
        /// sample durations (or extend monotonically outside the range).
        #[test]
        fn prediction_bounded_by_neighbors(
            times in proptest::collection::vec(0.1f64..1e5, 4..24),
            query in 1u64..(1 << 30),
        ) {
            let samples: Vec<(u64, f64)> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| (1u64 << (i + 2), t))
                .collect();
            let p = PerfProfile::from_samples("prop", samples).unwrap();
            let (lo, hi) = p.sampled_range();
            let t = p.predict_us(query);
            prop_assert!(t >= 0.0);
            if query >= lo && query <= hi {
                let i = p.samples().partition_point(|&(s, _)| s <= query);
                let below = p.samples()[i.saturating_sub(1)].1;
                let above = p.samples()[i.min(p.samples().len() - 1)].1;
                prop_assert!(t >= below - 1e-9 && t <= above + 1e-9,
                    "query {query}: {t} not in [{below}, {above}]");
            }
        }

        /// Prediction is monotone non-decreasing in size.
        #[test]
        fn prediction_monotone(
            times in proptest::collection::vec(0.1f64..1e5, 4..24),
            a in 1u64..(1 << 30),
            b in 1u64..(1 << 30),
        ) {
            let samples: Vec<(u64, f64)> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| (1u64 << (i + 2), t))
                .collect();
            let p = PerfProfile::from_samples("prop", samples).unwrap();
            let (lo, hi) = (a.min(b), a.max(b));
            prop_assert!(p.predict_us(lo) <= p.predict_us(hi) + 1e-9);
        }
    }
}
