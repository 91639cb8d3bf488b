//! Equal-completion split computation (paper §II-B, Fig 1c).
//!
//! "Messages have to be split in such a way that the time required to send
//! each chunk of a message is equal. ... If several NICs are selected, the
//! split ratio is determined by dichotomy."
//!
//! Two algorithms live here:
//!
//! * [`dichotomy_split`] — the paper's literal two-rail procedure: start
//!   from an equal split and binary-search the ratio until both predicted
//!   completions (wait + transfer) match.
//! * [`equal_completion_split`] — a k-rail generalization (the paper's
//!   future-work direction) by *water-filling*: find the common completion
//!   time `T` and give each rail the largest chunk it can finish by `T`.
//!   For two rails both algorithms agree (tested).
//!
//! Both operate purely on a [`CostModel`], i.e. on sampled predictions.
//!
//! ## The water level
//!
//! What each rail finishes by `T` is an integer, so the rails' capacity is
//! a staircase in `T`: rail `r` steps from `n` to `n + 1` bytes where
//! `T - wait_r` reaches `time_us(r, n + 1)`. The level the split wants is
//! the **smallest `f64` `T` whose capacity covers the message**. Bisecting
//! `[0, best single-rail completion]` 64 times converges on exactly that
//! value — the interval ends far narrower than one ulp — at 64 evaluations
//! of every rail. [`equal_completion_split`] gets the same `f64` from a
//! few: Newton steps on the piecewise-linear curve under the staircase
//! ([`CostModel::marginal_rate`] is its slope) land within a few bytes
//! below the message size, and from there the next stair edges are walked
//! in order, each nudged by ulps until the subtraction the capacity makes
//! clears it, up to the first one that covers the size. The bisection
//! stays as the fall-through for every input where that equivalence is
//! not established (see [`equal_completion_split`]); sampled link models
//! never take it (`tests/tests/split_differential.rs` pins the call count).

// Hot path: no panicking construct anywhere in this file (tests excepted, clippy.toml).
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::todo, clippy::unreachable)]

use crate::predictor::CostModel;
use nm_model::{InlineVec, MAX_RAILS};
use nm_sim::RailId;

/// Per-rail byte assignments, stored inline (no heap allocation) since the
/// engine bounds rails at [`MAX_RAILS`].
pub type Assignments = InlineVec<(RailId, u64), MAX_RAILS>;

/// Result of a split computation.
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    /// `(rail, bytes)` per participating rail; zero-byte rails are omitted.
    pub assignments: Assignments,
    /// Predicted completion of the slowest chunk, µs from now.
    pub completion_us: f64,
}

impl Split {
    /// Total bytes covered by the assignments.
    // nm-analyzer: no_alloc
    #[must_use]
    pub fn total(&self) -> u64 {
        self.assignments.iter().map(|&(_, b)| b).sum()
    }

    /// Ratio vector over the given rails (zero for absent rails; rails
    /// beyond `rail_count` are ignored).
    #[must_use]
    pub fn ratios(&self, rail_count: usize) -> Vec<f64> {
        let total = self.total().max(1) as f64;
        let mut out = vec![0.0; rail_count];
        for &(rail, bytes) in &self.assignments {
            if let Some(slot) = out.get_mut(rail.index()) {
                *slot = bytes as f64 / total;
            }
        }
        out
    }
}

/// The paper's two-rail dichotomy. The `f64` next to each rail is the time
/// that NIC still needs before going idle (µs). Returns the byte assignment
/// for `(a, b)`.
///
/// The search runs on the chunk boundary (a byte count), halving the
/// interval each iteration: 40 iterations pin the boundary exactly for any
/// message below 1 TiB.
///
/// ```
/// use nm_core::predictor::{Predictor, RailView};
/// use nm_core::split::dichotomy_split;
/// use nm_model::PerfProfile;
/// use nm_sim::RailId;
///
/// // Two affine rails: 2 + s/1000 and 2 + s/500 µs.
/// let rail = |i: usize, name: &str, bw: f64| RailView {
///     rail: RailId(i),
///     name: name.into(),
///     natural: PerfProfile::from_samples(
///         name,
///         (2..=22).map(|p| (1u64 << p, 2.0 + (1u64 << p) as f64 / bw)).collect(),
///     )
///     .unwrap(),
///     eager: PerfProfile::from_samples(
///         name,
///         (2..=22).map(|p| (1u64 << p, 2.0 + (1u64 << p) as f64 / bw)).collect(),
///     )
///     .unwrap(),
///     rdv_threshold: 128 * 1024,
/// };
/// let p = Predictor::new(vec![rail(0, "fast", 1000.0), rail(1, "slow", 500.0)]);
///
/// let split = dichotomy_split(
///     &p.natural_cost(),
///     (RailId(0), 0.0),
///     (RailId(1), 0.0),
///     3_000_000,
///     60,
/// );
/// // Equal completion: the 2x-faster rail carries 2x the bytes (Fig 1c).
/// assert_eq!(split.assignments[0].0, RailId(0));
/// let ratio = split.assignments[0].1 as f64 / split.assignments[1].1 as f64;
/// assert!((ratio - 2.0).abs() < 0.01);
/// ```
// nm-analyzer: no_alloc
#[must_use]
pub fn dichotomy_split<C: CostModel>(
    cost: &C,
    a: (RailId, f64),
    b: (RailId, f64),
    size: u64,
    max_iters: u32,
) -> Split {
    let completion_a = |bytes: u64| a.1.max(0.0) + cost.time_us(a.0, bytes);
    let completion_b = |bytes: u64| b.1.max(0.0) + cost.time_us(b.0, bytes);

    // Degenerate cases first: everything on one rail may dominate any split
    // because each chunk pays the rail's base latency.
    let all_a = completion_a(size);
    let all_b = completion_b(size);

    // Dichotomy on the boundary x = bytes for rail a ("the algorithm begins
    // by splitting the packets in two chunks of equal size").
    let (mut lo, mut hi) = (0u64, size);
    let mut x = size / 2;
    for _ in 0..max_iters {
        let ca = completion_a(x);
        let cb = completion_b(size - x);
        if ca < cb {
            lo = x; // rail a finishes first: give it more
        } else {
            hi = x;
        }
        let next = (lo + hi) / 2;
        if next == x {
            break;
        }
        x = next;
    }
    let split_completion = completion_a(x).max(completion_b(size - x));

    let best = split_completion.min(all_a).min(all_b);
    if best == all_a && all_a <= split_completion {
        return Split { assignments: [(a.0, size)].into(), completion_us: all_a };
    }
    if best == all_b && all_b <= split_completion {
        return Split { assignments: [(b.0, size)].into(), completion_us: all_b };
    }
    let mut assignments = Assignments::new();
    if x > 0 {
        assignments.push((a.0, x));
    }
    if size - x > 0 {
        assignments.push((b.0, size - x));
    }
    Split { assignments, completion_us: split_completion }
}

/// Levels [`water_level`] evaluates before giving up on an input.
const LEVEL_STEPS: usize = 32;

/// Stair edges (one per byte a rail gains) [`water_level`] is willing to
/// leave between its last level and the answer: that close, walking the
/// edges one by one beats another evaluation of every rail.
const WALK_BYTES: u64 = 8;

/// The `f64` one ulp above a finite `x >= 0` (`f64::next_up` postdates the
/// workspace's minimum Rust).
// nm-analyzer: no_alloc
fn ulp_above(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

/// The `f64` one ulp below a finite `x >= 0`.
// nm-analyzer: no_alloc
fn ulp_below(x: f64) -> f64 {
    if x > 0.0 {
        f64::from_bits(x.to_bits() - 1)
    } else {
        -f64::from_bits(1)
    }
}

/// Smallest level (µs from now) at which a rail that is busy for `wait`
/// more µs has finished `bytes + 1` bytes: the smallest `f64` `t` with
/// `t - wait >= time_us(rail, bytes + 1)`, which is where
/// `bytes_within(rail, t - wait)` steps past `bytes`. Infinite when the
/// rail never gets there; `None` when rounding cannot be settled within a
/// few ulps.
// nm-analyzer: no_alloc
fn next_edge<C: CostModel>(cost: &C, rail: RailId, wait: f64, bytes: u64) -> Option<f64> {
    let Some(more) = bytes.checked_add(1) else { return Some(f64::INFINITY) };
    let due = cost.time_us(rail, more);
    let mut edge = wait + due;
    if !edge.is_finite() {
        return Some(f64::INFINITY);
    }
    // `wait + due` and the subtraction the capacity makes each round once,
    // so the true edge is an ulp or two from the sum, on either side.
    for _ in 0..4 {
        if edge - wait < due {
            edge = ulp_above(edge);
        } else if ulp_below(edge) - wait >= due {
            edge = ulp_below(edge);
        } else {
            return Some(edge);
        }
    }
    None
}

/// Steps from `below` to each next level at which some rail finishes one
/// more byte, until the rails together cover `size`. Capacity is constant
/// between those edges, so the level returned is the smallest `f64` that
/// covers `size`. `None` if `below` already covers it (nothing smaller is
/// known then) or a few times [`WALK_BYTES`] edges do not get there.
// nm-analyzer: no_alloc
fn walk_edges<C: CostModel>(
    cost: &C,
    rails: &[(RailId, f64)],
    size: u64,
    below: f64,
) -> Option<f64> {
    // Per rail: wait, bytes finished by the current level, next edge.
    let mut fill: InlineVec<(RailId, f64, u64, f64), MAX_RAILS> = InlineVec::new();
    let mut capacity = 0u64;
    for &(rail, wait) in rails {
        let wait = wait.max(0.0);
        let bytes = cost.bytes_within(rail, below - wait);
        fill.push((rail, wait, bytes, next_edge(cost, rail, wait, bytes)?));
        capacity = capacity.saturating_add(bytes);
    }
    if capacity >= size {
        return None;
    }
    for _ in 0..4 * WALK_BYTES {
        let level = fill.iter().map(|f| f.3).fold(f64::INFINITY, f64::min);
        if !level.is_finite() {
            return None;
        }
        capacity = 0;
        for (rail, wait, bytes, edge) in fill.iter_mut() {
            if *edge <= level {
                *bytes = cost.bytes_within(*rail, level - *wait);
                *edge = next_edge(cost, *rail, *wait, *bytes)?;
            }
            capacity = capacity.saturating_add(*bytes);
        }
        if capacity >= size {
            return Some(level);
        }
    }
    None
}

/// The water level: the smallest `f64` completion time by which the rails
/// together finish at least `size` bytes, or `None` when it cannot be
/// established (the caller then bisects).
///
/// Capacity is a staircase over a piecewise-linear curve. Newton steps on
/// the curve, kept inside the bracket `capacity(lo) < size <= capacity(hi)`
/// (halving it whenever a step would leave), close in on `size` from
/// `hi0`; once a level is within [`WALK_BYTES`] stairs of the answer —
/// by its shortfall, or because the whole bracket is that narrow, which
/// is how a flat run's jump in capacity shows — [`walk_edges`] finds the
/// exact stair.
// nm-analyzer: no_alloc
fn water_level<C: CostModel>(
    cost: &C,
    rails: &[(RailId, f64)],
    size: u64,
    hi0: f64,
) -> Option<f64> {
    if !hi0.is_finite() {
        return None;
    }
    // Aim one byte short: the walk starts strictly below the answer.
    let aim = size as f64 - 1.0;
    let (mut lo, mut hi, mut level) = (0.0f64, hi0, hi0);
    // Marginal rates at the bracket's ends: stairs per µs around there.
    let (mut lo_rate, mut hi_rate) = (0.0f64, 0.0f64);
    for _ in 0..LEVEL_STEPS {
        let (mut capacity, mut rate) = (0u64, 0.0f64);
        for &(rail, wait) in rails {
            let bytes = cost.bytes_within(rail, level - wait.max(0.0));
            capacity = capacity.saturating_add(bytes);
            // A rail on a flat run gains its bytes in one jump, not at a rate.
            let marginal = if bytes > 0 { cost.marginal_rate(rail, bytes) } else { 0.0 };
            if marginal.is_finite() {
                rate += marginal;
            }
        }
        if capacity >= size {
            (hi, hi_rate) = (level, rate);
        } else if level == hi0 {
            return None; // not even the single-rail bound covers `size`
        } else {
            (lo, lo_rate) = (level, rate);
            if size - capacity <= WALK_BYTES {
                return walk_edges(cost, rails, size, lo);
            }
        }
        if (hi - lo) * lo_rate.max(hi_rate) <= WALK_BYTES as f64 {
            return walk_edges(cost, rails, size, lo);
        }
        let newton = level + (aim - capacity as f64) / rate;
        level = if lo < newton && newton < hi { newton } else { 0.5 * (lo + hi) };
        if !(lo < level && level < hi) {
            return None;
        }
    }
    None
}

/// The water level by plain bisection: 64 halvings of `[0, hi0]`. Once the
/// bracket `capacity(0) < size <= capacity(hi0)` holds and the answer is
/// not vanishingly small next to `hi0`, this converges on the same value
/// [`water_level`] computes — the interval ends narrower than one ulp.
// nm-analyzer: no_alloc
fn bisect_level(capacity: impl Fn(f64) -> u64, size: u64, hi0: f64) -> f64 {
    let (mut lo, mut hi) = (0.0f64, hi0);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if capacity(mid) >= size {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// K-rail equal-completion split by water-filling on the completion time.
///
/// `rails` lists candidate rails with their waits; rails that cannot
/// contribute by the optimal completion time receive nothing and are
/// omitted (this is how Fig 2's NIC discarding emerges). The returned
/// assignments always cover `size` exactly.
///
/// The water level is the smallest `f64` `T` with `capacity(T) >= size`,
/// where `capacity(T)` sums what each rail finishes by `T`. That is what
/// 64 halvings of `[0, hi0]` converge on whenever they start from a valid
/// bracket and `T` is within a factor 256 of `hi0` (the remaining
/// iterations then narrow the interval to adjacent floats); it is computed
/// directly by [`water_level`] in a handful of cost-model lookups. Any
/// input outside those conditions — a capacity that already covers `size`
/// at 0 or misses it at `hi0`, non-finite costs, rounding the edge walk
/// cannot settle — takes the bisection itself, so the result never depends
/// on the fast path being applicable.
// nm-analyzer: no_alloc
#[must_use]
pub fn equal_completion_split<C: CostModel>(cost: &C, rails: &[(RailId, f64)], size: u64) -> Split {
    assert!(!rails.is_empty(), "need at least one candidate rail");
    assert!(size > 0, "cannot split an empty message");

    let capacity = |t: f64| -> u64 {
        rails
            .iter()
            .map(|&(r, w)| cost.bytes_within(r, t - w.max(0.0)))
            .fold(0u64, |acc, b| acc.saturating_add(b))
    };

    // Upper bound: the best single-rail completion is always feasible
    // (padded by an epsilon so `(w + t) - w` float rounding cannot make it
    // spuriously infeasible; any residual deficit is patched after the
    // search anyway).
    let hi0 = rails
        .iter()
        .map(|&(r, w)| w.max(0.0) + cost.time_us(r, size))
        .fold(f64::INFINITY, f64::min)
        * (1.0 + 1e-9)
        + 1e-6;
    let hi = match water_level(cost, rails, size, hi0) {
        Some(level) if level * 256.0 >= hi0 => level,
        _ => bisect_level(capacity, size, hi0),
    };

    // Assign each rail what it can finish by `hi`, trimming the surplus
    // from the largest assignments (they have the highest marginal rate, so
    // trimming them distorts completion the least).
    let mut raw: Assignments =
        rails.iter().map(|&(r, w)| (r, cost.bytes_within(r, hi - w.max(0.0)))).collect();
    // (Summed in `u128`: a rail whose profile ends flat reports `u64::MAX`,
    // and two of those — noisy samples smooth into flat tails — overflow a
    // `u64` sum.)
    let total: u128 = raw.iter().map(|&(_, b)| u128::from(b)).sum();
    let mut surplus = total.saturating_sub(u128::from(size));
    while surplus > 0 {
        // `raw` mirrors `rails`, which is non-empty by the entry assert; the
        // `else` arm is unreachable but costs nothing to make total.
        let Some((_, bytes)) = raw.iter_mut().max_by_key(|(_, b)| *b) else { break };
        let cut = surplus.min(u128::from(*bytes));
        // `cut <= *bytes`, so it fits.
        *bytes -= cut as u64;
        surplus -= cut;
    }
    // Rounding in bytes_within may also leave a deficit; give it to the
    // rail with the largest assignment.
    let assigned: u64 = raw.iter().map(|&(_, b)| b).sum();
    if assigned < size {
        if let Some((_, bytes)) = raw.iter_mut().max_by_key(|(_, b)| *b) {
            *bytes += size - assigned;
        }
    }

    let assignments: Assignments = raw.into_iter().filter(|&(_, b)| b > 0).collect();
    let completion_us = assignments
        .iter()
        .map(|&(r, b)| {
            // Every assignment rail came from `rails`; a missing entry can
            // only mean zero wait.
            let w = rails.iter().find(|&&(rr, _)| rr == r).map_or(0.0, |&(_, w)| w);
            w.max(0.0) + cost.time_us(r, b)
        })
        .fold(0.0, f64::max);
    Split { assignments, completion_us }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::test_support::{affine_rail, two_rail_predictor};
    use crate::predictor::Predictor;
    use nm_sim::RailId;
    use proptest::prelude::*;

    const R0: RailId = RailId(0);
    const R1: RailId = RailId(1);

    #[test]
    fn dichotomy_equalizes_completions_analytically() {
        // Rails: 3 + x/1000 and 1 + y/500, x + y = 1 MiB.
        // Equal: 3 + x/1000 = 1 + (S-x)/500  =>  3x = 2S - 2000.
        let p = two_rail_predictor();
        let size = 1u64 << 20;
        let s = dichotomy_split(&p.natural_cost(), (R0, 0.0), (R1, 0.0), size, 60);
        let want_x = (2.0 * size as f64 - 2000.0) / 3.0;
        let got_x = s.assignments.iter().find(|&&(r, _)| r == R0).unwrap().1 as f64;
        assert!((got_x - want_x).abs() < 4.0, "got {got_x}, want {want_x}");
        assert_eq!(s.total(), size);
        // Completion within a hair of the analytic optimum.
        let t_opt = 3.0 + want_x / 1000.0;
        assert!((s.completion_us - t_opt).abs() < 0.05);
    }

    #[test]
    fn dichotomy_falls_back_to_single_rail_for_tiny_messages() {
        // 4-byte message: any split pays both latencies; rail 1 alone
        // (1 µs latency) is optimal.
        let p = two_rail_predictor();
        let s = dichotomy_split(&p.natural_cost(), (R0, 0.0), (R1, 0.0), 4, 60);
        assert_eq!(s.assignments, vec![(R1, 4)]);
        assert!((s.completion_us - (1.0 + 4.0 / 500.0)).abs() < 0.01);
    }

    #[test]
    fn dichotomy_respects_waits() {
        // Rail 1 busy for 10 ms: everything goes to rail 0.
        let p = two_rail_predictor();
        let size = 1u64 << 20;
        let s = dichotomy_split(&p.natural_cost(), (R0, 0.0), (R1, 10_000.0), size, 60);
        assert_eq!(s.assignments, vec![(R0, size)]);
    }

    #[test]
    fn water_filling_matches_dichotomy_on_two_rails() {
        let p = two_rail_predictor();
        for size in [64u64 * 1024, 1 << 20, 7 << 20] {
            for waits in [[0.0, 0.0], [500.0, 0.0], [0.0, 300.0]] {
                let d =
                    dichotomy_split(&p.natural_cost(), (R0, waits[0]), (R1, waits[1]), size, 60);
                let w = equal_completion_split(
                    &p.natural_cost(),
                    &[(R0, waits[0]), (R1, waits[1])],
                    size,
                );
                assert_eq!(w.total(), size);
                let rel = (d.completion_us - w.completion_us).abs() / d.completion_us;
                assert!(
                    rel < 0.02,
                    "size {size} waits {waits:?}: dichotomy {:.2} vs water {:.2}",
                    d.completion_us,
                    w.completion_us
                );
            }
        }
    }

    #[test]
    fn water_filling_discards_hopelessly_busy_rails() {
        // Fig 2: a rail busy past the achievable completion gets nothing.
        let p = two_rail_predictor();
        let size = 64u64 * 1024;
        let s = equal_completion_split(&p.natural_cost(), &[(R0, 0.0), (R1, 1e6)], size);
        assert_eq!(s.assignments, vec![(R0, size)]);
    }

    #[test]
    fn flat_tailed_rails_still_cover_the_message_exactly() {
        // Noisy sampling smooths into flat tails; past them a rail's
        // capacity is unbounded (`u64::MAX`), and two of those used to
        // overflow the assignment sum.
        let flat = |index: usize| {
            let profile =
                nm_model::PerfProfile::from_samples("flat", vec![(4, 1.0), (8, 2.0), (16, 2.0)])
                    .unwrap();
            crate::predictor::RailView {
                rail: RailId(index),
                name: "flat".into(),
                natural: profile.clone(),
                eager: profile,
                rdv_threshold: 128 * 1024,
            }
        };
        let p = Predictor::new(vec![flat(0), flat(1)]);
        for size in [1u64, 8, 9, 1 << 20] {
            let s = equal_completion_split(&p.natural_cost(), &[(R0, 0.0), (R1, 0.0)], size);
            assert_eq!(s.total(), size, "{:?}", s.assignments);
        }
    }

    #[test]
    fn three_rails_all_contribute_to_a_large_message() {
        let p = Predictor::new(vec![
            affine_rail(0, "a", 3.0, 1000.0),
            affine_rail(1, "b", 1.0, 500.0),
            affine_rail(2, "c", 5.0, 2000.0),
        ]);
        let size = 8u64 << 20;
        let s = equal_completion_split(
            &p.natural_cost(),
            &[(R0, 0.0), (R1, 0.0), (RailId(2), 0.0)],
            size,
        );
        assert_eq!(s.total(), size);
        assert_eq!(s.assignments.len(), 3, "{:?}", s.assignments);
        // Aggregate bandwidth 3500 B/us: completion near size/3500.
        let ideal = size as f64 / 3500.0;
        assert!((s.completion_us - ideal) / ideal < 0.05, "{} vs {ideal}", s.completion_us);
        // Chunks ordered by bandwidth: c > a > b.
        let bytes: Vec<u64> = [RailId(2), R0, R1]
            .iter()
            .map(|r| s.assignments.iter().find(|&&(rr, _)| rr == *r).unwrap().1)
            .collect();
        assert!(bytes[0] > bytes[1] && bytes[1] > bytes[2], "{bytes:?}");
    }

    proptest! {
        /// Water-filling covers the size exactly and nearly equalizes the
        /// completion across participating rails.
        #[test]
        fn water_filling_invariants(
            size in 1u64..(16 << 20),
            w0 in 0.0f64..2000.0,
            w1 in 0.0f64..2000.0,
        ) {
            let p = two_rail_predictor();
            let s = equal_completion_split(
                &p.natural_cost(), &[(R0, w0), (R1, w1)], size);
            prop_assert_eq!(s.total(), size);
            prop_assert!(!s.assignments.is_empty());
            // No participating rail's completion exceeds the reported one.
            for &(r, b) in &s.assignments {
                let w = if r == R0 { w0 } else { w1 };
                let c = w + p.natural_cost().time_us(r, b);
                prop_assert!(c <= s.completion_us + 1e-6);
            }
            // And the split is never worse than the best single rail.
            let single = (w0 + p.natural_cost().time_us(R0, size))
                .min(w1 + p.natural_cost().time_us(R1, size));
            prop_assert!(s.completion_us <= single + 0.5,
                "split {} worse than single {}", s.completion_us, single);
        }
    }
}
