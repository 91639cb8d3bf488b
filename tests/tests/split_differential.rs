//! The water-fill against the search it replaced.
//!
//! `equal_completion_split` used to bisect the completion time for 64
//! iterations; it now computes the water level directly and keeps the
//! bisection only as a fall-through. The old body lives on here, verbatim,
//! as the oracle: every test below that says "matches" means `Split ==`,
//! `completion_us` included. Around it: a work pin (how many cost-model
//! calls one cold split may make) and the split's metamorphic properties
//! on sampled rails.

use nm_core::predictor::{CostModel, Predictor, RailView};
use nm_core::selection::select_rails;
use nm_core::split::{equal_completion_split, Assignments, Split};
use nm_model::builtin::{gige, ib_ddr, myri_10g, qsnet2, shmem};
use nm_model::units::{pow2_sizes, KIB, MIB};
use nm_model::{LinkModel, PerfProfile};
use nm_sim::{ClusterSpec, RailId};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::cell::Cell;

/// `equal_completion_split` as it stood before the closed-form water
/// level: 64 halvings of `[0, hi0]`, then the same assignment code.
fn split_by_bisection<C: CostModel>(cost: &C, rails: &[(RailId, f64)], size: u64) -> Split {
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
    let (mut lo, mut hi) = (0.0f64, hi0);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if capacity(mid) >= size {
            hi = mid;
        } else {
            lo = mid;
        }
    }

    // Assign each rail what it can finish by `hi`, trimming the surplus
    // from the largest assignments (they have the highest marginal rate, so
    // trimming them distorts completion the least).
    let mut raw: Assignments =
        rails.iter().map(|&(r, w)| (r, cost.bytes_within(r, hi - w.max(0.0)))).collect();
    let mut surplus = raw.iter().map(|&(_, b)| b).sum::<u64>().saturating_sub(size);
    while surplus > 0 {
        // `raw` mirrors `rails`, which is non-empty by the entry assert; the
        // `else` arm is unreachable but costs nothing to make total.
        let Some((_, bytes)) = raw.iter_mut().max_by_key(|(_, b)| *b) else { break };
        let cut = surplus.min(*bytes);
        *bytes -= cut;
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

/// Samples `links` into a predictor the way a session does at init
/// (natural + forced-eager profile per rail, 4 B … 8 MiB).
fn sampled(links: Vec<LinkModel>) -> Predictor {
    nm_tests::sample_predictor(&ClusterSpec::two_nodes(4, links))
}

/// Every built-in link model as one five-rail predictor; candidate lists
/// pick 1–4 of them. Rails 0 and 1 are the paper testbed.
fn builtin_predictor() -> Predictor {
    sampled(vec![myri_10g(), qsnet2(), gige(), ib_ddr(), shmem()])
}

/// A random monotone profile: power-of-two or irregular sizes, 2–24
/// samples, flat runs and ulp-sized steps among ordinary ones. The last
/// step always rises: a flat tail gives a rail unbounded capacity, and two
/// of those overflow the assignment sum in the oracle and the split alike.
fn random_profile(rng: &mut TestRng) -> PerfProfile {
    let len = 2 + rng.below(23) as usize;
    let pow2 = rng.below(2) == 0;
    let mut size = if pow2 { 1u64 << rng.below(6) } else { 1 + rng.below(64) };
    let mut t = [0.0, 0.05, 1.6, 45.0][rng.below(4) as usize];
    let mut samples = Vec::with_capacity(len);
    for i in 0..len {
        samples.push((size, t));
        let max_gap = 1u64 << rng.below(18);
        size = if pow2 { size * 2 } else { size + 1 + rng.below(max_gap) };
        t += match rng.below(8) {
            0 if i + 2 < len => 0.0,
            1 if i + 2 < len => t * f64::EPSILON * (1 + rng.below(4)) as f64,
            2 => rng.unit_f64() * 1e4,
            _ => (0.01 + rng.unit_f64()) * size as f64 / 500.0,
        };
    }
    PerfProfile::from_samples("random", samples).expect("two distinct sizes")
}

fn random_predictor(rng: &mut TestRng) -> Predictor {
    let rails = (0..1 + rng.below(4) as usize)
        .map(|i| RailView {
            rail: RailId(i),
            name: "random".into(),
            natural: random_profile(rng),
            eager: random_profile(rng),
            rdv_threshold: 128 * KIB,
        })
        .collect();
    Predictor::new(rails)
}

/// 1 B … 1 GiB: powers of two and their neighbours, tiny sizes, and
/// log-uniform in between.
fn random_size(rng: &mut TestRng) -> u64 {
    let pow2 = 1u64 << rng.below(31);
    match rng.below(6) {
        0 => pow2,
        1 => pow2 + 1,
        2 => (pow2 - 1).max(1),
        3 => 1 + rng.below(64),
        _ => pow2 + rng.below(pow2),
    }
}

/// 1–4 distinct rails of `p` with waits from every regime the engine
/// produces: idle, sub-µs, µs, ms, busy past the rail's own completion,
/// and quarantined (+∞).
fn random_candidates<C: CostModel>(cost: &C, size: u64, rng: &mut TestRng) -> Vec<(RailId, f64)> {
    let mut rails: Vec<usize> = (0..cost.rail_count()).collect();
    for i in (1..rails.len()).rev() {
        rails.swap(i, rng.below(i as u64 + 1) as usize);
    }
    rails.truncate(1 + rng.below(rails.len().min(4) as u64) as usize);
    rails
        .into_iter()
        .map(|i| {
            let rail = RailId(i);
            let wait = match rng.below(9) {
                0..=2 => 0.0,
                3 => rng.unit_f64(),
                4 => rng.unit_f64() * 300.0,
                5 => rng.unit_f64() * 20_000.0,
                6 => cost.time_us(rail, size) * (1.0 + 2.0 * rng.unit_f64()),
                7 => -rng.unit_f64(),
                _ => f64::INFINITY,
            };
            (rail, wait)
        })
        .collect()
}

fn assert_matches_bisection<C: CostModel>(cost: &C, rails: &[(RailId, f64)], size: u64) {
    let fast = equal_completion_split(cost, rails, size);
    let oracle = split_by_bisection(cost, rails, size);
    assert_eq!(fast, oracle, "size {size}, rails {rails:?}");
    assert_eq!(fast.completion_us.to_bits(), oracle.completion_us.to_bits());
}

/// One seeded differential case on `p`: random protocol view, size, rails.
fn differential_case(p: &Predictor, rng: &mut TestRng) {
    let size = random_size(rng);
    if rng.below(2) == 0 {
        let cost = p.natural_cost();
        assert_matches_bisection(&cost, &random_candidates(&cost, size, rng), size);
    } else {
        let cost = p.eager_cost();
        assert_matches_bisection(&cost, &random_candidates(&cost, size, rng), size);
    }
}

/// Counts every cost-model call a split makes.
struct Counting<C> {
    inner: C,
    calls: Cell<u32>,
}

impl<C: CostModel> CostModel for Counting<C> {
    fn rail_count(&self) -> usize {
        self.inner.rail_count()
    }
    fn time_us(&self, rail: RailId, bytes: u64) -> f64 {
        self.calls.set(self.calls.get() + 1);
        self.inner.time_us(rail, bytes)
    }
    fn bytes_within(&self, rail: RailId, budget_us: f64) -> u64 {
        self.calls.set(self.calls.get() + 1);
        self.inner.bytes_within(rail, budget_us)
    }
    fn marginal_rate(&self, rail: RailId, bytes: u64) -> f64 {
        self.calls.set(self.calls.get() + 1);
        self.inner.marginal_rate(rail, bytes)
    }
}

#[test]
fn matches_bisection_on_the_paper_testbed_sizes() {
    let p = sampled(nm_model::builtin::paper_testbed());
    let rails = |w0, w1| [(RailId(0), w0), (RailId(1), w1)];
    for size in pow2_sizes(4, 64 * MIB).into_iter().flat_map(|s| [s - 1, s, s + 1]) {
        for waits in [(0.0, 0.0), (0.0, 300.0), (0.25, 0.0), (5_000.0, 12.0), (0.0, 1e7)] {
            assert_matches_bisection(&p.natural_cost(), &rails(waits.0, waits.1), size);
            assert_matches_bisection(&p.eager_cost(), &rails(waits.0, waits.1), size);
        }
    }
}

#[test]
fn capped_selection_matches_selection_over_the_oracle() {
    // select_rails re-splits over survivors; each re-split must match too.
    let p = builtin_predictor();
    let cost = p.natural_cost();
    let rails: Vec<(RailId, f64)> = (0..5).map(|i| (RailId(i), 0.0)).collect();
    for size in [64 * KIB, MIB, 8 * MIB] {
        for cap in 1..=4 {
            let capped = select_rails(&cost, &rails, size, cap);
            assert!(capped.assignments.len() <= cap);
            let survivors: Vec<(RailId, f64)> =
                capped.assignments.iter().map(|&(r, _)| (r, 0.0)).collect();
            assert_eq!(capped, split_by_bisection(&cost, &survivors, size));
        }
    }
}

/// The work pin: a cold split is a handful of lookups, on any machine.
/// The bisection made 134 calls for two rails (2 + 64·2 + 2 + 2), so a
/// count this low also proves the fall-through was not taken.
#[test]
fn cold_split_makes_few_cost_model_calls() {
    let p = sampled(nm_model::builtin::paper_testbed());
    let rails = [(RailId(0), 0.0), (RailId(1), 0.0)];
    for size in pow2_sizes(32 * KIB, 8 * MIB) {
        for busy in [0.0, 300.0] {
            let cost = Counting { inner: p.natural_cost(), calls: Cell::new(0) };
            let split = equal_completion_split(&cost, &[rails[0], (RailId(1), busy)], size);
            assert_eq!(split.total(), size);
            assert!(
                cost.calls.get() <= 48,
                "{size} B, rail 1 busy {busy} µs: {} cost-model calls",
                cost.calls.get()
            );
        }
    }
}

/// Slowest marginal byte among the rails that carry something, times the
/// rail count: how far trimming and integer rounding can move a completion.
fn byte_slack<C: CostModel>(cost: &C, split: &Split) -> f64 {
    let slowest = split
        .assignments
        .iter()
        .map(|&(r, b)| cost.time_us(r, b + 1) - cost.time_us(r, b.saturating_sub(1)))
        .fold(0.0, f64::max);
    slowest * split.assignments.len() as f64 + 1e-9
}

proptest! {
    /// Random monotone ladders (flat runs, irregular sizes, 2-sample
    /// profiles), 1–4 rails, every wait regime.
    #[test]
    fn matches_bisection_on_random_ladders(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let p = random_predictor(&mut rng);
        for _ in 0..8 {
            differential_case(&p, &mut rng);
        }
    }

    /// Profiles sampled from every built-in link model, natural and
    /// forced-eager, 1–4 rails, every wait regime.
    #[test]
    fn matches_bisection_on_sampled_link_models(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let p = builtin_predictor();
        for _ in 0..16 {
            differential_case(&p, &mut rng);
        }
    }

    /// ROADMAP item 3's split properties on 2–4 sampled rails: exact
    /// cover, equal predicted completions, monotone in size, never behind
    /// the best single rail.
    #[test]
    fn split_properties_on_sampled_rails(
        size in 1u64..(64 << 20),
        grow in 1u64..(1 << 20),
        count in 2usize..=4,
        first in 0usize..5,
        waits in proptest::collection::vec(
            prop_oneof![Just(0.0), 0.0f64..1.0, 0.0f64..300.0, 0.0f64..5_000.0], 4),
    ) {
        let p = builtin_predictor();
        let cost = p.natural_cost();
        let rails: Vec<(RailId, f64)> =
            (0..count).map(|i| (RailId((first + i) % 5), waits[i])).collect();
        let split = equal_completion_split(&cost, &rails, size);
        let wait_of = |r: RailId| rails.iter().find(|&&(rr, _)| rr == r).unwrap().1;

        prop_assert_eq!(split.total(), size);
        prop_assert!(split.assignments.iter().all(|&(_, b)| b > 0));

        // Participating rails finish together, to within a byte's time.
        let slack = byte_slack(&cost, &split);
        for &(r, b) in &split.assignments {
            let done = wait_of(r) + cost.time_us(r, b);
            prop_assert!(done <= split.completion_us);
            prop_assert!(
                done >= split.completion_us - slack,
                "{:?} done at {} vs {} (slack {})", r, done, split.completion_us, slack
            );
        }
        // ...and an idle-by-then rail that got nothing could not have
        // finished even one byte by the common completion.
        for &(r, w) in &rails {
            if split.assignments.iter().all(|&(rr, _)| rr != r) {
                prop_assert!(w + cost.time_us(r, 1) > split.completion_us - slack);
            }
        }

        // Never behind the best single rail under the model.
        let single = rails
            .iter()
            .map(|&(r, w)| w + cost.time_us(r, size))
            .fold(f64::INFINITY, f64::min);
        prop_assert!(
            split.completion_us <= single * (1.0 + 1e-9) + 1e-6 + slack,
            "split {} behind single {}", split.completion_us, single
        );

        // More bytes never complete sooner.
        let bigger = equal_completion_split(&cost, &rails, size + grow);
        prop_assert!(
            bigger.completion_us >= split.completion_us - slack,
            "{} B at {} but {} B at {}",
            size, split.completion_us, size + grow, bigger.completion_us
        );
    }
}

/// The long lane (`ci.sh` runs it in release mode): a million seeded splits
/// against the bisection, half on the sampled link models, half on random
/// ladders.
#[test]
#[ignore = "long differential lane; run by ci.sh in release mode"]
fn matches_bisection_long() {
    let mut rng = TestRng::seed_from_u64(15);
    let builtin = builtin_predictor();
    for round in 0..10_000 {
        let random = random_predictor(&mut rng);
        let p = if round % 2 == 0 { &builtin } else { &random };
        for _ in 0..100 {
            differential_case(p, &mut rng);
        }
    }
}
