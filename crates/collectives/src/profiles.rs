//! Per-pair predictors for an N-node cluster, derived by sampling.
//!
//! Profiles describe *rails*, not node counts: the time for `b` bytes
//! between two nodes depends only on which rails the pair shares. The bank
//! therefore samples one two-node twin cluster per distinct common-rail
//! set (natural + forced-eager profiles per rail, exactly what a session
//! does at init) and reuses it for every pair with that rail set — on a
//! homogeneous cluster that is a single sampling run however many nodes
//! exist. A hop's time is the pair strategy's own plan for it, priced.

use nm_core::predictor::Predictor;
use nm_core::strategy::{Action, Ctx, StrategyKind};
use nm_sampler::{SamplingConfig, SimTransport};
use nm_sim::{ClusterSpec, CoreId};
use std::collections::HashMap;

/// The strategy every pair engine runs and the bank asks: an eager split
/// pays only when its chunk copies run on different cores (DESIGN.md §14).
pub(crate) const PAIR_STRATEGY: StrategyKind = StrategyKind::MulticoreEager;

/// Hop times the memo holds before it is emptied and refilled. A workload
/// asks for a handful of `(rail set, size)` points, over and over; the cap
/// only keeps a caller sweeping sizes from growing the map without end.
const HOP_MEMO_CAP: usize = 1024;

/// What one sampling run of a rail set's two-node twin yields.
struct Sampled {
    predictor: Predictor,
    /// Fastest rail's time at the smallest sampled size (µs).
    latency_us: f64,
}

/// Sampled cost knowledge for every node pair of one cluster spec.
///
/// Answering "how long does this hop take" is a table lookup: each pair
/// is resolved to its rail set once, at construction, and the strategy's
/// decision behind [`ProfileBank::hop_time_us`] runs once per distinct
/// `(rail set, source cores, size)` — on a homogeneous cluster every hop of
/// an all-to-all asks the same question, and the DAG cost model asks it for
/// every candidate algorithm of every operation.
pub struct ProfileBank {
    spec: ClusterSpec,
    /// The distinct (ascending) physical common-rail sets of the spec's
    /// pairs. Pairs sharing no rail have the empty set.
    rail_sets: Vec<Vec<usize>>,
    /// Index into `rail_sets` per ordered pair, row-major over nodes.
    pair_set: Vec<usize>,
    /// Per rail set, filled by the first question about it.
    sampled: Vec<Option<Sampled>>,
    /// `(rail set, source cores, bytes)` → [`ProfileBank::hop_time_us`], in
    /// 16 bytes. Point lookups only: hash order never reaches a result.
    hop_times: HashMap<(u32, u32, u64), f64>,
}

impl ProfileBank {
    /// An empty bank over `spec`; predictors are sampled lazily per
    /// distinct common-rail set.
    pub fn new(spec: ClusterSpec) -> Self {
        assert!(spec.validate().is_ok(), "invalid cluster spec");
        let n = spec.nodes.len();
        let mut rail_sets: Vec<Vec<usize>> = Vec::new();
        let pair_set = (0..n * n)
            .map(|pair| {
                let rails = spec.common_rails(pair / n, pair % n);
                rail_sets.iter().position(|s| *s == rails).unwrap_or_else(|| {
                    rail_sets.push(rails);
                    rail_sets.len() - 1
                })
            })
            .collect();
        let sampled = rail_sets.iter().map(|_| None).collect();
        ProfileBank { spec, rail_sets, pair_set, sampled, hop_times: HashMap::new() }
    }

    /// The cluster spec this bank describes.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Rail-set index of the `src -> dst` pair. Panics when the pair shares
    /// no rail — the same condition the driver rejects.
    fn rail_set(&self, src: usize, dst: usize) -> usize {
        let set = self.pair_set[src * self.spec.nodes.len() + dst];
        assert!(!self.rail_sets[set].is_empty(), "nodes {src} and {dst} share no rail");
        set
    }

    fn sampled(&mut self, set: usize) -> &Sampled {
        let (spec, rails) = (&self.spec, &self.rail_sets[set]);
        self.sampled[set].get_or_insert_with(|| {
            // A private two-node twin with only the shared links: local
            // rail i of the pair is twin rail i.
            let links: Vec<_> = rails.iter().map(|&r| spec.rails[r].clone()).collect();
            let mut sampler = SimTransport::new(ClusterSpec::two_nodes(4, links.clone()));
            // The twin is noiseless and builds a fresh simulator per
            // measurement: warmup and repetitions would time the same
            // instant again, so one iteration yields the defaults'
            // predictor bit for bit.
            let cfg = SamplingConfig { iters: 1, warmup: 0, ..Default::default() };
            let predictor = Predictor::sampled(&mut sampler, &cfg, |i| links[i].rdv_threshold)
                .expect("sampling");
            let latency_us = predictor
                .rails()
                .iter()
                .map(|r| r.natural.predict_us(r.natural.sampled_range().0))
                .fold(f64::INFINITY, f64::min);
            Sampled { predictor, latency_us }
        })
    }

    /// The predictor for the `src -> dst` pair, in the pair's dense local
    /// rail space (matching [`nm_core::driver::cluster::PairDriver`]).
    /// Panics when the pair shares no rail — the same condition the driver
    /// rejects.
    pub fn predictor_for_pair(&mut self, src: usize, dst: usize) -> Predictor {
        self.sampled(self.rail_set(src, dst)).predictor.clone()
    }

    /// Predicted µs for `bytes` from `src` to `dst` on a quiet pair: the plan
    /// [`PAIR_STRATEGY`] makes with `src`'s cores idle, priced as the engine does.
    // nm-analyzer: allow(unit-bare) -- µs-f64 numeric core of the DAG cost
    // model, beneath the typed Micros boundary
    pub fn hop_time_us(&mut self, src: usize, dst: usize, bytes: u64) -> f64 {
        let (set, cores) = (self.rail_set(src, dst), self.spec.nodes[src].cores);
        let key = (set as u32, cores as u32, bytes.max(1));
        if let Some(&t) = self.hop_times.get(&key) {
            return t;
        }
        let idle: Vec<CoreId> = (0..cores).map(CoreId).collect();
        let predictor = &self.sampled(set).predictor;
        // Built per question: plan caches key on the predictor's epoch, not
        // on the predictor, so an instance kept across rail sets mixes plans.
        let mut strategy = PAIR_STRATEGY.build();
        let Action::Split(plan) = strategy.decide(&Ctx::quiet(predictor, &idle, &[key.2])) else {
            panic!("a lone message on a quiet pair is sent at once");
        };
        let t = plan.iter().fold(0.0, |t: f64, c| {
            let rail = predictor.rail(c.rail);
            t.max(c.offload_delay.as_micros_f64() + rail.profile(c.mode).predict_us(c.bytes))
        });
        if self.hop_times.len() >= HOP_MEMO_CAP {
            self.hop_times.clear();
        }
        self.hop_times.insert(key, t);
        t
    }

    /// Predicted one-way latency floor (µs) of the pair: the fastest
    /// rail's time at the smallest sampled size. The DAG cost model uses
    /// `hop_time - hop_latency` as the sender-occupancy ("overhead") part
    /// of a hop.
    // nm-analyzer: allow(unit-bare) -- µs-f64 numeric core of the DAG cost
    // model, beneath the typed Micros boundary
    pub fn hop_latency_us(&mut self, src: usize, dst: usize) -> f64 {
        self.sampled(self.rail_set(src, dst)).latency_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_model::builtin;
    use nm_model::units::{KIB, MIB};
    use nm_sim::NodeSpec;
    use proptest::prelude::*;

    /// Sixteen nodes; with `partial`, node 3 has a NIC on rail 0 only, so
    /// its pairs form a second rail set (without the low-latency rail).
    fn sixteen(partial: bool) -> ClusterSpec {
        let mut spec = ClusterSpec::homogeneous(16, 4, builtin::paper_testbed());
        if partial {
            spec.nodes[3] = NodeSpec::with_cores(4).on_rails(vec![0]);
        }
        spec
    }

    /// The spec of `one_iteration_predictor_equals_the_default_campaign`:
    /// node 1 on rail 0 only, node 2 on rail 1 only — two one-rail sets
    /// beside the two-rail one.
    fn split_rails() -> ClusterSpec {
        let mut spec = ClusterSpec::homogeneous(4, 4, builtin::paper_testbed());
        spec.nodes[1] = NodeSpec::with_cores(4).on_rails(vec![0]);
        spec.nodes[2] = NodeSpec::with_cores(4).on_rails(vec![1]);
        spec
    }

    /// `(T, L)` of one pair from a bank asked nothing before.
    fn fresh_answer(spec: &ClusterSpec, src: usize, dst: usize, bytes: u64) -> (u64, u64) {
        let mut fresh = ProfileBank::new(spec.clone());
        (fresh.hop_time_us(src, dst, bytes).to_bits(), fresh.hop_latency_us(src, dst).to_bits())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// A bank that has answered anything before answers exactly what a
        /// bank asked for the first time computes — across rail sets too.
        #[test]
        fn warm_answers_equal_fresh_ones_bit_for_bit(
            partial in any::<bool>(),
            queries in proptest::collection::vec((0usize..16, 1usize..16, 0u64..(8 * MIB)), 1..48),
        ) {
            let spec = sixteen(partial);
            let mut warm = ProfileBank::new(spec.clone());
            // Asked forwards, then again backwards: every answer but the
            // first comes after others, most of them from the memo.
            for &(src, step, bytes) in queries.iter().chain(queries.iter().rev()) {
                let dst = (src + step) % 16;
                let t = warm.hop_time_us(src, dst, bytes);
                let l = warm.hop_latency_us(src, dst);
                prop_assert_eq!(
                    (t.to_bits(), l.to_bits()), fresh_answer(&spec, src, dst, bytes),
                    "T, L({}, {}, {})", src, dst, bytes
                );
            }
        }
    }

    /// One bank asked about every sharing pair answers each as a fresh bank
    /// does: no rail set is handed another's plan. On `split_rails` the
    /// two one-rail sets are of different rails; on three rails, nodes 1
    /// and 2 make two different two-rail sets with node 0, whose plans a
    /// strategy shared across sets would confuse.
    #[test]
    fn rail_sets_never_share_a_plan() {
        let mut three = ClusterSpec::homogeneous(
            4,
            4,
            vec![builtin::myri_10g(), builtin::qsnet2(), builtin::ib_ddr()],
        );
        three.nodes[1] = NodeSpec::with_cores(4).on_rails(vec![0, 1]);
        three.nodes[2] = NodeSpec::with_cores(4).on_rails(vec![0, 2]);
        for spec in [split_rails(), three] {
            let mut warm = ProfileBank::new(spec.clone());
            let pairs: Vec<(usize, usize)> = (0..4)
                .flat_map(|s| (0..4).map(move |d| (s, d)))
                .filter(|&(s, d)| s != d && !spec.common_rails(s, d).is_empty())
                .collect();
            for bytes in [8, 4 * KIB, 16 * KIB, 64 * KIB, 200 * KIB, MIB] {
                for &(src, dst) in &pairs {
                    let t = warm.hop_time_us(src, dst, bytes);
                    let l = warm.hop_latency_us(src, dst);
                    assert_eq!(
                        (t.to_bits(), l.to_bits()),
                        fresh_answer(&spec, src, dst, bytes),
                        "T, L({src}, {dst}, {bytes})"
                    );
                }
            }
        }
    }

    #[test]
    fn rail_sets_do_not_alias_in_the_memo() {
        let mut bank = ProfileBank::new(sixteen(true));
        let both = bank.hop_time_us(0, 1, MIB);
        let one = bank.hop_time_us(0, 3, MIB);
        assert!(one > both, "same size, different rail set: {one} vs {both}");
        assert_eq!(bank.hop_time_us(3, 0, MIB), one, "either direction shares the set");
        assert_eq!(bank.hop_time_us(7, 9, MIB), both);
        assert_eq!(bank.hop_times.len(), 2);
        assert!(bank.hop_latency_us(0, 3) > bank.hop_latency_us(0, 1));
    }

    #[test]
    fn memo_roll_over_returns_the_same_values() {
        let mut bank = ProfileBank::new(sixteen(false));
        let sizes: Vec<u64> = (0..HOP_MEMO_CAP as u64 + 40).map(|i| 1024 + 97 * i).collect();
        let first: Vec<f64> = sizes.iter().map(|&b| bank.hop_time_us(0, 1, b)).collect();
        assert!(bank.hop_times.len() <= HOP_MEMO_CAP);
        assert!(bank.hop_times.len() < sizes.len(), "the sweep must have rolled the memo over");
        // The early sizes were evicted: asking again recomputes them.
        for (&b, &t) in sizes.iter().zip(&first).take(60) {
            assert_eq!(bank.hop_time_us(0, 1, b).to_bits(), t.to_bits());
            assert!(bank.hop_times.len() <= HOP_MEMO_CAP);
        }
    }

    #[test]
    fn zero_and_one_byte_share_an_entry() {
        let mut bank = ProfileBank::new(sixteen(false));
        assert_eq!(bank.hop_time_us(0, 1, 0).to_bits(), bank.hop_time_us(0, 1, 1).to_bits());
        assert_eq!(bank.hop_times.len(), 1);
    }

    #[test]
    fn homogeneous_cluster_samples_one_twin() {
        let mut bank = ProfileBank::new(ClusterSpec::homogeneous(8, 4, builtin::paper_testbed()));
        let t01 = bank.hop_time_us(0, 1, MIB);
        let t56 = bank.hop_time_us(5, 6, MIB);
        assert_eq!(t01, t56, "identical pairs share one profile");
        assert_eq!(bank.sampled.iter().flatten().count(), 1);
        assert!(t01 > 0.0);
    }

    #[test]
    fn partial_rail_pairs_get_their_own_profile_and_are_slower() {
        let mut spec = ClusterSpec::homogeneous(4, 4, builtin::paper_testbed());
        spec.nodes[3] = NodeSpec::with_cores(4).on_rails(vec![1]);
        let mut bank = ProfileBank::new(spec);
        let both_rails = bank.hop_time_us(0, 1, 4 * MIB);
        let one_rail = bank.hop_time_us(0, 3, 4 * MIB);
        assert_eq!(bank.sampled.iter().flatten().count(), 2);
        assert!(
            one_rail > 1.5 * both_rails,
            "single-rail pair must be much slower: {one_rail} vs {both_rails}"
        );
        let p = bank.predictor_for_pair(0, 3);
        assert_eq!(p.rail_count(), 1, "pair predictor lives in the local rail space");
    }

    /// One iteration on the noiseless twin is the sampler defaults' result:
    /// on each rail set a bank meets, its predictor equals the one a
    /// warmed, five-iteration median campaign yields, bit for bit (`Debug`
    /// prints every `f64` so that it round-trips).
    #[test]
    fn one_iteration_predictor_equals_the_default_campaign() {
        let spec = split_rails();
        let mut bank = ProfileBank::new(spec.clone());
        for (src, dst, rails) in [(0, 3, vec![0, 1]), (0, 1, vec![0]), (0, 2, vec![1])] {
            let links: Vec<_> = rails.iter().map(|&r| spec.rails[r].clone()).collect();
            let mut twin = SimTransport::new(ClusterSpec::two_nodes(4, links.clone()));
            let defaults = Predictor::sampled(&mut twin, &SamplingConfig::default(), |i| {
                links[i].rdv_threshold
            })
            .expect("sampling");
            let set = bank.rail_set(src, dst);
            assert_eq!(bank.rail_sets[set], rails);
            assert_eq!(
                format!("{:?}", bank.sampled(set).predictor),
                format!("{defaults:?}"),
                "rails {rails:?}"
            );
        }
    }

    #[test]
    fn latency_floor_is_below_any_transfer_time() {
        let mut bank = ProfileBank::new(ClusterSpec::homogeneous(2, 4, builtin::paper_testbed()));
        let lat = bank.hop_latency_us(0, 1);
        assert!(lat > 0.0 && lat < bank.hop_time_us(0, 1, 64 * 1024), "{lat}");
    }
}
