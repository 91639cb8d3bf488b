//! # nm-collectives — prediction-driven multirail collectives
//!
//! The paper's engine moves one message between one node pair as fast as
//! the rails allow. This crate lifts that primitive to *collectives* over
//! the N-node simulated cluster (DESIGN.md §14): barrier, broadcast and
//! all-to-all, each with two algorithm variants whose hop DAGs run through
//! per-pair engines sharing one virtual clock.
//!
//! Pipeline per operation:
//!
//! 1. [`schedule`] compiles `(collective, algorithm, nodes, bytes)` into a
//!    [`schedule::HopDag`];
//! 2. [`cost`] predicts each variant's makespan from sampled profiles
//!    ([`profiles::ProfileBank`]);
//! 3. [`select`] picks the variant with the lowest *corrected* prediction
//!    (EWMA feedback of observed/predicted per algorithm);
//! 4. [`runner`] executes the winning DAG event-ordered over the shared
//!    cluster, each hop taking the engine's full decision path;
//! 5. the measured makespan feeds back into the selector, and the
//!    predicted/measured pair is recorded for observability.
//!
//! [`Collectives`] bundles the pipeline behind two calls: `predict_us` and
//! `run`. It compiles and predicts each `(algorithm, size)` once and keeps
//! the plan, so a repeated operation goes from selection straight to the
//! runner.

// Simulation-facing crate: no unsafe, ever.
#![forbid(unsafe_code)]

pub mod cost;
pub mod profiles;
pub mod repair;
pub mod runner;
pub mod schedule;
pub mod select;

pub use profiles::ProfileBank;
pub use runner::{CollectiveCluster, RunResult, RunStats};
pub use schedule::{Algorithm, Collective, HopDag, ALGORITHMS, BARRIER_BYTES};
pub use select::{dag_health_penalty_us, OpRecord, Selector};

use nm_faults::ClusterFaultSchedule;
use nm_sim::ClusterSpec;

/// One executed collective: the selection inputs and the outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedOp {
    /// The primitive.
    pub collective: Collective,
    /// The variant that ran.
    pub algorithm: Algorithm,
    /// Participant count.
    pub nodes: usize,
    /// Block size requested by the caller.
    pub bytes: u64,
    /// Uncorrected model prediction (µs).
    pub predicted_us: f64,
    /// Simulated makespan (µs).
    pub measured_us: f64,
    /// Failure/repair counters (all zero on a healthy run).
    pub stats: RunStats,
}

/// Compiled plans the memo holds before it is emptied and refilled. A
/// workload runs a handful of `(algorithm, size)` points over and over; the
/// cap only keeps a caller sweeping sizes from growing the memo without end.
const PLAN_MEMO_CAP: usize = 64;

/// One compiled candidate: its DAG and the bank's uncorrected prediction.
struct Plan {
    dag: HopDag,
    predicted_us: f64,
}

/// The full collectives stack over one simulated cluster.
pub struct Collectives {
    runner: CollectiveCluster,
    bank: ProfileBank,
    selector: Selector,
    /// Every `(algorithm, bytes)` asked about, compiled and predicted once,
    /// searched linearly. Exact: the node count is fixed per stack and the
    /// bank's answers are pure once a rail set is sampled.
    plans: Vec<Plan>,
}

impl Collectives {
    /// Builds the stack: shared cluster, lazy profile bank, fresh selector.
    pub fn new(spec: ClusterSpec) -> Self {
        Collectives::over(CollectiveCluster::new(spec.clone()), spec)
    }

    /// Builds the stack over a cluster that replays `schedule`: engines
    /// get fault tolerance, runs self-heal (watchdog + DAG repair), and
    /// selection adds a per-node health penalty. With an empty schedule
    /// this is exactly [`Collectives::new`].
    pub fn new_faulted(spec: ClusterSpec, schedule: &ClusterFaultSchedule) -> Result<Self, String> {
        Ok(Collectives::over(CollectiveCluster::with_faults(spec.clone(), schedule)?, spec))
    }

    fn over(runner: CollectiveCluster, spec: ClusterSpec) -> Self {
        Collectives {
            runner,
            bank: ProfileBank::new(spec),
            selector: Selector::new(),
            plans: Vec::new(),
        }
    }

    /// The runner (health state, shared clock) — read-only.
    pub fn runner(&self) -> &CollectiveCluster {
        &self.runner
    }

    /// Number of participating nodes.
    pub fn nodes(&self) -> usize {
        self.runner.spec().nodes.len()
    }

    /// The selector (corrections + per-operation records).
    pub fn selector(&self) -> &Selector {
        &self.selector
    }

    /// Memo index of `algorithm`'s plan at `bytes`, compiled and predicted
    /// on the first question about it. A miss on a full memo empties it
    /// first, so an index is good until the next call.
    fn plan(&mut self, algorithm: Algorithm, bytes: u64) -> usize {
        let held =
            self.plans.iter().position(|p| p.dag.algorithm == algorithm && p.dag.bytes == bytes);
        if let Some(i) = held {
            return i;
        }
        if self.plans.len() >= PLAN_MEMO_CAP {
            self.plans.clear();
        }
        let dag = algorithm.dag(self.nodes(), bytes);
        let predicted_us = cost::predict_dag_us(&mut self.bank, &dag);
        self.plans.push(Plan { dag, predicted_us });
        self.plans.len() - 1
    }

    /// Uncorrected model prediction for one variant at the cluster's node
    /// count (µs).
    // nm-analyzer: allow(unit-bare) -- µs-f64 numeric core of the DAG cost
    // model, beneath the typed Micros boundary
    pub fn predict_us(&mut self, algorithm: Algorithm, bytes: u64) -> f64 {
        let plan = self.plan(algorithm, bytes);
        self.plans[plan].predicted_us
    }

    /// Runs one specific variant, feeding the outcome back into the
    /// selector.
    pub fn run_algorithm(
        &mut self,
        algorithm: Algorithm,
        bytes: u64,
    ) -> Result<CompletedOp, String> {
        let plan = self.plan(algorithm, bytes);
        self.run_dag(plan)
    }

    /// Runs `collective` with the prediction-chosen variant — the
    /// crate's headline operation. Each candidate's DAG and prediction come
    /// from the plan memo; the winner's DAG goes straight to the runner. On
    /// a healing cluster each candidate's corrected prediction additionally
    /// carries a health penalty for routing hops through sick nodes, so
    /// sustained degradation shifts the choice (flat → tree when the hub's
    /// rails are failing); on a healthy one every penalty is zero and the
    /// choice is the plain corrected argmin.
    pub fn run(&mut self, collective: Collective, bytes: u64) -> Result<CompletedOp, String> {
        let scored = collective.algorithms().map(|a| {
            let i = self.plan(a, bytes);
            let plan = &self.plans[i];
            (a, plan.predicted_us, dag_health_penalty_us(&plan.dag, self.runner.node_sickness()))
        });
        let (chosen, _) =
            self.selector.choose_penalized(&scored).ok_or("no algorithm candidates")?;
        // A hit, unless the other candidate's miss emptied a full memo.
        let plan = self.plan(chosen, bytes);
        self.run_dag(plan)
    }

    /// Executes memo entry `plan` and feeds `(predicted, measured)` back to
    /// the selector.
    fn run_dag(&mut self, plan: usize) -> Result<CompletedOp, String> {
        let Plan { dag, predicted_us } = &self.plans[plan];
        let run = self.runner.execute(&mut self.bank, dag)?;
        let op = CompletedOp {
            collective: dag.algorithm.collective(),
            algorithm: dag.algorithm,
            nodes: dag.nodes,
            bytes: dag.bytes,
            predicted_us: *predicted_us,
            measured_us: run.makespan().as_micros_f64(),
            stats: run.stats,
        };
        self.selector.record(OpRecord {
            collective: op.collective,
            algorithm: op.algorithm,
            nodes: op.nodes,
            bytes: op.bytes,
            predicted_us: op.predicted_us,
            measured_us: op.measured_us,
        });
        Ok(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_model::builtin;
    use nm_model::units::{KIB, MIB};
    use proptest::prelude::*;

    fn stack(n: usize) -> Collectives {
        Collectives::new(ClusterSpec::homogeneous(n, 4, builtin::paper_testbed()))
    }

    #[test]
    fn each_collective_runs_end_to_end() {
        let mut c = stack(4);
        for (coll, bytes) in [
            (Collective::Barrier, 1u64),
            (Collective::Broadcast, MIB),
            (Collective::AllToAll, 64 * KIB),
        ] {
            let op = c.run(coll, bytes).expect("run");
            assert_eq!(op.collective, coll);
            assert!(op.measured_us > 0.0 && op.predicted_us > 0.0);
        }
        assert_eq!(c.selector().records().len(), 3, "every run is recorded");
    }

    #[test]
    fn selection_picks_tree_bcast_on_a_large_cluster() {
        let mut c = stack(16);
        let op = c.run(Collective::Broadcast, 4 * MIB).expect("run");
        assert_eq!(op.algorithm, Algorithm::BcastTree);
        // And the measured run agrees the choice was right.
        let flat = stack(16).run_algorithm(Algorithm::BcastFlat, 4 * MIB).expect("run");
        assert!(op.measured_us < flat.measured_us);
    }

    #[test]
    fn feedback_loop_tightens_predictions() {
        let mut c = stack(8);
        let first = c.run_algorithm(Algorithm::BcastTree, MIB).expect("run");
        for _ in 0..6 {
            c.run_algorithm(Algorithm::BcastTree, MIB).expect("run");
        }
        let corr = c.selector().correction(Algorithm::BcastTree);
        let first_ratio = first.measured_us / first.predicted_us;
        // The EWMA moved from 1.0 toward the observed ratio.
        assert!(
            (corr - first_ratio).abs() < (1.0 - first_ratio).abs() + 1e-9,
            "correction {corr} should approach observed ratio {first_ratio}"
        );
    }

    #[test]
    fn feedback_flips_a_misprediction() {
        // The cost model underestimates flat barriers badly: it charges no
        // sender/receiver occupancy for latency-bound 8-byte tokens, so it
        // misses the root serializing n-1 arrivals and predicts flat stays
        // cheap at any node count. At 16 nodes the simulation disagrees
        // (flat ~n µs, tree ~log n µs). The per-algorithm EWMA correction
        // must absorb the systematic error and flip selection to the tree
        // within a few operations — prediction-driven selection staying
        // honest through its own feedback.
        let mut c = stack(16);
        let mut picked = Vec::new();
        for _ in 0..8 {
            picked.push(c.run(Collective::Barrier, 1).expect("run").algorithm);
        }
        assert_eq!(picked.first(), Some(&Algorithm::BarrierFlat), "the raw model says flat");
        assert_eq!(picked.last(), Some(&Algorithm::BarrierTree), "feedback learns tree");
        assert!(c.selector().correction(Algorithm::BarrierFlat) > 2.0);
    }

    const COLLECTIVES: [Collective; 3] =
        [Collective::Barrier, Collective::Broadcast, Collective::AllToAll];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// A memo that has answered anything before answers exactly what a
        /// fresh bank computes from a freshly compiled DAG.
        #[test]
        fn memo_predictions_equal_fresh_compilations_bit_for_bit(
            queries in proptest::collection::vec((0usize..3, 1u64..(4 * MIB)), 1..24),
        ) {
            let mut c = stack(16);
            let mut fresh = ProfileBank::new(ClusterSpec::homogeneous(16, 4, builtin::paper_testbed()));
            // Asked forwards, then again backwards: most answers come from
            // the memo.
            for &(k, bytes) in queries.iter().chain(queries.iter().rev()) {
                for a in COLLECTIVES[k].algorithms() {
                    let want = cost::predict_dag_us(&mut fresh, &a.dag(16, bytes));
                    prop_assert_eq!(
                        c.predict_us(a, bytes).to_bits(), want.to_bits(), "{:?} at {} B", a, bytes
                    );
                }
            }
            prop_assert!(c.plans.len() <= PLAN_MEMO_CAP);
        }
    }

    #[test]
    fn plan_memo_roll_over_returns_the_same_values() {
        let mut c = stack(4);
        let sizes: Vec<u64> = (0..PLAN_MEMO_CAP as u64 + 10).map(|i| 1024 + 97 * i).collect();
        let first: Vec<f64> =
            sizes.iter().map(|&b| c.predict_us(Algorithm::BcastTree, b)).collect();
        assert!(c.plans.len() <= PLAN_MEMO_CAP);
        assert!(c.plans.len() < sizes.len(), "the sweep must have rolled the memo over");
        // The early sizes were evicted: asking again recompiles them.
        for (&b, &t) in sizes.iter().zip(&first).take(20) {
            assert_eq!(c.predict_us(Algorithm::BcastTree, b).to_bits(), t.to_bits());
            assert!(c.plans.len() <= PLAN_MEMO_CAP);
        }
    }

    #[test]
    fn a_chosen_plan_its_rival_evicted_is_compiled_again() {
        // On two nodes both broadcasts are the one hop 0 -> 1: a tie, which
        // the earlier candidate (flat) wins — and flat's is the plan the
        // tree's miss on a full memo throws out.
        let mut c = stack(2);
        for b in 1..PLAN_MEMO_CAP as u64 {
            let _ = c.predict_us(Algorithm::BarrierTree, b);
        }
        let flat = c.predict_us(Algorithm::BcastFlat, 7 * KIB);
        assert_eq!(c.plans.len(), PLAN_MEMO_CAP);
        let op = c.run(Collective::Broadcast, 7 * KIB).expect("run");
        assert_eq!(op.algorithm, Algorithm::BcastFlat);
        assert_eq!(op.predicted_us.to_bits(), flat.to_bits());
        assert_eq!(c.plans.len(), 2, "the memo was emptied, then refilled by tree and flat");
    }

    /// A fault-free sequence through the memo chooses, predicts and
    /// measures exactly what the pipeline does when it compiles and
    /// predicts every candidate afresh for every operation.
    #[test]
    fn memoized_runs_match_fresh_compilation_op_for_op() {
        let n = 8;
        let spec = ClusterSpec::homogeneous(n, 4, builtin::paper_testbed());
        let mut memo = Collectives::new(spec.clone());
        let mut runner = CollectiveCluster::new(spec.clone());
        let mut bank = ProfileBank::new(spec);
        let mut selector = Selector::new();
        for _ in 0..3 {
            for (collective, bytes) in [
                (Collective::Barrier, BARRIER_BYTES),
                (Collective::Broadcast, 64 * KIB),
                (Collective::AllToAll, 16 * KIB),
            ] {
                let got = memo.run(collective, bytes).expect("run");
                let candidates = collective.algorithms().map(|a| {
                    let dag = a.dag(n, bytes);
                    let predicted = cost::predict_dag_us(&mut bank, &dag);
                    (dag, predicted)
                });
                let scored = candidates.each_ref().map(|(dag, p)| (dag.algorithm, *p));
                let (chosen, _) = selector.choose(&scored).expect("two candidates");
                let (dag, predicted_us) =
                    candidates.iter().find(|c| c.0.algorithm == chosen).expect("chosen");
                let measured_us = runner.run(&mut bank, dag).expect("run").duration_us;
                selector.record(OpRecord {
                    collective,
                    algorithm: chosen,
                    nodes: n,
                    bytes,
                    predicted_us: *predicted_us,
                    measured_us,
                });
                assert_eq!(got.algorithm, chosen, "{collective:?}");
                assert_eq!(got.predicted_us.to_bits(), predicted_us.to_bits(), "{collective:?}");
                assert_eq!(got.measured_us.to_bits(), measured_us.to_bits(), "{collective:?}");
            }
        }
        assert_eq!(memo.plans.len(), 6, "one plan per candidate, compiled once");
    }

    #[test]
    fn eight_heterogeneous_nodes_are_supported() {
        let mut c = Collectives::new(ClusterSpec::heterogeneous(8, builtin::paper_testbed()));
        let op = c.run(Collective::Barrier, 1).expect("run");
        assert_eq!(op.nodes, 8);
        assert!(op.measured_us > 0.0);
    }
}
