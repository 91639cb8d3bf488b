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
//! `run`.

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

/// The full collectives stack over one simulated cluster.
pub struct Collectives {
    runner: CollectiveCluster,
    bank: ProfileBank,
    selector: Selector,
}

impl Collectives {
    /// Builds the stack: shared cluster, lazy profile bank, fresh selector.
    pub fn new(spec: ClusterSpec) -> Self {
        Collectives {
            runner: CollectiveCluster::new(spec.clone()),
            bank: ProfileBank::new(spec),
            selector: Selector::new(),
        }
    }

    /// Builds the stack over a cluster that replays `schedule`: engines
    /// get fault tolerance, runs self-heal (watchdog + DAG repair), and
    /// selection adds a per-node health penalty. With an empty schedule
    /// this is exactly [`Collectives::new`].
    pub fn new_faulted(spec: ClusterSpec, schedule: &ClusterFaultSchedule) -> Result<Self, String> {
        Ok(Collectives {
            runner: CollectiveCluster::with_faults(spec.clone(), schedule)?,
            bank: ProfileBank::new(spec),
            selector: Selector::new(),
        })
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

    /// Uncorrected model prediction for one variant at the cluster's node
    /// count (µs).
    // nm-analyzer: allow(unit-bare) -- µs-f64 numeric core of the DAG cost
    // model, beneath the typed Micros boundary
    pub fn predict_us(&mut self, algorithm: Algorithm, bytes: u64) -> f64 {
        let dag = algorithm.dag(self.nodes(), bytes);
        cost::predict_dag_us(&mut self.bank, &dag)
    }

    /// Runs one specific variant, feeding the outcome back into the
    /// selector.
    pub fn run_algorithm(
        &mut self,
        algorithm: Algorithm,
        bytes: u64,
    ) -> Result<CompletedOp, String> {
        let dag = algorithm.dag(self.nodes(), bytes);
        let predicted_us = cost::predict_dag_us(&mut self.bank, &dag);
        self.run_dag(&dag, predicted_us)
    }

    /// Runs `collective` with the prediction-chosen variant — the
    /// crate's headline operation. Each candidate's DAG is built and
    /// predicted once; the winner's goes straight to the runner. On a
    /// healing cluster each candidate's corrected prediction additionally
    /// carries a health penalty for routing hops through sick nodes, so
    /// sustained degradation shifts the choice (flat → tree when the hub's
    /// rails are failing); on a healthy one every penalty is zero and the
    /// choice is the plain corrected argmin.
    pub fn run(&mut self, collective: Collective, bytes: u64) -> Result<CompletedOp, String> {
        let nodes = self.nodes();
        let candidates = collective.algorithms().map(|a| {
            let dag = a.dag(nodes, bytes);
            let predicted = cost::predict_dag_us(&mut self.bank, &dag);
            let penalty = dag_health_penalty_us(&dag, self.runner.node_sickness());
            (dag, predicted, penalty)
        });
        let scored = candidates.each_ref().map(|(dag, p, q)| (dag.algorithm, *p, *q));
        let (chosen, _) =
            self.selector.choose_penalized(&scored).ok_or("no algorithm candidates")?;
        let (dag, predicted, _) =
            candidates.iter().find(|c| c.0.algorithm == chosen).expect("chosen among candidates");
        self.run_dag(dag, *predicted)
    }

    /// Executes `dag` and feeds `(predicted, measured)` back to the selector.
    fn run_dag(&mut self, dag: &HopDag, predicted_us: f64) -> Result<CompletedOp, String> {
        let result = self.runner.run(&mut self.bank, dag)?;
        let op = CompletedOp {
            collective: dag.algorithm.collective(),
            algorithm: dag.algorithm,
            nodes: dag.nodes,
            bytes: dag.bytes,
            predicted_us,
            measured_us: result.duration_us,
            stats: result.stats,
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

    #[test]
    fn eight_heterogeneous_nodes_are_supported() {
        let mut c = Collectives::new(ClusterSpec::heterogeneous(8, builtin::paper_testbed()));
        let op = c.run(Collective::Barrier, 1).expect("run");
        assert_eq!(op.nodes, 8);
        assert!(op.measured_us > 0.0);
    }
}
