//! Predicted completion time of a hop DAG — the collectives' analogue of
//! the engine's per-message predictor.
//!
//! A list scheduler walks the DAG in its (topological) hop order under a
//! LogGP-flavoured machine model derived from sampled profiles:
//!
//! * `T(src,dst,b)` — [`ProfileBank::hop_time_us`], the full one-way time
//!   of `b` bytes as the pair strategy sends them on a quiet pair;
//! * `L(src,dst)` — [`ProfileBank::hop_latency_us`], the latency floor;
//! * `o = max(T − L, 0)` — the occupancy part: how long the hop ties up
//!   the sender's (and receiver's) NICs/cores, i.e. the serialization a
//!   node pays when it sources several hops. The latency part pipelines.
//!
//! Each hop starts when its dependencies are delivered *and* its sender is
//! free; it finishes `T` after starting, pushed back if the receiver is
//! still occupied. The makespan is the DAG's predicted completion. This is
//! the quantity the [`crate::select::Selector`] compares across algorithm
//! variants — and corrects multiplicatively from observed runs.

use crate::profiles::ProfileBank;
use crate::schedule::HopDag;

/// Predicted makespan of `dag` (µs from a quiet start), by list-scheduling
/// hops over per-node sender/receiver occupancy.
// nm-analyzer: allow(unit-bare) -- µs-f64 numeric core of the DAG cost
// model, beneath the typed Micros boundary
#[must_use]
pub fn predict_dag_us(bank: &mut ProfileBank, dag: &HopDag) -> f64 {
    debug_assert!(dag.check().is_ok(), "malformed DAG");
    let mut tx_free = vec![0.0f64; dag.nodes];
    let mut rx_free = vec![0.0f64; dag.nodes];
    let mut finish: Vec<f64> = Vec::with_capacity(dag.hops.len());
    let mut makespan = 0.0f64;
    for hop in &dag.hops {
        let ready = hop.deps.iter().map(|&d| finish[d]).fold(0.0, f64::max);
        let t = bank.hop_time_us(hop.src, hop.dst, hop.bytes);
        let l = bank.hop_latency_us(hop.src, hop.dst);
        let o = (t - l).max(0.0);
        let start = ready.max(tx_free[hop.src]);
        tx_free[hop.src] = start + o;
        // Delivery: latency pipelines, occupancy serializes at the
        // receiver too (back-to-back arrivals queue on the rx NIC).
        let done = (start + t).max(rx_free[hop.dst] + o);
        rx_free[hop.dst] = done;
        finish.push(done);
        makespan = makespan.max(done);
    }
    makespan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Algorithm;
    use nm_model::builtin;
    use nm_model::units::{KIB, MIB};
    use nm_sim::ClusterSpec;

    fn bank(n: usize) -> ProfileBank {
        ProfileBank::new(ClusterSpec::homogeneous(n, 4, builtin::paper_testbed()))
    }

    #[test]
    fn single_hop_prediction_matches_the_pair_model() {
        let mut b = bank(2);
        let dag = Algorithm::BcastFlat.dag(2, MIB);
        let want = b.hop_time_us(0, 1, MIB);
        assert_eq!(predict_dag_us(&mut b, &dag), want);
    }

    #[test]
    fn flat_bcast_cost_grows_linearly_tree_logarithmically() {
        let mut b = bank(16);
        let flat8 = predict_dag_us(&mut b, &Algorithm::BcastFlat.dag(8, MIB));
        let flat16 = predict_dag_us(&mut b, &Algorithm::BcastFlat.dag(16, MIB));
        let tree8 = predict_dag_us(&mut b, &Algorithm::BcastTree.dag(8, MIB));
        let tree16 = predict_dag_us(&mut b, &Algorithm::BcastTree.dag(16, MIB));
        // Doubling n roughly doubles flat (one more batch of sender
        // occupancy) but adds one round to tree.
        assert!(flat16 > 1.6 * flat8, "flat: {flat8} -> {flat16}");
        assert!(tree16 < 1.5 * tree8, "tree: {tree8} -> {tree16}");
        assert!(tree16 < flat16, "at 16 nodes the tree must win");
    }

    #[test]
    fn dependencies_serialize_prediction() {
        // A 4-node ring step chain must cost more than one hop.
        let mut b = bank(4);
        let ring = predict_dag_us(&mut b, &Algorithm::AlltoallRing.dag(4, 256 * KIB));
        let single = b.hop_time_us(0, 1, 256 * KIB);
        assert!(ring > 2.0 * single, "ring {ring} vs single hop {single}");
    }

    #[test]
    fn pairwise_beats_ring_beyond_two_nodes() {
        let mut b = bank(8);
        for n in [3usize, 4, 8] {
            let [pairwise, ring] = crate::schedule::Collective::AllToAll
                .algorithms()
                .map(|a| predict_dag_us(&mut b, &a.dag(n, 64 * KIB)));
            assert!(
                pairwise < ring,
                "n={n}: pairwise {pairwise} must beat store-and-forward ring {ring}"
            );
        }
    }
}
