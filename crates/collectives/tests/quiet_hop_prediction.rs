//! A quiet hop's prediction is what the simulator measures.
//!
//! `ProfileBank::hop_time_us` asks the pair engines' own strategy for its
//! plan on a quiet pair and prices each chunk as the engine does; here the
//! same hop, alone on a fresh two-node cluster, is run through the pair
//! engine and timed. ci.sh runs this file in release mode too: the offload
//! delays are `f64` arithmetic that optimisation must not move.

use nm_collectives::{Algorithm, CollectiveCluster, ProfileBank};
use nm_model::builtin;
use nm_model::units::{KIB, MIB};
use nm_sim::{ClusterSpec, NodeSpec};

/// Largest relative gap between prediction and measurement that counts as
/// a match.
const TOLERANCE: f64 = 0.005;

/// Sizes whose quiet hop must be predicted within [`TOLERANCE`].
const MATCHED: [u64; 13] = [
    8,
    KIB,
    4 * KIB,
    16 * KIB,
    32 * KIB,
    64 * KIB,
    96 * KIB,
    127 * KIB,
    256 * KIB,
    512 * KIB,
    MIB,
    4 * MIB,
    8 * MIB,
];

/// Sizes known to miss, and why. The table may only shrink: a row that
/// starts to match fails the test until it is moved to [`MATCHED`].
const EXPECTED_MISSES: [(u64, &str); 3] = [
    (128 * KIB, "ROADMAP item 15: eager-sized fallback chunks serialize on one core"),
    (160 * KIB, "ROADMAP item 15: eager-sized fallback chunks serialize on one core"),
    (200 * KIB, "ROADMAP item 15: eager-sized fallback chunks serialize on one core"),
];

/// `(predicted, measured)` µs of one `0 -> 1` hop of `bytes` on `spec`.
fn predicted_and_measured(spec: &ClusterSpec, bytes: u64) -> (f64, f64) {
    let mut bank = ProfileBank::new(spec.clone());
    let predicted = bank.hop_time_us(0, 1, bytes);
    let dag = Algorithm::BcastFlat.dag(2, bytes);
    assert_eq!(dag.hops.len(), 1, "a two-node flat broadcast is one hop");
    let run = CollectiveCluster::new(spec.clone()).run(&mut bank, &dag).expect("run");
    (predicted, run.duration_us)
}

fn relative_gap(predicted: f64, measured: f64) -> f64 {
    (measured / predicted - 1.0).abs()
}

fn two_paper_nodes() -> ClusterSpec {
    ClusterSpec::homogeneous(2, 4, builtin::paper_testbed())
}

#[test]
fn a_quiet_hop_is_predicted_as_measured() {
    let spec = two_paper_nodes();
    for bytes in MATCHED {
        let (predicted, measured) = predicted_and_measured(&spec, bytes);
        assert!(
            relative_gap(predicted, measured) <= TOLERANCE,
            "{bytes} B: predicted {predicted} µs, measured {measured} µs"
        );
    }
}

#[test]
fn expected_misses_still_miss() {
    let spec = two_paper_nodes();
    for (bytes, why) in EXPECTED_MISSES {
        let (predicted, measured) = predicted_and_measured(&spec, bytes);
        assert!(
            relative_gap(predicted, measured) > TOLERANCE,
            "{bytes} B now matches ({predicted} vs {measured} µs): move it out of the \
             expected misses ({why})"
        );
    }
}

/// A one-core source cannot offload chunk copies, so its engine sends the
/// whole message eager on one rail. The bank must ask with that node's
/// cores, and must not hand the answer it gave the four-core node in the
/// other direction of the same rail set.
#[test]
fn the_quiet_context_has_the_source_nodes_cores() {
    let mut spec = two_paper_nodes();
    spec.nodes[0] = NodeSpec::with_cores(1);
    for (bytes, want) in [(16 * KIB, 25.43), (64 * KIB, 81.39)] {
        let mut bank = ProfileBank::new(spec.clone());
        let four_cores = bank.hop_time_us(1, 0, bytes);
        let one_core = bank.hop_time_us(0, 1, bytes);
        assert!(one_core > four_cores, "{bytes} B: {one_core} vs {four_cores} µs");
        let (predicted, measured) = predicted_and_measured(&spec, bytes);
        assert_eq!(
            one_core.to_bits(),
            predicted.to_bits(),
            "{bytes} B: the memo is keyed on cores"
        );
        assert!(
            relative_gap(predicted, measured) <= TOLERANCE,
            "{bytes} B: predicted {predicted} µs, measured {measured} µs"
        );
        assert!((measured - want).abs() < 0.01, "{bytes} B: measured {measured} µs");
    }
}

/// On two rails an eager split has at most two chunks, so two idle cores
/// are as good as four or eight: the 2/4/8-core heterogeneous cluster
/// predicts every hop as a homogeneous four-core one does.
#[test]
fn heterogeneous_core_counts_predict_as_four_cores() {
    let mut hetero = ProfileBank::new(ClusterSpec::heterogeneous(8, builtin::paper_testbed()));
    let mut homo = ProfileBank::new(ClusterSpec::homogeneous(8, 4, builtin::paper_testbed()));
    for bytes in [8, 4 * KIB, 16 * KIB, 64 * KIB, 200 * KIB, MIB] {
        for src in 0..3 {
            let dst = src + 3;
            assert_eq!(
                hetero.hop_time_us(src, dst, bytes).to_bits(),
                homo.hop_time_us(src, dst, bytes).to_bits(),
                "{src} -> {dst}, {bytes} B"
            );
        }
    }
}
