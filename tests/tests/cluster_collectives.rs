//! N-node cluster model properties: routing totality on heterogeneous rail
//! sets, exact switch accounting, and bit-identical 2-node behaviour.
//!
//! Three contracts of the cluster generalization (DESIGN.md §14):
//!
//! 1. **Routing totality** — on any topology where all nodes share a spine
//!    rail, every directed `(src, dst)` pair has a non-empty common-rail
//!    set *and* an engine over that pair actually delivers a message.
//! 2. **Switch accounting** — every transfer crossing a switched rail is
//!    charged exactly one transit window: after the calendar drains, the
//!    backplane's cumulative busy time equals the sum of per-transfer
//!    transits, to the nanosecond. No transfer double-books, none sneaks
//!    through free.
//! 3. **2-node equivalence** — a 2-node cluster driven through the N-node
//!    machinery (`SimCluster` + `PairDriver`, explicit per-node rail sets)
//!    produces the same completions as the legacy point-to-point
//!    `SimDriver`, bit for bit. The paper goldens (fig3/fig8/fig9 shape
//!    tests) therefore cannot move.

use nm_collectives::{Algorithm, Collectives, ProfileBank};
use nm_core::driver::cluster::SimCluster;
use nm_core::driver::sim::SimDriver;
use nm_core::engine::Engine;
use nm_core::strategy::StrategyKind;
use nm_model::builtin;
use nm_model::units::{KIB, MIB};
use nm_model::{SimDuration, TransferMode};
use nm_sim::{ClusterSpec, NodeId, NodeSpec, RailId, SendSpec, Simulator, SwitchSpec};
use nm_tests::sample_predictor;
use proptest::prelude::*;

/// A topology strategy: 8 nodes, each with a NIC on the spine rail and
/// (randomly) the other rail — so every pair is routable by construction.
fn spined_nodes(spine: usize) -> impl Strategy<Value = Vec<NodeSpec>> {
    proptest::collection::vec((2usize..=8, any::<bool>()), 8).prop_map(move |shapes| {
        shapes
            .into_iter()
            .map(|(cores, both)| {
                let rails = if both { vec![0, 1] } else { vec![spine] };
                NodeSpec::with_cores(cores).on_rails(rails)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Contract 1: totality. Every ordered pair shares at least the spine
    /// rail, the per-pair predictor lives in that dense local space, and a
    /// message between every adjacent pair is physically delivered.
    #[test]
    fn every_pair_routes_on_spined_heterogeneous_clusters(
        topo in (0usize..2).prop_flat_map(
            |spine| spined_nodes(spine).prop_map(move |nodes| (spine, nodes))),
    ) {
        let (spine, nodes) = topo;
        let spec = ClusterSpec {
            nodes,
            rails: builtin::paper_testbed(),
            switch: None,
        };
        prop_assert!(spec.validate().is_ok());
        let n = spec.nodes.len();
        let mut bank = ProfileBank::new(spec.clone());
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                let common = spec.common_rails(src, dst);
                prop_assert!(!common.is_empty(), "{src}->{dst} must share the spine");
                prop_assert!(common.contains(&spine));
                let p = bank.predictor_for_pair(src, dst);
                prop_assert_eq!(p.rail_count(), common.len());
            }
        }
        // Delivery probe on a ring cover of the pairs (every node sends
        // and receives): the spine alone suffices to move real traffic.
        let cluster = SimCluster::new(spec.clone());
        for src in 0..n {
            let dst = (src + 1) % n;
            let mut engine = Engine::new(
                cluster.pair_driver(NodeId(src), NodeId(dst)),
                bank.predictor_for_pair(src, dst),
                StrategyKind::HeteroSplit.build(),
            )
            .expect("engine");
            let id = engine.post_send(64 * KIB).expect("post");
            let done = engine.wait(id).expect("wait");
            prop_assert!(done.duration > SimDuration::ZERO);
        }
    }

    /// Contract 2: exact switch accounting. Submit a random batch across
    /// pairs, rails, modes and sizes; drain; the backplane busy total of
    /// each rail equals the sum of that rail's transit windows exactly.
    #[test]
    fn switch_charges_exactly_one_transit_per_transfer(
        sends in proptest::collection::vec(
            (0usize..4, 0usize..2, 1u64..(2 * MIB), any::<bool>()), 1..16),
    ) {
        let switch = SwitchSpec::new(0.5, 2500.0);
        let spec = ClusterSpec::homogeneous(4, 4, builtin::paper_testbed())
            .with_switch(switch.clone());
        let mut sim = Simulator::new(spec);
        let mut expected = [SimDuration::ZERO; 2];
        for &(src, rail, size, eager) in &sends {
            let dst = (src + 1) % 4;
            let mut s = SendSpec::simple(NodeId(src), NodeId(dst), RailId(rail), size);
            if eager {
                s = s.with_mode(TransferMode::Eager);
            }
            sim.submit(s);
            expected[rail] += switch.transit(size);
        }
        sim.run_until_idle();
        for (rail, want) in expected.iter().enumerate() {
            prop_assert_eq!(
                sim.switch_busy_total(RailId(rail)),
                *want,
                "rail {} backplane time must be the exact transit sum",
                rail
            );
        }
    }
}

/// Contract 3: the N-node path is bit-identical to the legacy 2-node path
/// — same completion time, same per-rail chunk layout — across sizes
/// spanning eager, rendezvous and split regimes, with the cluster spec
/// exercising *explicit* per-node rail sets (`Some([0, 1])`, not the
/// historic `None`).
#[test]
fn two_node_cluster_path_matches_legacy_driver_bit_for_bit() {
    let legacy_spec = ClusterSpec::paper_testbed();
    let mut cluster_spec = ClusterSpec::paper_testbed();
    for node in &mut cluster_spec.nodes {
        node.rails = Some(vec![0, 1]);
    }

    for kind in [
        StrategyKind::SingleRail(Some(RailId(0))),
        StrategyKind::IsoSplit,
        StrategyKind::HeteroSplit,
    ] {
        for size in [4 * KIB, 32 * KIB, 256 * KIB, MIB, 8 * MIB] {
            let legacy = {
                let mut engine = Engine::new(
                    SimDriver::new(legacy_spec.clone()),
                    sample_predictor(&legacy_spec),
                    kind.build(),
                )
                .expect("engine");
                let id = engine.post_send(size).expect("post");
                engine.wait(id).expect("wait")
            };
            let clustered = {
                let cluster = SimCluster::new(cluster_spec.clone());
                let mut engine = Engine::new(
                    cluster.pair_driver(NodeId(0), NodeId(1)),
                    sample_predictor(&legacy_spec),
                    kind.build(),
                )
                .expect("engine");
                let id = engine.post_send(size).expect("post");
                engine.wait(id).expect("wait")
            };
            assert_eq!(
                legacy.delivered_at, clustered.delivered_at,
                "{kind:?} size {size}: delivery time must be bit-identical"
            );
            assert_eq!(legacy.duration, clustered.duration, "{kind:?} size {size}");
            assert_eq!(
                legacy.chunks, clustered.chunks,
                "{kind:?} size {size}: same split, same rails"
            );
        }
    }
}

/// A collective on ≥8 heterogeneous nodes end-to-end through the public
/// facade — the cross-crate smoke the satellite suite pins.
#[test]
fn collectives_complete_on_a_heterogeneous_eight_node_cluster() {
    let mut spec = ClusterSpec::heterogeneous(8, builtin::paper_testbed());
    // Two nodes lose a NIC each (opposite rails) — pairs between them
    // still route via the full-rail peers' spine.
    spec.nodes[2].rails = Some(vec![0, 1]);
    spec.nodes[5].rails = Some(vec![0, 1]);
    let mut c = Collectives::new(spec);
    let barrier = c.run_algorithm(Algorithm::BarrierTree, 1).expect("barrier");
    let bcast = c.run_algorithm(Algorithm::BcastTree, MIB).expect("bcast");
    assert!(barrier.measured_us > 0.0);
    assert!(bcast.measured_us > barrier.measured_us, "1 MiB bcast outweighs a token barrier");
}
