//! Schedule pin: the delivery instant of every hop, digested, for each
//! algorithm on a 16-node homogeneous and an 8-node heterogeneous cluster
//! plus one seeded healing barrier.
//!
//! The digests were captured at the commit *before* the runner stopped
//! scanning every engine after every calendar event (it now polls the
//! cluster's ready list) and before idle events stopped reaching engines
//! with nothing queued. Same-instant poll order decides same-instant submit
//! order downstream, so any deviation of the ready list from the old
//! `BTreeMap` scan order — or any idle event an engine did need — moves at
//! least one hop's delivery time and breaks a digest here.
//!
//! The two sweeps were re-recorded once since, when the pair engines moved
//! from hetero split to multicore eager (each eager chunk's copy on its own
//! idle core): the eager-sized runs and the persistent runs after them
//! moved; both barriers, every fresh rendezvous-sized run and the healing
//! barriers did not. They were re-recorded again when a multicore-eager
//! send that finds a NIC busy began to wait for the split on idle NICs:
//! the fresh 64 KiB broadcasts and ring, and persistent runs after them,
//! moved; both barriers, the fresh pairwise all-to-alls, every fresh
//! rendezvous-sized run and the healing barriers did not. A third time
//! when the destination began to pick the receive core of an offloaded
//! eager chunk: the fresh 16 KiB pairwise and ring all-to-alls, and the
//! persistent runs from them on, moved; everything before them and the
//! fresh 256 KiB all-to-alls did not. ci.sh runs this file in release
//! mode too.

use nm_collectives::{Algorithm, CollectiveCluster, ProfileBank, RunResult, ALGORITHMS};
use nm_faults::{ClusterFaultSchedule, ClusterFaultSpec, FaultKind};
use nm_model::builtin;
use nm_model::units::KIB;
use nm_model::{SimDuration, SimTime};
use nm_sim::{ClusterSpec, RailId};

/// FNV-1a over every hop's delivery instant in ns (`u64::MAX` for a hop
/// that was torn out), in hop order.
fn digest(run: &RunResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for d in &run.deliveries {
        for byte in d.map_or(u64::MAX, SimTime::as_nanos).to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Payload per algorithm: tokens for barriers, one eager-sized and one
/// split-sized block for the data movers.
fn sizes(a: Algorithm) -> &'static [u64] {
    match a {
        Algorithm::BarrierFlat | Algorithm::BarrierTree => &[8],
        Algorithm::BcastFlat | Algorithm::BcastTree => &[64 * KIB, 1024 * KIB],
        Algorithm::AlltoallPairwise | Algorithm::AlltoallRing => &[16 * KIB, 256 * KIB],
    }
}

/// Digests of every (algorithm, size) on a fresh cluster over `spec`, then
/// of the same list run back to back on one persistent cluster (residual
/// NIC occupancy and kept engines).
fn sweep(spec: &ClusterSpec) -> Vec<u64> {
    let n = spec.nodes.len();
    let mut out = Vec::new();
    let mut bank = ProfileBank::new(spec.clone());
    let mut persistent = CollectiveCluster::new(spec.clone());
    for a in ALGORITHMS {
        for &bytes in sizes(a) {
            let dag = a.dag(n, bytes);
            let fresh = CollectiveCluster::new(spec.clone()).run(&mut bank, &dag).expect("run");
            assert!(fresh.deliveries.iter().all(Option::is_some));
            out.push(digest(&fresh));
            out.push(digest(&persistent.run(&mut bank, &dag).expect("run")));
        }
    }
    out
}

fn healing_barrier(nodes: usize, victim: usize, seed: u64) -> RunResult {
    let forever = SimDuration::from_micros(10_000_000);
    let at = SimTime::from_micros(1);
    let schedule = ClusterFaultSchedule::new(seed)
        .with(ClusterFaultSpec::node_down(victim, at, forever))
        .with(ClusterFaultSpec::port(
            victim - 1,
            RailId(0),
            at,
            FaultKind::RailDown { duration: forever },
        ));
    let spec = ClusterSpec::homogeneous(nodes, 4, builtin::paper_testbed());
    let mut cc = CollectiveCluster::with_faults(spec.clone(), &schedule).expect("cluster");
    let mut bank = ProfileBank::new(spec);
    cc.run(&mut bank, &Algorithm::BarrierTree.dag(nodes, 8)).expect("barrier heals")
}

const HOMOGENEOUS_16: [u64; 20] = [
    0x443b_9579_ca11_34a0,
    0x443b_9579_ca11_34a0,
    0xdd48_cc98_defa_0792,
    0x7095_386c_49bb_4aea,
    0x4e8d_fc87_3bad_083a,
    0x417a_2179_b4f9_24f3,
    0x7be0_985e_c70d_edfc,
    0x45b2_99a3_4464_e082,
    0xd1df_a306_684d_d9b0,
    0x39c1_d64c_5801_1ba7,
    0x5681_4cf6_26e0_0d8d,
    0x3737_089d_2cca_6c1f,
    0x6db9_263d_3bfb_0fc5,
    0x156f_2f03_fd29_7865,
    0x6d4c_7ff6_cd2f_50a0,
    0xb99f_34c5_e73c_fef7,
    0x33ea_5f91_c70e_e58c,
    0xb3e4_6a4c_80e7_a86b,
    0xb1f5_b367_d9d8_d90c,
    0x8998_2dd5_c9ff_70eb,
];

const HETEROGENEOUS_8: [u64; 20] = [
    0x37ae_0071_acd5_1eb0,
    0x37ae_0071_acd5_1eb0,
    0x48e3_5de1_856a_9ce6,
    0x9801_f904_e1fa_55b5,
    0xeb6c_c4d5_5884_b91a,
    0xe0f9_2f49_fd68_4c7b,
    0x1a2a_7a2c_ea1d_9578,
    0x7ea3_08b5_f659_569a,
    0x3967_7566_7d51_bc4b,
    0x93e4_eb55_6522_2be2,
    0x06ba_380c_af67_0966,
    0x0661_f328_ea33_9a14,
    0x643c_0cb6_4a6a_c19d,
    0x33f0_f6bc_a0b2_823b,
    0x6cf1_e63e_9455_47f3,
    0xb031_2b54_6ead_6cd7,
    0x912c_58c9_a32b_45d3,
    0x188f_2c67_e77c_3a3d,
    0x49ec_7c66_686f_b058,
    0x93f7_a5da_8019_7f2f,
];

/// `(digest, hops executed, repairs)` of the healing barriers.
const HEALING: [(u64, usize, u64); 2] =
    [(0xeebb_055a_2d22_c8a4, 26, 1), (0x2553_1384_62c0_218e, 58, 1)];

#[test]
fn sixteen_homogeneous_nodes_deliver_every_hop_at_the_pinned_instant() {
    let got = sweep(&ClusterSpec::homogeneous(16, 4, builtin::paper_testbed()));
    assert_eq!(got, HOMOGENEOUS_16, "actual: {got:#018x?}");
}

#[test]
fn eight_heterogeneous_nodes_deliver_every_hop_at_the_pinned_instant() {
    let got = sweep(&ClusterSpec::heterogeneous(8, builtin::paper_testbed()));
    assert_eq!(got, HETEROGENEOUS_8, "actual: {got:#018x?}");
}

#[test]
fn seeded_healing_barriers_repair_on_the_pinned_schedule() {
    let got = [healing_barrier(8, 5, 42), healing_barrier(16, 6, 7)]
        .map(|r| (digest(&r), r.hops.len(), r.stats.repairs));
    assert!(got.iter().all(|&(_, _, repairs)| repairs >= 1), "the fault must bite: {got:?}");
    assert_eq!(got, HEALING, "actual: {got:#x?}");
}
