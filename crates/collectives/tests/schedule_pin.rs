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
    0x3866_1ec4_ba4c_bca1,
    0x1f10_3028_f702_dfb4,
    0x7be0_985e_c70d_edfc,
    0x778e_ebe2_df03_b5d9,
    0xfa66_2ca2_3684_07f8,
    0x5080_1bbc_c707_1c1b,
    0x5681_4cf6_26e0_0d8d,
    0xd38f_5501_734b_4955,
    0x7519_99ab_b113_73c0,
    0x4406_3ac4_4768_b7a5,
    0x6d4c_7ff6_cd2f_50a0,
    0x038f_09f6_5076_3271,
    0xd1c7_fad2_635c_b0c6,
    0x8428_6ab9_b785_504d,
    0xb1f5_b367_d9d8_d90c,
    0xd873_08e9_58e8_3da4,
];

const HETEROGENEOUS_8: [u64; 20] = [
    0x37ae_0071_acd5_1eb0,
    0x37ae_0071_acd5_1eb0,
    0x48e3_5de1_856a_9ce6,
    0x9801_f904_e1fa_55b5,
    0x3c31_4aa9_e162_854e,
    0x890e_af9b_317a_4af0,
    0x1a2a_7a2c_ea1d_9578,
    0x6803_8632_9d46_f8c0,
    0x6b75_fbd2_e6db_aaa3,
    0x2b86_8900_87aa_6b8a,
    0x06ba_380c_af67_0966,
    0xe7e4_ac53_1f50_c35e,
    0x90bc_dc92_fe0f_a86d,
    0xe152_9e94_5052_a5c5,
    0x6cf1_e63e_9455_47f3,
    0xc113_107d_8396_1863,
    0xe21f_c8bf_8294_b02e,
    0xd5b3_cac5_698a_effd,
    0x49ec_7c66_686f_b058,
    0xa276_6d35_42f3_c2c9,
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
