//! Cluster-scale fault injection and self-healing collectives.
//!
//! Three contracts of the N-node fault path (DESIGN.md §15):
//!
//! 1. **Inertness** — a faulted stack with an *empty* schedule is
//!    bit-identical to a clean stack: same algorithm choice, same virtual
//!    completion times, zero failure stats. Fault capability must cost
//!    nothing until a fault is actually scheduled.
//! 2. **Engine-level healing** — a single NIC-port kill mid-barrier is
//!    absorbed below the runner: the per-pair engines fail over to the
//!    surviving rail and the collective completes deterministically with
//!    no DAG repair at all.
//! 3. **DAG repair** — a node death mid-barrier (plus a rail kill on a
//!    neighbour) exceeds what rail failover can fix. The runner tears the
//!    stranded hops out on the first chunk failure toward the dead node,
//!    repair replans over the survivors, and every survivor is released
//!    exactly once. Dead nodes are excused; repair hops never touch them.

use nm_collectives::{
    Algorithm, Collective, CollectiveCluster, Collectives, ProfileBank, RunResult, ALGORITHMS,
};
use nm_faults::{ClusterFaultSchedule, ClusterFaultSpec, FaultKind};
use nm_model::builtin;
use nm_model::units::{KIB, MIB};
use nm_model::{SimDuration, SimTime};
use nm_sim::{ClusterSpec, RailId};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn testbed(n: usize) -> ClusterSpec {
    ClusterSpec::homogeneous(n, 4, builtin::paper_testbed())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Contract 1: an empty N-node fault schedule is inert. The faulted
    /// constructor threads a fault-capable transport through every pair,
    /// but with nothing scheduled the whole stack — sampling, selection,
    /// execution, stats — must be indistinguishable from the clean one.
    #[test]
    fn an_empty_fault_schedule_is_inert_for_collectives(
        n in 2usize..=6,
        algo_idx in 0usize..ALGORITHMS.len(),
        size_idx in 0usize..3,
    ) {
        let algorithm = ALGORITHMS[algo_idx];
        let bytes = match algorithm.collective() {
            Collective::Barrier => 1,
            Collective::Broadcast => [16 * KIB, 256 * KIB, MIB][size_idx],
            Collective::AllToAll => [4 * KIB, 32 * KIB, 128 * KIB][size_idx],
        };
        let mut clean = Collectives::new(testbed(n));
        let mut faulted =
            Collectives::new_faulted(testbed(n), &ClusterFaultSchedule::empty())
                .expect("empty schedule validates on any topology");
        prop_assert!(!faulted.runner().healing(), "empty schedule keeps the plain path");
        let a = clean.run_algorithm(algorithm, bytes).expect("clean run");
        let b = faulted.run_algorithm(algorithm, bytes).expect("faulted run");
        prop_assert_eq!(a, b, "empty schedule must be bit-identical to no schedule");
    }
}

/// One seeded chaos barrier: the low-latency rail's port on the root goes
/// hard-down at t = 1 µs, mid-flight for the first fan-in wave.
fn chaos_barrier(seed: u64) -> nm_collectives::CompletedOp {
    let schedule = ClusterFaultSchedule::new(seed).with(ClusterFaultSpec::port(
        0,
        RailId(1),
        SimTime::from_micros(1),
        FaultKind::RailDown { duration: SimDuration::from_micros(50_000) },
    ));
    let mut c = Collectives::new_faulted(testbed(8), &schedule).expect("stack");
    c.run_algorithm(Algorithm::BarrierTree, 1).expect("barrier survives a port kill")
}

/// Contract 2: a mid-operation rail kill is healed *below* the runner.
/// 8-byte tokens ride the low-latency rail; killing that port on the root
/// strands the first arrivals, the engines quarantine and fail over, and
/// the barrier completes — deterministically, slower than clean, with the
/// watchdog and DAG repair never engaging.
#[test]
fn seeded_rail_kill_mid_barrier_heals_below_the_dag() {
    let first = chaos_barrier(42);
    let second = chaos_barrier(42);
    assert_eq!(first, second, "same seed, same world: outcomes are bit-identical");

    let clean = Collectives::new(testbed(8))
        .run_algorithm(Algorithm::BarrierTree, 1)
        .expect("clean barrier");
    assert!(
        first.measured_us > clean.measured_us,
        "failover retries must cost virtual time: {} vs clean {}",
        first.measured_us,
        clean.measured_us
    );
    assert_eq!(first.stats.dead_nodes, 0, "one port down is degradation, not death");
    assert_eq!(first.stats.repairs, 0, "rail failover needs no DAG repair");
    assert_eq!(first.stats.hops_rerouted, 0);
    // Chunk failures between live endpoints are no evidence of a death: the
    // runner leaves them to the engines and the schedule does not move.
    assert_eq!(first.stats.teardowns_on_evidence, 0);
    assert_eq!(first.measured_us, 212.126);
}

/// Contract 2 holds for the corruption classes too, which the N-node
/// transport serves since it became the only simulated transport: a port
/// that damages every chunk crossing it (here the low-latency rail the
/// barrier's tokens ride, on node 1 of 3) costs retries and a failover to
/// the other rail, below the runner — the barrier still completes.
#[test]
fn barrier_completes_over_a_port_that_corrupts_every_chunk() {
    let corrupt_all = |rail| {
        ClusterFaultSchedule::new(9).with(ClusterFaultSpec::port(
            1,
            RailId(rail),
            SimTime::ZERO,
            FaultKind::PayloadCorrupt { prob: 1.0, duration: SimDuration::from_micros(50_000) },
        ))
    };
    let run = |schedule: &ClusterFaultSchedule| {
        Collectives::new_faulted(testbed(3), schedule)
            .expect("corruption classes validate on a cluster")
            .run_algorithm(Algorithm::BarrierTree, 1)
            .expect("the engines' retry path absorbs detected corruption")
    };
    let clean = run(&ClusterFaultSchedule::empty());
    let struck = run(&corrupt_all(1));
    assert_eq!(struck, run(&corrupt_all(1)), "same seed, same world");
    assert!(
        struck.measured_us > clean.measured_us,
        "retrying corrupt tokens must cost virtual time: {} vs clean {}",
        struck.measured_us,
        clean.measured_us
    );
    assert_eq!(struck.stats.dead_nodes, 0);
    assert_eq!(struck.stats.repairs, 0, "corruption is healed below the DAG");
    assert_eq!(struck.stats.teardowns_on_evidence, 0, "a corrupt chunk is no sign of death");
    assert_eq!(struck.measured_us, 208.886);
    // The rail the tokens do not ride is corrupted for nothing.
    assert_eq!(run(&corrupt_all(0)).measured_us, clean.measured_us);
}

/// An 8-node binomial-tree barrier whose node `dead` dies at t = 1 µs
/// while neighbour `neighbour` loses its rail-0 port, checked for what
/// every node death must leave behind: repair engaged, no hop retried on a
/// live pair, no hop left to its deadline, every survivor released exactly
/// once and the dead node in no repair hop. Returns the run and the same
/// barrier's fault-free makespan (µs).
fn barrier_around_a_node_death(dead: usize, neighbour: usize) -> (RunResult, f64) {
    let forever = SimDuration::from_micros(10_000_000);
    let schedule = ClusterFaultSchedule::new(42)
        .with(ClusterFaultSpec::node_down(dead, SimTime::from_micros(1), forever))
        .with(ClusterFaultSpec::port(
            neighbour,
            RailId(0),
            SimTime::from_micros(1),
            FaultKind::RailDown { duration: forever },
        ));
    let spec = testbed(8);
    let mut cc = CollectiveCluster::with_faults(spec.clone(), &schedule).expect("cluster");
    let mut bank = ProfileBank::new(spec);
    let dag = Algorithm::BarrierTree.dag(8, 1);
    let res = cc.run(&mut bank, &dag).expect("barrier must complete on the survivors");
    let clean = CollectiveCluster::new(testbed(8)).run(&mut bank, &dag).expect("clean barrier");

    // Repair engaged: replacement hops were grafted and at least one
    // repair round ran, inside the bounded budget.
    assert_eq!(res.stats.dead_nodes, 1, "node {dead} is down at quiescence");
    assert!(res.stats.hops_rerouted >= 1, "stats: {:?}", res.stats);
    assert!(res.stats.repairs >= 1, "stats: {:?}", res.stats);
    assert!(res.stats.repair_latency_us > 0.0, "stats: {:?}", res.stats);
    assert!(res.finished_at > res.started_at);
    assert_eq!(res.deliveries.len(), res.hops.len());

    // Torn out on the evidence of the death, not on a deadline, and no
    // live pair second-guessed.
    assert!(res.stats.teardowns_on_evidence >= 1, "stats: {:?}", res.stats);
    assert_eq!(res.stats.teardowns_on_deadline, 0, "stats: {:?}", res.stats);
    assert_eq!(res.stats.hops_retried, 0, "stats: {:?}", res.stats);

    // Exactly-once release accounting. Both the compiled tree and the
    // repair plan only release "upward" (src < dst), so a delivered hop
    // with src < dst into node s is s's barrier release.
    let survivors: BTreeSet<usize> = (0..8).filter(|&i| i != dead).collect();
    let delivered_releases = |node: usize| {
        res.hops
            .iter()
            .zip(&res.deliveries)
            .filter(|(h, d)| d.is_some() && h.src < h.dst && h.dst == node)
            .count()
    };
    for &s in survivors.iter().filter(|&&s| s != 0) {
        assert_eq!(delivered_releases(s), 1, "survivor {s} must be released exactly once");
    }
    assert_eq!(delivered_releases(dead), 0, "the dead node is excused, not released");

    // Repair hops route around the dead node entirely.
    let grafted = &res.hops[dag.hops.len()..];
    assert!(!grafted.is_empty());
    assert!(
        grafted.iter().all(|h| h.src != dead && h.dst != dead),
        "repair must never schedule through a dead node"
    );
    // And the original hops stranded on the dead node were torn out, not run.
    for (h, d) in res.hops[..dag.hops.len()].iter().zip(&res.deliveries) {
        if h.src == dead {
            assert!(d.is_none(), "{}->{} cannot deliver after the death", h.src, h.dst);
        }
    }
    (res, clean.duration_us)
}

/// Contract 3: node 5 dies while its fan-in arrival is mid-flight. The
/// chunk the death kills reaches its engine as a failure at once, the
/// runner tears the stranded cone out in that drain round, and DAG repair
/// re-roots the barrier over the seven survivors — long before the 2 ms
/// watchdog floor. (109 µs against 9.7 µs fault-free: the repair's release
/// to node 4 is first put on node 4's dead rail-0 port, and the engine's
/// 100 µs retry backoff before it fails over is most of the cost.)
#[test]
fn eight_node_barrier_survives_a_node_death_via_dag_repair() {
    let (res, _) = barrier_around_a_node_death(5, 4);
    assert!(res.duration_us < 200.0, "healed in {} us", res.duration_us);
}

/// Contract 3 at the cost the cluster_resilience harness gates: interior
/// node 2 of the 8-node tree dies (with neighbour 1's rail-0 port) and the
/// barrier, repair included, stays within 10× its fault-free makespan.
#[test]
fn an_interior_node_death_costs_the_barrier_under_ten_times_its_fault_free_makespan() {
    let (res, clean_us) = barrier_around_a_node_death(2, 1);
    assert!(
        res.duration_us < 10.0 * clean_us,
        "healed in {} us, fault-free {clean_us} us",
        res.duration_us
    );
}
