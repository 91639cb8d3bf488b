//! Cluster-resilience harness: self-healing collectives under a seeded
//! node death.
//!
//! For each primitive (binomial-tree barrier, binomial-tree broadcast,
//! pairwise all-to-all) and node count in {8, 16, 32}, run the hop DAG
//! twice over the N-node cluster: once fault-free and once with a seeded
//! mid-operation fault — one node loses every NIC port ("node death") and
//! a neighbour loses its rail-0 port. The faulted run must still complete
//! on the survivors via hop teardown + DAG repair; the harness reports
//! what that recovery cost:
//!
//! * **completion inflation** — faulted vs fault-free makespan,
//! * **repair latency** — first teardown to last repair-hop delivery,
//! * **hops retried / re-routed** — same-pair reposts vs repair grafts,
//! * **teardowns on evidence / on deadline** — hops torn out because
//!   their engine reported a chunk failure toward the dead node, vs
//!   because their watchdog deadline passed,
//! * **retry-queue peak** — high-water mark of the flow-held completion
//!   queue (bounded; the satellite stat).
//!
//! Every series must recover with no same-pair retry (a retried hop was
//! torn out between two live endpoints: a false positive), and the barrier
//! within 10× its fault-free makespan. The harness asserts both, so
//! regenerating the committed JSON fails when recovery falls back to the
//! deadline.
//!
//! Deterministic: virtual time only, seeded faults, no wall clock.
//! Results go to stdout and `BENCH_cluster_resilience.json`.

use crate::doc::{float, json};
use crate::{Args, Output};
use nm_collectives::{Algorithm, Collective, CollectiveCluster, ProfileBank, RunResult};
use nm_faults::{ClusterFaultSchedule, ClusterFaultSpec, FaultKind};
use nm_model::builtin;
use nm_model::units::KIB;
use nm_model::{SimDuration, SimTime};
use nm_sim::{ClusterSpec, RailId};

/// Node counts swept (8 is the issue's acceptance point).
const NODE_COUNTS: [usize; 3] = [8, 16, 32];

/// The primitives and block sizes swept.
const CASES: [(Algorithm, u64); 3] = [
    (Algorithm::BarrierTree, 1),
    (Algorithm::BcastTree, 256 * KIB),
    (Algorithm::AlltoallPairwise, 16 * KIB),
];

/// The victim node and its port-killed neighbour. Node 2 is an *interior*
/// node of both recursive-doubling trees at every swept count (it receives
/// in round two and forwards in every later round), so its death always
/// strands work between survivors and forces actual re-routing — a
/// last-round leaf's death would merely be excused.
fn victims(_n: usize) -> (usize, usize) {
    (2, 1)
}

/// Node death + neighbour port kill, both at t = 1 µs — mid-flight for
/// the schedule's first wave — and lasting past any recovery.
fn outage(seed: u64, n: usize) -> ClusterFaultSchedule {
    let (dead, neighbour) = victims(n);
    let forever = SimDuration::from_micros(10_000_000);
    ClusterFaultSchedule::new(seed)
        .with(ClusterFaultSpec::node_down(dead, SimTime::from_micros(1), forever))
        .with(ClusterFaultSpec::port(
            neighbour,
            RailId(0),
            SimTime::from_micros(1),
            FaultKind::RailDown { duration: forever },
        ))
}

fn run_case(
    n: usize,
    algorithm: Algorithm,
    bytes: u64,
    schedule: Option<&ClusterFaultSchedule>,
) -> RunResult {
    let spec = ClusterSpec::homogeneous(n, 4, builtin::paper_testbed());
    let mut cc = match schedule {
        Some(s) => CollectiveCluster::with_faults(spec.clone(), s).expect("faulted cluster"),
        None => CollectiveCluster::new(spec.clone()),
    };
    let mut bank = ProfileBank::new(spec);
    let dag = algorithm.dag(n, bytes);
    cc.run(&mut bank, &dag).expect("collective completes")
}

pub fn run(&Args { seed, .. }: &Args) -> Output {
    let mut out = String::new();
    outln!(out, "# cluster_resilience: seeded node death + neighbour port kill (seed {seed})");
    let mut series = Vec::new();
    for (algorithm, bytes) in CASES {
        for n in NODE_COUNTS {
            let clean = run_case(n, algorithm, bytes, None);
            assert_eq!(clean.stats.repairs, 0, "fault-free {algorithm:?} n={n} must not repair");
            let schedule = outage(seed, n);
            let faulted = run_case(n, algorithm, bytes, Some(&schedule));
            let s = faulted.stats;
            assert_eq!(s.dead_nodes, 1, "{algorithm:?} n={n}: exactly one node dies");
            assert!(
                s.hops_rerouted >= 1,
                "{algorithm:?} n={n}: a node death must force re-routing"
            );
            assert_eq!(s.hops_retried, 0, "{algorithm:?} n={n}: a live pair was retried");
            if algorithm.collective() == Collective::Barrier {
                assert!(
                    faulted.duration_us < 10.0 * clean.duration_us,
                    "{algorithm:?} n={n}: {} us faulted vs {} us fault-free",
                    faulted.duration_us,
                    clean.duration_us
                );
            }
            let inflation_pct =
                100.0 * (faulted.duration_us - clean.duration_us) / clean.duration_us;
            outln!(
                out,
                "{:9} n={n:2} bytes={bytes:7}: clean {:10.1} us, faulted {:12.1} us \
                 (+{inflation_pct:8.1} %), repairs {}, retried {}, rerouted {:3}, \
                 torn out on evidence {:3} / deadline {}, \
                 repair latency {:10.1} us, queue peak {}",
                algorithm.name(),
                clean.duration_us,
                faulted.duration_us,
                s.repairs,
                s.hops_retried,
                s.hops_rerouted,
                s.teardowns_on_evidence,
                s.teardowns_on_deadline,
                s.repair_latency_us,
                s.retry_queue_peak.max(clean.stats.retry_queue_peak),
            );
            series.push(json! {
                "collective": algorithm.collective().name(), "algorithm": algorithm.name(),
                "bytes": bytes, "nodes": n, "fault_free_us": float(clean.duration_us, 1),
                "faulted_us": float(faulted.duration_us, 1),
                "inflation_pct": float(inflation_pct, 2), "repairs": s.repairs,
                "hops_retried": s.hops_retried, "hops_rerouted": s.hops_rerouted,
                "teardowns_on_evidence": s.teardowns_on_evidence,
                "teardowns_on_deadline": s.teardowns_on_deadline,
                "repair_latency_us": float(s.repair_latency_us, 1),
                "retry_queue_peak": s.retry_queue_peak, "dead_nodes": s.dead_nodes,
            });
        }
    }

    let doc = json! {
        "bench": "cluster_resilience", "seed": seed, "provenance": "modeled",
        "node_counts": NODE_COUNTS.to_vec(), "series": series,
    };
    Output { text: out, bench: Some(("BENCH_cluster_resilience.json", doc)) }
}
