//! The two workloads on the 16-node cluster: `collectives_round` and
//! `collectives_node_death`.

use crate::harness::{bump, Counters, Load, Sink};
use crate::traced::Wrap;
use nm_collectives::{
    Algorithm, Collective, CollectiveCluster, Collectives, CompletedOp, HopDag, ProfileBank,
    RunResult, ALGORITHMS, BARRIER_BYTES,
};
use nm_faults::{ClusterFaultSchedule, ClusterFaultSpec, FaultKind};
use nm_model::builtin;
use nm_model::units::KIB;
use nm_model::{SimDuration, SimTime};
use nm_sim::{ClusterSpec, RailId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::marker::PhantomData;

/// Participants of both collectives workloads.
pub const NODES: usize = 16;

/// The cluster: 16 four-core nodes on the paper's two rails.
pub fn cluster_spec() -> ClusterSpec {
    ClusterSpec::homogeneous(NODES, 4, builtin::paper_testbed())
}

/// One round: a barrier, a latency-bound broadcast and a small all-to-all.
pub const ROUND: [(Collective, u64); 3] = [
    (Collective::Barrier, BARRIER_BYTES),
    (Collective::Broadcast, 64 * KIB),
    (Collective::AllToAll, 16 * KIB),
];

/// Rounds after which the stack is retired (the shared simulator keeps a
/// ledger entry per hop for its whole life).
const ROUND_EPISODE: u64 = 256;

/// Closed loop of rounds on one persistent `Collectives`, selection on.
pub struct CollectivesRound<W: Wrap> {
    stack: Collectives,
    rng: StdRng,
    /// Hops and payload bytes of each algorithm's DAG at this node count,
    /// indexed by `Algorithm::ordinal`.
    shape: [(u64, u64); 6],
    rounds: u64,
    /// Collectives that ran on the live stack, warm-up included.
    runs_on_stack: usize,
    counts: Counters,
    errors: Vec<String>,
    _w: PhantomData<W>,
}

impl<W: Wrap> CollectivesRound<W> {
    pub const OPS_PER_BLOCK: usize = 1;

    /// The selector recorded every collective that ran, exactly once.
    // nm-analyzer: allow(unbounded-growth) -- failed output checks, a few per op at most,
    // drained into the pass's list at every rearm; any entry fails the run
    fn check(&mut self) {
        let recorded = self.stack.selector().records().len();
        if recorded != self.runs_on_stack {
            self.errors.push(format!(
                "{} collectives ran but the selector recorded {recorded}",
                self.runs_on_stack
            ));
        }
    }

    /// `Collectives::run`, and in a traced pass the same steps through its
    /// public pieces with a span around each.
    fn run(&mut self, collective: Collective, bytes: u64) -> Result<CompletedOp, String> {
        if !W::TRACED {
            return self.stack.run(collective, bytes);
        }
        let nodes = self.stack.nodes();
        let mut candidates = Vec::with_capacity(2);
        for a in collective.algorithms() {
            {
                let _s = W::span("collectives.dag");
                std::hint::black_box(a.dag(nodes, bytes));
            }
            let _s = W::span("collectives.predict");
            candidates.push((a, self.stack.predict_us(a, bytes)));
        }
        let chosen = {
            let _s = W::span("collectives.select");
            self.stack.selector().choose(&candidates).ok_or("no algorithm candidates")?.0
        };
        let _s = W::span("collectives.run");
        self.stack.run_algorithm(chosen, bytes)
    }

    // nm-analyzer: allow(unbounded-growth) -- failed output checks, a few per op at most,
    // drained into the pass's list at every rearm; any entry fails the run
    fn round(&mut self, sink: &mut Sink) {
        let mut order = ROUND;
        for i in (1..order.len()).rev() {
            order.swap(i, self.rng.random_range(0..=i));
        }
        let _op = W::span("loadgen.op");
        let t0 = self.stack.runner().now();
        let (mut hops, mut bytes, mut err) = (0, 0, 0.0);
        for (collective, size) in order {
            match self.run(collective, size) {
                Ok(op) => {
                    let (h, b) = self.shape[op.algorithm.ordinal()];
                    hops += h;
                    bytes += b;
                    let e = (op.measured_us - op.predicted_us).abs() / op.predicted_us;
                    err += e;
                    let keys = &COLLECTIVE_KEYS[round_index(collective)];
                    bump(&mut self.counts, keys.sim_us, op.measured_us);
                    bump(&mut self.counts, keys.err, e);
                    bump(&mut self.counts, keys.runs, 1.0);
                    bump(&mut self.counts, "repairs", op.stats.repairs as f64);
                    self.runs_on_stack += 1;
                }
                Err(e) => {
                    sink.broken(1);
                    self.errors.push(format!("{}: {e}", collective.name()));
                    return;
                }
            }
        }
        let elapsed = (self.stack.runner().now() - t0).as_micros_f64();
        sink.completed(elapsed, bytes);
        sink.predict_err(err, ROUND.len() as u64);
        sink.msgs(hops);
        sink.virtual_elapsed(elapsed);
        bump(&mut self.counts, "hops", hops as f64);
        bump(&mut self.counts, "ops", 1.0);
        self.rounds += 1;
    }

    fn warm_up(&mut self) {
        // Enough rounds for the selector's corrections to settle on the
        // variants it keeps picking.
        let mut scratch = Sink::scratch();
        for _ in 0..4 {
            self.round(&mut scratch);
        }
    }
}

/// Per collective, in [`ROUND`] order: the counters of its runs, Σ virtual µs
/// and Σ prediction error, and the metrics their means are reported under.
pub struct CollectiveKeys {
    pub runs: &'static str,
    pub sim_us: &'static str,
    pub err: &'static str,
    pub sim_metric: &'static str,
    pub err_metric: &'static str,
}

pub const COLLECTIVE_KEYS: [CollectiveKeys; 3] = [
    CollectiveKeys {
        runs: "n.barrier",
        sim_us: "sim_us.barrier",
        err: "err.barrier",
        sim_metric: "collectives.sim_us.barrier",
        err_metric: "collectives.predict_err.barrier",
    },
    CollectiveKeys {
        runs: "n.broadcast",
        sim_us: "sim_us.broadcast",
        err: "err.broadcast",
        sim_metric: "collectives.sim_us.broadcast",
        err_metric: "collectives.predict_err.broadcast",
    },
    CollectiveKeys {
        runs: "n.alltoall",
        sim_us: "sim_us.alltoall",
        err: "err.alltoall",
        sim_metric: "collectives.sim_us.alltoall",
        err_metric: "collectives.predict_err.alltoall",
    },
];

fn round_index(collective: Collective) -> usize {
    ROUND.iter().position(|(c, _)| *c == collective).expect("every collective is in ROUND")
}

impl<W: Wrap> Load for CollectivesRound<W> {
    fn setup(seed: u64) -> Self {
        let size_of = |a: Algorithm| {
            ROUND.iter().find(|(c, _)| *c == a.collective()).map_or(BARRIER_BYTES, |r| r.1)
        };
        let shape = ALGORITHMS.map(|a| {
            let dag = a.dag(NODES, size_of(a));
            (dag.hops.len() as u64, dag.total_bytes())
        });
        let mut load = CollectivesRound {
            stack: Collectives::new(cluster_spec()),
            rng: StdRng::seed_from_u64(seed),
            shape,
            rounds: 0,
            runs_on_stack: 0,
            counts: Counters::new(),
            errors: Vec::new(),
            _w: PhantomData,
        };
        load.warm_up();
        load
    }

    fn block(&mut self, sink: &mut Sink) -> bool {
        self.round(sink);
        self.rounds < ROUND_EPISODE
    }

    fn rearm(&mut self, errors: &mut Vec<String>) {
        self.check();
        errors.append(&mut self.errors);
        self.stack = Collectives::new(cluster_spec());
        self.rounds = 0;
        self.runs_on_stack = 0;
        self.warm_up();
    }

    fn counters(&self) -> Counters {
        self.counts.clone()
    }

    fn finish(mut self, errors: &mut Vec<String>) {
        self.check();
        errors.append(&mut self.errors);
    }
}

// ------------------------------------------------------ collectives_node_death

/// A tree barrier on a fresh faulted cluster per op: one seeded interior
/// node dies, and a neighbour loses its rail-0 port, at a seeded instant
/// inside the fault-free makespan.
pub struct NodeDeath<W: Wrap> {
    bank: ProfileBank,
    dag: HopDag,
    /// Fault-free makespan of the DAG, ns.
    clean_ns: u64,
    /// Nodes other than the root that forward on behalf of others.
    interior: Vec<usize>,
    rng: StdRng,
    /// The armed cluster with its victim and fault instant.
    armed: Option<(CollectiveCluster, usize, SimTime)>,
    counts: Counters,
    errors: Vec<String>,
    _w: PhantomData<W>,
}

impl<W: Wrap> NodeDeath<W> {
    pub const OPS_PER_BLOCK: usize = 1;

    fn arm(&mut self) {
        let victim = self.interior[self.rng.random_range(0..self.interior.len())];
        let neighbour = if victim > 1 { victim - 1 } else { victim + 1 };
        // Early enough that the barrier is still running when it strikes.
        let at = SimTime::from_nanos(self.rng.random_range(1_000..self.clean_ns * 9 / 10));
        let forever = SimDuration::from_micros(10_000_000);
        let schedule = ClusterFaultSchedule::new(self.rng.random())
            .with(ClusterFaultSpec::node_down(victim, at, forever))
            .with(ClusterFaultSpec::port(
                neighbour,
                RailId(0),
                at,
                FaultKind::RailDown { duration: forever },
            ));
        let cluster =
            CollectiveCluster::with_faults(cluster_spec(), &schedule).expect("faulted cluster");
        self.armed = Some((cluster, victim, at));
    }

    /// `dead_nodes == 1`, and every survivor but the root (node 0, which
    /// releases itself) got exactly one delivered release.
    // nm-analyzer: allow(unbounded-growth) -- failed output checks, a few per op at most,
    // drained into the pass's list at every rearm; any entry fails the run
    fn check(&mut self, run: &RunResult, victim: usize) {
        if run.stats.dead_nodes != 1 {
            self.errors.push(format!("{} nodes dead, expected 1", run.stats.dead_nodes));
        }
        let compiled = self.dag.hops.len();
        let mut releases = [0u32; NODES];
        for (i, (hop, at)) in run.hops.iter().zip(&run.deliveries).enumerate() {
            // Compiled release hops are the second half of the tree DAG; a
            // repair release is the only kind of repair hop with dependencies.
            let release = if i < compiled { i >= compiled / 2 } else { !hop.deps.is_empty() };
            if release && at.is_some() {
                releases[hop.dst] += 1;
            }
        }
        for (node, &n) in releases.iter().enumerate().skip(1) {
            if node != victim && n != 1 {
                self.errors.push(format!("node {node} got {n} releases (victim {victim})"));
            }
        }
    }
}

impl<W: Wrap> Load for NodeDeath<W> {
    fn setup(seed: u64) -> Self {
        let spec = cluster_spec();
        let mut bank = ProfileBank::new(spec.clone());
        let dag = Algorithm::BarrierTree.dag(NODES, BARRIER_BYTES);
        // The fault-free run samples the bank and fixes the window the fault
        // instant is drawn from.
        let clean = CollectiveCluster::new(spec).run(&mut bank, &dag).expect("fault-free barrier");
        let interior = (1..NODES)
            .filter(|&n| dag.hops.iter().any(|h| h.src == n && !h.deps.is_empty()))
            .collect();
        let mut load = NodeDeath {
            bank,
            clean_ns: clean.finished_at.saturating_since(clean.started_at).as_nanos(),
            dag,
            interior,
            rng: StdRng::seed_from_u64(seed),
            armed: None,
            counts: Counters::new(),
            errors: Vec::new(),
            _w: PhantomData,
        };
        load.arm();
        load
    }

    // nm-analyzer: allow(unbounded-growth) -- failed output checks, a few per op at most,
    // drained into the pass's list at every rearm; any entry fails the run
    fn block(&mut self, sink: &mut Sink) -> bool {
        let (mut cluster, victim, at) = self.armed.take().expect("armed before every block");
        let _op = W::span("loadgen.op");
        let run = {
            let _s = W::span("collectives.run");
            cluster.run(&mut self.bank, &self.dag)
        };
        match run {
            Ok(run) => {
                self.check(&run, victim);
                let delivered: u64 = run
                    .hops
                    .iter()
                    .zip(&run.deliveries)
                    .filter(|(_, at)| at.is_some())
                    .map(|(h, _)| h.bytes)
                    .sum();
                sink.completed(run.duration_us, delivered);
                sink.msgs(run.hops.len() as u64);
                sink.virtual_elapsed(run.duration_us);
                let s = run.stats;
                let c = &mut self.counts;
                bump(c, "hops", run.hops.len() as f64);
                bump(c, "ops", 1.0);
                bump(c, COLLECTIVE_KEYS[0].sim_us, run.duration_us);
                bump(c, COLLECTIVE_KEYS[0].runs, 1.0);
                bump(c, "repairs", s.repairs as f64);
                bump(c, "hops_retried", s.hops_retried as f64);
                bump(c, "hops_rerouted", s.hops_rerouted as f64);
                bump(c, "repair_latency_us", s.repair_latency_us);
                if s.repairs > 0 {
                    // From the fault to the first watchdog teardown: the wait
                    // for a deadline, as a share of the op (summed here).
                    let fault_us = at.as_micros_f64();
                    let wait = run.duration_us - s.repair_latency_us - fault_us;
                    bump(c, "timeout_wait_us", wait.max(0.0));
                }
                let peak = c.entry("retry_queue_peak").or_insert(0.0);
                *peak = peak.max(s.retry_queue_peak as f64);
            }
            Err(e) => {
                sink.broken(1);
                self.errors.push(format!("barrier did not heal around node {victim}: {e}"));
            }
        }
        false
    }

    fn rearm(&mut self, errors: &mut Vec<String>) {
        errors.append(&mut self.errors);
        self.arm();
    }

    fn counters(&self) -> Counters {
        self.counts.clone()
    }

    fn finish(mut self, errors: &mut Vec<String>) {
        errors.append(&mut self.errors);
    }
}
