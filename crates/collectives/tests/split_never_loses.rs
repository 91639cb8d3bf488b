//! The split never loses, shape by shape: the traffic shapes a pair engine
//! meets inside a collective, each with its delivery instants pinned and
//! the liveness of every deferred decision checked in virtual time.
//!
//! Fan-out: the 64 KiB tree broadcast on four `paper_testbed` nodes, every
//! pair engine `MulticoreEager`. The root sources two hops at once. The
//! first takes both NICs; the second defers until they go idle and then
//! splits too, so it lands at 92.4 µs instead of behind a single-rail send
//! at 121.7 µs (the split decided at post time), and the broadcast ends at
//! its predicted 96.8 µs. Each deferral names the instant the NICs free
//! up, and the head it held back must be on the wire no later than that.
//!
//! Exchange: the 16 KiB pairwise all-to-all on eight nodes. In each round
//! every node sends one hop and receives one, so an offloaded chunk
//! arrives while its destination copies its own send out. The destination
//! takes the receive copy on a core that is free, and every round-k hop
//! lands at k × 19.253 µs, one quiet hop per round. When the copy went to
//! the core index the sender offloaded from, round 3's hops 1→4 and 2→5
//! queued behind their destination's own send and landed at 65.116 µs
//! instead of 57.759.

use nm_collectives::{Algorithm, CollectiveCluster, HopDag, ProfileBank};
use nm_core::driver::cluster::{PairDriver, SimCluster};
use nm_core::engine::{Engine, MsgId};
use nm_core::strategy::StrategyKind;
use nm_core::transport::Transport;
use nm_model::builtin;
use nm_model::units::KIB;
use nm_model::SimTime;
use nm_sim::{ClusterSpec, NodeId, RailId};

/// One hop's engine, with its deferral audit.
struct Pair {
    engine: Engine<PairDriver>,
    hop: usize,
    msg: MsgId,
    /// `(defers, chunks submitted)` after the previous look.
    seen: (u64, u64),
    /// Earliest NIC-idle instant a deferral still outstanding waits for.
    deferred_until: Option<SimTime>,
    defers: u64,
}

impl Pair {
    /// Folds what the engine did since the last look into the audit.
    fn audit(&mut self) {
        let t = self.engine.transport();
        let now = t.now();
        let stats = self.engine.stats();
        let (defers, submitted) = (stats.defers, stats.chunks_submitted);
        if submitted > self.seen.1 {
            if let Some(until) = self.deferred_until.take() {
                assert!(
                    now <= until,
                    "hop {}: deferred until {until:?}, submitted {now:?}",
                    self.hop
                );
            }
        }
        if defers > self.seen.0 {
            let until = (0..t.rail_count()).map(|r| t.rail_busy_until(RailId(r))).max();
            let until = until.expect("a pair has a rail");
            assert!(until > now, "hop {}: deferred with every NIC idle at {now:?}", self.hop);
            self.deferred_until = Some(self.deferred_until.map_or(until, |d| d.min(until)));
            self.defers += defers - self.seen.0;
        }
        self.seen = (defers, submitted);
    }
}

/// What a fan-out run leaves: each hop's delivery instant, and the
/// deferrals each hop's engine made.
struct FanOut {
    delivered: Vec<SimTime>,
    defers: Vec<u64>,
}

/// Runs `dag` on a cluster over `spec`, one `strategy` pair engine per hop,
/// posting a hop once its dependencies are delivered and polling engines in
/// the order the cluster lists them.
fn fan_out(strategy: StrategyKind, spec: &ClusterSpec, dag: &HopDag) -> FanOut {
    let cluster = SimCluster::new(spec.clone());
    let mut bank = ProfileBank::new(spec.clone());
    let mut delivered: Vec<Option<SimTime>> = vec![None; dag.hops.len()];
    let mut pairs: Vec<Pair> = Vec::new();
    let mut ready = Vec::new();
    while delivered.iter().any(Option::is_none) {
        for (i, hop) in dag.hops.iter().enumerate() {
            let posted = pairs.iter().any(|p| p.hop == i);
            if posted || !hop.deps.iter().all(|&d| delivered[d].is_some()) {
                continue;
            }
            let driver = cluster.pair_driver(NodeId(hop.src), NodeId(hop.dst));
            let predictor = bank.predictor_for_pair(hop.src, hop.dst);
            let mut engine = Engine::new(driver, predictor, strategy.build()).expect("engine");
            let msg = engine.post_send(hop.bytes).expect("post");
            let mut pair =
                Pair { engine, hop: i, msg, seen: (0, 0), deferred_until: None, defers: 0 };
            pair.audit();
            pairs.push(pair);
        }
        assert!(cluster.pump_one(), "the calendar ran dry with hops outstanding");
        cluster.take_ready_into(&mut ready);
        for &(src, dst) in &ready {
            for pair in pairs.iter_mut().filter(|p| {
                let hop = &dag.hops[p.hop];
                (hop.src, hop.dst) == (src, dst)
            }) {
                let done = pair.engine.poll().expect("poll");
                pair.audit();
                if done.contains(&pair.msg) {
                    delivered[pair.hop] = Some(cluster.now());
                }
            }
        }
    }
    for pair in &pairs {
        assert_eq!(pair.deferred_until, None, "hop {} never left after deferring", pair.hop);
    }
    pairs.sort_by_key(|p| p.hop);
    FanOut {
        delivered: delivered.into_iter().map(|d| d.expect("delivered")).collect(),
        defers: pairs.iter().map(|p| p.defers).collect(),
    }
}

fn us(t: SimTime) -> f64 {
    (t.as_micros_f64() * 10.0).round() / 10.0
}

#[test]
fn fan_out_of_two_multicore_eager_64k_tree_broadcast_on_4_nodes() {
    let spec = ClusterSpec::homogeneous(4, 4, builtin::paper_testbed());
    let dag = Algorithm::BcastTree.dag(4, 64 * KIB);
    let run = fan_out(StrategyKind::MulticoreEager, &spec, &dag);
    let hop = |src, dst| dag.hops.iter().position(|h| (h.src, h.dst) == (src, dst)).expect("hop");
    let (to_1, to_2, to_3) = (hop(0, 1), hop(0, 2), hop(1, 3));
    assert_eq!(us(run.delivered[to_1]), 48.4, "the root's first hop splits on idle NICs");
    assert_eq!(us(run.delivered[to_2]), 92.4, "the root's second hop splits once they go idle");
    assert_eq!(us(run.delivered[to_3]), 96.8);
    assert!(run.defers[to_2] >= 1, "the second hop waited for the NICs: {:?}", run.defers);
    assert_eq!((run.defers[to_1], run.defers[to_3]), (0, 0), "quiet hops never defer");
    // The collectives runner, whose pair engines are the same strategy,
    // delivers every hop at the same instant.
    let mut bank = ProfileBank::new(spec.clone());
    let runner = CollectiveCluster::new(spec).run(&mut bank, &dag).expect("run");
    assert_eq!(runner.deliveries, run.delivered.into_iter().map(Some).collect::<Vec<_>>());
}

#[test]
fn a_head_deferred_behind_a_sibling_engine_is_waited_for() {
    // The root's two hops of the fan-out above, each waited for on its
    // own: the second engine has nothing in flight while it defers, and
    // the NIC-idle event it waits for comes from the first engine's chunks.
    let spec = ClusterSpec::homogeneous(4, 4, builtin::paper_testbed());
    let cluster = SimCluster::new(spec.clone());
    let mut bank = ProfileBank::new(spec);
    let mut engine = |dst: usize| {
        let driver = cluster.pair_driver(NodeId(0), NodeId(dst));
        let predictor = bank.predictor_for_pair(0, dst);
        Engine::new(driver, predictor, StrategyKind::MulticoreEager.build()).expect("engine")
    };
    let (mut first, mut second) = (engine(1), engine(2));
    let _ = first.post_send(64 * KIB).expect("post");
    let id = second.post_send(64 * KIB).expect("post");
    assert_eq!(second.stats().defers, 1, "both NICs are busy with the first hop");
    let done = second.wait(id).expect("the deferred head leaves when the NICs go idle");
    assert_eq!(us(done.delivered_at), 92.4);
}

#[test]
fn exchange_of_multicore_eager_16k_pairwise_alltoall_on_8_nodes() {
    let spec = ClusterSpec::homogeneous(8, 4, builtin::paper_testbed());
    let dag = Algorithm::AlltoallPairwise.dag(8, 16 * KIB);
    let run = fan_out(StrategyKind::MulticoreEager, &spec, &dag);
    // Hops are listed round by round, eight to a round.
    for (i, at) in run.delivered.iter().enumerate() {
        let (round, hop) = (i as u64 / 8 + 1, &dag.hops[i]);
        assert_eq!(
            at.as_nanos(),
            round * 19_253,
            "round {round} hop {}->{} lands off its prediction",
            hop.src,
            hop.dst
        );
    }
    assert!(run.defers.iter().all(|&d| d == 0), "every round starts on idle NICs");
    let mut bank = ProfileBank::new(spec.clone());
    let runner = CollectiveCluster::new(spec).run(&mut bank, &dag).expect("run");
    assert_eq!(runner.deliveries, run.delivered.into_iter().map(Some).collect::<Vec<_>>());
}
