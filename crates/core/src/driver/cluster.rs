//! Shared-simulator cluster: several engines over one simulated machine.
//!
//! The paper's motivation is nodes where *many cores share few NICs*; its
//! testbed, though, is a single point-to-point pair. This driver extends
//! the reproduction to N nodes: one [`Simulator`] is shared by several
//! [`PairDriver`]s (one per directed node pair), so engines contend for
//! real NIC state — an engine sending node0→node1 sees the rail busy-until
//! raised by *another* engine sending node0→node2, and incast (two senders,
//! one receiver) contends on the destination NIC exactly as it would in
//! hardware.
//!
//! Single-threaded by design (`Rc<RefCell>`): the simulator is one clock,
//! and engines interleave by polling. Events are routed to per-driver
//! inboxes; any driver's `poll` may advance the shared clock and feed its
//! peers' inboxes.
//!
//! Three routing rules keep the host cost of an event proportional to the
//! drivers it concerns, not to the drivers that exist:
//!
//! * **Ready list.** The first event routed to an inbox puts its driver on
//!   a ready list. A workload driver stepping the clock itself
//!   ([`SimCluster::pump_one`]) takes the list with
//!   [`SimCluster::take_ready`] instead of asking every driver whether
//!   anything arrived. The list comes back sorted by `(src, dst)`: that is
//!   the order a scan over a pair-keyed `BTreeMap` of engines visits them,
//!   and the order engines are polled at one instant decides the order they
//!   submit at that instant — so it is part of the modeled result, not a
//!   convenience.
//! * **Idle interest.** `NicIdle`/`CoreIdle` go to every driver sourced at
//!   the node *that asked for them* ([`Transport::set_idle_interest`]; the
//!   default is to ask). An engine with nothing queued has no use for an
//!   idle event — its poll would interrogate an empty queue — and an
//!   all-to-all keeps n−1 engines per node, all but one or two of them in
//!   that state at any instant. Completions, failures and wakeups are
//!   routed to their owner regardless.
//! * **Retirement.** Dropping a [`PairDriver`] retires its slot: the inbox
//!   is emptied and nothing is routed to it again (idle events, late
//!   deliveries of its own transfers, timers), so the inbox of a driver
//!   nobody will poll cannot grow.
//!
//! A cluster built with [`SimCluster::with_faults`] replays a seeded
//! [`ClusterFaultSchedule`] against the shared transport: submissions onto
//! a downed NIC port fail immediately, a `DownBegin` kills the port's
//! in-flight transfers, transient loss dooms submissions by lottery, and
//! shaping windows forward to the simulator's per-port fault slots. Every
//! transition instant is pinned by a calendar wakeup, so transitions apply
//! at their exact virtual time even when no traffic is moving. An empty
//! schedule is inert: no wakeups, no lotteries, no extra branches taken —
//! the fault-free cluster stays bit-identical to [`SimCluster::new`].

use crate::transport::{ChunkId, ChunkSubmit, Transport, TransportEvent};
use nm_faults::cluster::{ClusterFaultSchedule, ClusterFaultState, ClusterTransition};
use nm_faults::Change;
use nm_model::SimTime;
use nm_sim::{ClusterSpec, CoreId, NodeId, RailId, SendSpec, SimEvent, Simulator, TransferId};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::rc::Rc;

/// Synthetic id space for chunks rejected at submission (port down) — far
/// above anything the shared simulator will ever allocate.
const REJECTED_CHUNK_BASE: u64 = 1 << 63;

/// Calendar wakeup token pinning fault transition instants.
const FAULT_WAKEUP_TOKEN: u64 = 1;

/// Calendar wakeup token for workload-level deadlines
/// ([`SimCluster::schedule_wakeup`] — the collectives watchdog).
const WATCHDOG_WAKEUP_TOKEN: u64 = 2;

/// Tokens at or above this are per-driver engine timers: token =
/// `ENGINE_WAKEUP_BASE + driver index`, routed back to that inbox.
const ENGINE_WAKEUP_BASE: u64 = 16;

/// Fault-replay state threaded through the shared transport.
struct ClusterFaults {
    state: ClusterFaultState,
    /// Compiled schedule, time-sorted; `next` is the replay cursor.
    timeline: Vec<ClusterTransition>,
    next: usize,
    /// `(src, dst, physical rail)` of each live submitted transfer.
    /// Id-ordered so fault onsets fail victims in id order without a sort.
    inflight: BTreeMap<TransferId, (usize, usize, usize)>,
    /// Loss-lottery victims: their delivery is rewritten to `ChunkFailed`
    /// (the send side completes normally, delivery never happens).
    doomed: HashSet<TransferId>,
    /// Transfers already reported failed (killed by `DownBegin`): their
    /// residual simulator events are swallowed.
    suppressed: HashSet<TransferId>,
    next_rejected: u64,
}

/// What the shared transport keeps per registered driver.
struct Slot {
    inbox: VecDeque<TransportEvent>,
    src: NodeId,
    dst: NodeId,
    /// Whether the source node's `NicIdle`/`CoreIdle` are routed here.
    idle_wanted: bool,
    /// On [`Shared::ready`] already (a slot is listed at most once).
    listed: bool,
    /// The driver was dropped; nothing is routed here any more.
    retired: bool,
}

struct Shared {
    sim: Simulator,
    /// One slot per registered driver, indexed by [`PairDriver::index`].
    slots: Vec<Slot>,
    /// Slot indices by source node: who shares each node's NICs and cores.
    by_source: Vec<Vec<usize>>,
    /// Slots that received an event since [`SimCluster::take_ready`] last
    /// emptied this list.
    ready: Vec<usize>,
    /// Which driver submitted each transfer.
    owner: HashMap<TransferId, usize>,
    /// Fault replay; `None` keeps every injection hook fully disabled.
    faults: Option<Box<ClusterFaults>>,
}

impl Shared {
    fn new(sim: Simulator, faults: Option<Box<ClusterFaults>>) -> Self {
        let by_source = vec![Vec::new(); sim.spec().nodes.len()];
        Shared {
            sim,
            slots: Vec::new(),
            by_source,
            ready: Vec::new(),
            owner: HashMap::new(),
            faults,
        }
    }

    /// Routes one event to driver `i`'s inbox and lists the driver as ready.
    // nm-analyzer: allow(unbounded-growth) -- an inbox is emptied by its driver's next poll and
    // takes nothing once the driver is dropped; the ready list holds each slot at most once
    // (`listed`), so it is bounded by the drivers registered
    fn deliver(&mut self, i: usize, ev: TransportEvent) {
        let Some(slot) = self.slots.get_mut(i) else { return };
        if slot.retired {
            return;
        }
        slot.inbox.push_back(ev);
        if !slot.listed {
            slot.listed = true;
            self.ready.push(i);
        }
    }

    /// Routes an event about `transfer` to the driver that submitted it.
    fn deliver_to_owner(&mut self, transfer: TransferId, ev: TransportEvent) {
        if let Some(&o) = self.owner.get(&transfer) {
            self.deliver(o, ev);
        }
    }

    /// Routes a NIC/core idle event of `node` to every driver sending from
    /// it (they share the NIC) that asked for idle events.
    fn deliver_idle(&mut self, node: NodeId, ev: &TransportEvent) {
        for k in 0..self.by_source[node.index()].len() {
            let i = self.by_source[node.index()][k];
            if self.slots[i].idle_wanted {
                self.deliver(i, ev.clone());
            }
        }
    }

    /// Applies every fault transition due at or before `at`. Called per
    /// routed event (each transition instant also has a pinned wakeup), so
    /// the state a submission consults is always current for `now`.
    fn apply_transitions_until(&mut self, at: SimTime) {
        loop {
            let Some(f) = self.faults.as_deref_mut() else { return };
            let Some(t) = f.timeline.get(f.next) else { return };
            if t.at > at {
                return;
            }
            let t = t.clone();
            f.next += 1;
            f.state.apply(&t);
            match t.change {
                Change::DownBegin => {
                    // Kill in-flight transfers crossing the downed port.
                    // The ledger is id-ordered (BTreeMap), so failure
                    // events replay identically by construction.
                    let victims: Vec<TransferId> = f
                        .inflight
                        .iter()
                        .filter(|(_, &(s, d, r))| {
                            r == t.rail.index() && (s == t.node || d == t.node)
                        })
                        .map(|(&id, _)| id)
                        .collect();
                    for id in &victims {
                        f.inflight.remove(id);
                        f.doomed.remove(id);
                        f.suppressed.insert(*id);
                    }
                    for id in victims {
                        let failed = TransportEvent::ChunkFailed { chunk: ChunkId(id.0), at: t.at };
                        self.deliver_to_owner(id, failed);
                    }
                }
                Change::ShapeBegin { time_scale, extra_latency } => {
                    self.sim.set_nic_fault(NodeId(t.node), t.rail, time_scale, extra_latency);
                }
                Change::ShapeEnd => {
                    self.sim.clear_nic_fault(NodeId(t.node), t.rail);
                }
                // Loss windows act at submission time via the state's
                // lottery; down-end only flips the state bit (already
                // applied above).
                _ => {}
            }
        }
    }

    /// Steps the simulator once and routes the produced events.
    fn pump(&mut self) -> bool {
        let events = self.sim.step();
        if events.is_empty() {
            return false;
        }
        for ev in events {
            if self.faults.is_some() {
                self.apply_transitions_until(event_time(&ev));
            }
            match ev {
                SimEvent::Delivered { transfer, at } => {
                    let chunk = ChunkId(transfer.0);
                    let mut routed = TransportEvent::ChunkDelivered { chunk, at };
                    if let Some(f) = self.faults.as_deref_mut() {
                        f.inflight.remove(&transfer);
                        if f.suppressed.remove(&transfer) {
                            continue; // failure already reported at onset
                        }
                        if f.doomed.remove(&transfer) {
                            routed = TransportEvent::ChunkFailed { chunk, at };
                        }
                    }
                    self.deliver_to_owner(transfer, routed);
                }
                SimEvent::SendDone { transfer, at } => {
                    if self.faults.as_deref().is_some_and(|f| f.suppressed.contains(&transfer)) {
                        continue;
                    }
                    let chunk = ChunkId(transfer.0);
                    self.deliver_to_owner(transfer, TransportEvent::ChunkSendDone { chunk, at });
                }
                SimEvent::NicIdle { node, rail, at } => {
                    self.deliver_idle(node, &TransportEvent::RailIdle { rail, at });
                }
                SimEvent::CoreIdle { node, core, at } => {
                    self.deliver_idle(node, &TransportEvent::CoreIdle { core, at });
                }
                SimEvent::Wakeup { token, at } => {
                    // Engine retry/probe timers route back to their driver;
                    // fault and watchdog tokens exist only to pin calendar
                    // instants (the step itself is the payload).
                    if token >= ENGINE_WAKEUP_BASE {
                        let i = (token - ENGINE_WAKEUP_BASE) as usize;
                        self.deliver(i, TransportEvent::Wakeup { at });
                    }
                }
                SimEvent::RtsArrived { .. } => {}
            }
        }
        true
    }
}

/// The instant a simulator event fired at.
fn event_time(ev: &SimEvent) -> SimTime {
    match ev {
        SimEvent::Delivered { at, .. }
        | SimEvent::SendDone { at, .. }
        | SimEvent::RtsArrived { at, .. }
        | SimEvent::NicIdle { at, .. }
        | SimEvent::CoreIdle { at, .. }
        | SimEvent::Wakeup { at, .. } => *at,
    }
}

/// A multi-node simulated cluster shared by several pair drivers.
pub struct SimCluster {
    shared: Rc<RefCell<Shared>>,
}

impl SimCluster {
    /// Wraps a cluster spec in a shared simulator.
    pub fn new(spec: ClusterSpec) -> Self {
        SimCluster { shared: Rc::new(RefCell::new(Shared::new(Simulator::new(spec), None))) }
    }

    /// Wraps a cluster spec in a shared simulator that replays `schedule`.
    ///
    /// Validates the schedule against the spec, compiles it to per-port
    /// transitions, and pins every distinct transition instant with a
    /// calendar wakeup so faults begin and end at their exact virtual time.
    /// An empty schedule produces a cluster indistinguishable from
    /// [`SimCluster::new`].
    pub fn with_faults(spec: ClusterSpec, schedule: &ClusterFaultSchedule) -> Result<Self, String> {
        schedule.validate(&spec)?;
        let mut sim = Simulator::new(spec);
        let timeline = schedule.transitions(sim.spec());
        let mut last_at = None;
        for t in &timeline {
            if last_at != Some(t.at) {
                sim.schedule_wakeup(t.at, FAULT_WAKEUP_TOKEN);
                last_at = Some(t.at);
            }
        }
        let faults = ClusterFaults {
            state: ClusterFaultState::new(sim.spec(), schedule.seed()),
            timeline,
            next: 0,
            inflight: BTreeMap::new(),
            doomed: HashSet::new(),
            suppressed: HashSet::new(),
            next_rejected: 0,
        };
        let mut shared = Shared::new(sim, Some(Box::new(faults)));
        // Transitions scheduled at t=0 are already due: apply them now so
        // the first submission sees them without waiting for a pump.
        shared.apply_transitions_until(SimTime::ZERO);
        Ok(SimCluster { shared: Rc::new(RefCell::new(shared)) })
    }

    /// Whether this cluster was built with a fault schedule (even an empty
    /// one — callers use this to decide if healing machinery is warranted).
    pub fn faulted(&self) -> bool {
        self.shared.borrow().faults.is_some()
    }

    /// Whether every NIC port of `node` is currently down (always `false`
    /// on a fault-free cluster). Reflects transitions up to the shared
    /// `now`.
    pub fn node_is_down(&self, node: usize) -> bool {
        self.shared.borrow().faults.as_deref().is_some_and(|f| f.state.node_is_down(node))
    }

    /// Whether `(node, rail)` is inside a `RailDown` window right now.
    pub fn port_is_down(&self, node: usize, rail: RailId) -> bool {
        self.shared.borrow().faults.as_deref().is_some_and(|f| f.state.is_down(node, rail))
    }

    /// Pins a workload-level deadline on the shared calendar (clamped to
    /// `now`), guaranteeing the clock reaches `at` even if all traffic
    /// stalls first — the collectives watchdog leans on this.
    pub fn schedule_wakeup(&self, at: SimTime) {
        let mut s = self.shared.borrow_mut();
        let at = at.max(s.sim.now());
        s.sim.schedule_wakeup(at, WATCHDOG_WAKEUP_TOKEN);
    }

    /// Registers a driver for the directed pair `src -> dst`.
    ///
    /// The driver exposes a *dense local rail space*: local rail `i` is the
    /// `i`-th rail both endpoints have a NIC on ([`ClusterSpec::common_rails`]).
    /// On a homogeneous cluster that mapping is the identity; on a
    /// heterogeneous one the engine above never sees rails it cannot use.
    /// Panics when the pair shares no rail (the cluster is partitioned for
    /// this pair).
    pub fn pair_driver(&self, src: NodeId, dst: NodeId) -> PairDriver {
        assert_ne!(src, dst, "loopback pairs are not modeled");
        let mut s = self.shared.borrow_mut();
        let rail_map: Vec<RailId> =
            s.sim.spec().common_rails(src.index(), dst.index()).into_iter().map(RailId).collect();
        assert!(!rail_map.is_empty(), "nodes {src} and {dst} share no rail");
        let index = s.slots.len();
        s.by_source[src.index()].push(index);
        s.slots.push(Slot {
            inbox: VecDeque::new(),
            src,
            dst,
            idle_wanted: true,
            listed: false,
            retired: false,
        });
        PairDriver { shared: self.shared.clone(), index, src, dst, rail_map }
    }

    /// Current shared virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.borrow().sim.now()
    }

    /// The cluster spec.
    pub fn spec(&self) -> ClusterSpec {
        self.shared.borrow().sim.spec().clone()
    }

    /// Advances the shared simulator by exactly one internal event and
    /// routes what it produced into the drivers' inboxes. Returns `false`
    /// when the calendar is exhausted.
    ///
    /// Workload drivers that coordinate *several* engines (collectives) use
    /// this instead of letting any one engine's `poll` free-run the clock:
    /// after each single step they drain every engine whose inbox filled
    /// ([`SimCluster::take_ready`]), so dependent sends are posted at
    /// their true virtual time instead of wherever another engine happened
    /// to drag the clock.
    pub fn pump_one(&self) -> bool {
        self.shared.borrow_mut().pump()
    }

    /// The `(src, dst)` of every driver whose inbox holds events routed
    /// since the previous call, ascending — the order a scan of a
    /// pair-keyed `BTreeMap` would find them in. A driver that was polled in
    /// the meantime (its inbox is empty again) is left out.
    pub fn take_ready(&self) -> Vec<(usize, usize)> {
        let mut s = self.shared.borrow_mut();
        let s = &mut *s;
        let mut pairs = Vec::new();
        for i in s.ready.drain(..) {
            let slot = &mut s.slots[i];
            slot.listed = false;
            if !slot.inbox.is_empty() {
                pairs.push((slot.src.index(), slot.dst.index()));
            }
        }
        pairs.sort_unstable();
        pairs
    }

    /// Cumulative reserved time on the switch backplane of a physical rail
    /// (zero when the spec has no switch).
    pub fn switch_busy_total(&self, rail: RailId) -> nm_model::SimDuration {
        self.shared.borrow().sim.switch_busy_total(rail)
    }
}

/// One directed pair's view of the shared cluster.
///
/// Rail indices at this interface are *local*: dense `0..rail_count()`
/// over the rails both endpoints share, translated to physical rails on
/// submit and back on events. `rail_map[local] == physical`.
pub struct PairDriver {
    shared: Rc<RefCell<Shared>>,
    index: usize,
    src: NodeId,
    dst: NodeId,
    rail_map: Vec<RailId>,
}

impl PairDriver {
    /// Physical rail behind a local index.
    fn physical(&self, rail: RailId) -> RailId {
        self.rail_map[rail.index()]
    }

    /// Local index of a physical rail, when this pair uses it.
    fn local(&self, physical: RailId) -> Option<RailId> {
        self.rail_map.iter().position(|&r| r == physical).map(RailId)
    }

    /// The physical rails behind the local rail space, in local order.
    pub fn rail_map(&self) -> &[RailId] {
        &self.rail_map
    }

    /// Events queued in this driver's inbox, deliverable by the next `poll`
    /// without advancing the shared clock.
    pub fn pending_events(&self) -> usize {
        self.shared.borrow().slots[self.index].inbox.len()
    }
}

impl Drop for PairDriver {
    /// Retires the slot: whoever held the driver is gone, so nothing routed
    /// to its inbox from here on would ever be read.
    fn drop(&mut self) {
        // Never panic in drop: skip the clean-up if the cluster is borrowed.
        if let Ok(mut s) = self.shared.try_borrow_mut() {
            if let Some(slot) = s.slots.get_mut(self.index) {
                slot.retired = true;
                slot.idle_wanted = false;
                slot.inbox = VecDeque::new();
            }
        }
    }
}

impl Transport for PairDriver {
    fn now(&self) -> SimTime {
        self.shared.borrow().sim.now()
    }

    fn rail_count(&self) -> usize {
        self.rail_map.len()
    }

    fn rail_name(&self, rail: RailId) -> String {
        self.shared.borrow().sim.spec().rails[self.physical(rail).index()].name.clone()
    }

    fn rdv_threshold(&self, rail: RailId) -> u64 {
        self.shared.borrow().sim.spec().rails[self.physical(rail).index()].rdv_threshold
    }

    fn rail_busy_until(&self, rail: RailId) -> SimTime {
        // Shared state: another engine's traffic from this node raises it.
        self.shared.borrow().sim.nic_busy_until(self.src, self.physical(rail))
    }

    fn core_count(&self) -> usize {
        let s = self.shared.borrow();
        s.sim.spec().nodes[self.src.index()].cores
    }

    fn idle_cores(&self) -> Vec<CoreId> {
        self.shared.borrow().sim.idle_cores(self.src)
    }

    fn submit(&mut self, chunk: ChunkSubmit) -> ChunkId {
        let rail = self.physical(chunk.rail);
        let mut s = self.shared.borrow_mut();
        let s = &mut *s;
        if let Some(f) = s.faults.as_deref_mut() {
            if f.state.is_down(self.src.index(), rail) || f.state.is_down(self.dst.index(), rail) {
                // Either endpoint's port is dark: reject without touching
                // the simulator; the failure event carries a synthetic id.
                let id = ChunkId(REJECTED_CHUNK_BASE | f.next_rejected);
                f.next_rejected += 1;
                let at = s.sim.now();
                s.deliver(self.index, TransportEvent::ChunkFailed { chunk: id, at });
                return id;
            }
        }
        let id = s.sim.submit(SendSpec {
            src: self.src,
            dst: self.dst,
            rail,
            size: chunk.bytes,
            send_core: chunk.send_core,
            recv_core: chunk.recv_core,
            mode: chunk.mode,
            offload_delay: chunk.offload_delay,
        });
        s.owner.insert(id, self.index);
        if let Some(f) = s.faults.as_deref_mut() {
            f.inflight.insert(id, (self.src.index(), self.dst.index(), rail.index()));
            // Fixed draw order (tx port, then rx port) keeps the loss
            // lottery's RNG stream stable across runs.
            let drop_tx = f.state.should_drop(self.src.index(), rail);
            let drop_rx = f.state.should_drop(self.dst.index(), rail);
            if drop_tx || drop_rx {
                f.doomed.insert(id);
            }
        }
        ChunkId(id.0)
    }

    fn schedule_wakeup(&mut self, at: SimTime) {
        let mut s = self.shared.borrow_mut();
        let at = at.max(s.sim.now());
        s.sim.schedule_wakeup(at, ENGINE_WAKEUP_BASE + self.index as u64);
    }

    fn set_idle_interest(&mut self, wanted: bool) {
        self.shared.borrow_mut().slots[self.index].idle_wanted = wanted;
    }

    fn cancel_chunks(&mut self, chunks: &[ChunkId]) -> bool {
        if chunks.is_empty() {
            return false;
        }
        // Synthetic rejected ids never reached the simulator; there is
        // nothing to retract behind them.
        if chunks.iter().any(|c| c.0 >= REJECTED_CHUNK_BASE) {
            return false;
        }
        let ids: Vec<TransferId> = chunks.iter().map(|c| TransferId(c.0)).collect();
        let mut s = self.shared.borrow_mut();
        let s = &mut *s;
        if !s.sim.try_cancel_all(&ids) {
            return false;
        }
        for id in &ids {
            s.owner.remove(id);
            if let Some(f) = s.faults.as_deref_mut() {
                f.inflight.remove(id);
                f.doomed.remove(id);
            }
        }
        true
    }

    fn poll(&mut self) -> Vec<TransportEvent> {
        loop {
            let drained: Vec<TransportEvent> = {
                let mut s = self.shared.borrow_mut();
                if s.slots[self.index].inbox.is_empty() && !s.pump() {
                    return Vec::new();
                }
                s.slots[self.index].inbox.drain(..).collect()
            };
            // Physical rail events fold into the local rail space; idle
            // notifications for rails this pair cannot use are dropped
            // (possibly leaving nothing — then keep pumping).
            let events: Vec<TransportEvent> = drained
                .into_iter()
                .filter_map(|ev| match ev {
                    TransportEvent::RailIdle { rail, at } => {
                        self.local(rail).map(|rail| TransportEvent::RailIdle { rail, at })
                    }
                    other => Some(other),
                })
                .collect();
            if !events.is_empty() {
                return events;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::strategy::StrategyKind;
    use nm_model::builtin;
    use nm_model::units::MIB;
    use nm_sim::NodeSpec;

    fn three_node_spec() -> ClusterSpec {
        ClusterSpec {
            nodes: vec![NodeSpec::dual_dual_core_opteron(); 3],
            rails: builtin::paper_testbed(),
            switch: None,
        }
    }

    fn predictor_for(spec: &ClusterSpec) -> crate::predictor::Predictor {
        // Sampling uses a private two-node simulator with the same rails —
        // profiles describe rails, not node counts.
        let two_node = ClusterSpec::two_nodes(4, spec.rails.clone());
        let mut sampler = nm_sampler::SimTransport::new(two_node);
        // Sampler defaults: a 1-iter/0-warmup config seeds the predictor
        // with cold-cache points and skews split decisions (issue #8).
        let cfg = nm_sampler::SamplingConfig::default();
        let rails = (0..spec.rail_count())
            .map(|i| {
                let natural = nm_sampler::sample_rail(&mut sampler, i, &cfg).expect("sampling");
                crate::predictor::RailView {
                    rail: RailId(i),
                    name: spec.rails[i].name.as_str().into(),
                    eager: natural.clone(),
                    natural,
                    rdv_threshold: spec.rails[i].rdv_threshold,
                }
            })
            .collect();
        crate::predictor::Predictor::new(rails)
    }

    fn engine_on(
        cluster: &SimCluster,
        src: usize,
        dst: usize,
        strategy: StrategyKind,
    ) -> Engine<PairDriver> {
        Engine::new(
            cluster.pair_driver(NodeId(src), NodeId(dst)),
            predictor_for(&cluster.spec()),
            strategy.build(),
        )
        .expect("engine")
    }

    /// Runs the calendar dry the way the collectives runner steps it: one
    /// event, then a poll of whichever engine got something — an engine is
    /// never polled into pumping the clock itself.
    fn step_to_quiescence<T: Transport>(
        cluster: &SimCluster,
        engines: &mut [Engine<T>],
        pending: impl Fn(&T) -> usize,
    ) {
        loop {
            for e in engines.iter_mut() {
                while pending(e.transport()) > 0 {
                    let _ = e.poll().expect("poll");
                }
            }
            if !cluster.pump_one() {
                return;
            }
        }
    }

    #[test]
    fn two_engines_share_one_clock() {
        let cluster = SimCluster::new(three_node_spec());
        let spec = cluster.spec();
        let mut e01 = Engine::new(
            cluster.pair_driver(NodeId(0), NodeId(1)),
            predictor_for(&spec),
            StrategyKind::HeteroSplit.build(),
        )
        .expect("engine");
        let mut e21 = Engine::new(
            cluster.pair_driver(NodeId(2), NodeId(1)),
            predictor_for(&spec),
            StrategyKind::HeteroSplit.build(),
        )
        .expect("engine");

        let a = e01.post_send(MIB).expect("post");
        let b = e21.post_send(MIB).expect("post");
        let done_a = e01.wait(a).expect("wait");
        let done_b = e21.wait(b).expect("wait");
        assert!(done_a.delivered_at > SimTime::ZERO);
        assert!(done_b.delivered_at > SimTime::ZERO);
        assert_eq!(e01.now(), e21.now(), "one shared clock");
    }

    #[test]
    fn incast_contends_on_the_destination_nic() {
        // Node 1 receives 1 MiB from node 0 alone, vs from nodes 0 and 2
        // simultaneously: the shared destination NIC serializes the DMA
        // phases, so the contended transfer finishes later.
        let solo = {
            let cluster = SimCluster::new(three_node_spec());
            let spec = cluster.spec();
            let mut e = Engine::new(
                cluster.pair_driver(NodeId(0), NodeId(1)),
                predictor_for(&spec),
                StrategyKind::SingleRail(Some(RailId(0))).build(),
            )
            .expect("engine");
            let id = e.post_send(MIB).expect("post");
            e.wait(id).expect("wait").delivered_at
        };

        let cluster = SimCluster::new(three_node_spec());
        let spec = cluster.spec();
        let mut e01 = Engine::new(
            cluster.pair_driver(NodeId(0), NodeId(1)),
            predictor_for(&spec),
            StrategyKind::SingleRail(Some(RailId(0))).build(),
        )
        .expect("engine");
        let mut e21 = Engine::new(
            cluster.pair_driver(NodeId(2), NodeId(1)),
            predictor_for(&spec),
            StrategyKind::SingleRail(Some(RailId(0))).build(),
        )
        .expect("engine");
        let a = e01.post_send(MIB).expect("post");
        let b = e21.post_send(MIB).expect("post");
        let da = e01.wait(a).expect("wait").delivered_at;
        let db = e21.wait(b).expect("wait").delivered_at;
        let last = da.max(db);
        assert!(
            last.as_micros_f64() > 1.7 * solo.as_micros_f64(),
            "incast must serialize on the rx NIC: solo {solo}, contended {last}"
        );
    }

    #[test]
    fn sibling_engine_traffic_is_visible_in_busy_until() {
        // Engine A (node0 -> node1) floods rail 0; engine B (node0 -> node2)
        // shares node0's NIC and must see it busy.
        let cluster = SimCluster::new(three_node_spec());
        let spec = cluster.spec();
        let mut e01 = Engine::new(
            cluster.pair_driver(NodeId(0), NodeId(1)),
            predictor_for(&spec),
            StrategyKind::SingleRail(Some(RailId(0))).build(),
        )
        .expect("engine");
        let b_driver = cluster.pair_driver(NodeId(0), NodeId(2));
        assert_eq!(b_driver.rail_busy_until(RailId(0)), SimTime::ZERO);
        e01.post_send(4 * MIB).expect("post");
        assert!(
            b_driver.rail_busy_until(RailId(0)) > SimTime::ZERO,
            "sibling traffic must raise the shared NIC's busy-until"
        );
    }

    #[test]
    fn partial_rail_sets_fold_into_a_dense_local_space() {
        // Node 1 only has a QsNetII NIC: the 0->1 pair sees exactly one
        // local rail, and traffic it submits lands on physical rail 1.
        let mut spec = three_node_spec();
        spec.nodes[1].rails = Some(vec![1]);
        let cluster = SimCluster::new(spec.clone());
        let mut d01 = cluster.pair_driver(NodeId(0), NodeId(1));
        assert_eq!(d01.rail_count(), 1);
        assert_eq!(d01.rail_map(), &[RailId(1)]);
        assert_eq!(d01.rail_name(RailId(0)), "qsnet2");
        assert_eq!(d01.rdv_threshold(RailId(0)), spec.rails[1].rdv_threshold);

        let d02 = cluster.pair_driver(NodeId(0), NodeId(2));
        assert_eq!(d02.rail_count(), 2, "fully-attached pairs keep the identity map");

        d01.submit(crate::transport::ChunkSubmit {
            rail: RailId(0),
            bytes: MIB,
            send_core: CoreId(0),
            recv_core: CoreId(0),
            offload_delay: nm_model::SimDuration::ZERO,
            mode: None,
            payload: None,
        });
        assert!(
            d02.rail_busy_until(RailId(1)) > SimTime::ZERO,
            "the local-0 submit must land on physical rail 1"
        );
        assert_eq!(d02.rail_busy_until(RailId(0)), SimTime::ZERO);
    }

    #[test]
    fn pump_one_advances_exactly_one_calendar_step() {
        let cluster = SimCluster::new(three_node_spec());
        let spec = cluster.spec();
        let mut e01 = Engine::new(
            cluster.pair_driver(NodeId(0), NodeId(1)),
            predictor_for(&spec),
            StrategyKind::SingleRail(Some(RailId(0))).build(),
        )
        .expect("engine");
        let _ = e01.post_send(MIB).expect("post");
        let mut steps = 0;
        while cluster.pump_one() {
            steps += 1;
            if e01.transport().pending_events() > 0 {
                break;
            }
        }
        assert!(steps >= 1, "at least one event must fire");
        assert!(e01.transport().pending_events() > 0, "events land in the inbox");
        e01.drain().expect("drain");
    }

    #[test]
    fn hetero_split_avoids_the_rail_a_sibling_flooded() {
        // Engine A floods rail 0 from node 0; engine B, deciding right
        // after, should push most of its message to rail 1 (Fig 2 logic
        // across engines).
        let cluster = SimCluster::new(three_node_spec());
        let spec = cluster.spec();
        let mut e01 = Engine::new(
            cluster.pair_driver(NodeId(0), NodeId(1)),
            predictor_for(&spec),
            StrategyKind::SingleRail(Some(RailId(0))).build(),
        )
        .expect("engine");
        let mut e02 = Engine::new(
            cluster.pair_driver(NodeId(0), NodeId(2)),
            predictor_for(&spec),
            StrategyKind::HeteroSplit.build(),
        )
        .expect("engine");
        e01.post_send(8 * MIB).expect("flood");
        let id = e02.post_send(2 * MIB).expect("post");
        let done = e02.wait(id).expect("wait");
        let rail1_bytes = done.chunks.iter().filter(|c| c.0 == RailId(1)).map(|c| c.1).sum::<u64>();
        assert!(
            rail1_bytes as f64 > 0.8 * (2 * MIB) as f64,
            "flooded rail should be mostly avoided: {:?}",
            done.chunks
        );
        e01.drain().expect("drain");
    }

    #[test]
    fn empty_fault_schedule_is_bit_identical_to_a_clean_cluster() {
        let run = |cluster: SimCluster| {
            let spec = cluster.spec();
            let mut e01 = Engine::new(
                cluster.pair_driver(NodeId(0), NodeId(1)),
                predictor_for(&spec),
                StrategyKind::HeteroSplit.build(),
            )
            .expect("engine");
            let mut e21 = Engine::new(
                cluster.pair_driver(NodeId(2), NodeId(1)),
                predictor_for(&spec),
                StrategyKind::HeteroSplit.build(),
            )
            .expect("engine");
            let a = e01.post_send(MIB).expect("post");
            let b = e21.post_send(2 * MIB).expect("post");
            let da = e01.wait(a).expect("wait");
            let db = e21.wait(b).expect("wait");
            (da.delivered_at, da.chunks, db.delivered_at, db.chunks)
        };
        let clean = run(SimCluster::new(three_node_spec()));
        let faulted =
            SimCluster::with_faults(three_node_spec(), &nm_faults::ClusterFaultSchedule::empty())
                .expect("schedule");
        assert!(faulted.faulted());
        assert!(!faulted.node_is_down(0));
        assert_eq!(run(faulted), clean, "empty schedule must be inert");
    }

    #[test]
    fn submissions_onto_a_downed_port_fail_without_reaching_the_sim() {
        use nm_faults::{ClusterFaultSchedule, ClusterFaultSpec, FaultKind};
        let schedule = ClusterFaultSchedule::new(7).with(ClusterFaultSpec::port(
            1,
            RailId(0),
            SimTime::ZERO,
            FaultKind::RailDown { duration: nm_model::SimDuration::from_micros(50_000) },
        ));
        let cluster = SimCluster::with_faults(three_node_spec(), &schedule).expect("schedule");
        assert!(cluster.port_is_down(1, RailId(0)));
        assert!(!cluster.node_is_down(1), "one dark port is not a dead node");
        let mut d01 = cluster.pair_driver(NodeId(0), NodeId(1));
        let id = d01.submit(crate::transport::ChunkSubmit {
            rail: RailId(0),
            bytes: MIB,
            send_core: CoreId(0),
            recv_core: CoreId(0),
            offload_delay: nm_model::SimDuration::ZERO,
            mode: None,
            payload: None,
        });
        assert!(id.0 >= super::REJECTED_CHUNK_BASE, "rejected ids are synthetic");
        let events = d01.poll();
        assert!(
            matches!(events[..], [TransportEvent::ChunkFailed { chunk, .. }] if chunk == id),
            "the rejection must surface as ChunkFailed: {events:?}"
        );
        assert_eq!(
            d01.rail_busy_until(RailId(0)),
            SimTime::ZERO,
            "a rejected submit must not occupy the NIC"
        );
    }

    #[test]
    fn engine_heals_around_a_mid_flight_port_kill() {
        use nm_faults::{ClusterFaultSchedule, ClusterFaultSpec, FaultKind};
        // Node 1's rail-0 port dies mid-transfer and stays dark long past
        // the run; the engine must fail over to rail 1 and still deliver.
        let schedule = ClusterFaultSchedule::new(42).with(ClusterFaultSpec::port(
            1,
            RailId(0),
            SimTime::from_micros(120),
            FaultKind::RailDown { duration: nm_model::SimDuration::from_micros(1_000_000) },
        ));
        let cluster = SimCluster::with_faults(three_node_spec(), &schedule).expect("schedule");
        let spec = cluster.spec();
        let mut e01 = Engine::new(
            cluster.pair_driver(NodeId(0), NodeId(1)),
            predictor_for(&spec),
            StrategyKind::HeteroSplit.build(),
        )
        .expect("engine")
        .with_fault_tolerance(crate::health::HealthConfig::default())
        .expect("health");
        let id = e01.post_send(4 * MIB).expect("post");
        let done = e01.wait(id).expect("wait");
        assert!(e01.stats().rail_failures.iter().sum::<u64>() > 0, "the kill must be observed");
        let rail0_bytes = done.chunks.iter().filter(|c| c.0 == RailId(0)).map(|c| c.1).sum::<u64>();
        assert!(
            rail0_bytes < 4 * MIB,
            "some traffic must have been rerouted off the dead port: {:?}",
            done.chunks
        );
    }

    #[test]
    fn abandon_tears_a_message_out_without_poisoning_the_flow() {
        let cluster = SimCluster::new(three_node_spec());
        let spec = cluster.spec();
        let mut e01 = Engine::new(
            cluster.pair_driver(NodeId(0), NodeId(1)),
            predictor_for(&spec),
            StrategyKind::HeteroSplit.build(),
        )
        .expect("engine")
        .with_fault_tolerance(crate::health::HealthConfig::default())
        .expect("health");
        let a = e01.post_send(2 * MIB).expect("post a");
        let b = e01.post_send(MIB).expect("post b");
        // Advance the clock so a's first chunk has started: the transport
        // refuses to retract it and abandon must take the forced path.
        while cluster.now() == SimTime::ZERO {
            assert!(cluster.pump_one(), "calendar cannot be empty with two sends posted");
        }
        assert!(e01.abandon(a).expect("abandon"), "an inflight message must be evictable");
        assert_eq!(e01.stats().msgs_abandoned, 1);
        assert!(!e01.abandon(a).expect("abandon"), "already gone");
        assert!(!e01.abandon(crate::MsgId(999)).expect("abandon"), "unknown id");
        // The flow sequencer skipped a's slot: b still completes, and any
        // late deliveries of a's chunks are swallowed, not mis-credited.
        let done = e01.wait(b).expect("wait b");
        assert!(done.delivered_at > SimTime::ZERO);
        e01.drain().expect("drain");
    }

    #[test]
    fn a_dropped_driver_is_retired_and_its_inbox_stays_empty() {
        let cluster = SimCluster::new(three_node_spec());
        let mut e01 = engine_on(&cluster, 0, 1, StrategyKind::HeteroSplit);
        // A second driver on node 0 goes away with a transfer of its own
        // still on the wire.
        let mut gone = cluster.pair_driver(NodeId(0), NodeId(2));
        let retired = gone.index;
        gone.submit(ChunkSubmit::new(RailId(1), MIB));
        drop(gone);
        // Node 0's NICs and cores now go idle again and again, and the
        // orphaned transfer completes: none of it may pile up in the slot.
        let id = e01.post_send(4 * MIB).expect("post");
        e01.wait(id).expect("wait");
        while cluster.pump_one() {}
        assert!(
            cluster.shared.borrow().slots[retired].inbox.is_empty(),
            "events were routed to a driver nobody can poll"
        );
        let ready = cluster.take_ready();
        assert!(!ready.contains(&(0, 2)), "a retired driver must not be listed ready: {ready:?}");
        // The pair can be served again by a fresh driver.
        let mut e02 = engine_on(&cluster, 0, 2, StrategyKind::HeteroSplit);
        let id = e02.post_send(MIB).expect("post");
        assert!(e02.wait(id).expect("wait").delivered_at > SimTime::ZERO);
    }

    #[test]
    fn take_ready_lists_each_filled_inbox_once_in_pair_order() {
        let cluster = SimCluster::new(three_node_spec());
        // Registered out of pair order on purpose.
        let mut e21 = engine_on(&cluster, 2, 1, StrategyKind::HeteroSplit);
        let mut e01 = engine_on(&cluster, 0, 1, StrategyKind::HeteroSplit);
        assert!(cluster.take_ready().is_empty(), "nothing routed yet");
        let _ = e21.post_send(64 * 1024).expect("post");
        let _ = e01.post_send(64 * 1024).expect("post");
        // Both transfers run the same course on their own NICs: their
        // events fire at the same instants, several per inbox.
        while cluster.pump_one() {}
        assert!(e01.transport().pending_events() > 1 && e21.transport().pending_events() > 1);
        assert_eq!(cluster.take_ready(), [(0, 1), (2, 1)]);
        assert!(cluster.take_ready().is_empty(), "listed once; nothing new arrived");
        // A driver polled behind the list's back is not reported.
        e01.drain().expect("drain");
        e21.drain().expect("drain");
        let _ = e21.post_send(64 * 1024).expect("post");
        while cluster.pump_one() {}
        let _ = e21.poll().expect("poll");
        assert!(cluster.take_ready().is_empty());
    }

    /// Idle events left in the inbox of a node-0 engine that has completed
    /// everything it posted, after a sibling engine's 4 MiB from node 0.
    fn idle_events_seen_by_an_idle_sibling(fault_tolerant: bool) -> usize {
        let cluster = SimCluster::new(three_node_spec());
        let mut e01 = engine_on(&cluster, 0, 1, StrategyKind::HeteroSplit);
        let mut e02 = engine_on(&cluster, 0, 2, StrategyKind::HeteroSplit);
        if fault_tolerant {
            e02 = e02.with_fault_tolerance(crate::health::HealthConfig::default()).expect("health");
        }
        let id = e02.post_send(64 * 1024).expect("post");
        e02.wait(id).expect("wait");
        while cluster.pump_one() {}
        while e02.transport().pending_events() > 0 {
            let _ = e02.poll().expect("poll");
        }
        let id = e01.post_send(4 * MIB).expect("post");
        e01.wait(id).expect("wait");
        e02.transport().pending_events()
    }

    #[test]
    fn an_engine_with_nothing_queued_is_sent_no_idle_events() {
        assert_eq!(idle_events_seen_by_an_idle_sibling(false), 0);
    }

    #[test]
    fn a_fault_tolerant_engine_keeps_receiving_idle_events() {
        // Its polls run timeouts, retries and probes off every event.
        assert!(idle_events_seen_by_an_idle_sibling(true) > 0);
    }

    #[test]
    fn an_engine_waiting_for_a_nic_is_kicked_when_it_idles() {
        let cluster = SimCluster::new(three_node_spec());
        let mut engines = [
            engine_on(&cluster, 0, 1, StrategyKind::HeteroSplit),
            // Greedy balancing defers while every NIC is busy.
            engine_on(&cluster, 0, 2, StrategyKind::GreedyBalance),
        ];
        // The waiter has been idle before (and said so to its driver).
        let id = engines[1].post_send(64 * 1024).expect("post");
        engines[1].wait(id).expect("wait");
        // Node 0's NICs are both taken by the sibling's split...
        let _ = engines[0].post_send(8 * MIB).expect("flood");
        let first_idle = (0..2)
            .map(|r| engines[1].transport().rail_busy_until(RailId(r)))
            .min()
            .expect("two rails");
        assert!(first_idle > cluster.now());
        // ...so this post is deferred, and only a NIC-idle event can get
        // it going: nobody polls an engine that has no event.
        let id = engines[1].post_send(MIB).expect("post");
        assert_eq!(engines[1].stats().defers, 1);
        step_to_quiescence(&cluster, &mut engines, PairDriver::pending_events);
        let done = engines[1].try_completion(id).expect("the deferred message must complete");
        assert!(done.delivered_at > first_idle, "it cannot have left before a NIC was free");
    }

    /// A transport wrapper written before `set_idle_interest` existed: it
    /// forwards everything it knows about and inherits the default no-op.
    struct Opaque(PairDriver);

    impl Transport for Opaque {
        fn now(&self) -> SimTime {
            self.0.now()
        }
        fn rail_count(&self) -> usize {
            self.0.rail_count()
        }
        fn rail_name(&self, rail: RailId) -> String {
            self.0.rail_name(rail)
        }
        fn rdv_threshold(&self, rail: RailId) -> u64 {
            self.0.rdv_threshold(rail)
        }
        fn rail_busy_until(&self, rail: RailId) -> SimTime {
            self.0.rail_busy_until(rail)
        }
        fn core_count(&self) -> usize {
            self.0.core_count()
        }
        fn idle_cores(&self) -> Vec<CoreId> {
            self.0.idle_cores()
        }
        fn submit(&mut self, chunk: ChunkSubmit) -> ChunkId {
            self.0.submit(chunk)
        }
        fn poll(&mut self) -> Vec<TransportEvent> {
            self.0.poll()
        }
        fn schedule_wakeup(&mut self, at: SimTime) {
            self.0.schedule_wakeup(at)
        }
        fn cancel_chunks(&mut self, chunks: &[ChunkId]) -> bool {
            self.0.cancel_chunks(chunks)
        }
    }

    /// When a message was delivered, and as which chunks.
    type Delivery = (SimTime, Vec<(RailId, u64)>);

    /// Two rounds of a 4-node all-to-all (every ordered pair sends 256 KiB,
    /// then 16 KiB behind it), stepped like the collectives runner; returns
    /// every message's delivery instant and chunk layout plus the polls made.
    fn alltoall_on<T: Transport>(
        wrap: impl Fn(PairDriver) -> T,
        pending: impl Fn(&T) -> usize,
    ) -> (Vec<Delivery>, u64) {
        let spec = ClusterSpec {
            nodes: vec![NodeSpec::dual_dual_core_opteron(); 4],
            rails: builtin::paper_testbed(),
            switch: None,
        };
        let cluster = SimCluster::new(spec.clone());
        let mut engines: Vec<Engine<T>> = (0..4)
            .flat_map(|s| (0..4).filter(move |&d| d != s).map(move |d| (s, d)))
            .map(|(s, d)| {
                Engine::new(
                    wrap(cluster.pair_driver(NodeId(s), NodeId(d))),
                    predictor_for(&spec),
                    StrategyKind::HeteroSplit.build(),
                )
                .expect("engine")
            })
            .collect();
        let mut ids = Vec::new();
        for bytes in [256 * 1024, 16 * 1024] {
            for e in &mut engines {
                ids.push(e.post_send(bytes).expect("post"));
            }
        }
        let polls = std::cell::Cell::new(0u64);
        step_to_quiescence(&cluster, &mut engines, |t| {
            let n = pending(t);
            polls.set(polls.get() + u64::from(n > 0));
            n
        });
        let deliveries = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let c = engines[i % 12].try_completion(id).expect("every message completes");
                (c.delivered_at, c.chunks)
            })
            .collect();
        (deliveries, polls.get())
    }

    #[test]
    fn a_wrapper_that_ignores_idle_interest_delivers_identically() {
        let (honoured, polls) = alltoall_on(|d| d, PairDriver::pending_events);
        let (ignored, polls_ignored) = alltoall_on(Opaque, |t| t.0.pending_events());
        assert_eq!(honoured.len(), 24);
        assert_eq!(honoured, ignored, "an idle event an engine did not ask for changed a result");
        assert!(
            polls < polls_ignored,
            "honouring the hint must save polls: {polls} vs {polls_ignored}"
        );
    }

    #[test]
    fn cancel_chunks_retracts_only_unstarted_transfers() {
        let cluster = SimCluster::new(three_node_spec());
        let mut d01 = cluster.pair_driver(NodeId(0), NodeId(1));
        let submit = |d: &mut PairDriver| {
            d.submit(crate::transport::ChunkSubmit {
                rail: RailId(0),
                bytes: MIB,
                send_core: CoreId(0),
                recv_core: CoreId(0),
                offload_delay: nm_model::SimDuration::ZERO,
                mode: None,
                payload: None,
            })
        };
        let first = submit(&mut d01);
        let second = submit(&mut d01);
        assert!(!d01.cancel_chunks(&[]), "empty set refuses");
        assert!(!d01.cancel_chunks(&[first]), "the head transfer has started");
        assert!(d01.cancel_chunks(&[second]), "the queued tail is retractable");
        // Only the first delivery remains on the calendar.
        let mut delivered = 0;
        loop {
            let events = d01.poll();
            if events.is_empty() {
                break;
            }
            delivered += events
                .iter()
                .filter(|e| matches!(e, TransportEvent::ChunkDelivered { .. }))
                .count();
        }
        assert_eq!(delivered, 1, "the cancelled transfer must never deliver");
    }
}
