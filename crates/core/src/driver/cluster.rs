//! The simulated transport: one [`Simulator`], any number of engines.
//!
//! The paper's motivation is nodes where *many cores share few NICs*; its
//! testbed, though, is a single point-to-point pair. Both are served by one
//! core, `SimCore`: the only code in this crate that steps a simulator,
//! turns its events into [`TransportEvent`]s and replays a fault schedule
//! against them. A core has one **slot** per directed node pair that an
//! engine drives, and three handles reach it:
//!
//! * [`SimCluster`] + [`PairDriver`] — N nodes: the cluster shares one core
//!   (`Rc<RefCell>`) among as many pair drivers as the workload registers,
//!   so engines contend for real NIC state — an engine sending node0→node1
//!   sees the rail busy-until raised by *another* engine sending
//!   node0→node2, and incast (two senders, one receiver) contends on the
//!   destination NIC exactly as it would in hardware.
//! * [`SimDriver`](super::sim::SimDriver) and
//!   [`FaultSimDriver`](super::faulty::FaultSimDriver) — the paper's two
//!   nodes: each *owns* a core whose single slot is `node 0 → node 1`.
//!   Owning it (no `Rc`) keeps an `Engine` over them `Send`.
//!
//! Single-threaded by design: the simulator is one clock, and engines
//! interleave by polling. Events are routed to per-slot inboxes; any
//! slot's `poll` may advance the shared clock and feed its peers' inboxes.
//!
//! Three routing rules keep the host cost of an event proportional to the
//! drivers it concerns, not to the drivers that exist:
//!
//! * **Ready list.** The first event routed to an inbox puts its driver on
//!   a ready list. A workload driver stepping the clock itself
//!   ([`SimCluster::pump_one`]) takes the list with
//!   [`SimCluster::take_ready_into`] instead of asking every driver whether
//!   anything arrived. The list comes back sorted by `(src, dst)`, and the
//!   order engines are polled at one instant decides the order they submit
//!   at that instant — so the sort is part of the modeled result, not a
//!   convenience.
//! * **Idle interest.** `NicIdle` goes to every driver sourced at the
//!   node *that asked for it* ([`Transport::set_idle_interest`]; the
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
//! A core built with a [`ClusterFaultSchedule`] replays it against the
//! transport, every fault addressed at a NIC port `(node, rail)` and
//! striking the transfers that touch the port in either direction:
//!
//! * **Rail down** — submissions are rejected (the chunk fails at once,
//!   under a synthetic id, without touching the simulator) and transfers
//!   already in flight fail at onset, their residual simulator events
//!   swallowed.
//! * **Transient loss** — each submission draws the port's seeded lottery;
//!   a doomed chunk runs normally on the wire but its delivery is reported
//!   as [`TransportEvent::ChunkFailed`] (the receive side never confirms —
//!   the send side still completes, as on real hardware).
//! * **Latency spike / bandwidth degrade** — forwarded to the simulator's
//!   per-port duration shaping ([`Simulator::set_nic_fault`]).
//! * **Payload / header corruption** — the chunk's bytes are damaged in
//!   flight (one byte XORed). Whether the receiver *detects* it follows the
//!   wire contract: size-only chunks model a NIC-level CRC (always
//!   detected, reported as [`TransportEvent::ChunkCorrupt`]); framed
//!   payloads are re-decoded — integrity framing catches the flip, legacy
//!   framing lets it through *silently* (the pre-integrity failure mode the
//!   checksums exist to close).
//! * **Duplicate chunk** — a cleanly delivered chunk raises
//!   [`TransportEvent::ChunkDelivered`] twice back-to-back.
//! * **Reorder storm** — deliveries across the port are held while the
//!   window is open and released in reverse arrival order (re-stamped) when
//!   it closes.
//!
//! Every transition instant is pinned by a calendar wakeup, so transitions
//! apply at their exact virtual time even when no traffic is moving; those
//! timers are the core's own and never surface to an engine. An empty
//! schedule is inert: no wakeups, no randomness consumed, events pass
//! through untouched — a fault-free chaos run is bit-identical to a run
//! without a schedule.

use crate::transport::{ChunkId, ChunkSubmit, Transport, TransportEvent};
use bytes::Bytes;
use nm_faults::cluster::{ClusterFaultSchedule, ClusterFaultState, ClusterTransition};
use nm_faults::Change;
use nm_model::SimTime;
use nm_proto::{Packet, HEADER_LEN};
use nm_sim::{ClusterSpec, CoreId, NodeId, RailId, SendSpec, SimEvent, Simulator, TransferId};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// Synthetic id space for chunks rejected at submission (port down) — far
/// above anything the simulator will ever allocate.
const REJECTED_CHUNK_BASE: u64 = 1 << 63;

/// Calendar wakeup token pinning fault transition instants.
const FAULT_WAKEUP_TOKEN: u64 = 1;

/// Calendar wakeup token for workload-level deadlines
/// ([`SimCluster::schedule_wakeup`] — the collectives watchdog).
const WATCHDOG_WAKEUP_TOKEN: u64 = 2;

/// Tokens at or above this are per-slot engine timers: token =
/// `ENGINE_WAKEUP_BASE + slot`, routed back to that inbox.
const ENGINE_WAKEUP_BASE: u64 = 16;

/// What the fault layer decided about one live transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    /// Nothing: the delivery passes through.
    Clean,
    /// Lost the loss lottery: the delivery is rewritten to `ChunkFailed`
    /// (the send side completes normally, delivery never happens).
    Doomed,
    /// Damaged in flight. Detected damage surfaces as `ChunkCorrupt`;
    /// undetected damage delivers normally (silent corruption).
    Corrupt { detected: bool },
    /// Delivered twice. Only clean chunks duplicate — a corrupt chunk
    /// delivered twice would double-count the corruption it models.
    Duplicate,
    /// Failed by a `DownBegin` and already reported: its residual
    /// simulator events are swallowed.
    Killed,
}

/// Fault-replay state threaded through the core.
struct ClusterFaults {
    state: ClusterFaultState,
    /// Compiled schedule, time-sorted; `next` is the replay cursor.
    timeline: Vec<ClusterTransition>,
    next: usize,
    /// One entry per transfer between its submission and its delivery (or
    /// retraction): its fate, submitting slot and physical rail, all a fault
    /// onset needs, since the simulator forgets a delivered transfer.
    /// Id-ordered so onsets fail victims in id order without a sort.
    ledger: BTreeMap<TransferId, (Fate, usize, RailId)>,
    /// Deliveries a reorder storm is holding, in arrival order: the
    /// storming port `(node, rail)`, the owning slot, the transfer, and
    /// whether it arrived detectably corrupt.
    held: Vec<(usize, RailId, usize, TransferId, bool)>,
    next_rejected: u64,
}

/// Whether the receiver will *detect* one byte of `payload` damaged in
/// flight (`header` selects the header area of a framed packet vs the data
/// area). Size-only chunks model a NIC-level CRC (always detected); framed
/// payloads are re-decoded — integrity framing catches the flip, legacy
/// framing passes it through silently.
fn corruption_detected(payload: Option<&Bytes>, header: bool) -> bool {
    let Some(bytes) = payload.filter(|b| !b.is_empty()) else {
        return true; // nothing to flip: the modeled NIC CRC fires
    };
    if !Packet::decode(&mut bytes.clone()).is_ok_and(|p| p.integrity) {
        return false;
    }
    let mut raw = bytes.to_vec();
    let idx = if header {
        // Byte 4 is the first header field past kind/flags/check (the flow
        // id) — damaging it misroutes the chunk.
        4.min(raw.len() - 1)
    } else if raw.len() > HEADER_LEN {
        HEADER_LEN + (raw.len() - HEADER_LEN) / 2
    } else {
        raw.len() / 2
    };
    raw[idx] ^= 0xA5;
    Packet::decode(&mut Bytes::from(raw)).is_err()
}

/// The event a transfer's arrival raises toward its engine.
fn arrival(transfer: TransferId, corrupt: bool, at: SimTime) -> TransportEvent {
    let chunk = ChunkId(transfer.0);
    if corrupt {
        TransportEvent::ChunkCorrupt { chunk, at }
    } else {
        TransportEvent::ChunkDelivered { chunk, at }
    }
}

/// What the core keeps per registered slot.
struct Slot {
    inbox: VecDeque<TransportEvent>,
    src: NodeId,
    dst: NodeId,
    /// The slot's *dense local rail space*: local rail `i` is the `i`-th
    /// rail both endpoints have a NIC on, `rail_map[local] == physical`.
    /// Rails are translated on submit and back on events, so the engine
    /// above never sees a rail it cannot use.
    rail_map: Vec<RailId>,
    /// Whether the source node's `NicIdle` events are routed here.
    idle_wanted: bool,
    /// On [`SimCore::ready`] already (a slot is listed at most once).
    listed: bool,
    /// The driver was dropped; nothing is routed here any more.
    retired: bool,
}

/// A simulator, the slots engines drive it through, and the fault replay.
pub(super) struct SimCore {
    sim: Simulator,
    /// One slot per registered driver.
    slots: Vec<Slot>,
    /// Slot indices by source node: who shares each node's NICs and cores.
    by_source: Vec<Vec<usize>>,
    /// Slots that received an event since [`SimCluster::take_ready_into`] last
    /// emptied this list.
    ready: Vec<usize>,
    /// Fault replay; `None` keeps every injection hook fully disabled.
    faults: Option<Box<ClusterFaults>>,
    /// The events of the step being routed, kept between pumps so a step
    /// allocates nothing.
    stepped: Vec<SimEvent>,
}

impl SimCore {
    /// A fault-free core over a fresh simulator for `spec`.
    pub(super) fn new(spec: ClusterSpec) -> Self {
        Self::over(Simulator::new(spec), None)
    }

    /// A core over a fresh simulator for `spec`, replaying `schedule`.
    ///
    /// Validates the schedule against the spec, compiles it to per-port
    /// transitions, and pins every distinct transition instant with a
    /// calendar wakeup so faults begin and end at their exact virtual time.
    pub(super) fn with_faults(
        spec: ClusterSpec,
        schedule: &ClusterFaultSchedule,
    ) -> Result<Self, String> {
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
            ledger: BTreeMap::new(),
            held: Vec::new(),
            next_rejected: 0,
        };
        let mut core = Self::over(sim, Some(Box::new(faults)));
        // Transitions scheduled at t=0 are already due: apply them now so
        // the first submission sees them without waiting for a pump.
        core.apply_transitions_until(SimTime::ZERO);
        Ok(core)
    }

    fn over(sim: Simulator, faults: Option<Box<ClusterFaults>>) -> Self {
        let by_source = vec![Vec::new(); sim.spec().nodes.len()];
        SimCore {
            sim,
            slots: Vec::new(),
            by_source,
            ready: Vec::new(),
            faults,
            stepped: Vec::new(),
        }
    }

    /// Registers a slot for the directed pair `src -> dst`. Panics when the
    /// pair shares no rail (the cluster is partitioned for this pair).
    pub(super) fn register(&mut self, src: NodeId, dst: NodeId) -> usize {
        assert_ne!(src, dst, "loopback pairs are not modeled");
        let rail_map: Vec<RailId> = self
            .sim
            .spec()
            .common_rails(src.index(), dst.index())
            .into_iter()
            .map(RailId)
            .collect();
        assert!(!rail_map.is_empty(), "nodes {src} and {dst} share no rail");
        let slot = self.slots.len();
        self.by_source[src.index()].push(slot);
        self.slots.push(Slot {
            inbox: VecDeque::new(),
            src,
            dst,
            rail_map,
            idle_wanted: true,
            listed: false,
            retired: false,
        });
        slot
    }

    /// Retires a slot: whoever drove it is gone, so nothing routed to its
    /// inbox from here on would ever be read.
    fn retire(&mut self, slot: usize) {
        let s = &mut self.slots[slot];
        s.retired = true;
        s.idle_wanted = false;
        s.inbox = VecDeque::new();
    }

    /// Routes one event to a slot's inbox and lists the slot as ready.
    // nm-analyzer: allow(unbounded-growth) -- an inbox is emptied by its driver's next poll and
    // takes nothing once the driver is dropped; the ready list holds each slot at most once
    // (`listed`), so it is bounded by the drivers registered
    fn deliver(&mut self, slot: usize, ev: TransportEvent) {
        let Some(s) = self.slots.get_mut(slot) else { return };
        if s.retired {
            return;
        }
        s.inbox.push_back(ev);
        if !s.listed {
            s.listed = true;
            self.ready.push(slot);
        }
    }

    /// Routes a NIC idle event of `node` to every slot sending from
    /// it (they share the NIC) that asked for idle events.
    fn deliver_idle(&mut self, node: NodeId, ev: &TransportEvent) {
        for k in 0..self.by_source[node.index()].len() {
            let slot = self.by_source[node.index()][k];
            if self.slots[slot].idle_wanted {
                self.deliver(slot, ev.clone());
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
                    let mut victims = Vec::new();
                    for (&id, (fate, slot, rail)) in f.ledger.iter_mut() {
                        let Slot { src, dst, .. } = self.slots[*slot];
                        let crosses =
                            *rail == t.rail && (src.index() == t.node || dst.index() == t.node);
                        if crosses && *fate != Fate::Killed {
                            *fate = Fate::Killed;
                            victims.push((id, *slot));
                        }
                    }
                    for (id, slot) in victims {
                        let failed = TransportEvent::ChunkFailed { chunk: ChunkId(id.0), at: t.at };
                        self.deliver(slot, failed);
                    }
                }
                Change::ShapeBegin { time_scale, extra_latency } => {
                    self.sim.set_nic_fault(NodeId(t.node), t.rail, time_scale, extra_latency);
                }
                Change::ShapeEnd => {
                    self.sim.clear_nic_fault(NodeId(t.node), t.rail);
                }
                Change::ReorderEnd => {
                    // Release what this port held in reverse arrival order,
                    // re-stamped at the storm's close (the original
                    // instants are in the past).
                    let (released, kept): (Vec<_>, Vec<_>) = std::mem::take(&mut f.held)
                        .into_iter()
                        .partition(|&(node, rail, ..)| node == t.node && rail == t.rail);
                    f.held = kept;
                    for (_, _, slot, transfer, corrupt) in released.into_iter().rev() {
                        self.deliver(slot, arrival(transfer, corrupt, t.at));
                    }
                }
                // Lottery windows act at submission time and a storm's
                // opening at delivery time, both via the state; down-end
                // only flips the state bit (already applied above).
                _ => {}
            }
        }
    }

    /// Routes a transfer's delivery to its slot as its [`Fate`] dictates
    /// (with no fault layer watching, it passes through).
    fn route_delivery(&mut self, transfer: TransferId, slot: usize, at: SimTime) {
        let Some(f) = self.faults.as_deref_mut() else {
            return self.deliver(slot, arrival(transfer, false, at));
        };
        let (fate, _, rail) = f
            .ledger
            .remove(&transfer)
            .expect("only a retracted transfer leaves the ledger early, and it never delivers");
        let (corrupt, copies) = match fate {
            Fate::Killed => return, // failure already reported at onset
            Fate::Doomed => {
                let failed = TransportEvent::ChunkFailed { chunk: ChunkId(transfer.0), at };
                return self.deliver(slot, failed);
            }
            Fate::Corrupt { detected: true } => (true, 1),
            Fate::Duplicate => (false, 2),
            Fate::Clean | Fate::Corrupt { detected: false } => (false, 1),
        };
        let Slot { src, dst, .. } = self.slots[slot];
        let storming =
            [src.index(), dst.index()].into_iter().find(|&n| f.state.reorder_active(n, rail));
        match storming {
            // Held until the storm closes (released reversed).
            Some(node) => {
                f.held.extend(std::iter::repeat_n((node, rail, slot, transfer, corrupt), copies));
            }
            None => {
                for _ in 0..copies {
                    self.deliver(slot, arrival(transfer, corrupt, at));
                }
            }
        }
    }

    /// Steps the simulator once and routes the produced events; `false`
    /// when the calendar is exhausted.
    fn pump(&mut self) -> bool {
        let mut events = std::mem::take(&mut self.stepped);
        let advanced = self.sim.step(&mut events);
        for ev in events.drain(..) {
            self.apply_transitions_until(event_time(&ev));
            match ev {
                // The tag is the submitting slot.
                SimEvent::Delivered { transfer, tag, at } => {
                    self.route_delivery(transfer, tag as usize, at);
                }
                SimEvent::SendDone { transfer, tag, at } => {
                    let killed = self.faults.as_deref().is_some_and(|f| {
                        f.ledger.get(&transfer).is_some_and(|e| e.0 == Fate::Killed)
                    });
                    if !killed {
                        let chunk = ChunkId(transfer.0);
                        self.deliver(tag as usize, TransportEvent::ChunkSendDone { chunk, at });
                    }
                }
                SimEvent::NicIdle { node, rail, at } => {
                    self.deliver_idle(node, &TransportEvent::RailIdle { rail, at });
                }
                SimEvent::Wakeup { token, at } => {
                    // Engine retry/probe timers route back to their slot;
                    // fault and watchdog tokens exist only to pin calendar
                    // instants (the step itself is the payload).
                    if token >= ENGINE_WAKEUP_BASE {
                        let slot = (token - ENGINE_WAKEUP_BASE) as usize;
                        self.deliver(slot, TransportEvent::Wakeup { at });
                    }
                }
                SimEvent::RtsArrived { .. } => {}
            }
        }
        self.stepped = events;
        advanced
    }

    pub(super) fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Physical rail behind a slot's local index.
    fn physical(&self, slot: usize, rail: RailId) -> RailId {
        self.slots[slot].rail_map[rail.index()]
    }

    pub(super) fn rail_count(&self, slot: usize) -> usize {
        self.slots[slot].rail_map.len()
    }

    pub(super) fn rail_name(&self, slot: usize, rail: RailId) -> String {
        self.sim.link(self.physical(slot, rail)).name.clone()
    }

    pub(super) fn rdv_threshold(&self, slot: usize, rail: RailId) -> u64 {
        self.sim.link(self.physical(slot, rail)).rdv_threshold
    }

    pub(super) fn rail_busy_until(&self, slot: usize, rail: RailId) -> SimTime {
        // Shared state: another engine's traffic from this node raises it.
        self.sim.nic_busy_until(self.slots[slot].src, self.physical(slot, rail))
    }

    pub(super) fn core_count(&self, slot: usize) -> usize {
        self.sim.spec().nodes[self.slots[slot].src.index()].cores
    }

    pub(super) fn idle_cores_into(&self, slot: usize, out: &mut Vec<CoreId>) {
        self.sim.idle_cores_into(self.slots[slot].src, out)
    }

    pub(super) fn submit(&mut self, slot: usize, chunk: ChunkSubmit) -> ChunkId {
        let Slot { src, dst, .. } = self.slots[slot];
        let rail = self.physical(slot, chunk.rail);
        let mut fate = Fate::Clean;
        if let Some(f) = self.faults.as_deref_mut() {
            if f.state.is_down(src.index(), rail) || f.state.is_down(dst.index(), rail) {
                // Either endpoint's port is dark: reject without touching
                // the simulator; the failure event carries a synthetic id.
                let id = ChunkId(REJECTED_CHUNK_BASE | f.next_rejected);
                f.next_rejected += 1;
                let at = self.sim.now();
                self.deliver(slot, TransportEvent::ChunkFailed { chunk: id, at });
                return id;
            }
            // Fixed draw order (tx port, then rx port) keeps the lottery's
            // RNG stream stable across runs.
            let tx = f.state.draw(src.index(), rail);
            let rx = f.state.draw(dst.index(), rail);
            let corrupt_header = tx.corrupt_header || rx.corrupt_header;
            fate = if tx.drop || rx.drop {
                Fate::Doomed
            } else if corrupt_header || tx.corrupt_payload || rx.corrupt_payload {
                Fate::Corrupt {
                    detected: corruption_detected(chunk.payload.as_ref(), corrupt_header),
                }
            } else if tx.duplicate || rx.duplicate {
                Fate::Duplicate
            } else {
                Fate::Clean
            };
        }
        let id = self.sim.submit(SendSpec {
            src,
            dst,
            rail,
            size: chunk.bytes,
            send_core: chunk.send_core,
            mode: chunk.mode,
            offload_delay: chunk.offload_delay,
            tag: slot as u32,
        });
        if let Some(f) = self.faults.as_deref_mut() {
            f.ledger.insert(id, (fate, slot, rail));
        }
        ChunkId(id.0)
    }

    pub(super) fn schedule_wakeup(&mut self, slot: usize, at: SimTime) {
        // Timers derived from an event's timestamp may land just before the
        // post-batch clock (a poll can drain several instants at once); the
        // contract is "wake no later than `at`", so clamp to now.
        let at = at.max(self.sim.now());
        self.sim.schedule_wakeup(at, ENGINE_WAKEUP_BASE + slot as u64);
    }

    pub(super) fn set_idle_interest(&mut self, slot: usize, wanted: bool) {
        self.slots[slot].idle_wanted = wanted;
    }

    pub(super) fn cancel_chunks(&mut self, chunks: &[ChunkId]) -> bool {
        // Synthetic rejected ids never reached the simulator (which refuses
        // any id it did not issue); there is nothing to retract behind them.
        let ids: Vec<TransferId> = chunks.iter().map(|c| TransferId(c.0)).collect();
        if !self.sim.try_cancel_all(&ids) {
            return false;
        }
        if let Some(f) = self.faults.as_deref_mut() {
            for id in &ids {
                f.ledger.remove(id);
            }
        }
        true
    }

    /// Appends the slot's next events to `out`, stepping the shared
    /// calendar until its inbox yields one; appends nothing only when the
    /// calendar is dry.
    pub(super) fn poll_into(&mut self, slot: usize, out: &mut Vec<TransportEvent>) {
        let before = out.len();
        while out.len() == before {
            if self.slots[slot].inbox.is_empty() && !self.pump() {
                return;
            }
            // Physical rail events fold into the local rail space; idle
            // notifications for rails this pair cannot use are dropped
            // (possibly leaving nothing — then keep pumping).
            let Slot { inbox, rail_map, .. } = &mut self.slots[slot];
            out.extend(inbox.drain(..).filter_map(|ev| {
                match ev {
                    TransportEvent::RailIdle { rail, at } => rail_map
                        .iter()
                        .position(|&r| r == rail)
                        .map(|local| TransportEvent::RailIdle { rail: RailId(local), at }),
                    other => Some(other),
                }
            }));
        }
    }
}

#[cfg(test)]
impl SimCore {
    /// Per-transfer entries the fault layer holds right now (none without
    /// a schedule).
    pub(super) fn fault_entries(&self) -> usize {
        self.faults.as_deref().map_or(0, |f| f.ledger.len() + f.held.len())
    }
}

/// The instant a simulator event fired at.
fn event_time(ev: &SimEvent) -> SimTime {
    match ev {
        SimEvent::Delivered { at, .. }
        | SimEvent::SendDone { at, .. }
        | SimEvent::RtsArrived { at, .. }
        | SimEvent::NicIdle { at, .. }
        | SimEvent::Wakeup { at, .. } => *at,
    }
}

/// `impl Transport` for a handle on one slot of a [`SimCore`]: every method
/// is the core's method of the same name, called on that slot. The caller
/// passes `self` and, in terms of it, how to reach the core (shared, then
/// exclusive) and which slot is the handle's.
macro_rules! slot_transport {
    ($handle:ty, $self:ident, $core:expr, $core_mut:expr, $slot:expr) => {
        impl Transport for $handle {
            fn now(&$self) -> SimTime {
                $core.now()
            }
            fn rail_count(&$self) -> usize {
                $core.rail_count($slot)
            }
            fn rail_name(&$self, rail: RailId) -> String {
                $core.rail_name($slot, rail)
            }
            fn rdv_threshold(&$self, rail: RailId) -> u64 {
                $core.rdv_threshold($slot, rail)
            }
            fn rail_busy_until(&$self, rail: RailId) -> SimTime {
                $core.rail_busy_until($slot, rail)
            }
            fn core_count(&$self) -> usize {
                $core.core_count($slot)
            }
            fn idle_cores(&$self) -> Vec<CoreId> {
                let mut out = Vec::new();
                $core.idle_cores_into($slot, &mut out);
                out
            }
            fn idle_cores_into(&$self, out: &mut Vec<CoreId>) {
                $core.idle_cores_into($slot, out)
            }
            fn submit(&mut $self, chunk: ChunkSubmit) -> ChunkId {
                $core_mut.submit($slot, chunk)
            }
            fn poll(&mut $self) -> Vec<TransportEvent> {
                let mut out = Vec::new();
                $core_mut.poll_into($slot, &mut out);
                out
            }
            fn poll_into(&mut $self, out: &mut Vec<TransportEvent>) {
                $core_mut.poll_into($slot, out)
            }
            fn schedule_wakeup(&mut $self, at: SimTime) {
                $core_mut.schedule_wakeup($slot, at)
            }
            fn set_idle_interest(&mut $self, wanted: bool) {
                $core_mut.set_idle_interest($slot, wanted)
            }
            fn cancel_chunks(&mut $self, chunks: &[ChunkId]) -> bool {
                $core_mut.cancel_chunks(chunks)
            }
        }
    };
}
pub(super) use slot_transport;

/// A multi-node simulated cluster shared by several pair drivers.
pub struct SimCluster {
    shared: Rc<RefCell<SimCore>>,
}

impl SimCluster {
    /// Wraps a cluster spec in a shared simulator.
    pub fn new(spec: ClusterSpec) -> Self {
        SimCluster { shared: Rc::new(RefCell::new(SimCore::new(spec))) }
    }

    /// Wraps a cluster spec in a shared simulator that replays `schedule`
    /// (validated against the spec). An empty schedule produces a cluster
    /// indistinguishable from [`SimCluster::new`].
    pub fn with_faults(spec: ClusterSpec, schedule: &ClusterFaultSchedule) -> Result<Self, String> {
        Ok(SimCluster { shared: Rc::new(RefCell::new(SimCore::with_faults(spec, schedule)?)) })
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
        let index = self.shared.borrow_mut().register(src, dst);
        PairDriver { shared: self.shared.clone(), index }
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
    /// ([`SimCluster::take_ready_into`]), so dependent sends are posted at
    /// their true virtual time instead of wherever another engine happened
    /// to drag the clock.
    pub fn pump_one(&self) -> bool {
        self.shared.borrow_mut().pump()
    }

    /// Replaces the contents of `pairs` with the `(src, dst)` of every
    /// driver whose inbox holds events routed since the previous call,
    /// ascending. The order is part of the modeled result: engines polled at
    /// one instant submit in that order. A driver that was polled in the
    /// meantime (its inbox is empty again) is left out. The caller keeps
    /// the buffer, so a steady-state pump allocates nothing here.
    pub fn take_ready_into(&self, pairs: &mut Vec<(usize, usize)>) {
        pairs.clear();
        let mut s = self.shared.borrow_mut();
        let s = &mut *s;
        for i in s.ready.drain(..) {
            let slot = &mut s.slots[i];
            slot.listed = false;
            if !slot.inbox.is_empty() {
                pairs.push((slot.src.index(), slot.dst.index()));
            }
        }
        pairs.sort_unstable();
    }

    /// Cumulative reserved time on the switch backplane of a physical rail
    /// (zero when the spec has no switch).
    pub fn switch_busy_total(&self, rail: RailId) -> nm_model::SimDuration {
        self.shared.borrow().sim.switch_busy_total(rail)
    }
}

/// One directed pair's view of the shared cluster: slot `index` of its
/// core. Rail indices at this interface are the slot's *local* ones.
pub struct PairDriver {
    shared: Rc<RefCell<SimCore>>,
    index: usize,
}

impl PairDriver {
    /// Events queued in this driver's inbox, deliverable by the next `poll`
    /// without advancing the shared clock.
    pub fn pending_events(&self) -> usize {
        self.shared.borrow().slots[self.index].inbox.len()
    }
}

impl Drop for PairDriver {
    fn drop(&mut self) {
        // Never panic in drop: skip the clean-up if the cluster is borrowed.
        if let Ok(mut core) = self.shared.try_borrow_mut() {
            core.retire(self.index);
        }
    }
}

slot_transport!(PairDriver, self, self.shared.borrow(), self.shared.borrow_mut(), self.index);

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
        // One iteration: the twin is noiseless, so the defaults' warmup and
        // repetitions would time the same instants again.
        let cfg = nm_sampler::SamplingConfig { iters: 1, warmup: 0, ..Default::default() };
        crate::predictor::Predictor::sampled(&mut sampler, &cfg, |i| spec.rails[i].rdv_threshold)
            .expect("sampling")
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
    fn an_offloaded_chunk_lands_on_a_core_its_destination_has() {
        // The split's second chunk leaves from core 1 of a 4-core node,
        // which a 1-core destination does not have. The destination picks
        // the receive core among its own, so the chunk lands on core 0.
        let spec = ClusterSpec {
            nodes: vec![NodeSpec::with_cores(4), NodeSpec::with_cores(1)],
            rails: builtin::paper_testbed(),
            switch: None,
        };
        let cluster = SimCluster::new(spec);
        let mut e = engine_on(&cluster, 0, 1, StrategyKind::MulticoreEager);
        let id = e.post_send(16 * 1024).expect("post");
        let done = e.wait(id).expect("wait");
        assert_eq!(done.size, 16 * 1024);
        assert!(e.stats().chunks_submitted > 1, "the message must be split across cores");
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
        assert_eq!(cluster.shared.borrow().slots[d01.index].rail_map, [RailId(1)]);
        assert_eq!(d01.rail_name(RailId(0)), "qsnet2");
        assert_eq!(d01.rdv_threshold(RailId(0)), spec.rails[1].rdv_threshold);

        let d02 = cluster.pair_driver(NodeId(0), NodeId(2));
        assert_eq!(d02.rail_count(), 2, "fully-attached pairs keep the identity map");

        d01.submit(crate::transport::ChunkSubmit {
            rail: RailId(0),
            bytes: MIB,
            send_core: CoreId(0),
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
        // Killed, retried and delivered: once the calendar is dry the fault
        // layer remembers none of them.
        e01.drain().expect("drain");
        while cluster.pump_one() {}
        assert_eq!(cluster.shared.borrow().fault_entries(), 0, "state kept for a finished chunk");
    }

    #[test]
    fn a_corrupting_port_strikes_transfers_into_and_out_of_it() {
        use nm_faults::{ClusterFaultSchedule, ClusterFaultSpec, FaultKind};
        let schedule = ClusterFaultSchedule::new(3).with(ClusterFaultSpec::port(
            1,
            RailId(0),
            SimTime::ZERO,
            FaultKind::PayloadCorrupt {
                prob: 1.0,
                duration: nm_model::SimDuration::from_micros(1_000_000),
            },
        ));
        let cluster = SimCluster::with_faults(three_node_spec(), &schedule).expect("schedule");
        // (driver, rail, must the chunk arrive corrupt)
        let mut cases = [
            (cluster.pair_driver(NodeId(0), NodeId(1)), RailId(0), true), // into the port
            (cluster.pair_driver(NodeId(1), NodeId(2)), RailId(0), true), // out of it
            (cluster.pair_driver(NodeId(0), NodeId(1)), RailId(1), false), // its other rail
            (cluster.pair_driver(NodeId(0), NodeId(2)), RailId(0), false), // the rail, elsewhere
        ];
        let ids: Vec<ChunkId> = cases
            .iter_mut()
            .map(|(d, rail, _)| d.submit(ChunkSubmit::new(*rail, 64 * 1024)))
            .collect();
        while cluster.pump_one() {}
        for ((d, rail, corrupt), id) in cases.iter_mut().zip(ids) {
            let ends: Vec<TransportEvent> = std::iter::from_fn(|| Some(d.poll()))
                .take_while(|evs| !evs.is_empty())
                .flatten()
                .filter(|ev| {
                    matches!(
                        ev,
                        TransportEvent::ChunkDelivered { .. } | TransportEvent::ChunkCorrupt { .. }
                    )
                })
                .collect();
            let want_corrupt = *corrupt;
            assert!(
                matches!(
                    ends[..],
                    [TransportEvent::ChunkCorrupt { chunk, .. }] if want_corrupt && chunk == id
                ) || matches!(
                    ends[..],
                    [TransportEvent::ChunkDelivered { chunk, .. }] if !want_corrupt && chunk == id
                ),
                "rail {rail:?}, corrupt {want_corrupt}: its owner saw {ends:?}"
            );
        }
        assert_eq!(cluster.shared.borrow().fault_entries(), 0, "state kept for a finished chunk");
    }

    #[test]
    fn fault_outcomes_reach_the_slot_that_submitted_the_transfer() {
        use nm_faults::{ClusterFaultSchedule, ClusterFaultSpec, FaultKind};
        let long = nm_model::SimDuration::from_micros(50_000);
        // Faults on node 1's rail-0 port, which nodes 0 and 2 both send into.
        let on_port = |at: SimTime, kind| {
            ClusterFaultSchedule::new(5).with(ClusterFaultSpec::port(1, RailId(0), at, kind))
        };
        let storm_ends = SimTime::ZERO + long;
        let down_at = SimTime::from_micros(100);
        // (schedule, chunk size, whether chunks fail, when each outcome surfaces)
        let cases = [
            // The storm holds every delivery past the simulator's own: by
            // release the simulator has forgotten the transfer.
            (
                on_port(SimTime::ZERO, FaultKind::ChunkReorderStorm { duration: long }),
                64 * 1024,
                false,
                storm_ends,
            ),
            // The port dies while every 1 MiB rendezvous still crosses it.
            (on_port(down_at, FaultKind::RailDown { duration: long }), MIB, true, down_at),
        ];
        for (schedule, bytes, fail, when) in cases {
            let cluster = SimCluster::with_faults(three_node_spec(), &schedule).expect("schedule");
            let mut senders = [
                cluster.pair_driver(NodeId(0), NodeId(1)),
                cluster.pair_driver(NodeId(2), NodeId(1)),
            ];
            let mut own: [Vec<ChunkId>; 2] = Default::default();
            for _ in 0..2 {
                for (d, ids) in senders.iter_mut().zip(&mut own) {
                    ids.push(d.submit(ChunkSubmit::new(RailId(0), bytes)));
                }
            }
            while cluster.pump_one() {}
            for (d, ids) in senders.iter_mut().zip(&own) {
                let mut outcomes: Vec<ChunkId> = std::iter::from_fn(|| Some(d.poll()))
                    .take_while(|evs| !evs.is_empty())
                    .flatten()
                    .filter_map(|ev| match ev {
                        TransportEvent::ChunkDelivered { chunk, at } if !fail && at == when => {
                            Some(chunk)
                        }
                        TransportEvent::ChunkFailed { chunk, at } if fail && at == when => {
                            Some(chunk)
                        }
                        TransportEvent::ChunkDelivered { .. }
                        | TransportEvent::ChunkFailed { .. }
                        | TransportEvent::ChunkCorrupt { .. } => {
                            panic!("fail {fail}: unexpected outcome {ev:?}")
                        }
                        _ => None,
                    })
                    .collect();
                outcomes.sort_unstable();
                assert_eq!(outcomes, *ids, "fail {fail}: each sender sees its own chunks, once");
            }
            assert_eq!(
                cluster.shared.borrow().fault_entries(),
                0,
                "state kept for a finished chunk"
            );
        }
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
        let mut ready = Vec::new();
        cluster.take_ready_into(&mut ready);
        assert!(!ready.contains(&(0, 2)), "a retired driver must not be listed ready: {ready:?}");
        // The pair can be served again by a fresh driver.
        let mut e02 = engine_on(&cluster, 0, 2, StrategyKind::HeteroSplit);
        let id = e02.post_send(MIB).expect("post");
        assert!(e02.wait(id).expect("wait").delivered_at > SimTime::ZERO);
    }

    #[test]
    fn take_ready_lists_each_filled_inbox_once_in_pair_order() {
        let cluster = SimCluster::new(three_node_spec());
        let mut ready = vec![(9, 9)];
        // Registered out of pair order on purpose.
        let mut e21 = engine_on(&cluster, 2, 1, StrategyKind::HeteroSplit);
        let mut e01 = engine_on(&cluster, 0, 1, StrategyKind::HeteroSplit);
        cluster.take_ready_into(&mut ready);
        assert!(ready.is_empty(), "nothing routed yet, and the old contents are cleared");
        let _ = e21.post_send(64 * 1024).expect("post");
        let _ = e01.post_send(64 * 1024).expect("post");
        // Both transfers run the same course on their own NICs: their
        // events fire at the same instants, several per inbox.
        while cluster.pump_one() {}
        assert!(e01.transport().pending_events() > 1 && e21.transport().pending_events() > 1);
        cluster.take_ready_into(&mut ready);
        assert_eq!(ready, [(0, 1), (2, 1)]);
        cluster.take_ready_into(&mut ready);
        assert!(ready.is_empty(), "listed once; nothing new arrived");
        // A driver polled behind the list's back is not reported.
        e01.drain().expect("drain");
        e21.drain().expect("drain");
        let _ = e21.post_send(64 * 1024).expect("post");
        while cluster.pump_one() {}
        let _ = e21.poll().expect("poll");
        cluster.take_ready_into(&mut ready);
        assert!(ready.is_empty());
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
