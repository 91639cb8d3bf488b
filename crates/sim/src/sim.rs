//! The discrete-event simulator.
//!
//! ## Transfer timelines
//!
//! **Eager (PIO)** — the sending core *and* the sending NIC are jointly
//! occupied for the copy duration `pio.copy_time(size)` (the host CPU
//! streams the payload into NIC memory, so injection bandwidth is CPU
//! bandwidth — the effect behind the paper's Fig 3/4). The payload then
//! reaches the destination where the receiving NIC *and* the receiving core
//! absorb a symmetric copy window; delivery lands exactly
//! `LinkModel::eager.time(size)` after injection start when nothing
//! contends. Two eager sends issued from one core serialize on the core;
//! offloaded sends (`offload_delay > 0`) start later but on another core.
//! The destination picks the receiving core: core 0, or for an offloaded
//! send its first core free when the receiving NIC can take the copy.
//!
//! **Rendezvous** — the sender posts an RTS (small core window, then a
//! control-latency flight), the receiver answers CTS immediately, and the
//! DMA phase occupies both NICs — but no core — for `rdv.time(size)`.
//! Uncontended end-to-end equals
//! `LinkModel::one_way_us_in_mode(size, Rendezvous)`.
//!
//! ## Event delivery
//!
//! The engine calls [`Simulator::step`] in a loop. Each step advances
//! virtual time to the next internal event and appends the public
//! [`SimEvent`]s it caused to the caller's buffer: deliveries, send
//! completions, RTS arrivals and *edge-triggered* transmit-idle
//! notifications (stale notifications are suppressed with generation
//! counters). This mirrors NewMadeleine's scheduler being "activated when a
//! NIC becomes idle in order to feed it". Nothing that cannot surface is
//! scheduled: receive-side NIC idleness and core idleness are never
//! checked — every deferred decision waits for a NIC.
//!
//! ## What the simulator keeps
//!
//! A transfer is held from [`Simulator::submit`] until its delivery or
//! retraction — its tag and reserved windows — and nothing of it after: its
//! instants are on the events `step` returns (`SendDone` and `Delivered`
//! carry the tag back) and, when enabled, in the trace. Memory follows what
//! is in flight, not how long the simulator has run. A retired transfer's
//! emptied window list is kept (up to a small fixed number) for the next
//! submission to fill, so a steady stream of transfers allocates none.

use crate::event::EventQueue;
use crate::ids::{CoreId, NicDir, NicKey, NodeId, RailId, TransferId};
use crate::resource::SerialResource;
use crate::topology::ClusterSpec;
use crate::trace::{Trace, TraceRecord};
use nm_model::{LinkModel, SimDuration, SimTime, TransferMode};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;

/// A send order from the engine.
#[derive(Debug, Clone)]
pub struct SendSpec {
    /// Source node.
    pub src: NodeId,
    /// Destination node (must differ from `src`).
    pub dst: NodeId,
    /// Rail to use.
    pub rail: RailId,
    /// Payload bytes.
    pub size: u64,
    /// Core performing the send-side work.
    pub send_core: CoreId,
    /// Force a protocol; `None` picks by the link's rendezvous threshold.
    pub mode: Option<TransferMode>,
    /// Extra delay before the send-side work may start — the offload cost
    /// T_O paid when the chunk was handed to another core (3 µs, or 6 µs
    /// with a preemption signal; paper §III-D). An offloaded eager transfer
    /// is also received off core 0: on the destination's first core free
    /// when its receive NIC can take the copy.
    pub offload_delay: SimDuration,
    /// The submitter's own label, opaque to the simulator and returned on
    /// the transfer's [`SimEvent::SendDone`] and [`SimEvent::Delivered`] —
    /// a driver multiplexing several engines over one simulator notes here
    /// whose transfer this is. No record keeps it past delivery.
    pub tag: u32,
}

impl SendSpec {
    /// A plain send from node `src` core 0 to node `dst` core 0.
    pub fn simple(src: NodeId, dst: NodeId, rail: RailId, size: u64) -> Self {
        SendSpec {
            src,
            dst,
            rail,
            size,
            send_core: CoreId(0),
            mode: None,
            offload_delay: SimDuration::ZERO,
            tag: 0,
        }
    }

    /// Sets the sending core.
    pub fn on_core(mut self, core: CoreId) -> Self {
        self.send_core = core;
        self
    }

    /// Forces the protocol.
    pub fn with_mode(mut self, mode: TransferMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Adds an offload delay (T_O).
    pub fn with_offload_delay(mut self, d: SimDuration) -> Self {
        self.offload_delay = d;
        self
    }
}

/// Public events produced by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// A rendezvous request reached the destination — the moment the paper's
    /// strategy is re-invoked ("when a rendezvous request has just been
    /// received", §III-B).
    RtsArrived {
        /// The transfer.
        transfer: TransferId,
        /// Arrival instant.
        at: SimTime,
    },
    /// Send-side completion: injection finished (eager) or DMA done (rdv).
    SendDone {
        /// The transfer.
        transfer: TransferId,
        /// Its [`SendSpec::tag`].
        tag: u32,
        /// Completion instant.
        at: SimTime,
    },
    /// Payload fully available at the destination.
    Delivered {
        /// The transfer.
        transfer: TransferId,
        /// Its [`SendSpec::tag`].
        tag: u32,
        /// Delivery instant.
        at: SimTime,
    },
    /// A NIC's transmit side transitioned busy → idle.
    NicIdle {
        /// Owning node.
        node: NodeId,
        /// Rail.
        rail: RailId,
        /// Transition instant.
        at: SimTime,
    },
    /// A wakeup requested with [`Simulator::schedule_wakeup`] fired.
    Wakeup {
        /// Caller-chosen token.
        token: u64,
        /// Firing instant.
        at: SimTime,
    },
}

/// A serially-occupied device, addressable for window bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum ResKey {
    NicTx(NodeId, RailId),
    NicRx(NodeId, RailId),
    Core(NodeId, CoreId),
    /// The rail's switch backplane (only exists under a
    /// [`crate::topology::SwitchSpec`]).
    Switch(RailId),
}

/// One reservation made on behalf of a transfer: enough to undo it.
#[derive(Debug, Clone, Copy)]
struct Window {
    res: ResKey,
    begin: SimTime,
    end: SimTime,
    /// The resource's busy-until before this reservation was made.
    prev: SimTime,
}

/// Emptied window lists a simulator keeps for reuse. One simulator serves
/// every engine of a cluster, so this covers what a synchronized round
/// keeps in flight: a 16-node all-to-all round has 32 eager transfers out
/// at once (two chunks per node). A burst deeper than this allocates its
/// overflow afresh and frees it at retirement, so memory after a burst
/// does not stay at the burst's depth.
const SPARE_WINDOW_LISTS: usize = 32;

/// What the simulator holds for a transfer until its delivery or retraction.
struct Live {
    /// [`SendSpec::tag`], returned on the transfer's events.
    tag: u32,
    /// The windows it reserved: what [`Simulator::try_cancel_all`] retracts.
    windows: Vec<Window>,
}

/// Internal calendar payloads.
#[derive(Debug, Clone)]
enum Ev {
    InjectEnd(TransferId),
    RecvEnd(TransferId),
    RtsArrive(TransferId),
    DmaEnd(TransferId),
    /// Transmit side of the NIC: the only idle edge the engine is fed.
    NicIdleCheck(NicKey, u64),
    Wakeup(u64),
}

/// The simulator.
///
/// ```
/// use nm_sim::{NodeId, RailId, SendSpec, Simulator};
///
/// let mut sim = Simulator::paper_testbed();
/// let id = sim.submit(SendSpec::simple(NodeId(0), NodeId(1), RailId(0), 4096));
/// let delivered = sim.run_until_delivered(id);
/// // An uncontended transfer lands exactly at the link model's one-way time.
/// let want = nm_model::builtin::myri_10g().one_way_us(4096).get();
/// assert!((delivered.as_micros_f64() - want).abs() < 0.01);
/// ```
pub struct Simulator {
    spec: ClusterSpec,
    now: SimTime,
    calendar: EventQueue<Ev>,
    /// Transfers in flight, indexed by `id − base`. Ids are issued in
    /// submission order as `base + live.len()`; delivery and retraction
    /// take an entry, and the taken prefix is popped.
    live: VecDeque<Option<Live>>,
    /// The id of `live[0]`: every transfer below it has retired.
    base: u64,
    /// Emptied window lists of retired transfers, for the next submissions
    /// to fill instead of allocating; at most [`SPARE_WINDOW_LISTS`].
    spare_windows: Vec<Vec<Window>>,
    /// Transmit side of `nics[node][rail]` (NICs are full duplex).
    nic_tx: Vec<Vec<SerialResource>>,
    /// Receive side of `nics[node][rail]`.
    nic_rx: Vec<Vec<SerialResource>>,
    /// `cores[node][core]`.
    cores: Vec<Vec<SerialResource>>,
    /// Per-rail switch backplane, `switch[rail]`; empty when the spec has
    /// no switch (ideal point-to-point cabling, the paper's world).
    switch: Vec<SerialResource>,
    /// Per-NIC-port fault shaping `nic_fault[node][rail]`, a
    /// `(time_scale, extra_latency)` applied to subsequently submitted
    /// transfers that touch the port; the two endpoints' entries compose
    /// (scales multiply, extra latencies add). Nominal entries compose
    /// exactly (`x * 1.0 == x`, `d + ZERO == d`) and `(1.0, ZERO)` bypasses
    /// the arithmetic entirely, so a cluster that never faults a port stays
    /// bit-identical.
    nic_fault: Vec<Vec<(f64, SimDuration)>>,
    trace: Trace,
    jitter_frac: f64,
    rng: StdRng,
}

impl Simulator {
    /// Builds a simulator for `spec`. Panics on an invalid spec.
    pub fn new(spec: ClusterSpec) -> Self {
        spec.validate().expect("invalid cluster spec");
        let mk_nics = |spec: &ClusterSpec| -> Vec<Vec<SerialResource>> {
            spec.nodes
                .iter()
                .map(|_| (0..spec.rail_count()).map(|_| SerialResource::new()).collect())
                .collect()
        };
        let nic_tx = mk_nics(&spec);
        let nic_rx = mk_nics(&spec);
        let cores = spec
            .nodes
            .iter()
            .map(|n| (0..n.cores).map(|_| SerialResource::new()).collect())
            .collect();
        let switch = if spec.switch.is_some() {
            (0..spec.rail_count()).map(|_| SerialResource::new()).collect()
        } else {
            Vec::new()
        };
        let nic_fault = vec![vec![(1.0, SimDuration::ZERO); spec.rail_count()]; spec.nodes.len()];
        Simulator {
            spec,
            now: SimTime::ZERO,
            calendar: EventQueue::new(),
            live: VecDeque::new(),
            base: 0,
            spare_windows: Vec::new(),
            nic_tx,
            nic_rx,
            cores,
            switch,
            nic_fault,
            trace: Trace::disabled(),
            jitter_frac: 0.0,
            rng: StdRng::seed_from_u64(0x6e6d_7369_6d00),
        }
    }

    /// The paper's two-node, two-rail, four-core testbed.
    pub fn paper_testbed() -> Self {
        Simulator::new(ClusterSpec::paper_testbed())
    }

    /// Enables multiplicative duration noise: every modeled duration is
    /// scaled by a factor drawn uniformly from `[1-frac, 1+frac]`.
    /// Deterministic for a given seed.
    pub fn with_jitter(mut self, frac: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&frac), "jitter fraction must be in [0,1)");
        self.jitter_frac = frac;
        self.rng = StdRng::seed_from_u64(seed);
        self
    }

    /// Turns on event tracing (see [`Trace`]).
    pub fn with_trace(mut self) -> Self {
        self.trace = Trace::enabled();
        self
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The cluster layout.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The performance model of a rail.
    pub fn link(&self, rail: RailId) -> &LinkModel {
        &self.spec.rails[rail.index()]
    }

    /// When the *transmit* side of the NIC `(node, rail)` drains its
    /// reservations — the quantity the engine's scheduler watches.
    pub fn nic_busy_until(&self, node: NodeId, rail: RailId) -> SimTime {
        self.nic_tx[node.index()][rail.index()].busy_until()
    }

    /// Cumulative time the switch backplane of `rail` has been reserved —
    /// each transfer contributes exactly one transit window, which the
    /// topology property tests pin (no double charging).
    /// [`SimDuration::ZERO`] when the cluster has no switch.
    pub fn switch_busy_total(&self, rail: RailId) -> SimDuration {
        self.switch.get(rail.index()).map_or(SimDuration::ZERO, SerialResource::busy_total)
    }

    /// Appends the cores of `node` idle at the current instant to `out`,
    /// ascending, allocating nothing when `out` has room.
    pub fn idle_cores_into(&self, node: NodeId, out: &mut Vec<CoreId>) {
        out.extend(
            self.cores[node.index()]
                .iter()
                .enumerate()
                .filter(|(_, c)| c.is_idle(self.now))
                .map(|(i, _)| CoreId(i)),
        );
    }

    /// Rails whose NIC on `node` is transmit-idle at the current instant.
    pub fn idle_rails(&self, node: NodeId) -> Vec<RailId> {
        self.nic_tx[node.index()]
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_idle(self.now))
            .map(|(i, _)| RailId(i))
            .collect()
    }

    /// The recorded trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    fn jitter(&mut self, d: SimDuration) -> SimDuration {
        if self.jitter_frac == 0.0 {
            return d;
        }
        let f: f64 = self.rng.random_range(-self.jitter_frac..=self.jitter_frac);
        d.mul_f64(1.0 + f)
    }

    /// Requests a [`SimEvent::Wakeup`] at `at` (used by workload drivers).
    pub fn schedule_wakeup(&mut self, at: SimTime, token: u64) {
        assert!(at >= self.now, "cannot schedule a wakeup in the past");
        self.calendar.push(at, Ev::Wakeup(token));
    }

    /// Sets fault shaping on one NIC port `(node, rail)`: modeled durations
    /// of transfers submitted *from now on* that touch the port (as sender
    /// or receiver) are stretched by `time_scale` and each one-way flight
    /// pays `extra_latency` on top, composed with the other endpoint's port
    /// (scales multiply, latencies add). `(1.0, ZERO)` is nominal — and with
    /// nominal shaping the computation is skipped outright, so an unfaulted
    /// simulator stays bit-identical to one that never heard of faults.
    pub fn set_nic_fault(
        &mut self,
        node: NodeId,
        rail: RailId,
        time_scale: f64,
        extra_latency: SimDuration,
    ) {
        assert!(
            time_scale.is_finite() && time_scale > 0.0,
            "fault time scale must be positive, got {time_scale}"
        );
        self.nic_fault[node.index()][rail.index()] = (time_scale, extra_latency);
    }

    /// Restores nominal shaping on one NIC port.
    pub fn clear_nic_fault(&mut self, node: NodeId, rail: RailId) {
        self.nic_fault[node.index()][rail.index()] = (1.0, SimDuration::ZERO);
    }

    /// Effective `(time_scale, extra_latency)` for a transfer: both
    /// endpoints' port slots composed. All-nominal inputs compose to
    /// exactly `(1.0, ZERO)` — IEEE multiplication by 1.0 and adding a zero
    /// duration are exact — so the fast-path guards in the submit
    /// arithmetic still skip faulting entirely.
    fn fault_shaping(&self, src: NodeId, dst: NodeId, rail: RailId) -> (f64, SimDuration) {
        let (src_scale, src_extra) = self.nic_fault[src.index()][rail.index()];
        let (dst_scale, dst_extra) = self.nic_fault[dst.index()][rail.index()];
        (src_scale * dst_scale, src_extra + dst_extra)
    }

    /// Submits a transfer; send-side work starts as soon as the required
    /// resources are free (and not before `now + offload_delay`).
    // nm-analyzer: allow(unbounded-growth) -- one entry per transfer between submit and its
    // delivery or retraction, plus retired holes behind the oldest live one (popped as it goes)
    pub fn submit(&mut self, spec: SendSpec) -> TransferId {
        self.validate_spec(&spec);
        let link = &self.spec.rails[spec.rail.index()];
        let mode = spec.mode.unwrap_or_else(|| link.mode_for(spec.size));
        let id = TransferId(self.base + self.live.len() as u64);
        let windows = match mode {
            TransferMode::Eager => self.submit_eager(id, &spec),
            TransferMode::Rendezvous => self.submit_rdv(id, &spec),
        };
        self.live.push_back(Some(Live { tag: spec.tag, windows }));
        id
    }

    fn validate_spec(&self, spec: &SendSpec) {
        assert!(spec.src.index() < self.spec.nodes.len(), "bad src node {:?}", spec.src);
        assert!(spec.dst.index() < self.spec.nodes.len(), "bad dst node {:?}", spec.dst);
        assert_ne!(spec.src, spec.dst, "loopback transfers are not modeled");
        assert!(spec.rail.index() < self.spec.rail_count(), "bad rail {:?}", spec.rail);
        assert!(
            self.spec.has_nic(spec.src.index(), spec.rail.index()),
            "node {:?} has no NIC on rail {:?}",
            spec.src,
            spec.rail
        );
        assert!(
            self.spec.has_nic(spec.dst.index(), spec.rail.index()),
            "node {:?} has no NIC on rail {:?}",
            spec.dst,
            spec.rail
        );
        assert!(
            spec.send_core.index() < self.spec.nodes[spec.src.index()].cores,
            "bad send core {:?}",
            spec.send_core
        );
        assert!(spec.size > 0, "zero-byte transfers are not modeled");
    }

    fn submit_eager(&mut self, id: TransferId, spec: &SendSpec) -> Vec<Window> {
        let mut windows = self.spare_windows.pop().unwrap_or_default();
        let link = &self.spec.rails[spec.rail.index()];
        let copy_raw = link.pio.copy_time(spec.size);
        let one_way_raw = link.eager.time(spec.size);
        let (fault_scale, fault_extra) = self.fault_shaping(spec.src, spec.dst, spec.rail);
        let mut copy = self.jitter(copy_raw);
        let mut one_way = self.jitter(one_way_raw);
        if fault_scale != 1.0 {
            copy = copy.mul_f64(fault_scale);
            one_way = one_way.mul_f64(fault_scale);
        }
        if fault_extra > SimDuration::ZERO {
            one_way += fault_extra;
        }
        // One-way time, floored to exceed the copy so the wire gap is >= 0.
        let one_way = one_way.max(copy + SimDuration::from_nanos(50));

        let earliest = self.now + spec.offload_delay;
        let core = &self.cores[spec.src.index()][spec.send_core.index()];
        let nic = &self.nic_tx[spec.src.index()][spec.rail.index()];
        let start = earliest.max(core.free_at(earliest)).max(nic.free_at(earliest));

        let (s, inject_end) =
            self.reserve(&mut windows, ResKey::Core(spec.src, spec.send_core), start, copy);
        debug_assert_eq!(s, start);
        let (_, nic_end) =
            self.reserve(&mut windows, ResKey::NicTx(spec.src, spec.rail), start, copy);
        debug_assert_eq!(nic_end, inject_end);

        self.trace.push(TraceRecord::CoreBusy {
            node: spec.src,
            core: spec.send_core,
            from: start,
            to: inject_end,
            transfer: id,
        });
        self.trace.push(TraceRecord::NicBusy {
            node: spec.src,
            rail: spec.rail,
            dir: NicDir::Tx,
            from: start,
            to: inject_end,
            transfer: id,
        });

        self.calendar.push(inject_end, Ev::InjectEnd(id));

        // The receive window (length `copy`) begins one wire-gap after
        // injection start, so uncontended delivery = start + one_way. Like
        // every other window it is reserved *at submit time*: each NIC and
        // core serves its reservations in submission order (NIC queues are
        // FIFO), which keeps submit-time pre-reservations (rendezvous) and
        // arrival-time work mutually consistent.
        let wire_arrive = start + (one_way - copy);
        // The payload crosses the switch backplane (when one is modeled)
        // between injection and receive: one transit window per transfer,
        // reserved from injection start. A backplane faster than the link
        // finishes inside the wire gap and delays nothing; a contended one
        // pushes the arrival out.
        let switch_clear = match self.switch_transit(spec.size) {
            Some(transit) => {
                let sw = &self.switch[spec.rail.index()];
                let sw_start = start.max(sw.free_at(start));
                let (_, sw_end) =
                    self.reserve(&mut windows, ResKey::Switch(spec.rail), sw_start, transit);
                sw_end
            }
            None => wire_arrive,
        };
        let arrive = wire_arrive.max(switch_clear);
        let nic_ready =
            arrive.max(self.nic_rx[spec.dst.index()][spec.rail.index()].free_at(arrive));
        let recv_core = self.recv_core(spec, nic_ready);
        let recv_start = self.cores[spec.dst.index()][recv_core.index()].free_at(nic_ready);
        let (_, recv_end) =
            self.reserve(&mut windows, ResKey::NicRx(spec.dst, spec.rail), recv_start, copy);
        self.reserve(&mut windows, ResKey::Core(spec.dst, recv_core), recv_start, copy);
        self.trace.push(TraceRecord::NicBusy {
            node: spec.dst,
            rail: spec.rail,
            dir: NicDir::Rx,
            from: recv_start,
            to: recv_end,
            transfer: id,
        });
        self.trace.push(TraceRecord::CoreBusy {
            node: spec.dst,
            core: recv_core,
            from: recv_start,
            to: recv_end,
            transfer: id,
        });
        self.calendar.push(recv_end, Ev::RecvEnd(id));
        let nic_gen = self.nic_tx[spec.src.index()][spec.rail.index()].generation();
        self.calendar.push(
            inject_end,
            Ev::NicIdleCheck(NicKey { node: spec.src, rail: spec.rail }, nic_gen),
        );
        windows
    }

    /// The destination core that takes an eager transfer's receive copy
    /// once its receive NIC can, at `nic_ready`. A transfer sent from the
    /// application core takes core 0; an offloaded one takes the
    /// lowest-index core free by then, else the one that frees first:
    /// every core free at `nic_ready` ties there, and `min_by_key` keeps
    /// the first of a tie.
    fn recv_core(&self, spec: &SendSpec, nic_ready: SimTime) -> CoreId {
        if spec.offload_delay == SimDuration::ZERO {
            return CoreId(0);
        }
        self.cores[spec.dst.index()]
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.free_at(nic_ready))
            .map_or(CoreId(0), |(i, _)| CoreId(i))
    }

    fn submit_rdv(&mut self, id: TransferId, spec: &SendSpec) -> Vec<Window> {
        let mut windows = self.spare_windows.pop().unwrap_or_default();
        let link = &self.spec.rails[spec.rail.index()];
        let (setup_us, ctrl_us) = (link.rdv_setup_us, link.ctrl_latency_us);
        let rdv_raw = link.rdv.time(spec.size);
        let (fault_scale, fault_extra) = self.fault_shaping(spec.src, spec.dst, spec.rail);
        let setup = self.jitter(SimDuration::from_micros_f64(setup_us));
        let mut rts_flight = self.jitter(SimDuration::from_micros_f64(ctrl_us));
        let mut cts_flight = self.jitter(SimDuration::from_micros_f64(ctrl_us));
        let mut dma = self.jitter(rdv_raw);
        if fault_scale != 1.0 {
            dma = dma.mul_f64(fault_scale);
        }
        if fault_extra > SimDuration::ZERO {
            rts_flight += fault_extra;
            cts_flight += fault_extra;
        }

        let earliest = self.now + spec.offload_delay;
        let core = &self.cores[spec.src.index()][spec.send_core.index()];
        let start = earliest.max(core.free_at(earliest));
        let (_, post_end) =
            self.reserve(&mut windows, ResKey::Core(spec.src, spec.send_core), start, setup);

        self.trace.push(TraceRecord::CoreBusy {
            node: spec.src,
            core: spec.send_core,
            from: start,
            to: post_end,
            transfer: id,
        });

        let rts_arrive = post_end + rts_flight;
        self.calendar.push(rts_arrive, Ev::RtsArrive(id));

        // The DMA window is reserved on both NICs *now*: the engine that
        // queued this rendezvous knows the rail is claimed (its busy-until
        // predictions would otherwise see a spuriously idle NIC for the
        // whole handshake). The receiver is modeled as granting CTS
        // immediately, so the window placement is already known.
        let cts_arrive = rts_arrive + cts_flight;
        let transit = self.switch_transit(spec.size);
        let tx = &self.nic_tx[spec.src.index()][spec.rail.index()];
        let rx = &self.nic_rx[spec.dst.index()][spec.rail.index()];
        let mut dma_start = cts_arrive.max(tx.free_at(cts_arrive)).max(rx.free_at(cts_arrive));
        if transit.is_some() {
            dma_start = dma_start.max(self.switch[spec.rail.index()].free_at(dma_start));
        }
        let (_, dma_end) =
            self.reserve(&mut windows, ResKey::NicTx(spec.src, spec.rail), dma_start, dma);
        self.reserve(&mut windows, ResKey::NicRx(spec.dst, spec.rail), dma_start, dma);
        // The DMA stream crosses the backplane cut-through: its transit
        // window overlaps the DMA window and only outlives it on a slow
        // (oversubscribed) switch, in which case delivery waits for it.
        let finish = match transit {
            Some(t) => {
                let (_, sw_end) =
                    self.reserve(&mut windows, ResKey::Switch(spec.rail), dma_start, t);
                dma_end.max(sw_end)
            }
            None => dma_end,
        };
        for (node, dir) in [(spec.src, NicDir::Tx), (spec.dst, NicDir::Rx)] {
            self.trace.push(TraceRecord::NicBusy {
                node,
                rail: spec.rail,
                dir,
                from: dma_start,
                to: dma_end,
                transfer: id,
            });
        }
        self.calendar.push(finish, Ev::DmaEnd(id));
        let tx_gen = self.nic_tx[spec.src.index()][spec.rail.index()].generation();
        self.calendar
            .push(dma_end, Ev::NicIdleCheck(NicKey { node: spec.src, rail: spec.rail }, tx_gen));
        windows
    }

    /// The backplane transit duration of a `size`-byte transfer, or `None`
    /// when no switch is modeled.
    fn switch_transit(&self, size: u64) -> Option<SimDuration> {
        self.spec.switch.as_ref().map(|sw| sw.transit(size))
    }

    fn resource(&self, res: ResKey) -> &SerialResource {
        match res {
            ResKey::NicTx(node, rail) => &self.nic_tx[node.index()][rail.index()],
            ResKey::NicRx(node, rail) => &self.nic_rx[node.index()][rail.index()],
            ResKey::Core(node, core) => &self.cores[node.index()][core.index()],
            ResKey::Switch(rail) => &self.switch[rail.index()],
        }
    }

    fn resource_mut(&mut self, res: ResKey) -> &mut SerialResource {
        match res {
            ResKey::NicTx(node, rail) => &mut self.nic_tx[node.index()][rail.index()],
            ResKey::NicRx(node, rail) => &mut self.nic_rx[node.index()][rail.index()],
            ResKey::Core(node, core) => &mut self.cores[node.index()][core.index()],
            ResKey::Switch(rail) => &mut self.switch[rail.index()],
        }
    }

    /// Reserves `res` and appends the window to the transfer's `windows`,
    /// which [`Self::try_cancel_all`] retracts while the transfer is live.
    fn reserve(
        &mut self,
        windows: &mut Vec<Window>,
        res: ResKey,
        start: SimTime,
        duration: SimDuration,
    ) -> (SimTime, SimTime) {
        let r = self.resource_mut(res);
        let prev = r.busy_until();
        let (begin, end) = r.reserve(start, duration);
        windows.push(Window { res, begin, end, prev });
        (begin, end)
    }

    /// `id`'s entry; `None` if it was never issued, delivered or retracted.
    fn live(&self, id: TransferId) -> Option<&Live> {
        self.live.get(usize::try_from(id.0.checked_sub(self.base)?).ok()?)?.as_ref()
    }

    /// Takes `id`'s entry at its delivery or retraction, pops the retired
    /// prefix, so the table spans only what is in flight, and keeps the
    /// emptied window list for a later submission. Returns the tag.
    fn retire(&mut self, id: TransferId) -> Option<u32> {
        let i = usize::try_from(id.0.checked_sub(self.base)?).ok()?;
        let Live { tag, mut windows } = self.live.get_mut(i)?.take()?;
        while let Some(None) = self.live.front() {
            self.live.pop_front();
            self.base += 1;
        }
        if self.spare_windows.len() < SPARE_WINDOW_LISTS {
            windows.clear();
            self.spare_windows.push(windows);
        }
        Some(tag)
    }

    /// Atomically retracts a set of not-yet-started transfers, releasing
    /// every resource window they reserved. Succeeds (returns `true`) only
    /// when, for every transfer in the set: it is live (issued, neither
    /// delivered nor retracted), nothing of it has been served yet (every
    /// window begins strictly after `now`, so nothing was sent) and the
    /// set's windows form the exact tail of each touched resource's
    /// reservation chain — i.e. no outside transfer queued behind them.
    /// On failure nothing is mutated.
    ///
    /// Cancelled transfers produce no further `Delivered`/`SendDone`
    /// events; their already-scheduled idle checks fire at the original
    /// window ends and report the (now earlier) idle transitions late,
    /// which is conservative but correct.
    pub fn try_cancel_all(&mut self, ids: &[TransferId]) -> bool {
        use std::collections::BTreeMap;
        if ids.is_empty() {
            return false;
        }
        for &id in ids {
            // Never issued, delivered or already retracted: nothing to retract.
            let Some(live) = self.live(id) else {
                return false;
            };
            if live.windows.iter().any(|w| w.begin <= self.now) {
                return false;
            }
        }
        // Resource-ordered so retraction replays identically across runs.
        let mut groups: BTreeMap<ResKey, Vec<Window>> = BTreeMap::new();
        for live in ids.iter().filter_map(|&id| self.live(id)) {
            for w in &live.windows {
                groups.entry(w.res).or_default().push(*w);
            }
        }
        for (res, ws) in &mut groups {
            ws.sort_by_key(|w| w.end);
            // Walking tail-first, each window must end exactly where the
            // chain currently ends, and expose its predecessor's end as
            // the next expected tail. A duplicate id or an interleaved
            // outside reservation breaks the chain and rejects the set.
            let mut expect_end = self.resource(*res).busy_until();
            for w in ws.iter().rev() {
                if w.end != expect_end {
                    return false;
                }
                expect_end = w.prev;
            }
        }
        for (res, ws) in &groups {
            for w in ws.iter().rev() {
                self.resource_mut(*res).retract(w.prev, w.end - w.begin);
            }
        }
        for &id in ids {
            self.retire(id);
        }
        true
    }

    /// Advances through internal events until one produces public events,
    /// and appends those to `out`. Returns `false`, appending nothing, only
    /// when the calendar is exhausted.
    pub fn step(&mut self, out: &mut Vec<SimEvent>) -> bool {
        let before = out.len();
        while out.len() == before {
            let Some((at, ev)) = self.calendar.pop() else {
                return false;
            };
            debug_assert!(at >= self.now, "calendar went backwards");
            self.now = at;
            self.handle(ev, out);
        }
        true
    }

    /// Runs the calendar dry, collecting every public event.
    pub fn run_until_idle(&mut self) -> Vec<SimEvent> {
        let mut all = Vec::new();
        while self.step(&mut all) {}
        all
    }

    /// Steps until transfer `id` raises [`SimEvent::Delivered`] and returns
    /// its instant, dropping the events stepped past. `id` must be live —
    /// submitted, neither delivered nor retracted — since nothing is kept
    /// about a transfer afterwards: panics naming `id` if it is not, and if
    /// the calendar drains first.
    pub fn run_until_delivered(&mut self, id: TransferId) -> SimTime {
        assert!(self.live(id).is_some(), "{id} is not live: never issued, delivered or retracted");
        let mut batch = Vec::new();
        loop {
            batch.clear();
            if !self.step(&mut batch) {
                panic!("calendar drained but {id} was never delivered");
            }
            let delivered = batch.iter().find_map(|e| match *e {
                SimEvent::Delivered { transfer, at, .. } if transfer == id => Some(at),
                _ => None,
            });
            if let Some(at) = delivered {
                return at;
            }
        }
    }

    fn handle(&mut self, ev: Ev, out: &mut Vec<SimEvent>) {
        // An event of a transfer that is no longer live (it was retracted)
        // is inert: calendar entries are cheaper to ignore than unschedule.
        match ev {
            Ev::InjectEnd(id) => {
                if let Some(live) = self.live(id) {
                    out.push(SimEvent::SendDone { transfer: id, tag: live.tag, at: self.now });
                }
            }
            Ev::RecvEnd(id) => {
                if let Some(tag) = self.retire(id) {
                    self.trace.push(TraceRecord::Delivered { transfer: id, at: self.now });
                    out.push(SimEvent::Delivered { transfer: id, tag, at: self.now });
                }
            }
            Ev::RtsArrive(id) => {
                // The DMA window was placed at submit time (receiver grants
                // CTS immediately); this event only informs the engine.
                if self.live(id).is_some() {
                    out.push(SimEvent::RtsArrived { transfer: id, at: self.now });
                }
            }
            Ev::DmaEnd(id) => {
                if let Some(tag) = self.retire(id) {
                    self.trace.push(TraceRecord::Delivered { transfer: id, at: self.now });
                    out.push(SimEvent::SendDone { transfer: id, tag, at: self.now });
                    out.push(SimEvent::Delivered { transfer: id, tag, at: self.now });
                }
            }
            Ev::NicIdleCheck(key, gen) => {
                let nic = &self.nic_tx[key.node.index()][key.rail.index()];
                if nic.idle_event_is_current(gen) && nic.is_idle(self.now) {
                    out.push(SimEvent::NicIdle { node: key.node, rail: key.rail, at: self.now });
                }
            }
            Ev::Wakeup(token) => {
                out.push(SimEvent::Wakeup { token, at: self.now });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_model::builtin;
    use nm_model::units::{KIB, MIB};

    fn sim() -> Simulator {
        Simulator::paper_testbed()
    }

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);
    const MYRI: RailId = RailId(0);
    const QUAD: RailId = RailId(1);

    /// The instant `id` raised `Delivered` among a run's events.
    fn delivered(events: &[SimEvent], id: TransferId) -> SimTime {
        events
            .iter()
            .find_map(|e| match *e {
                SimEvent::Delivered { transfer, at, .. } if transfer == id => Some(at),
                _ => None,
            })
            .unwrap_or_else(|| panic!("{id} was never delivered"))
    }

    /// The instant `id` raised `SendDone` among a run's events.
    fn send_done(events: &[SimEvent], id: TransferId) -> SimTime {
        events
            .iter()
            .find_map(|e| match *e {
                SimEvent::SendDone { transfer, at, .. } if transfer == id => Some(at),
                _ => None,
            })
            .unwrap_or_else(|| panic!("{id} never completed its send side"))
    }

    /// Whether `id` ran the rendezvous handshake.
    fn rts_arrived(events: &[SimEvent], id: TransferId) -> bool {
        events.iter().any(|e| matches!(*e, SimEvent::RtsArrived { transfer, .. } if transfer == id))
    }

    /// When `id` started: the earliest window it holds in a traced run.
    fn started(s: &Simulator, id: TransferId) -> SimTime {
        s.trace()
            .records()
            .iter()
            .filter_map(|r| match *r {
                TraceRecord::NicBusy { from, transfer, .. }
                | TraceRecord::CoreBusy { from, transfer, .. }
                    if transfer == id =>
                {
                    Some(from)
                }
                _ => None,
            })
            .min()
            .unwrap_or_else(|| panic!("{id} holds no traced window"))
    }

    #[test]
    fn uncontended_eager_matches_analytic_model() {
        for (rail, link) in [(MYRI, builtin::myri_10g()), (QUAD, builtin::qsnet2())] {
            for size in [4u64, 64, 1024, 16 * KIB, 64 * KIB] {
                let mut s = sim();
                let id = s.submit(SendSpec::simple(N0, N1, rail, size));
                let at = s.run_until_delivered(id);
                let want = link.one_way_us(size).get();
                let got = at.as_micros_f64();
                assert!(
                    (got - want).abs() < 0.01,
                    "{} size {size}: sim {got:.3}us vs model {want:.3}us",
                    link.name
                );
            }
        }
    }

    #[test]
    fn uncontended_rendezvous_matches_analytic_model() {
        for (rail, link) in [(MYRI, builtin::myri_10g()), (QUAD, builtin::qsnet2())] {
            for size in [256 * KIB, MIB, 4 * MIB] {
                let mut s = sim();
                let id = s.submit(SendSpec::simple(N0, N1, rail, size));
                let events = s.run_until_idle();
                assert!(rts_arrived(&events, id), "{size} B must run as a rendezvous");
                let at = delivered(&events, id);
                let want = link.one_way_us(size).get();
                let got = at.as_micros_f64();
                assert!(
                    (got - want).abs() < 0.01,
                    "{} size {size}: sim {got:.3}us vs model {want:.3}us",
                    link.name
                );
            }
        }
    }

    #[test]
    fn eager_sends_from_one_core_serialize() {
        // Two 8 KiB eager sends on *different rails* but the same core: the
        // second injection cannot start before the first copy ends (Fig 4a).
        let size = 8 * KIB;
        let mut s = sim().with_trace();
        let a = s.submit(SendSpec::simple(N0, N1, MYRI, size));
        let b = s.submit(SendSpec::simple(N0, N1, QUAD, size));
        let events = s.run_until_idle();
        let a_start = started(&s, a);
        let b_start = started(&s, b);
        let a_inject_end = send_done(&events, a);
        assert_eq!(a_start, SimTime::ZERO);
        assert_eq!(b_start, a_inject_end, "second PIO copy must wait for the core");
    }

    #[test]
    fn eager_sends_on_two_cores_proceed_in_parallel() {
        // Same two sends, issued from different cores: both start at t=0
        // (Fig 4c without the offload delay).
        let size = 8 * KIB;
        let mut s = sim().with_trace();
        let a = s.submit(SendSpec::simple(N0, N1, MYRI, size));
        let b = s.submit(SendSpec::simple(N0, N1, QUAD, size).on_core(CoreId(1)));
        s.run_until_idle();
        assert_eq!(started(&s, a), SimTime::ZERO);
        assert_eq!(started(&s, b), SimTime::ZERO);
    }

    #[test]
    fn offload_delay_postpones_start() {
        let mut s = sim().with_trace();
        let d = SimDuration::from_micros(3);
        let id = s.submit(
            SendSpec::simple(N0, N1, MYRI, 4 * KIB).on_core(CoreId(2)).with_offload_delay(d),
        );
        s.run_until_idle();
        assert_eq!(started(&s, id), SimTime::ZERO + d);
    }

    /// The core and start of `id`'s receive copy at `dst` in a traced run.
    fn recv_copy(s: &Simulator, id: TransferId, dst: NodeId) -> (CoreId, SimTime) {
        s.trace()
            .records()
            .iter()
            .find_map(|r| match *r {
                TraceRecord::CoreBusy { node, core, from, transfer, .. }
                    if transfer == id && node == dst =>
                {
                    Some((core, from))
                }
                _ => None,
            })
            .unwrap_or_else(|| panic!("{id} holds no receive copy at {dst:?}"))
    }

    #[test]
    fn an_offloaded_transfer_is_received_on_the_first_free_core() {
        // Node 1 copies its own two sends on cores 0 and 1 while node 0's
        // offloaded chunk arrives: core 2 takes the copy at once, so the
        // chunk lands one uncontended one-way after it started.
        let size = 4 * KIB;
        let mut s = sim().with_trace();
        let own = [
            s.submit(SendSpec::simple(N1, N0, MYRI, 16 * KIB)),
            s.submit(SendSpec::simple(N1, N0, QUAD, 16 * KIB).on_core(CoreId(1))),
        ];
        let d = SimDuration::from_micros(3);
        let id =
            s.submit(SendSpec::simple(N0, N1, MYRI, size).on_core(CoreId(1)).with_offload_delay(d));
        let events = s.run_until_idle();
        let (core, from) = recv_copy(&s, id, N1);
        assert_eq!(core, CoreId(2));
        assert!(own.iter().all(|&o| send_done(&events, o) > from), "cores 0 and 1 were busy");
        let one_way = builtin::myri_10g().one_way_us(size).get();
        let took = (delivered(&events, id) - started(&s, id)).as_micros_f64();
        assert!((took - one_way).abs() < 0.01, "{took:.3}us vs uncontended {one_way:.3}us");
    }

    #[test]
    fn a_transfer_that_is_not_offloaded_is_received_on_core_0() {
        // The receive-side twin of `eager_sends_from_one_core_serialize`:
        // node 1's own copy holds core 0, and the incoming copy waits for
        // it although three other cores are idle. (It leaves node 0 from
        // core 1, with no offload delay, so that node 0's core 0, busy
        // receiving node 1's send, does not hold it back.)
        let mut s = sim().with_trace();
        let own = s.submit(SendSpec::simple(N1, N0, QUAD, 16 * KIB));
        let id = s.submit(SendSpec::simple(N0, N1, MYRI, 4 * KIB).on_core(CoreId(1)));
        let events = s.run_until_idle();
        assert_eq!(recv_copy(&s, id, N1), (CoreId(0), send_done(&events, own)));
    }

    #[test]
    fn a_receive_delayed_by_its_nic_reuses_a_core_freed_by_then() {
        // Node 2's 16 KiB chunk holds node 1's Myri receive NIC and core 0
        // when node 0's offloaded chunk arrives. The NIC can take the copy
        // only when that copy ends, and core 0 is free again by then: it is
        // reused, and idle core 1 is not taken.
        let n2 = NodeId(2);
        let mut s =
            Simulator::new(ClusterSpec::homogeneous(3, 4, builtin::paper_testbed())).with_trace();
        let first = s.submit(SendSpec::simple(n2, N1, MYRI, 16 * KIB));
        let d = SimDuration::from_micros(3);
        let id = s.submit(
            SendSpec::simple(N0, N1, MYRI, 4 * KIB).on_core(CoreId(1)).with_offload_delay(d),
        );
        let events = s.run_until_idle();
        let first_end = delivered(&events, first);
        let arrive = started(&s, id) + builtin::myri_10g().eager.time(4 * KIB)
            - builtin::myri_10g().pio.copy_time(4 * KIB);
        assert!(arrive < first_end, "the chunk must queue on the receive NIC");
        assert_eq!(recv_copy(&s, id, N1), (CoreId(0), first_end));
    }

    #[test]
    fn rendezvous_dma_phases_on_distinct_rails_overlap() {
        // Two 2 MiB rendezvous transfers on different rails: DMA phases
        // overlap almost entirely (cores are free during DMA).
        let size = 2 * MIB;
        let mut s = sim();
        let a = s.submit(SendSpec::simple(N0, N1, MYRI, size));
        let b = s.submit(SendSpec::simple(N0, N1, QUAD, size));
        let events = s.run_until_idle();
        let a_done = delivered(&events, a).as_micros_f64();
        let b_done = delivered(&events, b).as_micros_f64();
        let serial =
            (builtin::myri_10g().one_way_us(size) + builtin::qsnet2().one_way_us(size)).get();
        let parallel_end = a_done.max(b_done);
        assert!(
            parallel_end < 0.75 * serial,
            "DMA phases should overlap: end {parallel_end:.0}us vs serial {serial:.0}us"
        );
    }

    #[test]
    fn same_rail_transfers_serialize_on_the_nic() {
        let size = MIB;
        let mut s = sim();
        let a = s.submit(SendSpec::simple(N0, N1, MYRI, size));
        let b = s.submit(SendSpec::simple(N0, N1, MYRI, size));
        let events = s.run_until_idle();
        let a_done = delivered(&events, a);
        let b_done = delivered(&events, b);
        assert!(b_done > a_done, "same-rail DMA must serialize");
        let gap = (b_done - a_done).as_micros_f64();
        let dma = builtin::myri_10g().rdv.time_us(size);
        assert!((gap - dma).abs() / dma < 0.05, "gap {gap:.0}us vs dma {dma:.0}us");
    }

    #[test]
    fn nic_idle_events_fire_once_and_only_when_truly_idle() {
        let mut s = sim();
        s.submit(SendSpec::simple(N0, N1, MYRI, 4 * KIB));
        s.submit(SendSpec::simple(N0, N1, MYRI, 4 * KIB));
        let events = s.run_until_idle();
        let idles: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, SimEvent::NicIdle { node, rail, .. } if *node == N0 && *rail == MYRI))
            .collect();
        assert_eq!(idles.len(), 1, "one busy->idle transition expected, got {idles:?}");
    }

    #[test]
    fn rts_arrival_is_visible_to_the_engine() {
        let mut s = sim();
        let id = s.submit(SendSpec::simple(N0, N1, MYRI, MIB));
        let events = s.run_until_idle();
        let rts = events.iter().find_map(|e| match e {
            SimEvent::RtsArrived { transfer, at } if *transfer == id => Some(*at),
            _ => None,
        });
        let at = rts.expect("RTS must be announced");
        let link = builtin::myri_10g();
        let want = link.rdv_setup_us + link.ctrl_latency_us;
        assert!((at.as_micros_f64() - want).abs() < 0.01);
    }

    #[test]
    fn forced_mode_overrides_threshold() {
        let mut s = sim();
        let id = s.submit(SendSpec::simple(N0, N1, MYRI, MIB).with_mode(TransferMode::Eager));
        let events = s.run_until_idle();
        assert!(!rts_arrived(&events, id), "a forced eager send runs no handshake");
        let at = delivered(&events, id);
        let want = builtin::myri_10g().one_way_us_in_mode(MIB, TransferMode::Eager).get();
        assert!((at.as_micros_f64() - want).abs() < 0.01);
    }

    #[test]
    fn wakeups_fire_in_order() {
        let mut s = sim();
        s.schedule_wakeup(SimTime::from_micros(10), 1);
        s.schedule_wakeup(SimTime::from_micros(5), 2);
        let events = s.run_until_idle();
        assert_eq!(
            events,
            vec![
                SimEvent::Wakeup { token: 2, at: SimTime::from_micros(5) },
                SimEvent::Wakeup { token: 1, at: SimTime::from_micros(10) },
            ]
        );
        assert_eq!(s.now(), SimTime::from_micros(10));
    }

    #[test]
    fn jitter_changes_durations_but_stays_deterministic() {
        let run = |seed: u64| {
            let mut s = Simulator::paper_testbed().with_jitter(0.05, seed);
            let id = s.submit(SendSpec::simple(N0, N1, MYRI, 64 * KIB));
            s.run_until_delivered(id).as_micros_f64()
        };
        let a1 = run(7);
        let a2 = run(7);
        let b = run(8);
        assert_eq!(a1, a2, "same seed must reproduce");
        assert_ne!(a1, b, "different seeds should differ");
        let clean = builtin::myri_10g().one_way_us(64 * KIB).get();
        assert!((a1 - clean).abs() / clean < 0.12, "jitter bounded by ~2x frac");
    }

    #[test]
    fn trace_captures_the_iso_split_idle_gap_shape() {
        // 2 MiB on each rail (roughly iso-split of 4 MiB): Myri finishes
        // first and sits idle while Quadrics drains — the §IV-A effect.
        let size = 2 * MIB;
        let mut s = Simulator::paper_testbed().with_trace();
        let a = s.submit(SendSpec::simple(N0, N1, MYRI, size));
        let b = s.submit(SendSpec::simple(N0, N1, QUAD, size));
        let events = s.run_until_idle();
        let myri_done = delivered(&events, a);
        let quad_done = delivered(&events, b);
        assert!(myri_done < quad_done);
        let idle = s.trace().nic_idle_within(N0, MYRI, NicDir::Tx, myri_done, quad_done);
        let gap = quad_done - myri_done;
        assert!(
            (idle.as_micros_f64() - gap.as_micros_f64()).abs() < 1.0,
            "Myri idle {idle} should cover the tail gap {gap}"
        );
        // The paper reports ~670us for this configuration.
        assert!(
            (gap.as_micros_f64() - 670.0).abs() < 200.0,
            "idle gap {gap} should be in the neighbourhood of the paper's 670us"
        );
    }

    #[test]
    fn bandwidth_degrade_stretches_durations_and_clears() {
        let size = 64 * KIB;
        let clean = {
            let mut s = sim();
            let id = s.submit(SendSpec::simple(N0, N1, MYRI, size));
            s.run_until_delivered(id).as_micros_f64()
        };
        let mut s = sim().with_trace();
        s.set_nic_fault(N0, MYRI, 4.0, SimDuration::ZERO);
        let slow = s.submit(SendSpec::simple(N0, N1, MYRI, size));
        let slow_at = s.run_until_delivered(slow).as_micros_f64();
        assert!(
            (slow_at - 4.0 * clean).abs() / clean < 0.05,
            "4x time scale: {slow_at:.1}us vs clean {clean:.1}us"
        );
        s.clear_nic_fault(N0, MYRI);
        let healed = s.submit(SendSpec::simple(N0, N1, MYRI, size));
        let healed_dur = s.run_until_delivered(healed) - started(&s, healed);
        assert!((healed_dur.as_micros_f64() - clean).abs() < 0.01, "shaping must clear");
    }

    #[test]
    fn latency_spike_adds_fixed_extra_time() {
        let size = 4 * KIB; // eager: one flight pays the extra once
        let extra = SimDuration::from_micros(500);
        let clean = builtin::myri_10g().one_way_us(size).get();
        let mut s = sim();
        s.set_nic_fault(N0, MYRI, 1.0, extra);
        let id = s.submit(SendSpec::simple(N0, N1, MYRI, size));
        let at = s.run_until_delivered(id).as_micros_f64();
        assert!((at - (clean + 500.0)).abs() < 0.01, "spiked {at:.1}us vs clean {clean:.1}us");
    }

    #[test]
    fn nic_port_shaping_composes_across_both_endpoints() {
        let size = 64 * KIB;
        let clean = {
            let mut s = sim();
            let id = s.submit(SendSpec::simple(N0, N1, MYRI, size));
            s.run_until_delivered(id).as_micros_f64()
        };
        // 2x on the receiver's port, 2x on the sender's port: 4x total.
        let mut s = sim().with_trace();
        s.set_nic_fault(N1, MYRI, 2.0, SimDuration::ZERO);
        s.set_nic_fault(N0, MYRI, 2.0, SimDuration::ZERO);
        let id = s.submit(SendSpec::simple(N0, N1, MYRI, size));
        let at = s.run_until_delivered(id).as_micros_f64();
        assert!((at - 4.0 * clean).abs() / clean < 0.05, "composed 4x: {at:.1} vs {clean:.1}");
        // Both ports are nominal after clearing.
        s.clear_nic_fault(N1, MYRI);
        s.clear_nic_fault(N0, MYRI);
        let healed = s.submit(SendSpec::simple(N0, N1, MYRI, size));
        let dur = s.run_until_delivered(healed) - started(&s, healed);
        assert!((dur.as_micros_f64() - clean).abs() < 0.01, "port shaping must clear");
    }

    #[test]
    fn receiver_port_spike_charges_transfers_into_it() {
        let size = 4 * KIB;
        let extra = SimDuration::from_micros(300);
        let clean = builtin::myri_10g().one_way_us(size).get();
        let mut s = sim().with_trace();
        s.set_nic_fault(N1, MYRI, 1.0, extra);
        let id = s.submit(SendSpec::simple(N0, N1, MYRI, size));
        let at = s.run_until_delivered(id).as_micros_f64();
        assert!((at - (clean + 300.0)).abs() < 0.01, "rx-port spike: {at:.1} vs {clean:.1}");
        // Traffic avoiding the sick port is untouched.
        let other = s.submit(SendSpec::simple(N1, N0, QUAD, size));
        let o = s.run_until_delivered(other) - started(&s, other);
        let quad_clean = builtin::qsnet2().one_way_us(size).get();
        assert!((o.as_micros_f64() - quad_clean).abs() < 0.01);
    }

    #[test]
    fn nominal_nic_shaping_is_exactly_inert() {
        let run = |touch: bool| {
            let mut s = Simulator::paper_testbed().with_jitter(0.05, 11);
            if touch {
                s.set_nic_fault(N0, MYRI, 1.0, SimDuration::ZERO);
                s.set_nic_fault(N1, QUAD, 1.0, SimDuration::ZERO);
            }
            let a = s.submit(SendSpec::simple(N0, N1, MYRI, 64 * KIB));
            let b = s.submit(SendSpec::simple(N0, N1, QUAD, 2 * MIB));
            let events = s.run_until_idle();
            (delivered(&events, a), delivered(&events, b))
        };
        assert_eq!(run(false), run(true), "nominal port shaping must be bit-identical");
    }

    #[test]
    fn cancel_retracts_queued_transfer_and_frees_the_rail() {
        let size = MIB;
        let mut s = sim();
        let a = s.submit(SendSpec::simple(N0, N1, MYRI, size));
        let busy_after_a = s.nic_busy_until(N0, MYRI);
        let b = s.submit(SendSpec::simple(N0, N1, MYRI, size));
        assert!(s.nic_busy_until(N0, MYRI) > busy_after_a);
        assert!(s.try_cancel_all(&[b]), "queued-behind transfer must be cancellable");
        assert_eq!(s.nic_busy_until(N0, MYRI), busy_after_a, "rail time released");
        assert!(s.live(b).is_none(), "a retracted transfer is no longer held");
        // The survivor still delivers on schedule; the cancelled one never does.
        let events = s.run_until_idle();
        assert_eq!(delivered(&events, a), busy_after_a);
        assert!(
            !events
                .iter()
                .any(|e| matches!(*e, SimEvent::Delivered { transfer, .. } if transfer == b)),
            "a cancelled transfer must never deliver"
        );
        // Double cancel is refused.
        assert!(!s.try_cancel_all(&[b]));
    }

    #[test]
    fn a_submit_schedules_only_events_that_can_surface() {
        // Eager: inject end, receive end and the transmit NIC's idle check.
        let mut s = sim();
        s.submit(SendSpec::simple(N0, N1, MYRI, 4 * KIB));
        assert_eq!(s.calendar.len(), 3);
        // Rendezvous: RTS arrival, DMA end and the transmit NIC's idle check.
        let mut s = sim();
        s.submit(SendSpec::simple(N0, N1, MYRI, MIB));
        assert_eq!(s.calendar.len(), 3);
    }

    /// A drained simulator holds nothing: every transfer delivered, the
    /// live table empty and its base past every id issued.
    #[test]
    fn delivered_transfers_hold_no_windows() {
        let mut s = sim();
        for (rail, size) in [(MYRI, 4 * KIB), (QUAD, 64 * KIB), (MYRI, MIB), (QUAD, 2 * MIB)] {
            s.submit(SendSpec::simple(N0, N1, rail, size));
        }
        assert!(s.live.iter().all(|l| l.as_ref().is_some_and(|l| !l.windows.is_empty())));
        let events = s.run_until_idle();
        let deliveries = events.iter().filter(|e| matches!(e, SimEvent::Delivered { .. })).count();
        assert_eq!(deliveries, 4);
        assert!(s.live.is_empty());
        assert_eq!(s.base, 4);
    }

    #[test]
    fn retired_window_lists_are_kept_empty_up_to_the_cap_and_reused() {
        let mut s = sim();
        for i in 0..SPARE_WINDOW_LISTS + 4 {
            s.submit(SendSpec::simple(N0, N1, if i % 2 == 0 { MYRI } else { QUAD }, 4 * KIB));
        }
        s.run_until_idle();
        assert_eq!(s.spare_windows.len(), SPARE_WINDOW_LISTS, "the overflow was freed");
        assert!(s.spare_windows.iter().all(|w| w.is_empty() && w.capacity() > 0));
        let id = s.submit(SendSpec::simple(N0, N1, MYRI, 4 * KIB));
        assert_eq!(s.spare_windows.len(), SPARE_WINDOW_LISTS - 1, "a kept list was filled");
        assert!(s.live(id).is_some_and(|l| !l.windows.is_empty()));
    }

    #[test]
    fn cancel_refuses_an_id_the_simulator_never_issued() {
        assert!(!sim().try_cancel_all(&[TransferId(7)]));
        let mut s = sim();
        let a = s.submit(SendSpec::simple(N0, N1, MYRI, MIB));
        let b = s.submit(SendSpec::simple(N0, N1, MYRI, MIB));
        let busy = s.nic_busy_until(N0, MYRI);
        assert!(!s.try_cancel_all(&[b, TransferId(1 << 63)]), "all-or-nothing");
        assert_eq!(s.nic_busy_until(N0, MYRI), busy, "a refused set retracts nothing");
        assert!(s.live(a).is_some());
        assert!(s.live(b).is_some());
    }

    /// Waves of one long rendezvous on QsNetII behind which Myri-10G
    /// delivers many eager sends: transfers retire out of order, and the
    /// live table must still span only what is in flight. Returns the
    /// table's largest length and its capacity after the run.
    fn soak(waves: usize) -> (usize, usize) {
        const EAGER_PER_WAVE: usize = 99;
        let mut s = sim();
        let mut next = 0u64;
        let mut in_flight = std::collections::BTreeSet::new();
        let mut events = Vec::new();
        let mut longest = 0;
        let mut rdv_before: Option<TransferId> = None;
        for _ in 0..waves {
            let rdv = TransferId(next);
            for k in 0..=EAGER_PER_WAVE {
                let (rail, size) = if k == 0 { (QUAD, MIB) } else { (MYRI, 64) };
                let id = s.submit(SendSpec::simple(N0, N1, rail, size));
                assert_eq!(id, TransferId(next), "ids are dense and in submission order");
                next += 1;
                in_flight.insert(id);
            }
            // Overlap the waves: run until the previous wave's rendezvous
            // lands, while this wave's is still on the wire.
            let Some(wait_for) = rdv_before.replace(rdv) else { continue };
            while in_flight.contains(&wait_for) {
                events.clear();
                assert!(s.step(&mut events));
                for e in &events {
                    if let SimEvent::Delivered { transfer, .. } = *e {
                        assert!(in_flight.remove(&transfer), "{transfer} delivered twice");
                    }
                }
                // The table spans from the oldest transfer in flight to the
                // newest issued, and no further.
                let span = in_flight.first().map_or(0, |oldest| next - oldest.0);
                assert!(
                    s.live.len() as u64 <= span,
                    "{} entries for a span of {span}",
                    s.live.len()
                );
                longest = longest.max(s.live.len());
            }
        }
        s.run_until_idle();
        assert!(s.live.is_empty());
        assert_eq!(s.base, next);
        (longest, s.live.capacity())
    }

    #[test]
    fn the_live_table_is_bounded_by_what_is_in_flight() {
        let (longest_small, cap_small) = soak(200);
        let (longest, cap) = soak(2_000);
        assert!(longest > 100, "transfers must have retired out of order: {longest}");
        assert_eq!(longest, longest_small, "the span does not grow with the run");
        assert_eq!(cap, cap_small, "capacity after 200 000 transfers as after 20 000");
    }

    #[test]
    #[should_panic(expected = "x0 is not live")]
    fn run_until_delivered_refuses_a_transfer_it_no_longer_holds() {
        let mut s = sim();
        let id = s.submit(SendSpec::simple(N0, N1, MYRI, 4 * KIB));
        s.run_until_delivered(id);
        s.run_until_delivered(id);
    }

    #[test]
    fn cancel_refuses_started_or_interleaved_transfers() {
        let size = MIB;
        // Started: transfer A begins at t=0 on an idle rail.
        let mut s = sim();
        let a = s.submit(SendSpec::simple(N0, N1, MYRI, size));
        assert!(!s.try_cancel_all(&[a]), "a window touching now must not retract");

        // Interleaved: C queued behind B; cancelling B alone would leave a
        // hole under C's reservation.
        let mut s = sim();
        let _a = s.submit(SendSpec::simple(N0, N1, MYRI, size));
        let b = s.submit(SendSpec::simple(N0, N1, MYRI, size));
        let c = s.submit(SendSpec::simple(N0, N1, MYRI, size));
        assert!(!s.try_cancel_all(&[b]), "not the tail of the chain");
        // Cancelling both rear transfers together is fine.
        assert!(s.try_cancel_all(&[b, c]));
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_is_rejected() {
        let mut s = sim();
        s.submit(SendSpec::simple(N0, N0, MYRI, 64));
    }

    #[test]
    #[should_panic(expected = "bad rail")]
    fn bad_rail_is_rejected() {
        let mut s = sim();
        s.submit(SendSpec::simple(N0, N1, RailId(9), 64));
    }
}
