//! Wrappers that observe the layers from outside: a transport and a strategy
//! that record a span per call, and a loop-back receiver that does the
//! receive-side protocol work on every delivered wire buffer.

use crate::harness::time_ns;
use crate::spans;
use bytes::Bytes;
use nm_core::strategy::hetero::HeteroSplit;
use nm_core::strategy::{Action, Ctx, Strategy, StrategyKind};
use nm_core::transport::{ChunkId, ChunkSubmit, Transport, TransportEvent};
use nm_core::PlanCacheStats;
use nm_model::SimTime;
use nm_proto::{Packet, PacketKind, Reassembler, Sequencer};
use nm_sim::{CoreId, RailId};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::rc::Rc;

/// How a pass builds its transport and strategy: [`Plain`] for the untraced
/// pass (the program exactly as shipped), [`Traced`] for the traced one.
pub trait Wrap {
    /// Whether this pass records spans.
    const TRACED: bool;
    /// The transport the engine sits on.
    type Out<T: Transport>: Transport;
    /// Wraps the transport.
    fn transport<T: Transport>(inner: T) -> Self::Out<T>;
    /// Builds the strategy.
    fn strategy(kind: StrategyKind) -> Box<dyn Strategy>;
    /// What the wrapped transport counted (zeros when unwrapped).
    fn counters<T: Transport>(transport: &Self::Out<T>) -> TransportCounters;
    /// Opens a span in a traced pass; costs nothing in a plain one.
    fn span(name: &'static str) -> Option<spans::Guard> {
        Self::TRACED.then(|| spans::enter(name))
    }
}

/// The untraced pass.
pub struct Plain;

impl Wrap for Plain {
    const TRACED: bool = false;
    type Out<T: Transport> = T;
    fn transport<T: Transport>(inner: T) -> T {
        inner
    }
    fn strategy(kind: StrategyKind) -> Box<dyn Strategy> {
        kind.build()
    }
    fn counters<T: Transport>(_: &T) -> TransportCounters {
        TransportCounters::default()
    }
}

/// The traced pass.
pub struct Traced;

impl Wrap for Traced {
    const TRACED: bool = true;
    type Out<T: Transport> = TracedTransport<T>;
    fn transport<T: Transport>(inner: T) -> TracedTransport<T> {
        TracedTransport { inner, counters: Cell::new(TransportCounters::default()) }
    }
    fn strategy(kind: StrategyKind) -> Box<dyn Strategy> {
        Box::new(TracedStrategy::new(kind))
    }
    fn counters<T: Transport>(transport: &TracedTransport<T>) -> TransportCounters {
        TransportCounters { state_query_ns: transport.state_query_ns(), ..transport.counters.get() }
    }
}

/// Calls a [`TracedTransport`] saw.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransportCounters {
    /// `submit` calls.
    pub submits: u64,
    /// `poll` calls.
    pub polls: u64,
    /// Events those polls returned.
    pub events: u64,
    /// `now`, `rail_busy_until` and `idle_cores` calls, in that order.
    pub state_queries: [u64; 3],
    /// Host ns those state queries cost, from [`TracedTransport::state_query_ns`].
    pub state_query_ns: f64,
}

/// A transport that records one span per `submit` and `poll`, and counts the
/// state queries: the engine makes tens to hundreds of them per message, each
/// a few ns, so a span around one would time the clock and not the call.
pub struct TracedTransport<T> {
    inner: T,
    counters: Cell<TransportCounters>,
}

impl<T: Transport> TracedTransport<T> {
    fn count(&self, f: impl FnOnce(&mut TransportCounters)) {
        let mut c = self.counters.get();
        f(&mut c);
        self.counters.set(c);
    }

    /// What the counted state queries cost: each kind's count times its cost
    /// in a direct timed loop on the live transport.
    fn state_query_ns(&self) -> f64 {
        let [now, busy, idle] = self.counters.get().state_queries;
        let rail = RailId(0);
        let ns_now = time_ns(1_000, || {
            black_box(self.inner.now());
        });
        let ns_busy = time_ns(1_000, || {
            black_box(self.inner.rail_busy_until(rail));
        });
        let ns_idle = time_ns(1_000, || {
            black_box(self.inner.idle_cores());
        });
        now as f64 * ns_now + busy as f64 * ns_busy + idle as f64 * ns_idle
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn now(&self) -> SimTime {
        self.count(|c| c.state_queries[0] += 1);
        self.inner.now()
    }
    fn rail_count(&self) -> usize {
        self.inner.rail_count()
    }
    fn rail_name(&self, rail: RailId) -> String {
        self.inner.rail_name(rail)
    }
    fn rdv_threshold(&self, rail: RailId) -> u64 {
        self.inner.rdv_threshold(rail)
    }
    fn rail_busy_until(&self, rail: RailId) -> SimTime {
        self.count(|c| c.state_queries[1] += 1);
        self.inner.rail_busy_until(rail)
    }
    fn core_count(&self) -> usize {
        self.inner.core_count()
    }
    fn idle_cores(&self) -> Vec<CoreId> {
        self.count(|c| c.state_queries[2] += 1);
        self.inner.idle_cores()
    }
    fn submit(&mut self, chunk: ChunkSubmit) -> ChunkId {
        self.count(|c| c.submits += 1);
        let _s = spans::enter("driver.submit");
        self.inner.submit(chunk)
    }
    fn poll(&mut self) -> Vec<TransportEvent> {
        let _s = spans::enter("driver.poll");
        let events = self.inner.poll();
        self.count(|c| {
            c.polls += 1;
            c.events += events.len() as u64;
        });
        events
    }
    fn schedule_wakeup(&mut self, at: SimTime) {
        self.inner.schedule_wakeup(at);
    }
    fn cancel_chunks(&mut self, chunks: &[ChunkId]) -> bool {
        self.inner.cancel_chunks(chunks)
    }
}

thread_local! {
    /// Plan-cache counters of the last [`TracedStrategy`] that decided on
    /// this thread: the engine owns its strategy and hands none back.
    static CACHE_STATS: Cell<PlanCacheStats> = const {
        Cell::new(PlanCacheStats { hits: 0, misses: 0, invalidations: 0 })
    };
}

/// Plan-cache counters published by the traced hetero-split strategy.
pub fn cache_stats() -> PlanCacheStats {
    CACHE_STATS.with(Cell::get)
}

enum Inner {
    /// Kept concrete so its plan-cache counters stay readable.
    Hetero(HeteroSplit),
    Other(Box<dyn Strategy>),
}

/// A strategy that records one `strategy.decide` span per interrogation.
pub struct TracedStrategy {
    inner: Inner,
}

impl TracedStrategy {
    /// Wraps the built-in strategy `kind`.
    pub fn new(kind: StrategyKind) -> Self {
        CACHE_STATS.with(|c| c.set(PlanCacheStats::default()));
        let inner = match kind {
            StrategyKind::HeteroSplit => Inner::Hetero(HeteroSplit::new()),
            other => Inner::Other(other.build()),
        };
        TracedStrategy { inner }
    }
}

impl Strategy for TracedStrategy {
    fn name(&self) -> &'static str {
        match &self.inner {
            Inner::Hetero(h) => h.name(),
            Inner::Other(s) => s.name(),
        }
    }

    fn decide(&mut self, ctx: &Ctx<'_>) -> Action {
        let _s = spans::enter("strategy.decide");
        match &mut self.inner {
            Inner::Hetero(h) => {
                let action = h.decide(ctx);
                CACHE_STATS.with(|c| c.set(h.cache_stats()));
                action
            }
            Inner::Other(s) => s.decide(ctx),
        }
    }
}

/// The `Transport` methods a wrapper hands to `self.inner` untouched.
macro_rules! forward_to_inner {
    () => {
        fn now(&self) -> SimTime {
            self.inner.now()
        }
        fn rail_count(&self) -> usize {
            self.inner.rail_count()
        }
        fn rail_name(&self, rail: RailId) -> String {
            self.inner.rail_name(rail)
        }
        fn rdv_threshold(&self, rail: RailId) -> u64 {
            self.inner.rdv_threshold(rail)
        }
        fn rail_busy_until(&self, rail: RailId) -> SimTime {
            self.inner.rail_busy_until(rail)
        }
        fn core_count(&self) -> usize {
            self.inner.core_count()
        }
        fn idle_cores(&self) -> Vec<CoreId> {
            self.inner.idle_cores()
        }
        fn schedule_wakeup(&mut self, at: SimTime) {
            self.inner.schedule_wakeup(at);
        }
        fn cancel_chunks(&mut self, chunks: &[ChunkId]) -> bool {
            self.inner.cancel_chunks(chunks)
        }
    };
}

/// A transport with an alarm the load generator can set from outside the
/// engine: the next `poll` schedules a wake-up at the instant in the cell.
/// An open-loop generator needs it to move the virtual clock to its next
/// send instant while the engine is idle and nothing else would.
pub struct Alarm<T> {
    inner: T,
    at: Rc<Cell<Option<SimTime>>>,
}

impl<T> Alarm<T> {
    /// Wraps `inner`; `at` is the load generator's handle.
    pub fn new(inner: T, at: Rc<Cell<Option<SimTime>>>) -> Self {
        Alarm { inner, at }
    }
}

impl<T: Transport> Transport for Alarm<T> {
    forward_to_inner!();
    fn submit(&mut self, chunk: ChunkSubmit) -> ChunkId {
        self.inner.submit(chunk)
    }
    fn poll(&mut self) -> Vec<TransportEvent> {
        if let Some(at) = self.at.take() {
            self.inner.schedule_wakeup(at);
        }
        self.inner.poll()
    }
}

/// Why the receive path refused a wire buffer or a message.
#[derive(Debug, PartialEq, Eq)]
pub enum RxError {
    /// Integrity verification failed: the buffer was dropped, not consumed.
    Corrupt(String),
    /// The peer broke framing, tiling or sequencing.
    Protocol(String),
    /// A released message differs from what was posted, or arrived out of
    /// per-tag order.
    Mismatch(String),
}

/// What the load generator and the receiver share: the payloads posted per
/// tag, in order, and the receiver's tallies.
#[derive(Default)]
pub struct RxShared {
    expected: HashMap<u32, VecDeque<Bytes>>,
    /// Messages released in order with the posted bytes.
    pub delivered_msgs: u64,
    /// Their payload bytes.
    pub delivered_bytes: u64,
    /// Wire buffers decoded.
    pub chunks: u64,
    /// Bytes of those wire buffers.
    pub wire_bytes: u64,
    /// The part of `wire_bytes` that the receiver was handed a second time.
    pub duplicate_wire_bytes: u64,
    /// Wire buffers dropped as corrupt.
    pub corrupt_dropped: u64,
    /// Byte-identical duplicate chunks absorbed by reassembly.
    pub duplicates_dropped: u64,
    /// First failure seen, if any.
    pub error: Option<RxError>,
}

impl RxShared {
    /// Registers the payload about to be posted on `tag`.
    // nm-analyzer: allow(unbounded-growth) -- one entry per message in flight: the closed
    // loop posts one message and waits, and release pops the entry
    pub fn expect(&mut self, tag: u32, payload: Bytes) {
        self.expected.entry(tag).or_default().push_back(payload);
    }
}

/// A transport that keeps every submitted wire buffer and, when the chunk is
/// delivered, runs what `duplex::Endpoint` runs on receive, minus threads:
/// `Packet::decode` → `Reassembler::feed` → `Sequencer::accept`, then checks
/// the released bytes against what was posted.
pub struct LoopbackRx<T> {
    inner: T,
    wire: HashMap<ChunkId, Bytes>,
    assemblers: HashMap<(u32, u64), Reassembler>,
    sequencers: HashMap<u32, Sequencer<Bytes>>,
    shared: Rc<RefCell<RxShared>>,
    /// Hand every n-th chunk that leaves its message incomplete to the
    /// receiver twice; 0 duplicates nothing.
    duplicate_every: u64,
    /// Chunks so far that left their message incomplete.
    incomplete: u64,
}

/// Out-of-order messages one flow may hold, as in `duplex::Endpoint`.
const RX_REORDER_WINDOW: usize = 4096;

impl<T> LoopbackRx<T> {
    /// Wraps `inner`; `shared` is the load generator's handle.
    pub fn new(inner: T, shared: Rc<RefCell<RxShared>>) -> Self {
        LoopbackRx {
            inner,
            wire: HashMap::new(),
            assemblers: HashMap::new(),
            sequencers: HashMap::new(),
            shared,
            duplicate_every: 0,
            incomplete: 0,
        }
    }

    /// Delivers every `n`-th chunk that leaves its message incomplete twice,
    /// as a duplication fault on the wire would.
    pub fn duplicating_every(self, n: u64) -> Self {
        LoopbackRx { duplicate_every: n, ..self }
    }

    /// Receives one wire buffer; true when it completed a message.
    // nm-analyzer: allow(unbounded-growth) -- one reassembler per message in flight (removed
    // on completion) and one sequencer per tag; the workload uses two tags
    pub fn ingest(&mut self, wire: Bytes) -> Result<bool, RxError> {
        let mut shared = self.shared.borrow_mut();
        shared.chunks += 1;
        shared.wire_bytes += wire.len() as u64;
        let mut buf = wire;
        let packet = {
            let _s = spans::enter("proto.decode");
            Packet::decode(&mut buf)
        };
        let packet = match packet {
            Ok(p) => p,
            Err(e) if e.is_corruption() => {
                shared.corrupt_dropped += 1;
                return Err(RxError::Corrupt(e.to_string()));
            }
            Err(e) => return Err(RxError::Protocol(e.to_string())),
        };
        if packet.header.kind != PacketKind::Eager {
            return Err(RxError::Protocol(format!("unexpected kind {:?}", packet.header.kind)));
        }
        let h = packet.header;
        let key = (h.flow, h.msg_id);
        let complete = {
            let _s = spans::enter("proto.reassemble");
            let asm = self.assemblers.entry(key).or_insert_with(|| Reassembler::new(h.total_len));
            asm.feed(h.offset, &packet.payload)
        };
        match complete {
            Ok(false) => return Ok(false),
            Ok(true) => {}
            Err(e) if e.is_corruption() => {
                shared.corrupt_dropped += 1;
                return Err(RxError::Corrupt(e.to_string()));
            }
            Err(e) => return Err(RxError::Protocol(e.to_string())),
        }
        let released = {
            let _s = spans::enter("proto.sequence");
            let asm = self.assemblers.remove(&key).expect("fed above");
            shared.duplicates_dropped += asm.duplicates_dropped();
            let seq =
                self.sequencers.entry(h.flow).or_insert_with(|| Sequencer::new(RX_REORDER_WINDOW));
            seq.accept(h.msg_id, asm.into_message())
        };
        let released = released.map_err(|e| RxError::Protocol(e.to_string()))?;
        let _s = spans::enter("loadgen.verify");
        for msg in released {
            let want = shared.expected.get_mut(&h.flow).and_then(VecDeque::pop_front);
            if want.as_ref().map(Bytes::as_slice) != Some(msg.as_slice()) {
                return Err(RxError::Mismatch(format!(
                    "tag {}: released {} bytes that are not the next posted message",
                    h.flow,
                    msg.len()
                )));
            }
            shared.delivered_msgs += 1;
            shared.delivered_bytes += msg.len() as u64;
        }
        Ok(true)
    }

    /// Receives a delivered chunk's wire buffer, and once more when it is
    /// the one to duplicate.
    fn deliver(&mut self, wire: Bytes) -> Result<(), RxError> {
        if self.ingest(wire.clone())? {
            return Ok(());
        }
        self.incomplete += 1;
        if self.duplicate_every > 0 && self.incomplete.is_multiple_of(self.duplicate_every) {
            self.shared.borrow_mut().duplicate_wire_bytes += wire.len() as u64;
            self.ingest(wire)?;
        }
        Ok(())
    }
}

impl<T: Transport> Transport for LoopbackRx<T> {
    forward_to_inner!();
    // nm-analyzer: allow(unbounded-growth) -- one wire buffer per chunk in flight, removed
    // when the chunk delivers
    fn submit(&mut self, chunk: ChunkSubmit) -> ChunkId {
        let payload = chunk.payload.clone();
        let id = self.inner.submit(chunk);
        if let Some(p) = payload {
            self.wire.insert(id, p);
        }
        id
    }
    fn poll(&mut self) -> Vec<TransportEvent> {
        let events = self.inner.poll();
        for ev in &events {
            if let TransportEvent::ChunkDelivered { chunk, .. } = ev {
                if let Some(wire) = self.wire.remove(chunk) {
                    let _s = spans::enter("proto.rx");
                    if let Err(e) = self.deliver(wire) {
                        self.shared.borrow_mut().error.get_or_insert(e);
                    }
                }
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_core::driver::sim::SimDriver;
    use nm_proto::PacketHeader;

    fn wire(payload: &Bytes, flow: u32, msg_id: u64) -> Bytes {
        Packet::new(
            PacketHeader {
                kind: PacketKind::Eager,
                flow,
                msg_id,
                offset: 0,
                total_len: payload.len() as u64,
                chunk_index: 0,
                payload_len: 0,
            },
            payload.clone(),
        )
        .with_integrity(true)
        .encode()
    }

    fn rx() -> (LoopbackRx<SimDriver>, Rc<RefCell<RxShared>>) {
        let shared = Rc::new(RefCell::new(RxShared::default()));
        (LoopbackRx::new(SimDriver::paper_testbed(), shared.clone()), shared)
    }

    #[test]
    fn loopback_releases_posted_messages_in_order() {
        let (mut rx, shared) = rx();
        let a = Bytes::from(vec![1u8; 100]);
        let b = Bytes::from(vec![2u8; 50]);
        shared.borrow_mut().expect(3, a.clone());
        shared.borrow_mut().expect(3, b.clone());
        // Sequence 1 arrives first and is held until sequence 0 lands.
        rx.ingest(wire(&b, 3, 1)).expect("held");
        assert_eq!(shared.borrow().delivered_msgs, 0);
        rx.ingest(wire(&a, 3, 0)).expect("releases both");
        assert_eq!(shared.borrow().delivered_msgs, 2);
        assert_eq!(shared.borrow().delivered_bytes, 150);
    }

    #[test]
    fn loopback_rejects_a_flipped_payload_byte() {
        let (mut rx, shared) = rx();
        let payload = Bytes::from((0..200u8).collect::<Vec<u8>>());
        shared.borrow_mut().expect(0, payload.clone());
        let mut damaged = wire(&payload, 0, 0).to_vec();
        damaged[nm_proto::HEADER_LEN + 17] ^= 0x01;
        let got = rx.ingest(Bytes::from(damaged));
        assert!(matches!(got, Err(RxError::Corrupt(_))), "{got:?}");
        assert_eq!(shared.borrow().corrupt_dropped, 1);
        assert_eq!(shared.borrow().delivered_msgs, 0, "damaged bytes are never released");
        // The intact buffer still goes through afterwards.
        rx.ingest(wire(&payload, 0, 0)).expect("clean copy");
        assert_eq!(shared.borrow().delivered_msgs, 1);
    }

    #[test]
    fn loopback_drops_a_duplicated_chunk_and_counts_it() {
        let shared = Rc::new(RefCell::new(RxShared::default()));
        let mut rx =
            LoopbackRx::new(SimDriver::paper_testbed(), shared.clone()).duplicating_every(1);
        let payload = Bytes::from((0..=255u8).collect::<Vec<u8>>());
        shared.borrow_mut().expect(0, payload.clone());
        let half = |offset: usize, chunk_index: u32| {
            Packet::new(
                PacketHeader {
                    kind: PacketKind::Eager,
                    flow: 0,
                    msg_id: 0,
                    offset: offset as u64,
                    total_len: 256,
                    chunk_index,
                    payload_len: 0,
                },
                payload.slice(offset..offset + 128),
            )
            .with_integrity(true)
            .encode()
        };
        rx.deliver(half(0, 0)).expect("first half, then its duplicate");
        assert_eq!(shared.borrow().chunks, 2);
        assert!(shared.borrow().duplicate_wire_bytes > 128);
        rx.deliver(half(128, 1)).expect("second half completes the message");
        assert_eq!(shared.borrow().duplicates_dropped, 1);
        assert_eq!((shared.borrow().delivered_msgs, shared.borrow().delivered_bytes), (1, 256));
    }

    #[test]
    fn loopback_rejects_bytes_that_were_not_posted() {
        let (mut rx, shared) = rx();
        shared.borrow_mut().expect(0, Bytes::from(vec![9u8; 10]));
        let got = rx.ingest(wire(&Bytes::from(vec![8u8; 10]), 0, 0));
        assert!(matches!(got, Err(RxError::Mismatch(_))), "{got:?}");
    }

    #[test]
    fn an_alarm_moves_the_clock_of_an_idle_transport() {
        let at = Rc::new(Cell::new(None));
        let mut t = Alarm::new(SimDriver::paper_testbed(), at.clone());
        assert!(t.poll().is_empty(), "idle: nothing to wait for");
        assert_eq!(t.now(), SimTime::ZERO);
        let due = SimTime::from_micros(600);
        at.set(Some(due));
        let events = t.poll();
        assert!(matches!(events[..], [TransportEvent::Wakeup { .. }]), "{events:?}");
        assert_eq!((t.now(), at.get()), (due, None));
    }

    #[test]
    fn traced_wrappers_record_spans_and_counts() {
        spans::start();
        let mut t = Traced::transport(SimDriver::paper_testbed());
        let _ = t.now();
        let _ = t.idle_cores();
        t.submit(ChunkSubmit::new(RailId(0), 4096));
        while !t.poll().is_empty() {}
        let c = Traced::counters(&t);
        assert_eq!((c.submits, c.state_queries), (1, [1, 0, 1]));
        assert!(c.polls >= 2 && c.events >= 1);
        assert!(c.state_query_ns > 0.0);
        let (recorded, _) = spans::finish();
        let times = spans::self_times(&recorded);
        assert_eq!(times["driver.submit"].count, 1);
        assert_eq!(times["driver.poll"].count, c.polls);
    }
}
