//! The engine: application-layer queue + strategy interrogation + transfer
//! submission (paper Fig 5).
//!
//! "The application enqueues packets into a list and immediately returns to
//! computing. The packet scheduler is only activated when a NIC becomes
//! idle in order to feed it." The [`Engine`] reproduces that control flow:
//!
//! * [`Engine::post_send`] enqueues a message and returns at once;
//! * the strategy is interrogated immediately and again on every
//!   [`TransportEvent::RailIdle`] / [`TransportEvent::CoreIdle`];
//! * chunk deliveries are folded back into message completions.

use crate::admission::{AdmissionConfig, Backpressure};
use crate::error::EngineError;
use crate::health::{HealthConfig, HealthTracker, RailState};
use crate::predictor::Predictor;
use crate::replicated::{CounterKind, EngineOp, SharedDecisionState};
use crate::selection::select_rails;
use crate::strategy::{Action, ChunkList, Ctx, Strategy};
use crate::transport::{ChunkId, ChunkSubmit, Transport, TransportEvent};
use bytes::Bytes;
use nm_model::{InlineVec, Micros, SimDuration, SimTime, MAX_RAILS};
use nm_proto::aggregate::{AggEntry, Aggregator, ENTRY_OVERHEAD};
use nm_sim::RailId;
use std::collections::{HashMap, HashSet, VecDeque};

/// Message handle returned by [`Engine::post_send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MsgId(pub u64);

/// A completed message's report.
#[derive(Debug, Clone, PartialEq)]
pub struct MsgCompletion {
    /// Handle.
    pub id: MsgId,
    /// Logical flow tag the message was posted under.
    pub tag: u32,
    /// Message size in bytes.
    pub size: u64,
    /// When the application posted it.
    pub posted_at: SimTime,
    /// When the last chunk was delivered.
    pub delivered_at: SimTime,
    /// End-to-end duration.
    pub duration: SimDuration,
    /// Chunk layout actually used: `(rail, bytes)` per chunk; aggregated
    /// messages report the rail of their pack with their own size.
    pub chunks: Vec<(RailId, u64)>,
}

/// Aggregate counters (see [`Engine::stats`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineStats {
    /// Messages completed.
    pub msgs_completed: u64,
    /// Payload bytes completed.
    pub bytes_completed: u64,
    /// Chunks submitted to the transport.
    pub chunks_submitted: u64,
    /// Aggregate packs submitted.
    pub packs_submitted: u64,
    /// Messages that traveled inside an aggregate pack.
    pub msgs_aggregated: u64,
    /// Queue promotions performed (reordering).
    pub promotes: u64,
    /// Messages cancelled while still queued.
    pub cancelled: u64,
    /// Messages forcibly torn out by [`Engine::abandon`] (collectives DAG
    /// repair rerouting a stuck hop).
    pub msgs_abandoned: u64,
    /// Per-rail payload bytes put on the wire.
    pub rail_bytes: Vec<u64>,
    /// Times the strategy answered `Defer`.
    pub defers: u64,
    /// Chunks the transport reported failed (includes probe chunks).
    pub chunks_failed: u64,
    /// Chunks the engine's watchdog declared lost by timeout.
    pub chunks_timed_out: u64,
    /// Resubmissions of failed chunks.
    pub retries: u64,
    /// Payload bytes resubmitted after failures.
    pub retransmitted_bytes: u64,
    /// Failed chunks re-planned onto a rail other than the one that lost
    /// them.
    pub failovers: u64,
    /// Quarantine transitions.
    pub quarantines: u64,
    /// Rails re-admitted after a passed probe ladder.
    pub readmissions: u64,
    /// Health-probe chunks submitted.
    pub probes_sent: u64,
    /// Sum over recovered chunks of (recovered delivery − first failure),
    /// in µs — divide by [`Self::failover_completions`] for the mean
    /// failover latency.
    pub failover_latency_us_sum: f64,
    /// Recovered deliveries contributing to the latency sum.
    pub failover_completions: u64,
    /// Per-rail payload-chunk failures (explicit + timeout).
    pub rail_failures: Vec<u64>,
    /// Per-rail retries, charged to the rail that lost the chunk.
    pub rail_retries: Vec<u64>,
    /// Chunks whose receive-side integrity verification failed (counted in
    /// addition to `chunks_failed` — a corrupt chunk is retried like a lost
    /// one).
    pub corrupt_chunks: u64,
    /// Duplicate deliveries of already-completed chunks that were
    /// recognized and dropped.
    pub duplicate_chunks_dropped: u64,
    /// Queued messages shed past their deadline (admission control).
    pub msgs_shed: u64,
    /// Posts rejected by admission control at a cap.
    pub backpressure_rejections: u64,
    /// Strategy-degradation state flips (enter + exit both count).
    pub degrade_transitions: u64,
    /// Decisions taken by the degraded fallback strategy.
    pub degraded_decisions: u64,
}

struct QueuedMsg {
    id: MsgId,
    tag: u32,
    flow_seq: u64,
    size: u64,
    payload: Option<Bytes>,
    posted_at: SimTime,
    /// Absolute shed deadline (admission control); `None` never expires.
    deadline: Option<SimTime>,
}

struct InflightMsg {
    tag: u32,
    flow_seq: u64,
    size: u64,
    posted_at: SimTime,
    chunks_total: usize,
    chunks_done: usize,
    layout: Vec<(RailId, u64)>,
}

enum ChunkOwner {
    /// A chunk of a split message.
    Msg(MsgId),
    /// An aggregate pack carrying several messages.
    Pack(Vec<MsgId>),
    /// A health probe on a quarantined rail (no application message).
    Probe(RailId),
}

/// What the failover layer needs to resubmit a chunk: the exact submission
/// (payload included — `Bytes` clones are refcounted), its retry lineage,
/// and where it sits in the owner's layout.
struct ChunkMeta {
    submit: ChunkSubmit,
    /// Failed transmissions of this lineage so far (0 = first attempt).
    attempt: u32,
    /// When the lineage first failed (anchors the failover latency).
    first_failed_at: Option<SimTime>,
    /// Index into the owning message's `layout` (0 for pack members).
    layout_idx: usize,
}

/// A failed chunk waiting out its retry backoff.
struct RetryEntry {
    owner: ChunkOwner,
    meta: ChunkMeta,
    not_before: SimTime,
    from_rail: RailId,
}

/// All admission-control state, boxed behind an `Option` so an engine
/// without overload protection pays nothing and decides identically.
struct Admission {
    cfg: AdmissionConfig,
    /// Messages currently pending (queued + in flight, minus completed).
    pending_msgs: u64,
    /// Payload bytes currently pending.
    pending_bytes: u64,
    /// Messages shed past their deadline; `wait` reports them as
    /// [`EngineError::Shed`] exactly once.
    shed: HashSet<MsgId>,
    /// Hysteresis-guarded degradation latch: while set, decisions come from
    /// `fallback` instead of the configured strategy.
    degraded: bool,
    /// The cheap strategy used while degraded (static bandwidth ratios —
    /// constant-time decisions, no dichotomy).
    fallback: crate::strategy::ratio::BandwidthRatioSplit,
}

/// All fault-tolerance state, boxed behind an `Option` so the fault-free
/// engine pays nothing (and stays bit-identical to the pre-failover code).
struct FaultTolerance {
    tracker: HealthTracker,
    retries: VecDeque<RetryEntry>,
    /// Submission record per in-flight chunk.
    chunk_meta: HashMap<ChunkId, ChunkMeta>,
    /// Timed-out chunks the transport could not retract: their late
    /// deliveries must be swallowed, not treated as unknown chunks.
    /// Capped at [`ABANDONED_WINDOW`] via the `abandoned_order` ring.
    abandoned: HashSet<ChunkId>,
    /// FIFO of `abandoned` entries, oldest first, for eviction. Entries
    /// whose chunk already delivered late go stale here; popping them is
    /// a no-op remove.
    abandoned_order: VecDeque<ChunkId>,
}

impl FaultTolerance {
    /// Records a zombie chunk whose late delivery must be swallowed,
    /// evicting the oldest record past [`ABANDONED_WINDOW`]: a chunk
    /// still undelivered after that many successors is gone for good, and
    /// an unbounded swallow-set is a slow leak on a long-lived engine.
    fn mark_abandoned(&mut self, chunk: ChunkId) {
        // nm-analyzer: bounded(ABANDONED_WINDOW) -- FIFO eviction below keeps the set within the ring
        if self.abandoned.insert(chunk) {
            self.abandoned_order.push_back(chunk);
            if self.abandoned_order.len() > ABANDONED_WINDOW {
                let old = self.abandoned_order.pop_front().expect("non-empty");
                self.abandoned.remove(&old);
            }
        }
    }
}

/// The multirail engine over some transport.
pub struct Engine<T: Transport> {
    transport: T,
    strategy: Box<dyn Strategy>,
    predictor: Predictor,
    queue: VecDeque<QueuedMsg>,
    inflight: HashMap<MsgId, InflightMsg>,
    chunk_owner: HashMap<ChunkId, ChunkOwner>,
    /// Completions released to the application (per-flow posted order).
    completions: HashMap<MsgId, MsgCompletion>,
    /// Per-tag release sequencers: a message physically delivered out of
    /// order waits here until its flow predecessors complete.
    flow_release: HashMap<u32, nm_proto::Sequencer<MsgCompletion>>,
    /// Next sequence number to assign per tag.
    flow_next_seq: HashMap<u32, u64>,
    /// Messages physically done but held for flow ordering.
    held: std::collections::HashSet<MsgId>,
    /// Predicted completion per in-flight chunk, for feedback.
    chunk_prediction: HashMap<ChunkId, (RailId, SimTime, SimTime)>,
    feedback: crate::feedback::Feedback,
    /// When set, chunk payloads are framed as wire packets (header with
    /// flow/seq/offset/total) so a remote peer can reassemble and
    /// re-sequence them — see [`crate::duplex`].
    framing: bool,
    /// When set (implies `framing`), framed packets carry the negotiated
    /// integrity bit: header self-check plus a CRC32C payload trailer.
    integrity: bool,
    /// Ring of recently delivered chunk ids: a transport re-delivering one
    /// (duplication fault) is counted and dropped instead of erroring.
    recent_delivered: VecDeque<ChunkId>,
    recent_delivered_set: HashSet<ChunkId>,
    next_msg: u64,
    next_pack: u64,
    stats: EngineStats,
    /// Generation counter of the predictor, forwarded to strategies via
    /// [`Ctx`] so plan caches drop memoized splits whenever the sampled
    /// knowledge changes (feedback correction, re-sampling).
    predictor_epoch: u64,
    /// Reusable buffers for the per-interrogation queue/wait snapshots —
    /// the hot path allocates nothing per message in steady state.
    scratch_sizes: Vec<u64>,
    scratch_waits: Vec<f64>,
    /// What the transport was last told through
    /// [`Transport::set_idle_interest`] (drivers start out delivering).
    idle_interest: bool,
    /// Fault tolerance (health tracking, retries, probes); `None` keeps
    /// every fault path fully disabled.
    health: Option<Box<FaultTolerance>>,
    /// Admission control (caps, deadlines, degradation); `None` keeps every
    /// overload path fully disabled.
    admission: Option<Box<Admission>>,
    /// Replicated decision state fed by an op log (multicore workers read
    /// it lock-free); `None` publishes nothing and keeps the engine's
    /// single-threaded behaviour bit-identical.
    shared: Option<SharedDecisionState>,
}

/// Maximum out-of-order completions buffered per flow.
const FLOW_REORDER_WINDOW: usize = 4096;

/// Delivered-chunk ids remembered for duplicate recognition.
const RECENT_DELIVERED_WINDOW: usize = 4096;

/// Unretractable timed-out chunks remembered for late-delivery swallowing.
const ABANDONED_WINDOW: usize = 4096;

impl<T: Transport> Engine<T> {
    /// Builds an engine. The predictor's rails must match the transport's.
    pub fn new(
        transport: T,
        predictor: Predictor,
        strategy: Box<dyn Strategy>,
    ) -> Result<Self, EngineError> {
        if predictor.rail_count() != transport.rail_count() {
            return Err(EngineError::Config(format!(
                "predictor knows {} rails but transport has {}",
                predictor.rail_count(),
                transport.rail_count()
            )));
        }
        let rails = transport.rail_count();
        Ok(Engine {
            transport,
            strategy,
            predictor,
            queue: VecDeque::new(),
            inflight: HashMap::new(),
            chunk_owner: HashMap::new(),
            completions: HashMap::new(),
            flow_release: HashMap::new(),
            flow_next_seq: HashMap::new(),
            held: std::collections::HashSet::new(),
            chunk_prediction: HashMap::new(),
            feedback: crate::feedback::Feedback::new(rails),
            framing: false,
            integrity: false,
            recent_delivered: VecDeque::new(),
            recent_delivered_set: HashSet::new(),
            next_msg: 0,
            next_pack: 0,
            stats: EngineStats {
                rail_bytes: vec![0; rails],
                rail_failures: vec![0; rails],
                rail_retries: vec![0; rails],
                ..Default::default()
            },
            predictor_epoch: 0,
            scratch_sizes: Vec::new(),
            scratch_waits: Vec::with_capacity(rails),
            idle_interest: true,
            health: None,
            admission: None,
            shared: None,
        })
    }

    /// Enables fault tolerance: rail health tracking, quarantine/probing,
    /// bounded retries with exponential backoff, and a timeout watchdog.
    /// Without this, a [`TransportEvent::ChunkFailed`] is a hard error.
    pub fn with_fault_tolerance(mut self, cfg: HealthConfig) -> Result<Self, EngineError> {
        let tracker =
            HealthTracker::new(cfg, self.transport.rail_count()).map_err(EngineError::Config)?;
        self.health = Some(Box::new(FaultTolerance {
            tracker,
            retries: VecDeque::new(),
            chunk_meta: HashMap::new(),
            abandoned: HashSet::new(),
            abandoned_order: VecDeque::new(),
        }));
        Ok(self)
    }

    /// The health tracker, when fault tolerance is enabled.
    pub fn health(&self) -> Option<&HealthTracker> {
        self.health.as_deref().map(|ft| &ft.tracker)
    }

    /// Enables the replicated decision state: an op log the engine feeds at
    /// every health transition, predictor-epoch bump, feedback update and
    /// decision-relevant counter increment, so worker threads can read the
    /// facts behind `decide()` lock-free via [`SharedDecisionState::reader`]
    /// replicas. Call at construction (like the other builders): the log
    /// mirrors mutations from this point on, starting from the all-healthy
    /// epoch-0 state the engine itself starts in. With this off, nothing is
    /// published and the engine is bit-identical to the unshared build.
    pub fn with_shared_state(mut self) -> Self {
        self.shared = Some(SharedDecisionState::new(self.transport.rail_count()));
        self
    }

    /// The shared decision state, when enabled — clone it (cheap) to hand
    /// to worker threads.
    pub fn shared_state(&self) -> Option<&SharedDecisionState> {
        self.shared.as_ref()
    }

    /// Publishes ops to the replicated decision state, if enabled. One
    /// batch = one combining-lock acquisition = atomically visible prefix.
    fn publish_ops(&self, ops: &[EngineOp]) {
        if let Some(shared) = &self.shared {
            shared.publish_batch(ops);
        }
    }

    /// Mirrors `rail`'s post-record feedback EWMA (and the observation
    /// count) into the replicated state.
    fn publish_feedback(&self, rail: RailId) {
        if self.shared.is_some() {
            let ewma_ratio = self.feedback.rail(rail).ewma_ratio;
            self.publish_ops(&[
                EngineOp::Feedback { rail: rail.index() as u8, ewma_ratio },
                EngineOp::Counter { kind: CounterKind::FeedbackRecords, delta: 1 },
            ]);
        }
    }

    /// Enables wire framing: every chunk payload is prefixed with a
    /// [`nm_proto::PacketHeader`] carrying (flow, flow-sequence, offset,
    /// total length), which is what a remote receiver needs to reassemble
    /// split messages and release flows in order. Only meaningful with a
    /// byte-moving transport.
    pub fn with_framing(mut self) -> Self {
        self.framing = true;
        self
    }

    /// Enables end-to-end integrity (implies framing): every wire packet
    /// carries the negotiated [`nm_proto::FLAG_INTEGRITY`] bit, a header
    /// self-check and a CRC32C payload trailer, so a receiver detects
    /// in-flight corruption instead of consuming damaged bytes. With this
    /// off, the wire format is bit-identical to the pre-integrity engine.
    pub fn with_integrity(mut self) -> Self {
        self.framing = true;
        self.integrity = true;
        self
    }

    /// Enables bounded-memory admission control: pending-message and
    /// pending-byte caps (posts beyond them are rejected with
    /// [`EngineError::Backpressure`]), optional per-message deadlines with
    /// oldest-first shedding, and hysteresis-guarded degradation to the
    /// static-ratio strategy under overload.
    pub fn with_admission_control(mut self, cfg: AdmissionConfig) -> Result<Self, EngineError> {
        cfg.validate().map_err(EngineError::Config)?;
        self.admission = Some(Box::new(Admission {
            cfg,
            pending_msgs: 0,
            pending_bytes: 0,
            shed: HashSet::new(),
            degraded: false,
            fallback: crate::strategy::ratio::BandwidthRatioSplit::new(),
        }));
        Ok(self)
    }

    /// Whether the engine is currently degraded to the fallback strategy.
    pub fn is_degraded(&self) -> bool {
        self.admission.as_ref().is_some_and(|a| a.degraded)
    }

    /// `(pending messages, pending bytes)` under admission control.
    pub fn admission_pending(&self) -> Option<(u64, u64)> {
        self.admission.as_ref().map(|a| (a.pending_msgs, a.pending_bytes))
    }

    /// Current transport time.
    pub fn now(&self) -> SimTime {
        self.transport.now()
    }

    /// The sampled knowledge the engine decides from.
    pub fn predictor(&self) -> &Predictor {
        &self.predictor
    }

    /// The active strategy's name.
    pub fn strategy_name(&self) -> &'static str {
        self.strategy.name()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Borrow the transport (e.g. to inspect driver statistics).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Posts a size-only message on flow tag 0 (simulation drivers).
    pub fn post_send(&mut self, size: u64) -> Result<MsgId, EngineError> {
        self.post(size, None, 0)
    }

    /// Posts a size-only message on a specific flow tag. Messages of one
    /// tag are *released to the application in posted order* even when
    /// reordering strategies or rail races complete them out of order.
    pub fn post_send_tagged(&mut self, size: u64, tag: u32) -> Result<MsgId, EngineError> {
        self.post(size, None, tag)
    }

    /// Posts a message with a real payload (byte-moving drivers), tag 0.
    pub fn post_send_bytes(&mut self, payload: Bytes) -> Result<MsgId, EngineError> {
        let size = payload.len() as u64;
        self.post(size, Some(payload), 0)
    }

    /// Posts a payload-carrying message on a specific flow tag.
    pub fn post_send_bytes_tagged(
        &mut self,
        payload: Bytes,
        tag: u32,
    ) -> Result<MsgId, EngineError> {
        let size = payload.len() as u64;
        self.post(size, Some(payload), tag)
    }

    /// Posts several size-only messages *before* the strategy runs — the
    /// paper's "the application enqueues packets into a list" pattern. This
    /// is what lets the aggregation strategy actually see a queue: posting
    /// one-by-one interrogates the strategy after every message.
    pub fn post_send_batch(&mut self, sizes: &[u64]) -> Result<Vec<MsgId>, EngineError> {
        let ids =
            sizes.iter().map(|&s| self.enqueue(s, None, 0, None)).collect::<Result<Vec<_>, _>>()?;
        self.kick()?;
        Ok(ids)
    }

    /// Batch variant of [`Self::post_send_bytes`].
    pub fn post_send_bytes_batch(
        &mut self,
        payloads: Vec<Bytes>,
    ) -> Result<Vec<MsgId>, EngineError> {
        let ids = payloads
            .into_iter()
            .map(|p| {
                let size = p.len() as u64;
                self.enqueue(size, Some(p), 0, None)
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.kick()?;
        Ok(ids)
    }

    /// Non-blocking post under admission control: returns
    /// [`EngineError::Backpressure`] instead of growing pending state past
    /// the configured caps. Without admission control this is
    /// [`Self::post_send`]. Never blocks and never sheds on the caller's
    /// behalf — rejected messages simply were not accepted.
    pub fn try_post_send(&mut self, size: u64) -> Result<MsgId, EngineError> {
        self.post(size, None, 0)
    }

    /// Tagged variant of [`Self::try_post_send`].
    pub fn try_post_send_tagged(&mut self, size: u64, tag: u32) -> Result<MsgId, EngineError> {
        self.post(size, None, tag)
    }

    /// Posts a size-only message that is shed (never sent) if it is still
    /// queued `deadline` after posting — [`Engine::wait`] then reports
    /// [`EngineError::Shed`]. Requires admission control.
    pub fn post_send_with_deadline(
        &mut self,
        size: u64,
        deadline: SimDuration,
    ) -> Result<MsgId, EngineError> {
        if self.admission.is_none() {
            return Err(EngineError::Config(
                "deadlines require admission control (with_admission_control)".into(),
            ));
        }
        let id = self.enqueue(size, None, 0, Some(deadline))?;
        self.kick()?;
        Ok(id)
    }

    fn post(&mut self, size: u64, payload: Option<Bytes>, tag: u32) -> Result<MsgId, EngineError> {
        let id = self.enqueue(size, payload, tag, None)?;
        self.kick()?;
        Ok(id)
    }

    // nm-analyzer: allow(unbounded-growth) -- one queue entry and one flow slot per posted
    // message; the queue drains every kick and shed_expired evicts overdue posts
    fn enqueue(
        &mut self,
        size: u64,
        payload: Option<Bytes>,
        tag: u32,
        deadline: Option<SimDuration>,
    ) -> Result<MsgId, EngineError> {
        if size == 0 {
            return Err(EngineError::Config("zero-byte messages are not modeled".into()));
        }
        let posted_at = self.transport.now();
        let deadline = if let Some(adm) = self.admission.as_mut() {
            if adm.pending_msgs >= adm.cfg.max_pending_msgs {
                self.stats.backpressure_rejections += 1;
                return Err(EngineError::Backpressure(Backpressure::MsgCap {
                    pending: adm.pending_msgs,
                    cap: adm.cfg.max_pending_msgs,
                }));
            }
            if adm.pending_bytes.saturating_add(size) > adm.cfg.max_pending_bytes {
                self.stats.backpressure_rejections += 1;
                return Err(EngineError::Backpressure(Backpressure::ByteCap {
                    pending: adm.pending_bytes,
                    requested: size,
                    cap: adm.cfg.max_pending_bytes,
                }));
            }
            adm.pending_msgs += 1;
            adm.pending_bytes += size;
            deadline.or(adm.cfg.default_deadline).map(|d| posted_at + d)
        } else {
            None
        };
        let id = MsgId(self.next_msg);
        self.next_msg += 1;
        let seq = self.flow_next_seq.entry(tag).or_insert(0);
        let flow_seq = *seq;
        *seq += 1;
        self.queue.push_back(QueuedMsg { id, tag, flow_seq, size, payload, posted_at, deadline });
        Ok(id)
    }

    /// Returns one pending message's admission budget (completion, shed or
    /// cancellation — each message releases exactly once).
    fn release_pending(&mut self, size: u64) {
        if let Some(adm) = self.admission.as_mut() {
            adm.pending_msgs = adm.pending_msgs.saturating_sub(1);
            adm.pending_bytes = adm.pending_bytes.saturating_sub(size);
        }
    }

    /// Interrogates the strategy while it keeps consuming the queue.
    ///
    /// The per-iteration queue/wait snapshots live in the engine's scratch
    /// buffers; they are taken out for the duration of the loop (the `Ctx`
    /// borrows them while `self` stays mutable) and put back afterwards,
    /// even on early return.
    fn kick(&mut self) -> Result<(), EngineError> {
        let mut sizes = std::mem::take(&mut self.scratch_sizes);
        let mut waits = std::mem::take(&mut self.scratch_waits);
        let result = self.kick_inner(&mut sizes, &mut waits);
        sizes.clear();
        waits.clear();
        self.scratch_sizes = sizes;
        self.scratch_waits = waits;
        // An idle NIC or core matters only while something waits for one.
        // The fault and admission layers do time-driven work on every poll
        // (timeouts, retries, probes, shedding), so they take every event.
        let wanted = !self.queue.is_empty() || self.health.is_some() || self.admission.is_some();
        if wanted != self.idle_interest {
            self.idle_interest = wanted;
            self.transport.set_idle_interest(wanted);
        }
        result
    }

    fn kick_inner(
        &mut self,
        sizes: &mut Vec<u64>,
        waits: &mut Vec<f64>,
    ) -> Result<(), EngineError> {
        let mut consecutive_promotes = 0usize;
        while !self.queue.is_empty() {
            sizes.clear();
            sizes.extend(self.queue.iter().map(|m| m.size));
            let now = self.transport.now();
            waits.clear();
            waits.extend(
                (0..self.transport.rail_count())
                    .map(|r| Predictor::wait_us(now, self.transport.rail_busy_until(RailId(r)))),
            );
            // Evaluated even when every rail is excluded below: a backlog
            // piling up behind an outage must still latch degradation.
            self.update_degradation();
            if let Some(ft) = &self.health {
                if ft.tracker.any_excluded() {
                    if ft.tracker.selectable_count() == 0 {
                        // Every rail is quarantined or probing: nothing can
                        // be scheduled until a probe re-admits one.
                        self.stats.defers += 1;
                        return Ok(());
                    }
                    // Quarantined/probing rails report an infinite wait, so
                    // selection and the split dichotomy discard them through
                    // the existing busy-NIC mechanism (Fig 2) — no strategy
                    // needs to know about health explicitly.
                    for (r, w) in waits.iter_mut().enumerate() {
                        if !ft.tracker.is_selectable(RailId(r)) {
                            *w = f64::INFINITY;
                        }
                    }
                }
            }
            let degraded = self.admission.as_ref().is_some_and(|a| a.degraded);
            let action = {
                let ctx = Ctx {
                    now,
                    predictor: &self.predictor,
                    rail_waits_us: waits,
                    idle_cores: self.transport.idle_cores(),
                    core_count: self.transport.core_count(),
                    queued_sizes: sizes,
                    predictor_epoch: self.predictor_epoch,
                };
                if degraded {
                    // Overloaded: spend no time on dichotomy precision;
                    // the static ratio split is O(rails) per message.
                    self.admission
                        .as_mut()
                        .expect("degraded implies admission")
                        .fallback
                        .decide(&ctx)
                } else {
                    self.strategy.decide(&ctx)
                }
            };
            if degraded {
                self.stats.degraded_decisions += 1;
            }
            match action {
                Action::Defer => {
                    self.stats.defers += 1;
                    return Ok(());
                }
                Action::Promote { index } => {
                    if index == 0 || index >= self.queue.len() {
                        return Err(EngineError::BadPlan(format!(
                            "promote index {index} out of queue of {}",
                            self.queue.len()
                        )));
                    }
                    consecutive_promotes += 1;
                    if consecutive_promotes > self.queue.len() {
                        return Err(EngineError::BadPlan(
                            "strategy promotes endlessly without sending".into(),
                        ));
                    }
                    let msg = self.queue.remove(index).expect("bounds checked");
                    self.queue.push_front(msg);
                    self.stats.promotes += 1;
                    continue;
                }
                Action::Split(chunks) => self.apply_split(chunks)?,
                Action::Aggregate { count, rail } => self.apply_aggregate(count, rail)?,
            }
            consecutive_promotes = 0;
        }
        Ok(())
    }

    /// Hysteresis-guarded strategy degradation. Entered when the backlog
    /// *or* the feedback correction factor crosses its threshold (the model
    /// is either drowning or wrong — precision is wasted either way);
    /// recovered only when *both* are back under their lower bounds.
    fn update_degradation(&mut self) {
        let Some(adm) = self.admission.as_ref() else { return };
        let backlog = self.queue.len();
        let mut deviation = 1.0f64;
        for fb in self.feedback.rails() {
            if fb.count > 0 && fb.ewma_ratio > 0.0 {
                deviation = deviation.max(fb.ewma_ratio.max(1.0 / fb.ewma_ratio));
            }
        }
        let flipped = if !adm.degraded {
            backlog >= adm.cfg.degrade_enter_backlog || deviation >= adm.cfg.degrade_correction
        } else {
            backlog <= adm.cfg.degrade_exit_backlog && deviation <= adm.cfg.recover_correction
        };
        if flipped {
            let adm = self.admission.as_mut().expect("checked above");
            adm.degraded = !adm.degraded;
            self.stats.degrade_transitions += 1;
        }
    }

    /// Sheds queued messages past their deadline, oldest first. Shed
    /// messages release their flow slot (successors must not stall) and are
    /// reported by [`Engine::wait`] as [`EngineError::Shed`].
    // nm-analyzer: allow(unbounded-growth) -- one sequencer per active tag and one completion
    // per posted message; wait/drain retire both
    fn shed_expired(&mut self, now: SimTime) -> Result<(), EngineError> {
        loop {
            // Oldest past-deadline message first: ids are assigned in
            // posted order, so the smallest expired id is the oldest.
            let victim = self
                .queue
                .iter()
                .enumerate()
                .filter(|(_, m)| m.deadline.is_some_and(|d| d <= now))
                .min_by_key(|(_, m)| m.id)
                .map(|(i, _)| i);
            let Some(pos) = victim else { return Ok(()) };
            let msg = self.queue.remove(pos).expect("position valid");
            self.release_pending(msg.size);
            self.admission.as_mut().expect("deadlines imply admission").shed.insert(msg.id);
            self.stats.msgs_shed += 1;
            let sequencer = self
                .flow_release
                .entry(msg.tag)
                .or_insert_with(|| nm_proto::Sequencer::new(FLOW_REORDER_WINDOW));
            let released = sequencer
                .skip(msg.flow_seq)
                .map_err(|e| EngineError::Transport(format!("flow skip: {e}")))?;
            for c in released {
                self.held.remove(&c.id);
                self.completions.insert(c.id, c);
            }
        }
    }

    // nm-analyzer: allow(unbounded-growth) -- in-flight ledgers hold one entry per live chunk
    // or message, removed on delivery, failure, or cancellation
    fn apply_split(&mut self, chunks: ChunkList) -> Result<(), EngineError> {
        let head = self.queue.front().expect("kick checked non-empty");
        if chunks.is_empty() {
            return Err(EngineError::BadPlan("empty chunk list".into()));
        }
        let total: u64 = chunks.iter().map(|c| c.bytes).sum();
        if total != head.size {
            return Err(EngineError::BadPlan(format!(
                "chunks cover {total} bytes of a {}-byte message",
                head.size
            )));
        }
        for c in &chunks {
            if c.bytes == 0 {
                return Err(EngineError::BadPlan("zero-byte chunk".into()));
            }
            if c.rail.index() >= self.transport.rail_count() {
                return Err(EngineError::BadPlan(format!("unknown rail {:?}", c.rail)));
            }
            if let Some(ft) = &self.health {
                if !ft.tracker.is_selectable(c.rail) {
                    return Err(EngineError::BadPlan(format!(
                        "chunk planned on unselectable rail {:?}",
                        c.rail
                    )));
                }
            }
        }

        let msg = self.queue.pop_front().expect("validated above");
        let layout: Vec<(RailId, u64)> = chunks.iter().map(|c| (c.rail, c.bytes)).collect();
        self.inflight.insert(
            msg.id,
            InflightMsg {
                tag: msg.tag,
                flow_seq: msg.flow_seq,
                size: msg.size,
                posted_at: msg.posted_at,
                chunks_total: chunks.len(),
                chunks_done: 0,
                layout,
            },
        );

        let mut offset = 0u64;
        for (chunk_index, c) in chunks.into_iter().enumerate() {
            let payload = match (&msg.payload, self.framing) {
                (Some(p), false) => Some(p.slice(offset as usize..(offset + c.bytes) as usize)),
                (Some(p), true) => {
                    let slice = p.slice(offset as usize..(offset + c.bytes) as usize);
                    let packet = nm_proto::Packet::new(
                        nm_proto::PacketHeader {
                            kind: nm_proto::PacketKind::Eager,
                            flow: msg.tag,
                            msg_id: msg.flow_seq,
                            offset,
                            total_len: msg.size,
                            chunk_index: chunk_index as u32,
                            payload_len: 0, // stamped by Packet::new
                        },
                        slice,
                    )
                    .with_integrity(self.integrity);
                    Some(packet.encode())
                }
                (None, _) => None,
            };
            offset += c.bytes;
            let wire_bytes = payload.as_ref().map(|p| p.len() as u64).unwrap_or(c.bytes);
            let submit = ChunkSubmit {
                rail: c.rail,
                bytes: wire_bytes,
                send_core: c.offload_core.unwrap_or(nm_sim::CoreId(0)),
                recv_core: c.offload_core.unwrap_or(nm_sim::CoreId(0)),
                offload_delay: c.offload_delay,
                mode: c.mode,
                payload,
            };
            self.stats.chunks_submitted += 1;
            self.stats.rail_bytes[c.rail.index()] += c.bytes;
            let meta_submit = self.health.is_some().then(|| submit.clone());
            let prediction = self.predict_completion(&submit);
            let chunk_id = self.transport.submit(submit);
            self.chunk_prediction.insert(chunk_id, prediction);
            self.chunk_owner.insert(chunk_id, ChunkOwner::Msg(msg.id));
            if let Some(ms) = meta_submit {
                self.arm_watchdog(&prediction);
                self.health.as_mut().expect("meta_submit implies health").chunk_meta.insert(
                    chunk_id,
                    ChunkMeta {
                        submit: ms,
                        attempt: 0,
                        first_failed_at: None,
                        layout_idx: chunk_index,
                    },
                );
            }
        }
        Ok(())
    }

    /// Predicted completion of a chunk about to be submitted (rail, submit
    /// instant, predicted delivery instant) — scored against the actual
    /// delivery by [`crate::feedback`].
    fn predict_completion(&self, submit: &ChunkSubmit) -> (RailId, SimTime, SimTime) {
        let now = self.transport.now();
        let wait = Predictor::wait_us(now, self.transport.rail_busy_until(submit.rail));
        let view = self.predictor.rail(submit.rail);
        let dur_us = match submit.mode {
            Some(nm_model::TransferMode::Eager) => view.eager.predict_us(submit.bytes),
            _ => view.natural.predict_us(submit.bytes),
        };
        let predicted =
            now + submit.offload_delay + nm_model::SimDuration::from_micros_f64(wait + dur_us);
        (submit.rail, now, predicted)
    }

    // nm-analyzer: allow(unbounded-growth) -- in-flight ledgers hold one entry per live packed
    // message, removed when the pack delivers or fails
    fn apply_aggregate(&mut self, count: usize, rail: RailId) -> Result<(), EngineError> {
        if count == 0 || count > self.queue.len() {
            return Err(EngineError::BadPlan(format!(
                "aggregate of {count} messages from a queue of {}",
                self.queue.len()
            )));
        }
        if rail.index() >= self.transport.rail_count() {
            return Err(EngineError::BadPlan(format!("unknown rail {rail:?}")));
        }
        if let Some(ft) = &self.health {
            if !ft.tracker.is_selectable(rail) {
                return Err(EngineError::BadPlan(format!(
                    "pack planned on unselectable rail {rail:?}"
                )));
            }
        }
        let msgs: Vec<QueuedMsg> =
            (0..count).map(|_| self.queue.pop_front().expect("count validated")).collect();

        // Wire size of the pack, and the packed payload when bytes exist.
        let pack_bytes: u64 = msgs.iter().map(|m| m.size + ENTRY_OVERHEAD as u64).sum();
        let all_have_payloads = msgs.iter().all(|m| m.payload.is_some());
        let payload = if all_have_payloads {
            let mut agg = Aggregator::new(pack_bytes as usize + 1);
            for m in &msgs {
                let ok = agg.push(AggEntry {
                    flow: m.tag,
                    msg_id: m.flow_seq,
                    data: m.payload.clone().expect("checked"),
                });
                debug_assert!(ok, "budget sized to fit all entries");
            }
            let pack_id = self.next_pack;
            // With framing on, the receiver needs the pack header to
            // dispatch to unpack_aggregate, and the segments are gathered
            // straight into the wire buffer; otherwise the bare pack
            // payload suffices for integrity checking.
            agg.flush_segments(pack_id).map(|pack| {
                if self.framing {
                    pack.encode(self.integrity)
                } else {
                    pack.into_packet().payload
                }
            })
        } else {
            None
        };
        self.next_pack += 1;

        let ids: Vec<MsgId> = msgs.iter().map(|m| m.id).collect();
        for m in &msgs {
            self.inflight.insert(
                m.id,
                InflightMsg {
                    tag: m.tag,
                    flow_seq: m.flow_seq,
                    size: m.size,
                    posted_at: m.posted_at,
                    chunks_total: 1,
                    chunks_done: 0,
                    layout: vec![(rail, m.size)],
                },
            );
        }
        self.stats.packs_submitted += 1;
        self.stats.msgs_aggregated += count as u64;
        self.stats.chunks_submitted += 1;
        self.stats.rail_bytes[rail.index()] += pack_bytes;
        let wire_bytes = payload.as_ref().map(|p| p.len() as u64).unwrap_or(pack_bytes);
        let submit = ChunkSubmit { payload, ..ChunkSubmit::new(rail, wire_bytes) };
        let meta_submit = self.health.is_some().then(|| submit.clone());
        let prediction = self.predict_completion(&submit);
        let chunk_id = self.transport.submit(submit);
        self.chunk_prediction.insert(chunk_id, prediction);
        self.chunk_owner.insert(chunk_id, ChunkOwner::Pack(ids));
        if let Some(ms) = meta_submit {
            self.arm_watchdog(&prediction);
            self.health.as_mut().expect("meta_submit implies health").chunk_meta.insert(
                chunk_id,
                ChunkMeta { submit: ms, attempt: 0, first_failed_at: None, layout_idx: 0 },
            );
        }
        Ok(())
    }

    /// Advances the transport once and folds events into completions.
    /// Returns ids of messages that completed during this poll.
    #[must_use = "dropping the completed ids silently loses completions; at minimum check for errors"]
    pub fn poll(&mut self) -> Result<Vec<MsgId>, EngineError> {
        let events = self.transport.poll();
        let mut done = Vec::new();
        let mut rekick = false;
        for ev in events {
            match ev {
                TransportEvent::ChunkDelivered { chunk, at } => {
                    let prediction = self.chunk_prediction.remove(&chunk);
                    match self.chunk_owner.remove(&chunk) {
                        Some(owner) => {
                            self.note_delivered(chunk);
                            match owner {
                                ChunkOwner::Msg(id) => {
                                    if let Some((rail, submitted, predicted)) = prediction {
                                        self.feedback.record(rail, submitted, predicted, at);
                                        self.publish_feedback(rail);
                                    }
                                    self.note_chunk_recovery(chunk, at);
                                    if self.note_chunk_done(id, at) {
                                        done.push(id);
                                    }
                                }
                                ChunkOwner::Pack(ids) => {
                                    if let Some((rail, submitted, predicted)) = prediction {
                                        self.feedback.record(rail, submitted, predicted, at);
                                        self.publish_feedback(rail);
                                    }
                                    self.note_chunk_recovery(chunk, at);
                                    for id in ids {
                                        if self.note_chunk_done(id, at) {
                                            done.push(id);
                                        }
                                    }
                                }
                                ChunkOwner::Probe(rail) => {
                                    rekick |= self.on_probe_delivered(rail, prediction, at);
                                }
                            }
                        }
                        None => {
                            // A timed-out chunk the transport could not
                            // retract may still deliver; swallow it — and
                            // remember it as delivered, because a
                            // duplication fault can re-deliver a zombie
                            // just like any completed chunk.
                            let late =
                                self.health.as_mut().is_some_and(|ft| ft.abandoned.remove(&chunk));
                            if late {
                                self.note_delivered(chunk);
                            } else if self.recent_delivered_set.contains(&chunk) {
                                // A duplication fault re-delivers completed
                                // chunks: recognize, count, drop.
                                self.stats.duplicate_chunks_dropped += 1;
                            } else {
                                return Err(EngineError::Transport(format!(
                                    "delivery for unknown chunk {chunk:?}"
                                )));
                            }
                        }
                    }
                }
                TransportEvent::ChunkSendDone { .. } => {}
                TransportEvent::RailIdle { .. } | TransportEvent::CoreIdle { .. } => {
                    rekick = true;
                }
                TransportEvent::ChunkFailed { chunk, at } => {
                    self.handle_chunk_failure(chunk, at, false)?;
                    rekick = true;
                }
                TransportEvent::ChunkCorrupt { chunk, at } => {
                    // Detected in-flight damage: the bytes are unusable, so
                    // the chunk re-enters the failover path — retry with
                    // backoff plus a health demerit for the rail.
                    self.stats.corrupt_chunks += 1;
                    self.handle_chunk_failure(chunk, at, false)?;
                    rekick = true;
                }
                TransportEvent::Wakeup { .. } => {
                    rekick = true;
                }
            }
        }
        if self.health.is_some() {
            let now = self.transport.now();
            self.expire_overdue_chunks(now)?;
            self.flush_due(now)?;
        }
        if self.admission.is_some() {
            let now = self.transport.now();
            self.shed_expired(now)?;
        }
        if rekick {
            self.kick()?;
        }
        Ok(done)
    }

    /// Remembers a delivered chunk id for duplicate recognition (bounded
    /// ring — old entries age out).
    fn note_delivered(&mut self, chunk: ChunkId) {
        // nm-analyzer: bounded(RECENT_DELIVERED_WINDOW) -- the VecDeque ring below evicts the oldest id past the window
        if self.recent_delivered_set.insert(chunk) {
            self.recent_delivered.push_back(chunk);
            if self.recent_delivered.len() > RECENT_DELIVERED_WINDOW {
                let old = self.recent_delivered.pop_front().expect("non-empty");
                self.recent_delivered_set.remove(&old);
            }
        }
    }

    /// Timeout watchdog: declares lost any in-flight chunk that exceeded
    /// `timeout_factor ×` its predicted duration (floored at `min_timeout`).
    /// Covers transports that drop silently instead of raising
    /// [`TransportEvent::ChunkFailed`].
    // nm-analyzer: allow(determinism-taint) -- expired set is collected then sorted by chunk id before any state change
    fn expire_overdue_chunks(&mut self, now: SimTime) -> Result<(), EngineError> {
        let (factor, min_timeout) = {
            let cfg = self.health.as_ref().expect("caller checked").tracker.config();
            (cfg.timeout_factor, cfg.min_timeout)
        };
        let mut expired: Vec<ChunkId> = self
            .chunk_prediction
            .iter()
            .filter(|&(_, &(_, submitted, predicted))| {
                let allowance =
                    predicted.saturating_since(submitted).mul_f64(factor).max(min_timeout);
                now >= submitted + allowance
            })
            .map(|(&c, _)| c)
            .collect();
        // HashMap iteration order is nondeterministic; the failure order
        // must not be.
        expired.sort_unstable_by_key(|c| c.0);
        for chunk in expired {
            self.handle_chunk_failure(chunk, now, true)?;
        }
        Ok(())
    }

    /// Folds one lost chunk into the failover machinery: health transition,
    /// retry scheduling, bookkeeping. `timed_out` distinguishes watchdog
    /// expiries from explicit transport failures.
    fn handle_chunk_failure(
        &mut self,
        chunk: ChunkId,
        at: SimTime,
        timed_out: bool,
    ) -> Result<(), EngineError> {
        self.chunk_prediction.remove(&chunk);
        let Some(owner) = self.chunk_owner.remove(&chunk) else {
            return Ok(()); // already written off (e.g. timeout beat the event)
        };
        if self.health.is_none() {
            return Err(EngineError::Transport(format!(
                "chunk {chunk:?} failed but fault tolerance is disabled"
            )));
        }
        if timed_out {
            self.stats.chunks_timed_out += 1;
            // Best effort: retract the zombie from the transport; if it
            // cannot be retracted, remember to swallow its late delivery.
            if !self.transport.cancel_chunks(&[chunk]) {
                self.health.as_mut().expect("checked").mark_abandoned(chunk);
            }
        } else {
            self.stats.chunks_failed += 1;
        }
        if let ChunkOwner::Probe(rail) = owner {
            let next = {
                let ft = self.health.as_mut().expect("checked");
                ft.tracker.probe_failed(rail, at);
                ft.tracker.next_probe_at(rail)
            };
            // Probing → Quarantined: the rail was already unselectable, so
            // no epoch bump — mirror the state flip alone.
            self.publish_ops(&[
                EngineOp::Health { rail: rail.index() as u8, state: RailState::Quarantined },
                EngineOp::Counter { kind: CounterKind::ProbeFailures, delta: 1 },
            ]);
            self.transport.schedule_wakeup(next);
            return Ok(());
        }
        let mut meta = self
            .health
            .as_mut()
            .expect("checked")
            .chunk_meta
            .remove(&chunk)
            .expect("fault tolerance records every submitted chunk");
        let rail = meta.submit.rail;
        self.stats.rail_failures[rail.index()] += 1;
        meta.attempt += 1;
        if meta.first_failed_at.is_none() {
            meta.first_failed_at = Some(at);
        }
        let (quarantined, probe_at, max_retries, retry_backoff) = {
            let ft = self.health.as_mut().expect("checked");
            let q = ft.tracker.on_chunk_failure(rail, at);
            let cfg = ft.tracker.config();
            (q, ft.tracker.next_probe_at(rail), cfg.max_retries, cfg.retry_backoff)
        };
        if quarantined {
            self.stats.quarantines += 1;
            // Split plans memoized against the old rail set must die.
            self.predictor_epoch += 1;
            // One batch: replicas can never observe the quarantine without
            // the epoch bump that kills plans split across the lost rail.
            self.publish_ops(&[
                EngineOp::Health { rail: rail.index() as u8, state: RailState::Quarantined },
                EngineOp::EpochBump,
                EngineOp::Counter { kind: CounterKind::Quarantines, delta: 1 },
            ]);
            self.transport.schedule_wakeup(probe_at);
        }
        if meta.attempt > max_retries {
            return Err(EngineError::Transport(format!(
                "chunk {chunk:?} abandoned after {} failed attempts (last rail {rail:?})",
                meta.attempt
            )));
        }
        // Exponential backoff: base × 2^(attempt-1).
        let not_before = at + retry_backoff * (1u64 << (u64::from(meta.attempt) - 1).min(16));
        self.transport.schedule_wakeup(not_before);
        self.health.as_mut().expect("checked").retries.push_back(RetryEntry {
            owner,
            meta,
            not_before,
            from_rail: rail,
        });
        Ok(())
    }

    /// A chunk delivered while fault tolerance is on: clear its submission
    /// record, credit the rail, check drift, and close out failover latency
    /// accounting for recovered lineages.
    fn note_chunk_recovery(&mut self, chunk: ChunkId, at: SimTime) {
        let Some(ft) = self.health.as_mut() else { return };
        let Some(meta) = ft.chunk_meta.remove(&chunk) else { return };
        let rail = meta.submit.rail;
        ft.tracker.on_chunk_success(rail);
        // Feedback drift marks the rail Degraded (still selectable, so no
        // epoch bump): the cue to adopt_feedback_correction or re-sample.
        let (min_count, threshold) = {
            let cfg = ft.tracker.config();
            (cfg.degrade_min_count, cfg.degrade_drift_threshold)
        };
        let fb = self.feedback.rail(rail);
        let drifted = fb.count >= min_count
            && fb.mean_signed_rel_err.abs() > threshold
            && ft.tracker.note_drift(rail);
        if drifted {
            // Healthy → Degraded: still selectable, so no epoch bump.
            self.publish_ops(&[EngineOp::Health {
                rail: rail.index() as u8,
                state: RailState::Degraded,
            }]);
        }
        if meta.attempt > 0 {
            if let Some(failed_at) = meta.first_failed_at {
                self.stats.failover_latency_us_sum +=
                    at.saturating_since(failed_at).as_micros_f64();
                self.stats.failover_completions += 1;
            }
        }
    }

    /// A probe chunk delivered: judge it against its prediction. Returns
    /// `true` when the rail was re-admitted (the queue deserves a kick).
    fn on_probe_delivered(
        &mut self,
        rail: RailId,
        prediction: Option<(RailId, SimTime, SimTime)>,
        at: SimTime,
    ) -> bool {
        let tolerance = self
            .health
            .as_ref()
            .expect("probe chunks only exist with health enabled")
            .tracker
            .config()
            .probe
            .tolerance;
        let passed = prediction.is_some_and(|(_, submitted, predicted)| {
            nm_sampler::probe_ok(
                Micros::new(predicted.saturating_since(submitted).as_micros_f64()),
                Micros::new(at.saturating_since(submitted).as_micros_f64()),
                tolerance,
            )
        });
        enum Outcome {
            Next(u64),
            Readmitted,
            Failed(SimTime),
        }
        let outcome = {
            let ft = self.health.as_mut().expect("checked");
            if passed {
                match ft.tracker.probe_point_passed(rail) {
                    Some(next_size) => Outcome::Next(next_size),
                    None => Outcome::Readmitted,
                }
            } else {
                ft.tracker.probe_failed(rail, at);
                Outcome::Failed(ft.tracker.next_probe_at(rail))
            }
        };
        match outcome {
            Outcome::Next(size) => {
                self.submit_probe(rail, size);
                false
            }
            Outcome::Readmitted => {
                self.stats.readmissions += 1;
                // The selectable set grew: memoized plans are stale.
                self.predictor_epoch += 1;
                // One batch: the re-admitted rail and the plan-killing
                // epoch bump become visible to replicas together.
                self.publish_ops(&[
                    EngineOp::Health { rail: rail.index() as u8, state: RailState::Healthy },
                    EngineOp::EpochBump,
                    EngineOp::Counter { kind: CounterKind::Readmissions, delta: 1 },
                ]);
                true
            }
            Outcome::Failed(next) => {
                // Probing → Quarantined (was already unselectable).
                self.publish_ops(&[
                    EngineOp::Health { rail: rail.index() as u8, state: RailState::Quarantined },
                    EngineOp::Counter { kind: CounterKind::ProbeFailures, delta: 1 },
                ]);
                self.transport.schedule_wakeup(next);
                false
            }
        }
    }

    /// Launches due probes and resubmits retry entries whose backoff
    /// elapsed.
    fn flush_due(&mut self, now: SimTime) -> Result<(), EngineError> {
        for r in 0..self.transport.rail_count() {
            let rail = RailId(r);
            let size = {
                let ft = self.health.as_mut().expect("caller checked");
                ft.tracker.probe_due(rail, now).then(|| ft.tracker.begin_probe(rail))
            };
            if let Some(size) = size {
                // Quarantined → Probing (both unselectable; no epoch bump).
                self.publish_ops(&[EngineOp::Health {
                    rail: rail.index() as u8,
                    state: RailState::Probing,
                }]);
                self.submit_probe(rail, size);
            }
        }
        loop {
            // Backoffs grow per attempt, so the deque is not sorted by
            // deadline: scan for any due entry.
            let entry = {
                let ft = self.health.as_mut().expect("caller checked");
                match ft.retries.iter().position(|e| e.not_before <= now) {
                    Some(i) => ft.retries.remove(i).expect("position valid"),
                    None => break,
                }
            };
            self.resubmit(entry, now)?;
        }
        Ok(())
    }

    /// Puts one probe chunk on a rail under test.
    // nm-analyzer: allow(unbounded-growth) -- one ledger entry per outstanding probe, removed
    // when the probe delivers; probes are rate-limited by the watchdog cadence
    fn submit_probe(&mut self, rail: RailId, size: u64) {
        let submit = ChunkSubmit::new(rail, size);
        let prediction = self.predict_completion(&submit);
        self.stats.probes_sent += 1;
        self.publish_ops(&[EngineOp::Counter { kind: CounterKind::ProbesSent, delta: 1 }]);
        let chunk = self.transport.submit(submit);
        self.chunk_prediction.insert(chunk, prediction);
        self.chunk_owner.insert(chunk, ChunkOwner::Probe(rail));
        self.arm_watchdog(&prediction);
    }

    /// Re-plans one failed chunk (or pack) onto the surviving rails.
    fn resubmit(&mut self, entry: RetryEntry, now: SimTime) -> Result<(), EngineError> {
        let RetryEntry { owner, meta, from_rail, .. } = entry;
        let (any_selectable, earliest_probe) = {
            let ft = self.health.as_ref().expect("retry implies health");
            (ft.tracker.selectable_count() > 0, ft.tracker.earliest_probe_at())
        };
        if !any_selectable {
            // Every rail is down: park the retry until a probe can
            // re-admit one (probes due now were already launched, so the
            // earliest pending probe is strictly in the future).
            let not_before = earliest_probe.unwrap_or(now) + SimDuration::from_micros(1);
            self.transport.schedule_wakeup(not_before);
            self.health.as_mut().expect("checked").retries.push_back(RetryEntry {
                owner,
                meta,
                not_before,
                from_rail,
            });
            return Ok(());
        }
        let candidates: InlineVec<(RailId, f64), MAX_RAILS> = (0..self.transport.rail_count())
            .map(RailId)
            .filter(|&r| self.health.as_ref().expect("checked").tracker.is_selectable(r))
            .map(|r| (r, Predictor::wait_us(now, self.transport.rail_busy_until(r))))
            .collect();
        let bytes = meta.submit.bytes;
        match owner {
            ChunkOwner::Probe(_) => unreachable!("probes are never retried"),
            ChunkOwner::Msg(id) => {
                if !self.inflight.contains_key(&id) {
                    return Ok(()); // cancelled while the retry waited
                }
                self.stats.retries += 1;
                self.stats.rail_retries[from_rail.index()] += 1;
                self.stats.retransmitted_bytes += bytes;
                if meta.submit.payload.is_none() && candidates.len() > 1 {
                    // Re-split the stranded byte range across the
                    // survivors, equal-completion style.
                    let split = select_rails(
                        &self.predictor.natural_cost(),
                        &candidates,
                        bytes,
                        candidates.len(),
                    );
                    if split.assignments.iter().any(|&(r, _)| r != from_rail) {
                        self.stats.failovers += 1;
                    }
                    self.inflight.get_mut(&id).expect("checked").chunks_total +=
                        split.assignments.len() - 1;
                    for (i, &(rail, b)) in split.assignments.iter().enumerate() {
                        let layout_idx = {
                            let m = self.inflight.get_mut(&id).expect("checked");
                            if i == 0 {
                                m.layout[meta.layout_idx] = (rail, b);
                                meta.layout_idx
                            } else {
                                m.layout.push((rail, b));
                                m.layout.len() - 1
                            }
                        };
                        let submit = ChunkSubmit::new(rail, b);
                        let new_meta = ChunkMeta {
                            submit: submit.clone(),
                            attempt: meta.attempt,
                            first_failed_at: meta.first_failed_at,
                            layout_idx,
                        };
                        self.submit_tracked(ChunkOwner::Msg(id), submit, new_meta);
                    }
                } else {
                    // Payload-carrying chunks move whole — their framing is
                    // already encoded for this exact byte range.
                    let rail = self.fastest_among(&candidates, bytes);
                    if rail != from_rail {
                        self.stats.failovers += 1;
                    }
                    self.inflight.get_mut(&id).expect("checked").layout[meta.layout_idx] =
                        (rail, bytes);
                    let mut submit = meta.submit.clone();
                    submit.rail = rail;
                    // The original offload plan died with the failure.
                    submit.send_core = nm_sim::CoreId(0);
                    submit.recv_core = nm_sim::CoreId(0);
                    submit.offload_delay = SimDuration::ZERO;
                    let new_meta = ChunkMeta {
                        submit: submit.clone(),
                        attempt: meta.attempt,
                        first_failed_at: meta.first_failed_at,
                        layout_idx: meta.layout_idx,
                    };
                    self.submit_tracked(ChunkOwner::Msg(id), submit, new_meta);
                }
            }
            ChunkOwner::Pack(ids) => {
                self.stats.retries += 1;
                self.stats.rail_retries[from_rail.index()] += 1;
                self.stats.retransmitted_bytes += bytes;
                let rail = self.fastest_among(&candidates, bytes);
                if rail != from_rail {
                    self.stats.failovers += 1;
                }
                for mid in &ids {
                    if let Some(m) = self.inflight.get_mut(mid) {
                        for slot in &mut m.layout {
                            if slot.0 == from_rail {
                                slot.0 = rail;
                            }
                        }
                    }
                }
                let mut submit = meta.submit.clone();
                submit.rail = rail;
                let new_meta = ChunkMeta {
                    submit: submit.clone(),
                    attempt: meta.attempt,
                    first_failed_at: meta.first_failed_at,
                    layout_idx: 0,
                };
                self.submit_tracked(ChunkOwner::Pack(ids), submit, new_meta);
            }
        }
        Ok(())
    }

    /// Best whole-chunk rail among `candidates` by predicted completion.
    fn fastest_among(&self, candidates: &[(RailId, f64)], bytes: u64) -> RailId {
        candidates
            .iter()
            .map(|&(r, w)| (r, self.predictor.completion_us(r, bytes, w)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("at least one selectable rail")
            .0
    }

    /// Submits a failover chunk with full fault-tolerance bookkeeping.
    // nm-analyzer: allow(unbounded-growth) -- one owner/prediction entry per live chunk,
    // removed on delivery or abandonment
    fn submit_tracked(&mut self, owner: ChunkOwner, submit: ChunkSubmit, meta: ChunkMeta) {
        self.stats.chunks_submitted += 1;
        self.stats.rail_bytes[submit.rail.index()] += submit.bytes;
        let prediction = self.predict_completion(&submit);
        let chunk = self.transport.submit(submit);
        self.chunk_prediction.insert(chunk, prediction);
        self.chunk_owner.insert(chunk, owner);
        self.health
            .as_mut()
            .expect("tracked submission implies health")
            .chunk_meta
            .insert(chunk, meta);
        self.arm_watchdog(&prediction);
    }

    /// Schedules the watchdog wakeup for a just-submitted chunk (no-op
    /// without fault tolerance).
    fn arm_watchdog(&mut self, prediction: &(RailId, SimTime, SimTime)) {
        if let Some(ft) = &self.health {
            let (_, submitted, predicted) = *prediction;
            let cfg = ft.tracker.config();
            let allowance = predicted
                .saturating_since(submitted)
                .mul_f64(cfg.timeout_factor)
                .max(cfg.min_timeout);
            self.transport.schedule_wakeup(submitted + allowance);
        }
    }

    // nm-analyzer: allow(unbounded-growth) -- completions hold one record per posted message
    // until wait/try_completion claims it or drain claims them all; held is capped per flow by
    // the sequencer's reorder window
    fn note_chunk_done(&mut self, id: MsgId, at: SimTime) -> bool {
        let m = self.inflight.get_mut(&id).expect("chunk owner implies inflight");
        m.chunks_done += 1;
        if m.chunks_done < m.chunks_total {
            return false;
        }
        let m = self.inflight.remove(&id).expect("present");
        self.release_pending(m.size);
        self.stats.msgs_completed += 1;
        self.stats.bytes_completed += m.size;
        let completion = MsgCompletion {
            id,
            tag: m.tag,
            size: m.size,
            posted_at: m.posted_at,
            delivered_at: at,
            duration: at - m.posted_at,
            chunks: m.layout,
        };
        // Per-flow in-order release: a physically-delivered message waits
        // until its flow predecessors complete (rail races and reordering
        // strategies must stay invisible to the application).
        let sequencer = self
            .flow_release
            .entry(m.tag)
            .or_insert_with(|| nm_proto::Sequencer::new(FLOW_REORDER_WINDOW));
        self.held.insert(id);
        let released = sequencer
            .accept(m.flow_seq, completion)
            .expect("flow sequencing is engine-internal and must not fail");
        for c in released {
            self.held.remove(&c.id);
            self.completions.insert(c.id, c);
        }
        true
    }

    /// Blocks (advancing the transport) until `id` completes.
    pub fn wait(&mut self, id: MsgId) -> Result<MsgCompletion, EngineError> {
        loop {
            if let Some(c) = self.completions.remove(&id) {
                return Ok(c);
            }
            if let Some(adm) = self.admission.as_mut() {
                if adm.shed.remove(&id) {
                    // Reported exactly once; a second wait is UnknownMessage.
                    return Err(EngineError::Shed(id.0));
                }
            }
            let known = self.inflight.contains_key(&id)
                || self.held.contains(&id)
                || self.queue.iter().any(|m| m.id == id);
            if !known {
                return Err(EngineError::UnknownMessage(id.0));
            }
            let made_progress = !self.poll()?.is_empty();
            if !made_progress && self.transport_quiescent() {
                // Nothing in flight: the strategy must act now or never.
                self.kick()?;
                if self.transport_quiescent() && !self.completions.contains_key(&id) {
                    let still_known =
                        self.inflight.contains_key(&id) || self.queue.iter().any(|m| m.id == id);
                    if still_known {
                        return Err(EngineError::Transport(format!(
                            "deadlock: transport quiescent but message {} incomplete",
                            id.0
                        )));
                    }
                }
            }
        }
    }

    /// Runs until every posted message completes; returns every completion
    /// nobody has claimed yet — those an earlier [`Self::poll`] or
    /// [`Self::wait`] already released included — in id (posted) order.
    /// Messages shed past their deadline while draining are skipped, not
    /// errors.
    // nm-analyzer: allow(determinism-taint) -- ids are collected then sort_unstable'd; wait order is id order
    #[must_use = "dropping the completions loses delivery results; at minimum check for errors"]
    pub fn drain(&mut self) -> Result<Vec<MsgCompletion>, EngineError> {
        let mut ids: Vec<MsgId> = self.queue.iter().map(|m| m.id).collect();
        ids.extend(self.inflight.keys().copied());
        ids.extend(self.held.iter().copied());
        ids.extend(self.completions.keys().copied());
        ids.sort_unstable();
        ids.into_iter()
            .filter_map(|id| match self.wait(id) {
                Ok(c) => Some(Ok(c)),
                Err(EngineError::Shed(_)) => None,
                Err(e) => Some(Err(e)),
            })
            .collect()
    }

    fn transport_quiescent(&self) -> bool {
        self.chunk_owner.is_empty() && self.health.as_ref().is_none_or(|ft| ft.retries.is_empty())
    }

    /// Takes an already-recorded completion without blocking.
    pub fn try_completion(&mut self, id: MsgId) -> Option<MsgCompletion> {
        self.completions.remove(&id)
    }

    /// Cancels a message. Queued messages are always removable. In-flight
    /// messages are retracted when the transport still holds *every* one of
    /// their chunks un-started (the reserved rail time is released); once
    /// any chunk has begun moving — or the message shares a pack with
    /// others, or a chunk is mid-retry — cancellation fails and the message
    /// completes normally. Returns `true` iff the message was removed.
    // nm-analyzer: allow(unbounded-growth) -- cancellation records one completion per cancelled
    // message and releases its flow slot; both retire through wait/drain
    pub fn cancel(&mut self, id: MsgId) -> Result<bool, EngineError> {
        let Some(pos) = self.queue.iter().position(|m| m.id == id) else {
            return self.cancel_inflight(id);
        };
        let msg = self.queue.remove(pos).expect("position found");
        self.release_pending(msg.size);
        // The flow must not stall waiting for the cancelled sequence.
        let sequencer = self
            .flow_release
            .entry(msg.tag)
            .or_insert_with(|| nm_proto::Sequencer::new(FLOW_REORDER_WINDOW));
        let released = sequencer
            .skip(msg.flow_seq)
            .map_err(|e| EngineError::Transport(format!("flow skip: {e}")))?;
        for c in released {
            self.held.remove(&c.id);
            self.completions.insert(c.id, c);
        }
        self.stats.cancelled += 1;
        Ok(true)
    }

    /// The in-flight half of [`Engine::cancel`]: retract every chunk of
    /// `id` from the transport, releasing the rail time it had reserved.
    // nm-analyzer: allow(determinism-taint) -- owned chunks are collected then sorted by id before retraction
    // nm-analyzer: allow(unbounded-growth) -- retraction moves one completion per cancelled
    // message into the ledger and frees its flow slot; wait/drain retire both
    fn cancel_inflight(&mut self, id: MsgId) -> Result<bool, EngineError> {
        let Some(m) = self.inflight.get(&id) else {
            return Ok(false); // held, completed or unknown
        };
        if m.chunks_done > 0 {
            return Ok(false); // partially delivered: too late
        }
        let chunks_total = m.chunks_total;
        let mut chunks: Vec<ChunkId> = self
            .chunk_owner
            .iter()
            .filter(|(_, o)| matches!(o, ChunkOwner::Msg(owner) if *owner == id))
            .map(|(&c, _)| c)
            .collect();
        // Hash order would leak into the transport's retraction sequence.
        chunks.sort_unstable();
        // Fewer owned chunks than the ledger expects means some are packed
        // with other messages or parked in the retry queue — unretractable.
        if chunks.len() != chunks_total {
            return Ok(false);
        }
        if !self.transport.cancel_chunks(&chunks) {
            return Ok(false); // transport already started moving bytes
        }
        for c in &chunks {
            self.chunk_owner.remove(c);
            self.chunk_prediction.remove(c);
            if let Some(ft) = self.health.as_mut() {
                ft.chunk_meta.remove(c);
            }
        }
        let msg = self.inflight.remove(&id).expect("checked above");
        self.release_pending(msg.size);
        let sequencer = self
            .flow_release
            .entry(msg.tag)
            .or_insert_with(|| nm_proto::Sequencer::new(FLOW_REORDER_WINDOW));
        let released = sequencer
            .skip(msg.flow_seq)
            .map_err(|e| EngineError::Transport(format!("flow skip: {e}")))?;
        for c in released {
            self.held.remove(&c.id);
            self.completions.insert(c.id, c);
        }
        self.stats.cancelled += 1;
        Ok(true)
    }

    /// Forcibly removes a message so the caller can repost its payload
    /// elsewhere (collectives DAG repair rerouting a hop whose path died).
    ///
    /// Where [`Engine::cancel`] refuses unless the retraction is perfectly
    /// clean, `abandon` succeeds whenever exactly-once semantics can still
    /// be guaranteed: queued messages are removed; in-flight messages are
    /// torn out — un-started chunks retracted from the transport, moving
    /// ones marked abandoned so their late deliveries are swallowed — and
    /// retry-parked chunks are dropped from the backoff queue. The flow
    /// sequence is skipped so successors are not held.
    ///
    /// Returns `Ok(true)` when the message was removed and will **never**
    /// complete here (safe to repost on another pair). Returns `Ok(false)`
    /// when the message is already physically delivered (held or
    /// completed), unknown, packed with co-travelers, or the engine lacks
    /// the fault-tolerance layer — in every such case the message still
    /// completes locally and the caller should keep waiting instead.
    // nm-analyzer: allow(determinism-taint) -- owned chunks are collected then sorted by id before retraction
    // nm-analyzer: allow(unbounded-growth) -- abandonment records one completion per abandoned
    // message and releases its flow slot; wait/drain retire both
    pub fn abandon(&mut self, id: MsgId) -> Result<bool, EngineError> {
        if self.cancel(id)? {
            return Ok(true);
        }
        if !self.inflight.contains_key(&id) {
            return Ok(false); // held, completed, or unknown: it will complete
        }
        if self.health.is_none() {
            // Without the fault layer there is no abandoned-set to swallow
            // late deliveries into; a forced teardown would poison poll.
            return Ok(false);
        }
        let mut chunks: Vec<ChunkId> = self
            .chunk_owner
            .iter()
            .filter(|(_, o)| matches!(o, ChunkOwner::Msg(owner) if *owner == id))
            .map(|(&c, _)| c)
            .collect();
        // Hash order would leak into the transport's retraction sequence.
        chunks.sort_unstable();
        let ft = self.health.as_mut().expect("checked above");
        let parked = ft.retries.iter().any(|r| matches!(&r.owner, ChunkOwner::Msg(o) if *o == id));
        if chunks.is_empty() && !parked {
            // No individually-owned chunks and nothing parked: the message
            // rides inside an aggregate pack. Tearing the pack apart would
            // strand its co-travelers; it completes with the pack.
            return Ok(false);
        }
        // Best effort: retract what has not started; whatever cannot be
        // retracted keeps flying and its delivery is swallowed later.
        let retracted = !chunks.is_empty() && self.transport.cancel_chunks(&chunks);
        let ft = self.health.as_mut().expect("checked above");
        for c in &chunks {
            self.chunk_owner.remove(c);
            self.chunk_prediction.remove(c);
            ft.chunk_meta.remove(c);
            if !retracted {
                ft.mark_abandoned(*c);
            }
        }
        ft.retries.retain(|r| !matches!(&r.owner, ChunkOwner::Msg(o) if *o == id));
        let msg = self.inflight.remove(&id).expect("checked above");
        self.release_pending(msg.size);
        let sequencer = self
            .flow_release
            .entry(msg.tag)
            .or_insert_with(|| nm_proto::Sequencer::new(FLOW_REORDER_WINDOW));
        let released = sequencer
            .skip(msg.flow_seq)
            .map_err(|e| EngineError::Transport(format!("flow skip: {e}")))?;
        for c in released {
            self.held.remove(&c.id);
            self.completions.insert(c.id, c);
        }
        self.stats.msgs_abandoned += 1;
        Ok(true)
    }

    /// Prediction-accuracy statistics accumulated so far.
    pub fn feedback(&self) -> &crate::feedback::Feedback {
        &self.feedback
    }

    /// Replaces the predictor with a feedback-corrected copy (per-rail
    /// duration scaling by the observed actual/predicted EWMA) and resets
    /// the accumulated feedback. The cheap runtime alternative to a full
    /// re-sampling when [`crate::feedback::Feedback::drift_detected`] fires.
    pub fn adopt_feedback_correction(&mut self) {
        let factors = self.feedback.correction_factors();
        self.predictor = self.predictor.with_rail_scaling(&factors);
        self.feedback = crate::feedback::Feedback::new(self.predictor.rail_count());
        // Memoized split plans embed the old predictions — invalidate them.
        self.predictor_epoch += 1;
        // The corrected predictor absorbs the drift that degraded rails.
        if let Some(ft) = self.health.as_mut() {
            ft.tracker.clear_degraded();
        }
        // Mirror the whole adoption as one batch: reset feedback ratios,
        // refreshed health states (Degraded rails went Healthy above), and
        // the plan-killing epoch bump — atomically visible to replicas.
        if self.shared.is_some() {
            let rails = self.predictor.rail_count();
            let mut ops = Vec::with_capacity(2 * rails + 1);
            for r in 0..rails {
                ops.push(EngineOp::Feedback { rail: r as u8, ewma_ratio: 1.0 });
            }
            if let Some(ft) = self.health.as_deref() {
                for r in 0..rails {
                    ops.push(EngineOp::Health {
                        rail: r as u8,
                        state: ft.tracker.state(RailId(r)),
                    });
                }
            }
            ops.push(EngineOp::EpochBump);
            self.publish_ops(&ops);
        }
    }

    /// Current predictor generation (bumped on every predictor swap).
    pub fn predictor_epoch(&self) -> u64 {
        self.predictor_epoch
    }
}
