//! The engine: application-layer queue + strategy interrogation + transfer
//! submission (paper Fig 5).
//!
//! "The application enqueues packets into a list and immediately returns to
//! computing. The packet scheduler is only activated when a NIC becomes
//! idle in order to feed it." The [`Engine`] reproduces that control flow:
//!
//! * [`Engine::post_send`] enqueues a message and returns at once;
//! * the strategy is interrogated immediately and again on every
//!   [`TransportEvent::RailIdle`];
//! * chunk deliveries are folded back into message completions.
//!
//! Where a message stands is written in one place, its `MsgRecord` in the
//! id-ordered `msgs` table: `Queued → Inflight → Held → Released`,
//! `Queued → Shed` or `Inflight → Failed`, never backwards (diagram in
//! DESIGN.md §7). `wait`, `try_completion` and `drain` claim a `Released`,
//! `Shed` or `Failed` record by removing it, `cancel`/`abandon` remove a
//! `Queued` or `Inflight` one, and an id without a record is unknown.
//! `queue` keeps only the order of the `Queued` ones and what `kick` reads
//! from every entry in a row.
//!
//! One file per layer of the figure, and one for what the figure lacks:
//!
//! * `post.rs` — the **application layer**: `post_*`, admission caps,
//!   deadline shedding, the degradation latch, `cancel`, and
//!   `release_flow`, the one way a message leaves its flow;
//! * `schedule.rs` — the **optimizer-scheduler**: `kick` interrogates the
//!   strategy, `apply_split`/`apply_aggregate` carry out its answer, and
//!   `submit_chunk`, the one way onto the wire, opens the one `ChunkRecord`
//!   kept per chunk;
//! * this file — the seam to the **transfer layer**: the [`Engine`], its
//!   builders and accessors, [`Engine::poll`]'s fold of transport events
//!   into completions with `wait`/`drain` on top, and `arm`, the one timer
//!   every deadline of the other three files is served by;
//! * `recovery.rs` — beyond the paper: timeout watchdog, chunk failure,
//!   retry and failover, health probes, `abandon`, and `RecentChunks`, the
//!   bounded memory of chunk ids.

mod post;
mod recovery;
mod schedule;

use crate::admission::AdmissionConfig;
use crate::error::EngineError;
use crate::feedback::Feedback;
use crate::health::{HealthConfig, HealthTracker};
use crate::predictor::Predictor;
use crate::replicated::{CounterKind, EngineOp, SharedDecisionState};
use crate::strategy::ratio::BandwidthRatioSplit;
use crate::strategy::Strategy;
use crate::transport::{ChunkId, Transport, TransportEvent};
use bytes::Bytes;
use nm_model::{SimDuration, SimTime};
use nm_sim::{CoreId, RailId};
use recovery::{RecentChunks, RetryEntry};
use schedule::{ChunkOwner, ChunkRecord};
use std::collections::{BTreeMap, HashMap, VecDeque};

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

/// A queued message's place in line, with what `kick` reads from every
/// entry in order (the sizes) and what only matters until it is scheduled.
struct QueuedMsg {
    id: MsgId,
    size: u64,
    payload: Option<Bytes>,
    /// Absolute shed deadline (admission control); `None` never expires.
    deadline: Option<SimTime>,
}

/// The one record of a live message, from post until it is claimed.
struct MsgRecord {
    tag: u32,
    flow_seq: u64,
    size: u64,
    posted_at: SimTime,
    state: MsgState,
}

enum MsgState {
    /// In `queue`, waiting for the strategy.
    Queued,
    /// On the wire as one chunk per `layout` entry.
    Inflight { chunks_total: usize, chunks_done: usize, layout: Vec<(RailId, u64)> },
    /// Physically delivered; its completion waits in the flow's sequencer
    /// for the flow's earlier messages.
    Held,
    /// Released to the application in flow order, not yet claimed.
    Released(MsgCompletion),
    /// Dropped from the queue past its deadline; [`Engine::wait`] reports
    /// [`EngineError::Shed`] once.
    Shed,
    /// A chunk spent its retries; [`Engine::wait`] reports
    /// [`EngineError::Failed`] once.
    Failed,
}

/// One flow (tag): the sequence number its next post takes, and the
/// sequencer that releases its completions in that order.
struct Flow {
    next_seq: u64,
    release: nm_proto::Sequencer<MsgCompletion>,
}

/// How many live messages are in each state (see [`Engine::msg_census`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MsgCensus {
    /// Waiting in the queue for the strategy.
    pub queued: usize,
    /// On the wire.
    pub inflight: usize,
    /// Delivered, held for flow order.
    pub held: usize,
    /// Released and not yet claimed.
    pub released: usize,
    /// Shed verdicts not yet claimed.
    pub shed: usize,
    /// Failed verdicts not yet claimed.
    pub failed: usize,
}

/// All admission-control state, boxed behind an `Option` so an engine
/// without overload protection pays nothing and decides identically.
struct Admission {
    cfg: AdmissionConfig,
    /// Messages currently pending (queued + in flight, minus completed).
    pending_msgs: u64,
    /// Payload bytes currently pending.
    pending_bytes: u64,
    /// Hysteresis-guarded degradation latch: while set, decisions come from
    /// `fallback` instead of the configured strategy.
    degraded: bool,
    /// The cheap strategy used while degraded (static bandwidth ratios —
    /// constant-time decisions, no dichotomy).
    fallback: BandwidthRatioSplit,
    /// No queued message's shed deadline is earlier than this: lowered by
    /// every post with a deadline, made exact whenever `shed_expired` scans.
    shed_floor: SimTime,
}

/// All fault-tolerance state, boxed behind an `Option` so the fault-free
/// engine pays nothing (and stays bit-identical to the pre-failover code).
struct FaultTolerance {
    tracker: HealthTracker,
    /// Failed chunks waiting out their retry backoff.
    retries: VecDeque<RetryEntry>,
    /// Chunks written off while the transport could not retract them: their
    /// late deliveries must be swallowed, not treated as unknown chunks.
    abandoned: RecentChunks,
    /// No chunk on the wire has a watchdog deadline earlier than this:
    /// lowered by every submission, made exact whenever the watchdog scans.
    watchdog_floor: SimTime,
    /// The same bound over the retries' `not_before` and the quarantined
    /// rails' `next_probe_at`, made exact whenever `flush_due` scans.
    due_floor: SimTime,
}

/// The multirail engine over some transport.
pub struct Engine<T: Transport> {
    transport: T,
    strategy: Box<dyn Strategy>,
    predictor: Predictor,
    /// The `Queued` messages in the order the strategy sees them.
    queue: VecDeque<QueuedMsg>,
    /// One record per live message, in id (posted) order: the only answer
    /// to "where is message m?".
    msgs: BTreeMap<MsgId, MsgRecord>,
    /// One record per chunk on the wire, in id order: every scan over it
    /// (watchdog expiry, retraction) is deterministic by construction.
    chunks: BTreeMap<ChunkId, ChunkRecord>,
    /// Per-tag flows: a message physically delivered out of order waits in
    /// its flow's sequencer until its flow predecessors complete.
    flows: HashMap<u32, Flow>,
    feedback: Feedback,
    /// The engine's one wire mode besides raw payloads. When set, chunk
    /// payloads are framed as wire packets — a header with
    /// flow/seq/offset/total so a remote peer can reassemble and
    /// re-sequence them (see [`crate::duplex`]), carrying the integrity
    /// bit: header self-check plus a CRC32C payload trailer.
    integrity: bool,
    /// Recently delivered chunk ids: a transport re-delivering one
    /// (duplication fault) is counted and dropped instead of erroring.
    recent_delivered: RecentChunks,
    next_msg: u64,
    next_pack: u64,
    stats: EngineStats,
    /// Generation counter of the predictor, forwarded to strategies via
    /// [`crate::strategy::Ctx`] so plan caches drop memoized splits whenever
    /// the sampled knowledge changes (feedback correction, re-sampling).
    predictor_epoch: u64,
    /// Buffers the engine keeps so that its steady state allocates only
    /// the completion it hands out: the per-interrogation queue, wait and
    /// idle-core snapshots, what a transport poll raised, what `wait`'s
    /// last poll completed, and what a flow release let out. Each starts
    /// empty and grows to the largest batch it has held.
    scratch_sizes: Vec<u64>,
    scratch_waits: Vec<f64>,
    scratch_cores: Vec<CoreId>,
    events: Vec<TransportEvent>,
    progress: Vec<MsgId>,
    released: Vec<MsgCompletion>,
    /// What the transport was last told through
    /// [`Transport::set_idle_interest`] (drivers start out delivering).
    idle_interest: bool,
    /// The earliest instant the transport was asked to wake the engine at
    /// and has not reached yet ([`SimTime::FAR_FUTURE`]: none) — see `arm`.
    armed: SimTime,
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

/// Publishes ops to the replicated decision state, if enabled. One batch =
/// one combining-lock acquisition = atomically visible prefix.
fn publish(shared: &Option<SharedDecisionState>, ops: &[EngineOp]) {
    if let Some(shared) = shared {
        shared.publish_batch(ops);
    }
}

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
            msgs: BTreeMap::new(),
            chunks: BTreeMap::new(),
            flows: HashMap::new(),
            feedback: Feedback::new(rails),
            integrity: false,
            recent_delivered: RecentChunks::default(),
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
            scratch_cores: Vec::new(),
            events: Vec::new(),
            progress: Vec::new(),
            released: Vec::new(),
            idle_interest: true,
            armed: SimTime::FAR_FUTURE,
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
            abandoned: RecentChunks::default(),
            watchdog_floor: SimTime::FAR_FUTURE,
            due_floor: SimTime::FAR_FUTURE,
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

    /// Enables wire framing with end-to-end integrity: every chunk payload
    /// is prefixed with a [`nm_proto::PacketHeader`] carrying (flow,
    /// flow-sequence, offset, total length) — what a remote receiver needs
    /// to reassemble split messages and release flows in order — with the
    /// [`nm_proto::FLAG_INTEGRITY`] bit, a header self-check and a CRC32C
    /// payload trailer, so the receiver detects in-flight corruption
    /// instead of consuming damaged bytes. Only meaningful with a
    /// byte-moving transport. With this off, payloads travel raw.
    pub fn with_integrity(mut self) -> Self {
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
            degraded: false,
            fallback: BandwidthRatioSplit::new(),
            shed_floor: SimTime::FAR_FUTURE,
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

    /// Advances the transport once and folds events into completions.
    /// Returns ids of messages that completed during this poll.
    #[must_use = "dropping the completed ids silently loses completions; at minimum check for errors"]
    pub fn poll(&mut self) -> Result<Vec<MsgId>, EngineError> {
        let mut done = Vec::new();
        self.poll_into(&mut done)?;
        Ok(done)
    }

    /// [`Self::poll`], appending the completed ids to `done` — a caller that
    /// keeps `done` between polls allocates nothing for them. The events are
    /// read into the kept `events` buffer, taken out while the fold mutates
    /// the engine and cleared before every read: an error part-way through
    /// one poll's events drops them, never replays them on the next poll.
    pub fn poll_into(&mut self, done: &mut Vec<MsgId>) -> Result<(), EngineError> {
        let mut events = std::mem::take(&mut self.events);
        events.clear();
        self.transport.poll_into(&mut events);
        let (mut rekick, mut readmitted) = (false, false);
        for ev in &events {
            match *ev {
                TransportEvent::ChunkDelivered { chunk, at } => match self.chunks.remove(&chunk) {
                    Some(record) => {
                        self.recent_delivered.insert(chunk);
                        readmitted |= self.on_delivered(record, at, done)?;
                    }
                    None => self.on_stray_delivery(chunk)?,
                },
                TransportEvent::ChunkSendDone { .. } => {}
                TransportEvent::RailIdle { .. } | TransportEvent::Wakeup { .. } => {
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
            }
        }
        self.events = events;
        if self.health.is_some() || self.admission.is_some() {
            let now = self.transport.now();
            self.expire_overdue_chunks(now)?;
            self.flush_due(now)?;
            self.shed_expired(now)?;
        }
        if rekick || readmitted {
            self.kick()?;
        }
        if readmitted {
            self.release_parked()?;
        }
        self.arm(self.next_deadline());
        Ok(())
    }

    /// Polls until the transport's clock reaches `at` and returns what
    /// completed on the way — how an open-loop caller waits for its next
    /// send instant. The engine's own timers need not reach that far (an
    /// idle engine has none), so `at` is armed like any other deadline. On a
    /// transport that ignores [`Transport::schedule_wakeup`] this spins on
    /// the transport's own clock.
    pub fn advance_to(&mut self, at: SimTime) -> Result<Vec<MsgId>, EngineError> {
        let mut done = Vec::new();
        while self.transport.now() < at {
            self.arm(at);
            self.poll_into(&mut done)?;
        }
        Ok(done)
    }

    /// The earliest instant at which time alone gives the engine something
    /// to do: a watchdog expiry, a retry's backoff, a quarantined rail's
    /// next probe or a queued message's shed deadline. A lower bound (the
    /// cached floors), so the wake-up it buys may find nothing due yet; the
    /// scan it triggers makes the bound exact. Parked retries have no
    /// instant: a re-admission releases them, and that is a delivery.
    fn next_deadline(&self) -> SimTime {
        let fault = self
            .health
            .as_ref()
            .map_or(SimTime::FAR_FUTURE, |ft| ft.watchdog_floor.min(ft.due_floor));
        let shed = self.admission.as_ref().map_or(SimTime::FAR_FUTURE, |adm| adm.shed_floor);
        fault.min(shed)
    }

    /// The engine's one timer. Asks the transport for a wake-up at
    /// `deadline` unless one at or before it is already outstanding; called
    /// wherever a deadline may have appeared (every post, the end of every
    /// poll), so when the armed one fires the next is requested in the same
    /// poll. Nothing depends on the wake-up arriving: every time-driven scan
    /// compares its floor with the clock.
    fn arm(&mut self, deadline: SimTime) {
        if deadline == SimTime::FAR_FUTURE {
            return;
        }
        if self.armed <= self.transport.now() {
            self.armed = SimTime::FAR_FUTURE;
        }
        if deadline < self.armed {
            self.armed = deadline;
            self.transport.schedule_wakeup(deadline);
        }
    }

    /// Folds one delivered chunk into what it carried: a probe is judged,
    /// anything else scores its prediction and counts toward its messages.
    /// Returns `true` when a rail was re-admitted (the queue deserves a kick).
    fn on_delivered(
        &mut self,
        record: ChunkRecord,
        at: SimTime,
        done: &mut Vec<MsgId>,
    ) -> Result<bool, EngineError> {
        let ChunkRecord { owner, rail, submitted, predicted, meta } = record;
        if matches!(owner, ChunkOwner::Probe) {
            return Ok(self.on_probe_delivered(rail, submitted, predicted, at));
        }
        self.feedback.record(rail, submitted, predicted, at);
        // Mirror the rail's post-record EWMA and the observation count.
        let ewma_ratio = self.feedback.rail(rail).ewma_ratio;
        let ops = [
            EngineOp::Feedback { rail: rail.index() as u8, ewma_ratio },
            EngineOp::Counter { kind: CounterKind::FeedbackRecords, delta: 1 },
        ];
        publish(&self.shared, &ops);
        if let Some(meta) = meta {
            self.note_chunk_recovery(rail, &meta.lineage, at);
        }
        for &id in owner.msgs() {
            if self.note_chunk_done(id, at)? {
                done.push(id);
            }
        }
        Ok(false)
    }

    /// One more chunk of `id` arrived; on the last one the message completes
    /// and goes to its flow. Returns `true` iff it completed.
    fn note_chunk_done(&mut self, id: MsgId, at: SimTime) -> Result<bool, EngineError> {
        let Some(m) = self.msgs.get_mut(&id) else { return Ok(false) };
        let MsgState::Inflight { chunks_total, chunks_done, layout } = &mut m.state else {
            return Ok(false);
        };
        *chunks_done += 1;
        if *chunks_done < *chunks_total {
            return Ok(false);
        }
        let completion = MsgCompletion {
            id,
            tag: m.tag,
            size: m.size,
            posted_at: m.posted_at,
            delivered_at: at,
            duration: at - m.posted_at,
            chunks: std::mem::take(layout),
        };
        m.state = MsgState::Held;
        let (tag, flow_seq, size) = (m.tag, m.flow_seq, m.size);
        self.stats.msgs_completed += 1;
        self.stats.bytes_completed += size;
        self.release_flow(tag, flow_seq, size, Some(completion))?;
        Ok(true)
    }

    /// Whether `id` still has work ahead of it (queued or on the wire).
    fn is_pending(&self, id: MsgId) -> bool {
        matches!(
            self.msgs.get(&id).map(|m| &m.state),
            Some(MsgState::Queued | MsgState::Inflight { .. })
        )
    }

    /// Blocks (advancing the transport) until `id` completes. The record
    /// goes with the answer: a completion, or an [`EngineError::Shed`] or
    /// [`EngineError::Failed`] verdict, is reported exactly once, and the
    /// id is unknown from then on.
    pub fn wait(&mut self, id: MsgId) -> Result<MsgCompletion, EngineError> {
        loop {
            match self.msgs.get(&id).map(|m| &m.state) {
                // Never posted, removed, or claimed before.
                None => return Err(EngineError::UnknownMessage(id.0)),
                Some(MsgState::Released(_) | MsgState::Shed | MsgState::Failed) => {
                    return match self.msgs.remove(&id).map(|m| m.state) {
                        Some(MsgState::Released(c)) => Ok(c),
                        Some(MsgState::Failed) => Err(EngineError::Failed(id.0)),
                        _ => Err(EngineError::Shed(id.0)),
                    };
                }
                Some(_) => {}
            }
            let mut progress = std::mem::take(&mut self.progress);
            progress.clear();
            self.poll_into(&mut progress)?;
            let made_progress = !progress.is_empty();
            self.progress = progress;
            if !made_progress && self.transport_quiescent() {
                // Nothing in flight: the strategy must act now or never.
                self.kick()?;
                // Unless a NIC is still busy (another engine's traffic on a
                // shared node): its going idle asks the strategy again.
                if !self.transport_quiescent() || self.nic_busy() {
                    continue;
                }
                // Held counts too: nothing will move its flow predecessor.
                let state = self.msgs.get(&id).map(|m| &m.state);
                if matches!(
                    state,
                    Some(MsgState::Queued | MsgState::Inflight { .. } | MsgState::Held)
                ) {
                    return Err(EngineError::Transport(format!(
                        "deadlock: transport quiescent but message {} incomplete",
                        id.0
                    )));
                }
            }
        }
    }

    /// Runs until every posted message completes and claims everything:
    /// returns every completion nobody has claimed yet — those an earlier
    /// [`Self::poll`] or [`Self::wait`] already released included — in id
    /// (posted) order. Shed verdicts, whether reached while draining or
    /// left unclaimed from before, are forgotten, not errors: afterwards
    /// the engine remembers no message. A failed message ends the drain
    /// with [`EngineError::Failed`]; its record goes with the error, so a
    /// second `drain` carries on.
    #[must_use = "dropping the completions loses delivery results; at minimum check for errors"]
    pub fn drain(&mut self) -> Result<Vec<MsgCompletion>, EngineError> {
        let mut claimed = Vec::new();
        // Every answer `wait` gives below takes its record along, so the
        // oldest record left is always the next to wait for.
        while let Some((&id, _)) = self.msgs.first_key_value() {
            match self.wait(id) {
                Ok(c) => claimed.push(c),
                Err(EngineError::Shed(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(claimed)
    }

    /// Whether some rail's NIC is busy past now.
    fn nic_busy(&self) -> bool {
        let now = self.transport.now();
        (0..self.transport.rail_count()).any(|r| self.transport.rail_busy_until(RailId(r)) > now)
    }

    fn transport_quiescent(&self) -> bool {
        self.chunks.is_empty() && self.health.as_ref().is_none_or(|ft| ft.retries.is_empty())
    }

    /// Takes an already-recorded completion without blocking.
    pub fn try_completion(&mut self, id: MsgId) -> Option<MsgCompletion> {
        match self.msgs.get(&id)?.state {
            // `wait` claims a released message without touching the transport.
            MsgState::Released(_) => self.wait(id).ok(),
            _ => None,
        }
    }

    /// How many live messages stand in each state, counted off the table.
    pub fn msg_census(&self) -> MsgCensus {
        let mut census = MsgCensus::default();
        for m in self.msgs.values() {
            *match m.state {
                MsgState::Queued => &mut census.queued,
                MsgState::Inflight { .. } => &mut census.inflight,
                MsgState::Held => &mut census.held,
                MsgState::Released(_) => &mut census.released,
                MsgState::Shed => &mut census.shed,
                MsgState::Failed => &mut census.failed,
            } += 1;
        }
        census
    }

    /// Prediction-accuracy statistics accumulated so far.
    pub fn feedback(&self) -> &Feedback {
        &self.feedback
    }

    /// Replaces the predictor with a feedback-corrected copy (per-rail
    /// duration scaling by the observed actual/predicted EWMA) and resets
    /// the accumulated feedback. The cheap runtime alternative to a full
    /// re-sampling when [`crate::feedback::Feedback::drift_detected`] fires.
    pub fn adopt_feedback_correction(&mut self) {
        let factors = self.feedback.correction_factors();
        self.predictor = self.predictor.with_rail_scaling(&factors);
        self.feedback = Feedback::new(self.predictor.rail_count());
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
            publish(&self.shared, &ops);
        }
    }

    /// Current predictor generation (bumped on every predictor swap).
    pub fn predictor_epoch(&self) -> u64 {
        self.predictor_epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::sim::SimDriver;
    use crate::session::Session;
    use crate::strategy::StrategyKind;
    use nm_model::units::{KIB, MIB};

    fn engine(kind: StrategyKind) -> Engine<SimDriver> {
        let predictor = Session::builder().build_sim().predictor().clone();
        Engine::new(SimDriver::paper_testbed(), predictor, kind.build()).unwrap()
    }

    fn poll_until(e: &mut Engine<SimDriver>, reached: impl Fn(MsgCensus) -> bool) {
        for _ in 0..10_000 {
            if reached(e.msg_census()) {
                return;
            }
            let _ = e.poll().unwrap();
        }
        panic!("never reached: {:?}", e.msg_census());
    }

    #[test]
    fn a_claimed_completion_and_a_claimed_shed_verdict_are_both_forgotten() {
        // Greedy defers while both NICs are busy, so the third post stays
        // queued past its deadline.
        let mut e = engine(StrategyKind::GreedyBalance)
            .with_admission_control(AdmissionConfig::default())
            .unwrap();
        let first = e.post_send(4 * MIB).unwrap();
        let _second = e.post_send(4 * MIB).unwrap();
        let doomed = e.post_send_with_deadline(4 * KIB, SimDuration::from_micros(1)).unwrap();
        assert_eq!(e.msg_census(), MsgCensus { queued: 1, inflight: 2, ..Default::default() });
        poll_until(&mut e, |c| c.shed == 1);
        assert_eq!(e.try_completion(doomed), None, "a shed verdict is not a completion");
        assert!(matches!(e.wait(doomed), Err(EngineError::Shed(id)) if id == doomed.0));
        assert!(matches!(e.wait(doomed), Err(EngineError::UnknownMessage(_))));
        assert_eq!(e.wait(first).unwrap().id, first);
        assert!(matches!(e.wait(first), Err(EngineError::UnknownMessage(_))));
        assert_eq!(e.try_completion(first), None);
    }

    #[test]
    fn advance_to_stops_at_the_instant_even_when_the_engine_has_no_timer_of_its_own() {
        let mut e = engine(StrategyKind::HeteroSplit);
        let gap = SimDuration::from_micros(600);
        assert!(e.advance_to(SimTime::ZERO + gap).unwrap().is_empty());
        assert_eq!(e.now(), SimTime::ZERO + gap, "nothing in flight, nothing armed but `at`");
        let id = e.post_send(64 * KIB).unwrap();
        assert_eq!(e.advance_to(SimTime::ZERO + gap * 2).unwrap(), [id]);
        assert_eq!(e.now(), SimTime::ZERO + gap * 2, "the delivery came first, then the instant");
        assert!(e.advance_to(SimTime::ZERO + gap).unwrap().is_empty(), "already past: no poll");
        assert_eq!(e.now(), SimTime::ZERO + gap * 2);
    }

    #[test]
    fn cancel_refuses_a_message_that_is_already_delivered() {
        // Shortest-first wires the small message ahead of the big one; it
        // is delivered first and held for the flow's posted order.
        let mut e = engine(StrategyKind::ShortestFirst);
        let ids = e.post_send_batch(&[4 * MIB, 2 * KIB]).unwrap();
        poll_until(&mut e, |c| c.held == 1);
        assert!(!e.cancel(ids[1]).unwrap(), "held");
        poll_until(&mut e, |c| c.released == 2);
        assert!(!e.cancel(ids[0]).unwrap(), "released");
        assert!(!e.cancel(ids[1]).unwrap(), "released");
        assert_eq!(e.stats().cancelled, 0);
        assert_eq!(e.msg_census(), MsgCensus { released: 2, ..Default::default() });
    }

    /// A scripted transport: its first poll raises the failure of the first
    /// chunk submitted and then the delivery of the second; its second poll
    /// raises that delivery once more, as the only event.
    #[derive(Default)]
    struct FailThenDeliver {
        submitted: Vec<ChunkId>,
        polls: usize,
    }

    impl Transport for FailThenDeliver {
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn rail_count(&self) -> usize {
            2
        }
        fn rail_name(&self, rail: RailId) -> String {
            format!("rail{}", rail.index())
        }
        fn rdv_threshold(&self, _: RailId) -> u64 {
            u64::MAX
        }
        fn rail_busy_until(&self, _: RailId) -> SimTime {
            SimTime::ZERO
        }
        fn core_count(&self) -> usize {
            1
        }
        fn idle_cores(&self) -> Vec<CoreId> {
            Vec::new()
        }
        fn submit(&mut self, _: crate::transport::ChunkSubmit) -> ChunkId {
            self.submitted.push(ChunkId(self.submitted.len() as u64));
            ChunkId(self.submitted.len() as u64 - 1)
        }
        fn poll(&mut self) -> Vec<TransportEvent> {
            self.polls += 1;
            let at = SimTime::ZERO;
            let delivered = TransportEvent::ChunkDelivered { chunk: self.submitted[1], at };
            match self.polls {
                1 => vec![TransportEvent::ChunkFailed { chunk: self.submitted[0], at }, delivered],
                2 => vec![delivered],
                _ => Vec::new(),
            }
        }
    }

    #[test]
    fn a_poll_that_errors_leaves_no_event_behind_for_the_next() {
        let predictor = Session::builder().build_sim().predictor().clone();
        let strategy = StrategyKind::SingleRail(Some(RailId(0))).build();
        let mut e = Engine::new(FailThenDeliver::default(), predictor, strategy).unwrap();
        let (first, second) = (e.post_send(4 * KIB).unwrap(), e.post_send(4 * KIB).unwrap());
        assert_eq!(e.transport().submitted.len(), 2, "one chunk per message");
        // Without fault tolerance the failure is a hard error, raised before
        // the delivery behind it is folded.
        assert!(matches!(e.poll(), Err(EngineError::Transport(_))));
        assert_eq!(e.msg_census(), MsgCensus { inflight: 2, ..Default::default() });
        // The next poll folds what the transport raises now, and nothing the
        // failed poll left: the delivery counts once, the second message is
        // held behind the first, and no chunk is taken for a duplicate.
        assert_eq!(e.poll().unwrap(), [second]);
        assert_eq!(e.msg_census(), MsgCensus { inflight: 1, held: 1, ..Default::default() });
        assert_eq!(e.stats().duplicate_chunks_dropped, 0);
        assert!(e.poll().unwrap().is_empty());
        assert_eq!(e.msg_census(), MsgCensus { inflight: 1, held: 1, ..Default::default() });
        assert_eq!(e.stats().msgs_completed, 1);
        assert!(e.try_completion(second).is_none(), "held for flow order, not released");
        assert!(e.try_completion(first).is_none());
    }

    /// Sends anything but 1 KiB at once, wiring a younger message ahead of
    /// a 1 KiB head, and never sends a 1 KiB message.
    struct HoldsBackOneKib;

    impl Strategy for HoldsBackOneKib {
        fn name(&self) -> &'static str {
            "holds-back-1k"
        }
        fn decide(&mut self, ctx: &crate::strategy::Ctx<'_>) -> crate::strategy::Action {
            use crate::strategy::{Action, ChunkPlan};
            match ctx.queued_sizes {
                [KIB] => Action::Defer,
                [KIB, ..] => Action::Promote { index: 1 },
                _ => Action::single(ChunkPlan::new(RailId(0), ctx.head_size())),
            }
        }
    }

    #[test]
    fn wait_reports_a_message_held_behind_a_predecessor_that_never_moves() {
        let predictor = Session::builder().build_sim().predictor().clone();
        let strategy = Box::new(HoldsBackOneKib);
        let mut e = Engine::new(SimDriver::paper_testbed(), predictor, strategy).unwrap();
        let (stuck, held) = (e.post_send(KIB).unwrap(), e.post_send(2 * KIB).unwrap());
        let err = e.wait(held).expect_err("held behind a message nothing will send");
        assert!(err.to_string().contains("deadlock"), "{err}");
        assert_eq!(e.msg_census(), MsgCensus { queued: 1, held: 1, ..Default::default() });
        assert!(e.wait(stuck).expect_err("never sent").to_string().contains("deadlock"));
    }

    #[test]
    fn drain_returns_id_order_whatever_order_the_flows_released_in() {
        let mut e = engine(StrategyKind::SingleRail(None));
        let long = e.post_send_tagged(8 * MIB, 1).unwrap();
        let short = e.post_send_tagged(4 * KIB, 2).unwrap();
        let mut done = Vec::new();
        while done.is_empty() {
            done = e.poll().unwrap();
        }
        assert_eq!(done, [short], "the younger id, on its own flow, is released first");
        assert_eq!(e.msg_census(), MsgCensus { inflight: 1, released: 1, ..Default::default() });
        let ids: Vec<MsgId> = e.drain().unwrap().iter().map(|c| c.id).collect();
        assert_eq!(ids, [long, short]);
        assert_eq!(e.msg_census(), MsgCensus::default());
    }
}
