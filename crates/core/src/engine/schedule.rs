//! The optimizer-scheduler (paper Fig 5, middle): `kick` interrogates the
//! strategy, `apply_split`/`apply_aggregate` turn its answer into chunks,
//! and `submit_chunk` — the only caller of [`Transport::submit`] — puts
//! each on the wire and opens its [`ChunkRecord`].

use super::recovery::watchdog_deadline;
use super::{Engine, MsgId, MsgState, QueuedMsg};
use crate::error::EngineError;
use crate::predictor::Predictor;
use crate::strategy::{Action, ChunkList, Ctx, Strategy};
use crate::transport::{ChunkSubmit, Transport};
use nm_model::{SimDuration, SimTime};
use nm_proto::aggregate::{AggEntry, Aggregator, ENTRY_OVERHEAD};
use nm_sim::{CoreId, RailId};

pub(super) enum ChunkOwner {
    /// A chunk of a split message.
    Msg(MsgId),
    /// An aggregate pack carrying several messages.
    Pack(Vec<MsgId>),
    /// A health probe on a quarantined rail (no application message).
    Probe,
}

impl ChunkOwner {
    /// The messages the chunk carries (none for a probe).
    pub(super) fn msgs(&self) -> &[MsgId] {
        match self {
            ChunkOwner::Msg(id) => std::slice::from_ref(id),
            ChunkOwner::Pack(ids) => ids,
            ChunkOwner::Probe => &[],
        }
    }
}

/// A chunk's retry history and where it sits in its owner's layout; the
/// default is a first attempt at slot 0.
#[derive(Clone, Copy, Default)]
pub(super) struct Lineage {
    /// Failed transmissions of this lineage so far (0 = first attempt).
    pub(super) attempt: u32,
    /// When the lineage first failed (anchors the failover latency).
    pub(super) first_failed_at: Option<SimTime>,
    /// Index into the owning message's `layout` (0 for pack members).
    pub(super) layout_idx: usize,
}

/// What the failover layer needs to resubmit a chunk: the exact submission
/// (payload included — `Bytes` clones are refcounted) and its lineage.
pub(super) struct ChunkMeta {
    pub(super) submit: ChunkSubmit,
    pub(super) lineage: Lineage,
}

/// Everything the engine records when a chunk goes on the wire.
pub(super) struct ChunkRecord {
    pub(super) owner: ChunkOwner,
    pub(super) rail: RailId,
    /// Submission and predicted delivery instants: scored against the
    /// actual delivery by [`crate::feedback`], and what the watchdog's
    /// allowance is measured from.
    pub(super) submitted: SimTime,
    pub(super) predicted: SimTime,
    /// The resubmittable copy: kept only under fault tolerance, never for
    /// probes, and boxed so the record stays a few words for every engine
    /// (a `BTreeMap` leaf holds eleven of them).
    pub(super) meta: Option<Box<ChunkMeta>>,
}

impl<T: Transport> Engine<T> {
    /// Interrogates the strategy while it keeps consuming the queue.
    ///
    /// The per-iteration queue/wait/idle-core snapshots live in the
    /// engine's scratch buffers; they are taken out for the duration of the
    /// loop (the `Ctx` borrows them while `self` stays mutable) and put back
    /// afterwards, even on early return.
    pub(super) fn kick(&mut self) -> Result<(), EngineError> {
        let mut sizes = std::mem::take(&mut self.scratch_sizes);
        let mut waits = std::mem::take(&mut self.scratch_waits);
        let mut cores = std::mem::take(&mut self.scratch_cores);
        let result = self.kick_inner(&mut sizes, &mut waits, &mut cores);
        sizes.clear();
        waits.clear();
        cores.clear();
        self.scratch_sizes = sizes;
        self.scratch_waits = waits;
        self.scratch_cores = cores;
        // An idle NIC matters only while something waits for one.
        // The fault and admission layers have time-driven work (timeouts,
        // retries, probes, shedding) that a transport without timers lets
        // them notice only when an event brings a poll, so they take every
        // event.
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
        cores: &mut Vec<CoreId>,
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
            cores.clear();
            self.transport.idle_cores_into(cores);
            let action = {
                let ctx = Ctx {
                    now,
                    predictor: &self.predictor,
                    rail_waits_us: waits,
                    idle_cores: cores,
                    core_count: self.transport.core_count(),
                    queued_sizes: sizes,
                    predictor_epoch: self.predictor_epoch,
                };
                match self.admission.as_mut().filter(|a| a.degraded) {
                    // Overloaded: spend no time on dichotomy precision;
                    // the static ratio split is O(rails) per message.
                    Some(adm) => {
                        self.stats.degraded_decisions += 1;
                        adm.fallback.decide(&ctx)
                    }
                    None => self.strategy.decide(&ctx),
                }
            };
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
                Action::Aggregate { count, rail, offload_core, offload_delay } => {
                    let send_core = offload_core.unwrap_or(CoreId(0));
                    self.apply_aggregate(count, rail, send_core, offload_delay)?
                }
            }
            consecutive_promotes = 0;
        }
        Ok(())
    }

    /// A plan may only name a rail the transport has and health has not
    /// excluded.
    fn check_planned_rail(&self, rail: RailId, what: &str) -> Result<(), EngineError> {
        if rail.index() >= self.transport.rail_count() {
            return Err(EngineError::BadPlan(format!("unknown rail {rail:?}")));
        }
        if self.health.as_ref().is_some_and(|ft| !ft.tracker.is_selectable(rail)) {
            return Err(EngineError::BadPlan(format!(
                "{what} planned on unselectable rail {rail:?}"
            )));
        }
        Ok(())
    }

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
            self.check_planned_rail(c.rail, "chunk")?;
        }

        let msg = self.queue.pop_front().expect("validated above");
        let layout = chunks.iter().map(|c| (c.rail, c.bytes)).collect();
        let (tag, flow_seq) = self.put_inflight(msg.id, layout);

        let mut offset = 0u64;
        for (chunk_index, c) in chunks.into_iter().enumerate() {
            let payload = match (&msg.payload, self.integrity) {
                (Some(p), false) => Some(p.slice(offset as usize..(offset + c.bytes) as usize)),
                (Some(p), true) => {
                    let slice = p.slice(offset as usize..(offset + c.bytes) as usize);
                    let packet = nm_proto::Packet::new(
                        nm_proto::PacketHeader {
                            kind: nm_proto::PacketKind::Eager,
                            flow: tag,
                            msg_id: flow_seq,
                            offset,
                            total_len: msg.size,
                            chunk_index: chunk_index as u32,
                            payload_len: 0, // stamped by Packet::new
                        },
                        slice,
                    )
                    .with_integrity(true);
                    Some(packet.encode())
                }
                (None, _) => None,
            };
            offset += c.bytes;
            let wire_bytes = payload.as_ref().map(|p| p.len() as u64).unwrap_or(c.bytes);
            let submit = ChunkSubmit {
                rail: c.rail,
                bytes: wire_bytes,
                send_core: c.offload_core.unwrap_or(CoreId(0)),
                offload_delay: c.offload_delay,
                mode: c.mode,
                payload,
            };
            self.stats.chunks_submitted += 1;
            self.stats.rail_bytes[c.rail.index()] += c.bytes;
            let lineage = Lineage { layout_idx: chunk_index, ..Lineage::default() };
            self.submit_chunk(ChunkOwner::Msg(msg.id), submit, lineage);
        }
        Ok(())
    }

    fn apply_aggregate(
        &mut self,
        count: usize,
        rail: RailId,
        send_core: CoreId,
        offload_delay: SimDuration,
    ) -> Result<(), EngineError> {
        if count == 0 || count > self.queue.len() {
            return Err(EngineError::BadPlan(format!(
                "aggregate of {count} messages from a queue of {}",
                self.queue.len()
            )));
        }
        self.check_planned_rail(rail, "pack")?;
        let msgs: Vec<QueuedMsg> = self.queue.drain(..count).collect();

        // Wire size of the pack, and the packed payload when bytes exist.
        let pack_bytes: u64 = msgs.iter().map(|m| m.size + ENTRY_OVERHEAD as u64).sum();
        let mut agg = msgs
            .iter()
            .all(|m| m.payload.is_some())
            .then(|| Aggregator::new(pack_bytes as usize + 1));
        for m in &msgs {
            let (flow, msg_id) = self.put_inflight(m.id, vec![(rail, m.size)]);
            if let (Some(agg), Some(data)) = (agg.as_mut(), m.payload.clone()) {
                let ok = agg.push(AggEntry { flow, msg_id, data });
                debug_assert!(ok, "budget sized to fit all entries");
            }
        }
        // Framed, the receiver needs the pack header to dispatch to
        // unpack_aggregate, and the segments are gathered straight into the
        // wire buffer; raw, the bare pack payload is what travels.
        let payload = agg.and_then(|mut agg| agg.flush_segments(self.next_pack)).map(|pack| {
            if self.integrity {
                pack.encode(true)
            } else {
                pack.into_packet().payload
            }
        });
        self.next_pack += 1;

        self.stats.packs_submitted += 1;
        self.stats.msgs_aggregated += count as u64;
        self.stats.chunks_submitted += 1;
        self.stats.rail_bytes[rail.index()] += pack_bytes;
        let wire_bytes = payload.as_ref().map(|p| p.len() as u64).unwrap_or(pack_bytes);
        let submit =
            ChunkSubmit { send_core, offload_delay, payload, ..ChunkSubmit::new(rail, wire_bytes) };
        let ids = msgs.iter().map(|m| m.id).collect();
        self.submit_chunk(ChunkOwner::Pack(ids), submit, Lineage::default());
        Ok(())
    }

    /// `id` leaves the queue as one chunk per `layout` entry. Returns the
    /// flow coordinates `(tag, flow_seq)` its wire headers carry.
    fn put_inflight(&mut self, id: MsgId, layout: Vec<(RailId, u64)>) -> (u32, u64) {
        let m = self.msgs.get_mut(&id).expect("a queued message has a record");
        m.state = MsgState::Inflight { chunks_total: layout.len(), chunks_done: 0, layout };
        (m.tag, m.flow_seq)
    }

    /// The one way onto the wire: predicts the chunk's completion, keeps a
    /// resubmittable copy iff the engine is fault-tolerant and the chunk is
    /// not a probe, submits, opens the chunk's record and shows the watchdog
    /// its deadline.
    // nm-analyzer: allow(unbounded-growth) -- one record per chunk on the wire, removed on
    // delivery, failure, cancellation or abandonment
    pub(super) fn submit_chunk(
        &mut self,
        owner: ChunkOwner,
        submit: ChunkSubmit,
        lineage: Lineage,
    ) {
        let rail = submit.rail;
        let now = self.transport.now();
        let wait_us = Predictor::wait_us(now, self.transport.rail_busy_until(rail));
        let duration_us = self.predictor.rail(rail).profile(submit.mode).predict_us(submit.bytes);
        let predicted =
            now + submit.offload_delay + SimDuration::from_micros_f64(wait_us + duration_us);
        let resubmittable = self.health.is_some() && !matches!(owner, ChunkOwner::Probe);
        let meta = resubmittable.then(|| Box::new(ChunkMeta { submit: submit.clone(), lineage }));
        let chunk = self.transport.submit(submit);
        self.chunks.insert(chunk, ChunkRecord { owner, rail, submitted: now, predicted, meta });
        if let Some(ft) = self.health.as_mut() {
            ft.watchdog_floor = ft.watchdog_floor.min(watchdog_deadline(now, predicted));
        }
    }
}
