//! The application layer (paper Fig 5, top): messages enter the queue
//! through `post_*`, past the admission caps when those are on, and leave
//! their flow — completed, shed or cancelled — through `release_flow`.

use super::schedule::ChunkOwner;
use super::{
    Engine, Flow, MsgCompletion, MsgId, MsgRecord, MsgState, QueuedMsg, FLOW_REORDER_WINDOW,
};
use crate::admission::{Backpressure, DEGRADE_CORRECTION, RECOVER_CORRECTION};
use crate::error::EngineError;
use crate::transport::{ChunkId, Transport};
use bytes::Bytes;
use nm_model::{SimDuration, SimTime};

/// Capacity up to which `release_flow` keeps its buffer for the next release.
const RELEASED_KEPT: usize = 4;

impl<T: Transport> Engine<T> {
    /// Posts a size-only message on flow tag 0 (simulation drivers).
    pub fn post_send(&mut self, size: u64) -> Result<MsgId, EngineError> {
        self.post(size, None, 0, None)
    }

    /// Posts a size-only message on a specific flow tag. Messages of one
    /// tag are *released to the application in posted order* even when
    /// reordering strategies or rail races complete them out of order.
    pub fn post_send_tagged(&mut self, size: u64, tag: u32) -> Result<MsgId, EngineError> {
        self.post(size, None, tag, None)
    }

    /// Posts a message with a real payload (byte-moving drivers), tag 0.
    pub fn post_send_bytes(&mut self, payload: Bytes) -> Result<MsgId, EngineError> {
        self.post_send_bytes_tagged(payload, 0)
    }

    /// Posts a payload-carrying message on a specific flow tag.
    pub fn post_send_bytes_tagged(
        &mut self,
        payload: Bytes,
        tag: u32,
    ) -> Result<MsgId, EngineError> {
        let size = payload.len() as u64;
        self.post(size, Some(payload), tag, None)
    }

    /// Posts several size-only messages *before* the strategy runs — the
    /// paper's "the application enqueues packets into a list" pattern. This
    /// is what lets the aggregation strategy actually see a queue: posting
    /// one-by-one interrogates the strategy after every message.
    pub fn post_send_batch(&mut self, sizes: &[u64]) -> Result<Vec<MsgId>, EngineError> {
        let ids =
            sizes.iter().map(|&s| self.enqueue(s, None, 0, None)).collect::<Result<Vec<_>, _>>()?;
        self.kick()?;
        self.arm(self.next_deadline());
        Ok(ids)
    }

    /// [`Self::post_send`] under the name overload-aware callers use. No post
    /// ever blocks or sheds on the caller's behalf, and under admission
    /// control any of them may return [`EngineError::Backpressure`] — a
    /// rejected message simply was not accepted.
    pub fn try_post_send(&mut self, size: u64) -> Result<MsgId, EngineError> {
        self.post_send(size)
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
        self.post(size, None, 0, Some(deadline))
    }

    fn post(
        &mut self,
        size: u64,
        payload: Option<Bytes>,
        tag: u32,
        deadline: Option<SimDuration>,
    ) -> Result<MsgId, EngineError> {
        let id = self.enqueue(size, payload, tag, deadline)?;
        self.kick()?;
        self.arm(self.next_deadline());
        Ok(id)
    }

    // nm-analyzer: allow(unbounded-growth) -- one queue entry and one record per posted message,
    // one flow per active tag; the queue drains every kick, shed_expired evicts overdue posts,
    // and a record lives until wait/try_completion claims it or drain claims them all
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
            let deadline = deadline.or(adm.cfg.default_deadline).map(|d| posted_at + d);
            adm.shed_floor = adm.shed_floor.min(deadline.unwrap_or(SimTime::FAR_FUTURE));
            deadline
        } else {
            None
        };
        let id = MsgId(self.next_msg);
        self.next_msg += 1;
        let flow = self.flows.entry(tag).or_insert_with(|| Flow {
            next_seq: 0,
            release: nm_proto::Sequencer::new(FLOW_REORDER_WINDOW),
        });
        let flow_seq = flow.next_seq;
        flow.next_seq += 1;
        self.queue.push_back(QueuedMsg { id, size, payload, deadline });
        self.msgs.insert(id, MsgRecord { tag, flow_seq, size, posted_at, state: MsgState::Queued });
        Ok(id)
    }

    /// Hysteresis-guarded strategy degradation. Entered when the backlog
    /// *or* the feedback correction factor crosses its threshold (the model
    /// is either drowning or wrong — precision is wasted either way);
    /// recovered only when *both* are back under their lower bounds.
    pub(super) fn update_degradation(&mut self) {
        let Some(adm) = self.admission.as_mut() else { return };
        let backlog = self.queue.len();
        let mut deviation = 1.0f64;
        for fb in self.feedback.rails() {
            if fb.count > 0 && fb.ewma_ratio > 0.0 {
                deviation = deviation.max(fb.ewma_ratio.max(1.0 / fb.ewma_ratio));
            }
        }
        let flipped = if !adm.degraded {
            backlog >= adm.cfg.degrade_enter_backlog || deviation >= DEGRADE_CORRECTION
        } else {
            backlog <= adm.cfg.degrade_exit_backlog && deviation <= RECOVER_CORRECTION
        };
        if flipped {
            adm.degraded = !adm.degraded;
            self.stats.degrade_transitions += 1;
        }
    }

    /// Sheds queued messages past their deadline, oldest first. Shed
    /// messages release their flow slot (successors must not stall) and are
    /// reported by [`Engine::wait`] as [`EngineError::Shed`].
    pub(super) fn shed_expired(&mut self, now: SimTime) -> Result<(), EngineError> {
        let Some(adm) = self.admission.as_mut() else { return Ok(()) };
        if now < adm.shed_floor {
            return Ok(());
        }
        let overdue = |m: &QueuedMsg| m.deadline.is_some_and(|d| d <= now);
        let mut victims: Vec<MsgId> =
            self.queue.iter().filter(|m| overdue(m)).map(|m| m.id).collect();
        self.queue.retain(|m| !overdue(m));
        let left = self.queue.iter().filter_map(|m| m.deadline).min();
        adm.shed_floor = left.unwrap_or(SimTime::FAR_FUTURE);
        // Ids are assigned in posted order, so id order is oldest first
        // (a promotion may have moved a younger message ahead in the queue).
        victims.sort_unstable();
        for id in victims {
            let Some(m) = self.msgs.get_mut(&id) else { continue };
            m.state = MsgState::Shed;
            let (tag, flow_seq, size) = (m.tag, m.flow_seq, m.size);
            self.stats.msgs_shed += 1;
            self.release_flow(tag, flow_seq, size, None)?;
        }
        Ok(())
    }

    /// Cancels a message. Queued messages are always removable. In-flight
    /// messages are retracted when the transport still holds *every* one of
    /// their chunks un-started (the reserved rail time is released); once
    /// any chunk has begun moving — or the message shares a pack with
    /// others, or a chunk is mid-retry — cancellation fails and the message
    /// completes normally. Returns `true` iff the message was removed.
    pub fn cancel(&mut self, id: MsgId) -> Result<bool, EngineError> {
        match self.msgs.get(&id).map(|m| &m.state) {
            Some(MsgState::Queued) => self.queue.retain(|m| m.id != id),
            Some(&MsgState::Inflight { chunks_total, chunks_done, .. }) => {
                if chunks_done > 0 {
                    return Ok(false); // partially delivered: too late
                }
                // Fewer owned chunks than the ledger expects means some are
                // packed with other messages or parked in the retry queue —
                // unretractable.
                let chunks = self.chunks_of(id);
                if chunks.len() != chunks_total {
                    return Ok(false);
                }
                if !self.transport.cancel_chunks(&chunks) {
                    return Ok(false); // transport already started moving bytes
                }
                for c in &chunks {
                    self.chunks.remove(c);
                }
            }
            _ => return Ok(false), // held, released, shed or unknown
        }
        self.remove_from_flow(id)?;
        self.stats.cancelled += 1;
        Ok(true)
    }

    /// Forgets a message that will never complete here, and skips its flow
    /// slot so the flow does not stall waiting for it.
    pub(super) fn remove_from_flow(&mut self, id: MsgId) -> Result<(), EngineError> {
        match self.msgs.remove(&id) {
            Some(m) => self.release_flow(m.tag, m.flow_seq, m.size, None),
            None => Ok(()),
        }
    }

    /// The chunks on the wire that carry `id` alone (not packs), in id
    /// order — the order the transport is asked to retract them in.
    pub(super) fn chunks_of(&self, id: MsgId) -> Vec<ChunkId> {
        self.chunks
            .iter()
            .filter(|(_, r)| matches!(r.owner, ChunkOwner::Msg(owner) if owner == id))
            .map(|(&c, _)| c)
            .collect()
    }

    /// The one way out of a flow, for a message of `size` bytes that leaves
    /// the engine's hands: its admission budget is returned (each message
    /// releases exactly once) and its flow slot settled. `Some(completion)`
    /// accepts a physically delivered message in posted order — it waits
    /// (`Held`) until its flow predecessors are out, so rail races and
    /// reordering strategies stay invisible to the application; `None`
    /// skips the slot of a message that will never complete, so its
    /// successors do not wait for it. Whatever became releasable is
    /// `Released`.
    pub(super) fn release_flow(
        &mut self,
        tag: u32,
        flow_seq: u64,
        size: u64,
        completion: Option<MsgCompletion>,
    ) -> Result<(), EngineError> {
        if let Some(adm) = self.admission.as_mut() {
            adm.pending_msgs = adm.pending_msgs.saturating_sub(1);
            adm.pending_bytes = adm.pending_bytes.saturating_sub(size);
        }
        let Some(flow) = self.flows.get_mut(&tag) else {
            return Err(EngineError::Transport(format!("flow release: no flow {tag}")));
        };
        let mut released = std::mem::take(&mut self.released);
        match completion {
            Some(c) => flow.release.accept_into(flow_seq, c, &mut released),
            None => flow.release.skip(flow_seq).map(|mut out| released.append(&mut out)),
        }
        .map_err(|e| EngineError::Transport(format!("flow release: {e}")))?;
        for c in released.drain(..) {
            if let Some(m) = self.msgs.get_mut(&c.id) {
                m.state = MsgState::Released(c);
            }
        }
        // The buffer stays the size of the steady state, one completion at
        // a time; one that grew for a burst (a long-held hole filled) goes.
        if released.capacity() <= RELEASED_KEPT {
            self.released = released;
        }
        Ok(())
    }
}
