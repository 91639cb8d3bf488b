//! Beyond the paper: what the engine does when a rail does not behave as
//! sampled — the timeout watchdog, chunk failure, backoff and re-planning
//! onto the surviving rails, probing quarantined rails back in, and
//! `abandon`. All of it is off, and free, without
//! [`Engine::with_fault_tolerance`].

use super::schedule::{ChunkMeta, ChunkOwner, ChunkRecord, Lineage};
use super::{publish, Engine, MsgId, MsgRecord, MsgState};
use crate::error::EngineError;
use crate::health::RailState;
use crate::predictor::Predictor;
use crate::replicated::{CounterKind, EngineOp};
use crate::selection::select_rails;
use crate::transport::{ChunkId, ChunkSubmit, Transport};
use nm_model::{InlineVec, Micros, SimDuration, SimTime, MAX_RAILS};
use nm_sim::{CoreId, RailId};
use std::collections::{HashSet, VecDeque};

/// Chunk ids a [`RecentChunks`] remembers before the oldest ages out.
const RECENT_CHUNKS_WINDOW: usize = 4096;

/// A bounded memory of chunk ids: a set for the lookup and a FIFO ring that
/// evicts the oldest id past [`RECENT_CHUNKS_WINDOW`] — a chunk still not
/// heard of after that many successors is gone for good, and an unbounded
/// set is a slow leak on a long-lived engine. A removed id leaves its ring
/// entry behind; popping it later is a no-op.
#[derive(Default)]
pub(super) struct RecentChunks {
    set: HashSet<ChunkId>,
    order: VecDeque<ChunkId>,
}

impl RecentChunks {
    pub(super) fn insert(&mut self, chunk: ChunkId) {
        // nm-analyzer: bounded(RECENT_CHUNKS_WINDOW) -- FIFO eviction below keeps the set within the ring
        if self.set.insert(chunk) {
            self.order.push_back(chunk);
            if self.order.len() > RECENT_CHUNKS_WINDOW {
                if let Some(old) = self.order.pop_front() {
                    self.set.remove(&old);
                }
            }
        }
    }

    pub(super) fn contains(&self, chunk: ChunkId) -> bool {
        self.set.contains(&chunk)
    }

    /// Forgets `chunk`; `true` when it was remembered.
    pub(super) fn remove(&mut self, chunk: ChunkId) -> bool {
        self.set.remove(&chunk)
    }
}

/// A failed chunk waiting out its retry backoff, or parked while no rail is
/// selectable.
pub(super) struct RetryEntry {
    owner: ChunkOwner,
    /// What to resubmit; `meta.submit.rail` is the rail that lost it.
    meta: Box<ChunkMeta>,
    /// [`SimTime::FAR_FUTURE`] while parked: no instant makes a parked entry
    /// due, only a re-admission does ([`Engine::release_parked`]).
    not_before: SimTime,
}

/// Whether `entry` is a parked chunk of message `id` alone.
fn parked_for(entry: &RetryEntry, id: MsgId) -> bool {
    matches!(&entry.owner, ChunkOwner::Msg(o) if *o == id)
}

/// Base delay before resubmitting a failed chunk; doubles per attempt.
const RETRY_BACKOFF: SimDuration = SimDuration::from_micros(100);
/// A chunk is declared lost when it has been in flight longer than this
/// many times its predicted duration (for transports that drop silently
/// instead of raising `ChunkFailed`).
const TIMEOUT_FACTOR: f64 = 8.0;
/// Floor on the timeout deadline, so short chunks are not declared lost
/// over scheduling noise.
const MIN_TIMEOUT: SimDuration = SimDuration::from_micros(1_000);
/// Signed relative prediction error that marks a rail Degraded.
const DEGRADE_DRIFT_THRESHOLD: f64 = 0.5;
/// Minimum observations before drift is trusted.
const DEGRADE_MIN_COUNT: u64 = 8;

/// When the watchdog writes a chunk off: [`TIMEOUT_FACTOR`] × its predicted
/// duration after submission, floored at [`MIN_TIMEOUT`].
pub(super) fn watchdog_deadline(submitted: SimTime, predicted: SimTime) -> SimTime {
    submitted + predicted.saturating_since(submitted).mul_f64(TIMEOUT_FACTOR).max(MIN_TIMEOUT)
}

impl<T: Transport> Engine<T> {
    /// A delivery for a chunk without a record: the late arrival of one the
    /// watchdog wrote off, a duplicate of one already delivered, or a
    /// transport bug.
    pub(super) fn on_stray_delivery(&mut self, chunk: ChunkId) -> Result<(), EngineError> {
        if self.health.as_mut().is_some_and(|ft| ft.abandoned.remove(chunk)) {
            // Swallowed — and remembered as delivered, because a
            // duplication fault can re-deliver a zombie just like any
            // completed chunk.
            self.recent_delivered.insert(chunk);
        } else if self.recent_delivered.contains(chunk) {
            // A duplication fault re-delivers completed chunks: recognize,
            // count, drop.
            self.stats.duplicate_chunks_dropped += 1;
        } else {
            return Err(EngineError::Transport(format!("delivery for unknown chunk {chunk:?}")));
        }
        Ok(())
    }

    /// Timeout watchdog: declares lost any in-flight chunk past its
    /// [`watchdog_deadline`]. Covers transports that drop silently instead
    /// of raising [`crate::TransportEvent::ChunkFailed`]. The records are
    /// walked in id order, so the failure order is deterministic.
    pub(super) fn expire_overdue_chunks(&mut self, now: SimTime) -> Result<(), EngineError> {
        let Some(ft) = self.health.as_mut() else { return Ok(()) };
        if now < ft.watchdog_floor {
            return Ok(());
        }
        let deadline = |r: &ChunkRecord| watchdog_deadline(r.submitted, r.predicted);
        let expired: Vec<ChunkId> =
            self.chunks.iter().filter(|(_, r)| deadline(r) <= now).map(|(&c, _)| c).collect();
        let left = self.chunks.values().map(deadline).filter(|&d| d > now).min();
        ft.watchdog_floor = left.unwrap_or(SimTime::FAR_FUTURE);
        for chunk in expired {
            self.handle_chunk_failure(chunk, now, true)?;
        }
        Ok(())
    }

    /// Folds one lost chunk into the failover machinery: health transition,
    /// retry scheduling, bookkeeping. `timed_out` distinguishes watchdog
    /// expiries from explicit transport failures.
    pub(super) fn handle_chunk_failure(
        &mut self,
        chunk: ChunkId,
        at: SimTime,
        timed_out: bool,
    ) -> Result<(), EngineError> {
        let Some(record) = self.chunks.remove(&chunk) else {
            return Ok(()); // already written off (e.g. timeout beat the event)
        };
        let Some(ft) = self.health.as_mut() else {
            return Err(EngineError::Transport(format!(
                "chunk {chunk:?} failed but fault tolerance is disabled"
            )));
        };
        if timed_out {
            self.stats.chunks_timed_out += 1;
            // Best effort: retract the zombie from the transport; if it
            // cannot be retracted, remember to swallow its late delivery.
            if !self.transport.cancel_chunks(&[chunk]) {
                ft.abandoned.insert(chunk);
            }
        } else {
            self.stats.chunks_failed += 1;
        }
        let rail = record.rail;
        // Under fault tolerance only a probe travels without a copy to resubmit.
        let Some(mut meta) = record.meta else {
            self.probe_failed(rail, at);
            return Ok(());
        };
        self.stats.rail_failures[rail.index()] += 1;
        meta.lineage.attempt += 1;
        meta.lineage.first_failed_at.get_or_insert(at);
        if ft.tracker.on_chunk_failure(rail, at) {
            self.stats.quarantines += 1;
            // Split plans memoized against the old rail set must die.
            self.predictor_epoch += 1;
            // One batch: replicas can never observe the quarantine without
            // the epoch bump that kills plans split across the lost rail.
            let ops = [
                EngineOp::Health { rail: rail.index() as u8, state: RailState::Quarantined },
                EngineOp::EpochBump,
                EngineOp::Counter { kind: CounterKind::Quarantines, delta: 1 },
            ];
            publish(&self.shared, &ops);
            ft.due_floor = ft.due_floor.min(ft.tracker.next_probe_at(rail));
        }
        let attempt = meta.lineage.attempt;
        if attempt > ft.tracker.config().max_retries {
            // Retries spent: what the chunk carried will never complete.
            for &id in record.owner.msgs() {
                self.fail(id)?;
            }
            return Ok(());
        }
        // Exponential backoff: base × 2^(attempt-1).
        let not_before = at + RETRY_BACKOFF * (1u64 << (u64::from(attempt) - 1).min(16));
        ft.due_floor = ft.due_floor.min(not_before);
        ft.retries.push_back(RetryEntry { owner: record.owner, meta, not_before });
        Ok(())
    }

    /// A probe was lost or came back out of tolerance: Probing →
    /// Quarantined with the backoff grown, and a deadline for the next try.
    fn probe_failed(&mut self, rail: RailId, at: SimTime) {
        let Some(ft) = self.health.as_mut() else { return };
        ft.tracker.probe_failed(rail, at);
        // The rail was already unselectable, so no epoch bump — mirror the
        // state flip alone.
        let ops = [
            EngineOp::Health { rail: rail.index() as u8, state: RailState::Quarantined },
            EngineOp::Counter { kind: CounterKind::ProbeFailures, delta: 1 },
        ];
        publish(&self.shared, &ops);
        ft.due_floor = ft.due_floor.min(ft.tracker.next_probe_at(rail));
    }

    /// A chunk delivered while fault tolerance is on: credit the rail,
    /// check drift, and close out failover latency accounting for a
    /// recovered lineage.
    pub(super) fn note_chunk_recovery(&mut self, rail: RailId, lineage: &Lineage, at: SimTime) {
        let Some(ft) = self.health.as_mut() else { return };
        ft.tracker.on_chunk_success(rail);
        // Feedback drift marks the rail Degraded (still selectable, so no
        // epoch bump): the cue to adopt_feedback_correction or re-sample.
        let fb = self.feedback.rail(rail);
        let drifted = fb.count >= DEGRADE_MIN_COUNT
            && fb.mean_signed_rel_err.abs() > DEGRADE_DRIFT_THRESHOLD
            && ft.tracker.note_drift(rail);
        if drifted {
            let ops = [EngineOp::Health { rail: rail.index() as u8, state: RailState::Degraded }];
            publish(&self.shared, &ops);
        }
        if let Some(failed_at) = lineage.first_failed_at {
            self.stats.failover_latency_us_sum += at.saturating_since(failed_at).as_micros_f64();
            self.stats.failover_completions += 1;
        }
    }

    /// A probe chunk delivered: judge it against its prediction. Returns
    /// `true` when the rail was re-admitted (the queue deserves a kick).
    pub(super) fn on_probe_delivered(
        &mut self,
        rail: RailId,
        submitted: SimTime,
        predicted: SimTime,
        at: SimTime,
    ) -> bool {
        let Some(ft) = self.health.as_mut() else { return false };
        let passed = nm_sampler::probe_ok(
            Micros::new(predicted.saturating_since(submitted).as_micros_f64()),
            Micros::new(at.saturating_since(submitted).as_micros_f64()),
            ft.tracker.config().probe.tolerance,
        );
        if !passed {
            self.probe_failed(rail, at);
            return false;
        }
        if let Some(next_size) = ft.tracker.probe_point_passed(rail) {
            self.submit_probe(rail, next_size);
            return false;
        }
        self.stats.readmissions += 1;
        // The selectable set grew: memoized plans are stale.
        self.predictor_epoch += 1;
        // One batch: the re-admitted rail and the plan-killing epoch bump
        // become visible to replicas together.
        let ops = [
            EngineOp::Health { rail: rail.index() as u8, state: RailState::Healthy },
            EngineOp::EpochBump,
            EngineOp::Counter { kind: CounterKind::Readmissions, delta: 1 },
        ];
        publish(&self.shared, &ops);
        true
    }

    /// A rail came back: every parked retry is due at once. Called after the
    /// `kick` of the poll that saw the re-admission, so the queue reaches the
    /// rail first and the retries compete with what it left.
    pub(super) fn release_parked(&mut self) -> Result<(), EngineError> {
        let now = self.transport.now();
        let Some(ft) = self.health.as_mut() else { return Ok(()) };
        for entry in ft.retries.iter_mut().filter(|e| e.not_before == SimTime::FAR_FUTURE) {
            entry.not_before = now;
        }
        self.flush_retries(now)
    }

    /// Launches due probes and resubmits retry entries whose backoff
    /// elapsed.
    pub(super) fn flush_due(&mut self, now: SimTime) -> Result<(), EngineError> {
        if self.health.as_ref().is_none_or(|ft| now < ft.due_floor) {
            return Ok(());
        }
        for rail in (0..self.transport.rail_count()).map(RailId) {
            let Some(ft) = self.health.as_mut() else { return Ok(()) };
            if ft.tracker.probe_due(rail, now) {
                let size = ft.tracker.begin_probe(rail);
                // Quarantined → Probing (both unselectable; no epoch bump).
                let ops =
                    [EngineOp::Health { rail: rail.index() as u8, state: RailState::Probing }];
                publish(&self.shared, &ops);
                self.submit_probe(rail, size);
            }
        }
        self.flush_retries(now)?;
        if let Some(ft) = self.health.as_mut() {
            let waiting = ft.retries.iter().map(|e| e.not_before);
            ft.due_floor =
                waiting.chain(ft.tracker.earliest_probe_at()).min().unwrap_or(SimTime::FAR_FUTURE);
        }
        Ok(())
    }

    /// Resubmits every retry entry due at `now`. Backoffs grow per attempt,
    /// so the deque is not sorted by deadline: scan for any due entry.
    fn flush_retries(&mut self, now: SimTime) -> Result<(), EngineError> {
        while let Some(entry) = self.health.as_mut().and_then(|ft| {
            let due = ft.retries.iter().position(|e| e.not_before <= now)?;
            ft.retries.remove(due)
        }) {
            self.resubmit(entry, now)?;
        }
        Ok(())
    }

    /// Puts one probe chunk on a rail under test.
    fn submit_probe(&mut self, rail: RailId, size: u64) {
        self.stats.probes_sent += 1;
        publish(&self.shared, &[EngineOp::Counter { kind: CounterKind::ProbesSent, delta: 1 }]);
        self.submit_chunk(ChunkOwner::Probe, ChunkSubmit::new(rail, size), Lineage::default());
    }

    /// Re-plans one failed chunk (or pack) onto the surviving rails.
    fn resubmit(&mut self, mut entry: RetryEntry, now: SimTime) -> Result<(), EngineError> {
        let Some(ft) = self.health.as_mut() else { return Ok(()) };
        if ft.tracker.selectable_count() == 0 {
            // Every rail is down: park the retry, with no timer, until a
            // probe re-admits one.
            entry.not_before = SimTime::FAR_FUTURE;
            ft.retries.push_back(entry);
            return Ok(());
        }
        let RetryEntry { owner, meta, .. } = entry;
        let on_wire = |id: &MsgId| {
            matches!(self.msgs.get(id), Some(MsgRecord { state: MsgState::Inflight { .. }, .. }))
        };
        if !owner.msgs().iter().any(on_wire) {
            return Ok(()); // cancelled or abandoned while the retry waited
        }
        let candidates: InlineVec<(RailId, f64), MAX_RAILS> = (0..self.transport.rail_count())
            .map(RailId)
            .filter(|&r| ft.tracker.is_selectable(r))
            .map(|r| (r, Predictor::wait_us(now, self.transport.rail_busy_until(r))))
            .collect();
        let ChunkMeta { mut submit, lineage } = *meta;
        let (from_rail, bytes) = (submit.rail, submit.bytes);
        self.stats.retries += 1;
        self.stats.rail_retries[from_rail.index()] += 1;
        self.stats.retransmitted_bytes += bytes;
        // Only a lone size-only chunk can be cut again; framed payloads and
        // packs are already encoded for their exact byte range.
        let resplit = match owner {
            ChunkOwner::Msg(id) if submit.payload.is_none() && candidates.len() > 1 => Some(id),
            _ => None,
        };
        if let Some(id) = resplit {
            // Re-split the stranded byte range across the survivors,
            // equal-completion style: the first part takes over the lost
            // chunk's layout slot, the others append theirs.
            let parts =
                select_rails(&self.predictor.natural_cost(), &candidates, bytes, candidates.len())
                    .assignments;
            if parts.iter().any(|&(r, _)| r != from_rail) {
                self.stats.failovers += 1;
            }
            let Some(MsgRecord { state: MsgState::Inflight { chunks_total, layout, .. }, .. }) =
                self.msgs.get_mut(&id)
            else {
                return Ok(());
            };
            let appended_from = layout.len();
            *chunks_total += parts.len() - 1;
            layout[lineage.layout_idx] = parts[0];
            layout.extend_from_slice(&parts[1..]);
            for (i, &(rail, part_bytes)) in parts.iter().enumerate() {
                let layout_idx = if i == 0 { lineage.layout_idx } else { appended_from + i - 1 };
                self.stats.chunks_submitted += 1;
                self.stats.rail_bytes[rail.index()] += part_bytes;
                self.submit_chunk(
                    ChunkOwner::Msg(id),
                    ChunkSubmit::new(rail, part_bytes),
                    Lineage { layout_idx, ..lineage },
                );
            }
            return Ok(());
        }
        // Everything else moves whole, to the candidate with the best
        // predicted completion.
        let mut best: Option<(RailId, f64)> = None;
        for &(r, w) in &candidates {
            let done = self.predictor.completion_us(r, bytes, w);
            if best.is_none_or(|(_, earliest)| done < earliest) {
                best = Some((r, done));
            }
        }
        let Some((rail, _)) = best else {
            return Err(EngineError::BadPlan("retry found no selectable rail".into()));
        };
        if rail != from_rail {
            self.stats.failovers += 1;
        }
        let pack = matches!(owner, ChunkOwner::Pack(_));
        for id in owner.msgs() {
            if let Some(MsgRecord { state: MsgState::Inflight { layout, .. }, .. }) =
                self.msgs.get_mut(id)
            {
                // A pack member keeps reporting its own size on the new
                // rail; a lone chunk reports what goes on the wire.
                let slot = &mut layout[lineage.layout_idx];
                *slot = (rail, if pack { slot.1 } else { bytes });
            }
        }
        submit.rail = rail;
        // The original offload plan died with the failure.
        submit.send_core = CoreId(0);
        submit.offload_delay = SimDuration::ZERO;
        self.stats.chunks_submitted += 1;
        self.stats.rail_bytes[rail.index()] += bytes;
        self.submit_chunk(owner, submit, lineage);
        Ok(())
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
    /// completes locally and the caller should keep waiting instead. A
    /// message that already failed (its retries spent) is claimed here
    /// instead of by `wait`, with `Ok(true)`.
    pub fn abandon(&mut self, id: MsgId) -> Result<bool, EngineError> {
        if self.cancel(id)? {
            return Ok(true);
        }
        if matches!(self.msgs.get(&id).map(|m| &m.state), Some(MsgState::Failed)) {
            self.msgs.remove(&id);
            return Ok(true);
        }
        if !self.is_pending(id) {
            return Ok(false); // held, released, shed or unknown: nothing left to tear out
        }
        // Without the fault layer there is no memory of abandoned chunks to
        // swallow late deliveries into; a forced teardown would poison poll.
        let Some(ft) = self.health.as_ref() else { return Ok(false) };
        if self.chunks_of(id).is_empty() && !ft.retries.iter().any(|r| parked_for(r, id)) {
            // No individually-owned chunks and nothing parked: the message
            // rides inside an aggregate pack. Tearing the pack apart would
            // strand its co-travelers; it completes with the pack.
            return Ok(false);
        }
        self.write_off_chunks(id);
        self.remove_from_flow(id)?;
        self.stats.msgs_abandoned += 1;
        Ok(true)
    }

    /// Retry exhaustion: `id` will never complete. What is left of it on
    /// the wire or parked is written off, it becomes `Failed` (reported once
    /// by `wait`) and it leaves its flow, so its successors do not wait for
    /// it.
    fn fail(&mut self, id: MsgId) -> Result<(), EngineError> {
        let Some(m) = self.msgs.get_mut(&id) else { return Ok(()) };
        if !matches!(m.state, MsgState::Inflight { .. }) {
            return Ok(());
        }
        m.state = MsgState::Failed;
        let (tag, flow_seq, size) = (m.tag, m.flow_seq, m.size);
        self.write_off_chunks(id);
        self.release_flow(tag, flow_seq, size, None)
    }

    /// Drops `id`'s own chunks and parked retries. Best effort: what has
    /// not started is retracted; whatever cannot be retracted keeps flying
    /// and its delivery is swallowed later.
    fn write_off_chunks(&mut self, id: MsgId) {
        let chunks = self.chunks_of(id);
        let Some(ft) = self.health.as_mut() else { return };
        let retracted = !chunks.is_empty() && self.transport.cancel_chunks(&chunks);
        for &c in &chunks {
            self.chunks.remove(&c);
            if !retracted {
                ft.abandoned.insert(c);
            }
        }
        ft.retries.retain(|r| !parked_for(r, id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WINDOW: u64 = RECENT_CHUNKS_WINDOW as u64;

    /// A memory that was shown ids `0..n` in order.
    fn filled(n: u64) -> RecentChunks {
        let mut recent = RecentChunks::default();
        (0..n).for_each(|c| recent.insert(ChunkId(c)));
        recent
    }

    fn remembers(recent: &RecentChunks, mut ids: impl Iterator<Item = u64>) -> bool {
        ids.all(|c| recent.contains(ChunkId(c)))
    }

    #[test]
    fn one_insert_past_the_window_evicts_exactly_the_oldest() {
        let mut recent = filled(WINDOW);
        assert!(remembers(&recent, 0..WINDOW), "a full window forgets nothing");
        recent.insert(ChunkId(WINDOW));
        assert!(!recent.contains(ChunkId(0)), "the oldest id ages out");
        assert!(remembers(&recent, 1..=WINDOW), "and only the oldest");
    }

    #[test]
    fn inserting_a_remembered_id_again_changes_nothing() {
        let mut recent = filled(WINDOW);
        recent.insert(ChunkId(0));
        assert_eq!(
            (recent.set.len(), recent.order.len()),
            (RECENT_CHUNKS_WINDOW, RECENT_CHUNKS_WINDOW)
        );
        // Still the oldest entry of the ring: the next new id evicts it.
        recent.insert(ChunkId(WINDOW));
        assert!(!recent.contains(ChunkId(0)));
    }

    /// The abandoned-chunk case: an id removed by its late delivery leaves a
    /// stale ring entry, which must roll out of the FIFO as a no-op.
    #[test]
    fn a_removed_id_rolls_out_of_the_ring_without_evicting_a_live_one() {
        let mut recent = filled(WINDOW);
        assert!(recent.remove(ChunkId(0)));
        assert!(!recent.remove(ChunkId(0)), "already forgotten");
        // The overflow pops the stale entry: nobody live is evicted.
        recent.insert(ChunkId(WINDOW));
        assert!(remembers(&recent, 1..=WINDOW));
        // The next overflow is back to evicting the oldest live id.
        recent.insert(ChunkId(WINDOW + 1));
        assert!(!recent.contains(ChunkId(1)));
        assert!(remembers(&recent, 2..=WINDOW + 1));
    }
}
