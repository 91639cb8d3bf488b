//! The transfer layer: what a driver must provide to the engine.
//!
//! NewMadeleine's drivers (MX, Elan, Verbs, TCP) all reduce, for the
//! scheduler's purposes, to this contract: report rail state, accept chunk
//! submissions, and raise events. Two mechanisms implement it in this crate.
//! The simulated one (discrete-event cluster, the evaluation substrate) is a
//! single core in [`crate::driver::cluster`] reached through three handles:
//! [`crate::driver::sim::SimDriver`] and
//! [`crate::driver::faulty::FaultSimDriver`] for the paper's two nodes
//! (without and with a fault schedule) and
//! [`crate::driver::cluster::PairDriver`] for one directed pair of an N-node
//! [`crate::driver::cluster::SimCluster`]. The other is
//! [`crate::driver::shmem::ShmemDriver`]: real threads moving real bytes
//! through throttled in-process rails.
//!
//! Two methods have allocation-free twins the engine calls on its hot path:
//! [`Transport::poll_into`] and [`Transport::idle_cores_into`] append to a
//! buffer the caller keeps instead of returning a fresh `Vec`. Both are
//! provided methods whose defaults go through [`Transport::poll`] and
//! [`Transport::idle_cores`], so a driver or wrapper that implements only
//! the allocating pair keeps working unchanged (and keeps seeing every
//! call); the simulated transport overrides both.

use bytes::Bytes;
use nm_model::{SimDuration, SimTime, TransferMode};
use nm_sim::{CoreId, RailId};

/// A chunk the engine wants on the wire.
#[derive(Debug, Clone)]
pub struct ChunkSubmit {
    /// Rail to use.
    pub rail: RailId,
    /// Chunk size in bytes (must be ≥ 1).
    pub bytes: u64,
    /// Core doing the send-side work.
    pub send_core: CoreId,
    /// Offload delay (T_O) if the chunk was handed to another core.
    pub offload_delay: SimDuration,
    /// Force a protocol (`None`: rail's threshold decides).
    pub mode: Option<TransferMode>,
    /// Payload for drivers that move real bytes; size-only drivers ignore it.
    pub payload: Option<Bytes>,
}

impl ChunkSubmit {
    /// A plain chunk on `rail` from core 0.
    pub fn new(rail: RailId, bytes: u64) -> Self {
        ChunkSubmit {
            rail,
            bytes,
            send_core: CoreId(0),
            offload_delay: SimDuration::ZERO,
            mode: None,
            payload: None,
        }
    }
}

/// Driver-assigned handle for a submitted chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkId(pub u64);

/// Events a driver raises toward the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportEvent {
    /// A chunk is fully available at the destination.
    ChunkDelivered {
        /// The chunk.
        chunk: ChunkId,
        /// Delivery instant.
        at: SimTime,
    },
    /// The send side finished with a chunk (buffer reusable).
    ChunkSendDone {
        /// The chunk.
        chunk: ChunkId,
        /// Completion instant.
        at: SimTime,
    },
    /// A local NIC became idle — the paper's trigger for the scheduler.
    RailIdle {
        /// The rail.
        rail: RailId,
        /// Transition instant.
        at: SimTime,
    },
    /// A chunk was lost: the rail rejected it, dropped it, or went down
    /// with it in flight. The chunk will never deliver; the engine's
    /// failover layer re-plans it (see `nm-core`'s health module).
    ChunkFailed {
        /// The chunk.
        chunk: ChunkId,
        /// When the loss was detected.
        at: SimTime,
    },
    /// Receive-side integrity verification failed for a chunk: the bytes
    /// arrived but were damaged in flight and the damage was *detected*
    /// (NIC CRC or wire-format checksum). The chunk's data is unusable;
    /// the engine retries it like a failure and issues a health demerit to
    /// the offending rail.
    ChunkCorrupt {
        /// The chunk.
        chunk: ChunkId,
        /// When the corruption was detected.
        at: SimTime,
    },
    /// A timer requested with [`Transport::schedule_wakeup`] fired. To the
    /// engine it is an event like any other — a reason to poll; what is due
    /// it decides from the clock, so a spurious or missing `Wakeup` costs a
    /// poll or a delay, never a wrong answer.
    Wakeup {
        /// Firing instant.
        at: SimTime,
    },
}

/// The transfer-layer contract.
pub trait Transport {
    /// Current time on the transport's clock.
    fn now(&self) -> SimTime;

    /// Number of rails.
    fn rail_count(&self) -> usize;

    /// Rail name (matches the sampled profile name).
    fn rail_name(&self, rail: RailId) -> String;

    /// Rendezvous threshold of a rail.
    fn rdv_threshold(&self, rail: RailId) -> u64;

    /// When the local NIC of `rail` drains its queued work.
    fn rail_busy_until(&self, rail: RailId) -> SimTime;

    /// Number of local cores.
    fn core_count(&self) -> usize;

    /// Locally idle cores, ascending.
    fn idle_cores(&self) -> Vec<CoreId>;

    /// Appends [`Self::idle_cores`] to `out`. The default calls
    /// `idle_cores`; a driver that can list them without allocating
    /// overrides it.
    fn idle_cores_into(&self, out: &mut Vec<CoreId>) {
        out.append(&mut self.idle_cores());
    }

    /// Submits a chunk; send-side work starts when resources free up.
    fn submit(&mut self, chunk: ChunkSubmit) -> ChunkId;

    /// Advances the transport and returns newly raised events. An empty vec
    /// means nothing is in flight (the transport is quiescent).
    fn poll(&mut self) -> Vec<TransportEvent>;

    /// Appends what [`Self::poll`] would return to `out` (appending
    /// nothing means quiescent). The default calls `poll`; a driver that
    /// can fill the caller's buffer directly overrides it.
    fn poll_into(&mut self, out: &mut Vec<TransportEvent>) {
        out.append(&mut self.poll());
    }

    /// Requests a [`TransportEvent::Wakeup`] no later than `at` (clamped to
    /// now). The engine keeps at most one request it cares about: the
    /// earliest of its watchdog, retry, probe and shed deadlines (and an
    /// [`crate::Engine::advance_to`] target). It asks again only for an
    /// earlier instant, which supersedes the one before — a driver may keep
    /// just the earliest — and asks for the next when that one has passed.
    /// Drivers without a timer facility may ignore the request: every
    /// time-driven check in the engine compares its deadline with
    /// [`Transport::now`], so due work is done on whatever poll comes next.
    fn schedule_wakeup(&mut self, _at: SimTime) {}

    /// Tells the driver whether this engine currently has any use for
    /// [`TransportEvent::RailIdle`]. The engine
    /// calls it when the answer changes: `false` once nothing is queued
    /// (an idle event could only make it interrogate an empty queue),
    /// `true` again at the end of the scheduling pass that leaves work
    /// queued — a pass that has just read the current rail state, so no
    /// idle transition that fired in between is ever missed.
    ///
    /// A hint, never an obligation: a driver that ignores it (the default,
    /// and any wrapper that does not forward it) delivers every idle event
    /// as before, which is always correct and merely costs the engine some
    /// empty polls. The simulated transport honours it: that is what keeps
    /// one NIC's idle events from fanning out to every engine sourced at
    /// the node ([`crate::driver::cluster`]).
    fn set_idle_interest(&mut self, _wanted: bool) {}

    /// Atomically retracts a set of submitted chunks none of whose
    /// resources started serving them, releasing the reserved rail time.
    /// All-or-nothing: returns `false` (and retracts nothing) when any
    /// chunk already started, finished, or has later submissions queued
    /// behind it. The default refuses every request, matching drivers
    /// whose NICs cannot revoke queued work.
    fn cancel_chunks(&mut self, _chunks: &[ChunkId]) -> bool {
        false
    }
}

impl<T: Transport + ?Sized> Transport for Box<T> {
    fn now(&self) -> SimTime {
        (**self).now()
    }
    fn rail_count(&self) -> usize {
        (**self).rail_count()
    }
    fn rail_name(&self, rail: RailId) -> String {
        (**self).rail_name(rail)
    }
    fn rdv_threshold(&self, rail: RailId) -> u64 {
        (**self).rdv_threshold(rail)
    }
    fn rail_busy_until(&self, rail: RailId) -> SimTime {
        (**self).rail_busy_until(rail)
    }
    fn core_count(&self) -> usize {
        (**self).core_count()
    }
    fn idle_cores(&self) -> Vec<CoreId> {
        (**self).idle_cores()
    }
    fn idle_cores_into(&self, out: &mut Vec<CoreId>) {
        (**self).idle_cores_into(out)
    }
    fn submit(&mut self, chunk: ChunkSubmit) -> ChunkId {
        (**self).submit(chunk)
    }
    fn poll(&mut self) -> Vec<TransportEvent> {
        (**self).poll()
    }
    fn poll_into(&mut self, out: &mut Vec<TransportEvent>) {
        (**self).poll_into(out)
    }
    fn schedule_wakeup(&mut self, at: SimTime) {
        (**self).schedule_wakeup(at)
    }
    fn set_idle_interest(&mut self, wanted: bool) {
        (**self).set_idle_interest(wanted)
    }
    fn cancel_chunks(&mut self, chunks: &[ChunkId]) -> bool {
        (**self).cancel_chunks(chunks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_submit_builder_defaults() {
        let c = ChunkSubmit::new(RailId(1), 4096);
        assert_eq!(c.rail, RailId(1));
        assert_eq!(c.bytes, 4096);
        assert_eq!(c.send_core, CoreId(0));
        assert_eq!(c.offload_delay, SimDuration::ZERO);
        assert!(c.mode.is_none());
        assert!(c.payload.is_none());
    }
}
