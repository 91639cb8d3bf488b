//! Per-transfer bookkeeping: the full timeline of one message chunk.

use crate::ids::{CoreId, NodeId, RailId, TransferId};
use nm_model::{SimTime, TransferMode};

/// Lifecycle of a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferState {
    /// Submitted, waiting for resources (or for the rendezvous handshake).
    Pending,
    /// Payload moving: PIO injection or DMA phase in progress.
    InFlight,
    /// Fully delivered to the destination.
    Delivered,
    /// Retracted before any resource started serving it (see
    /// [`crate::Simulator::try_cancel_all`]); produces no further events.
    Cancelled,
}

/// One simulated transfer and its measured timeline.
#[derive(Debug, Clone)]
pub struct Transfer {
    /// Handle.
    pub id: TransferId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Rail carrying the payload.
    pub rail: RailId,
    /// Payload size in bytes.
    pub size: u64,
    /// Protocol actually used.
    pub mode: TransferMode,
    /// Core that performed (or posted) the send.
    pub send_core: CoreId,
    /// Core that absorbs the receive copy (eager only).
    pub recv_core: CoreId,
    /// The submitter's label ([`crate::SendSpec::tag`]).
    pub tag: u32,
    /// Current state.
    pub state: TransferState,
    /// When the engine submitted the transfer.
    pub submitted_at: SimTime,
    /// When injection (PIO copy) or the rendezvous post actually started.
    pub started_at: Option<SimTime>,
    /// When the sender finished injecting (send-side completion for eager;
    /// end of the DMA phase for rendezvous).
    pub send_done_at: Option<SimTime>,
    /// When the payload was fully available at the destination.
    pub delivered_at: Option<SimTime>,
}

impl Transfer {
    /// End-to-end duration (submit → delivery), if delivered.
    pub fn total_duration(&self) -> Option<nm_model::SimDuration> {
        self.delivered_at.map(|d| d - self.submitted_at)
    }

    /// Queueing delay before resources were acquired, if started.
    pub fn queue_delay(&self) -> Option<nm_model::SimDuration> {
        self.started_at.map(|s| s - self.submitted_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::*;
    use nm_model::SimDuration;

    #[test]
    fn durations_derive_from_timeline() {
        let mut x = Transfer {
            id: TransferId(1),
            src: NodeId(0),
            dst: NodeId(1),
            rail: RailId(0),
            size: 1024,
            mode: TransferMode::Eager,
            send_core: CoreId(0),
            recv_core: CoreId(0),
            tag: 0,
            state: TransferState::Pending,
            submitted_at: SimTime::from_micros(10),
            started_at: None,
            send_done_at: None,
            delivered_at: None,
        };
        assert_eq!(x.total_duration(), None);
        assert_eq!(x.queue_delay(), None);
        x.started_at = Some(SimTime::from_micros(12));
        x.delivered_at = Some(SimTime::from_micros(30));
        x.state = TransferState::Delivered;
        assert_eq!(x.queue_delay(), Some(SimDuration::from_micros(2)));
        assert_eq!(x.total_duration(), Some(SimDuration::from_micros(20)));
    }
}
