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
