//! Transfer-layer drivers.
//!
//! * [`cluster`] — the evaluation substrate: a [`nm_sim::Simulator`] behind
//!   the [`crate::Transport`] contract, optionally replaying an `nm-faults`
//!   schedule. Deterministic virtual time; all paper figures are regenerated
//!   on it. One core steps the simulator, maps its events and replays
//!   faults; [`cluster::SimCluster`] shares it among the
//!   [`cluster::PairDriver`]s of an N-node cluster.
//! * [`sim`] / [`faulty`] — the same core for the paper's two nodes:
//!   [`sim::SimDriver`] and [`faulty::FaultSimDriver`] (the chaos substrate,
//!   for exercising health tracking and failover deterministically) each
//!   own a core whose single slot sends node 0 → node 1.
//! * [`shmem`] — the correctness substrate: real OS threads move real bytes
//!   through throttled in-process rails and hand them to the receive side
//!   as carried ([`crate::duplex`] verifies them with the wire format's own
//!   CRC32C). It proves the engine/strategy/protocol stack is not
//!   simulator-shaped.

pub mod cluster;
pub mod faulty;
pub mod shmem;
pub mod sim;
