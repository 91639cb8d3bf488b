//! # nm-sim — discrete-event multirail cluster simulator
//!
//! This crate stands in for the paper's hardware testbed (two dual dual-core
//! Opteron nodes linked by MX/Myri-10G and Elan/QsNetII rails). It simulates,
//! on a deterministic virtual clock:
//!
//! * **NICs** — one per (node, rail); transmit injection and receive windows
//!   occupy the NIC, so concurrent transfers on one rail serialize while
//!   transfers on different rails proceed in parallel.
//! * **Cores** — eager (PIO) sends and receives occupy a host core for the
//!   copy duration; two eager injections from the same core serialize, which
//!   is the effect behind the paper's Fig 3/4, and the reason offloading
//!   copies to idle cores (Fig 4c / Fig 7) recovers rail parallelism.
//! * **Protocols** — eager messages are injected immediately; messages at or
//!   above the rendezvous threshold run an RTS/CTS handshake followed by a
//!   zero-copy DMA phase that leaves the cores idle.
//!
//! The engine in `nm-core` drives a [`Simulator`] exactly the way
//! NewMadeleine drives its NICs: it submits transfers and reacts to
//! [`SimEvent`]s — deliveries and NIC-idle transitions ("the
//! packet scheduler is only activated when a NIC becomes idle", paper §III-A).
//!
//! Uncontended transfers reproduce the analytic durations of
//! [`nm_model::LinkModel`] exactly (tested in `sim::tests`), so sampled
//! profiles, predictions and simulated outcomes are mutually consistent.

// No unsafe anywhere in this crate; keep it that way.
#![forbid(unsafe_code)]

pub mod event;
pub mod gantt;
pub mod ids;
pub mod resource;
pub mod sim;
pub mod topology;
pub mod trace;

pub use event::EventQueue;
pub use ids::{CoreId, NicKey, NodeId, RailId, TransferId};
pub use sim::{SendSpec, SimEvent, Simulator};
pub use topology::{ClusterSpec, NodeSpec, SwitchSpec};
pub use trace::{Trace, TraceRecord};
