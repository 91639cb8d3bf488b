//! # nm-model — time base and network performance models
//!
//! This crate is the foundation of the multirail engine reproduction of
//! *"A multicore-enabled multirail communication engine"* (Brunet, Trahay,
//! Denis — CLUSTER 2008). It defines:
//!
//! * [`SimTime`] / [`SimDuration`] — a nanosecond-resolution virtual time base
//!   shared by the discrete-event simulator, the sampler and the engine.
//! * [`LinkModel`] — the *ground truth* performance of a NIC/rail: piecewise
//!   latency/bandwidth regimes, the eager (PIO) vs rendezvous (DMA) protocol
//!   split, and the host-copy cost that occupies a CPU core during PIO sends.
//!   The simulator evaluates transfers against this model; the engine never
//!   reads it directly.
//! * [`PerfProfile`] — the *sampled knowledge* the engine works from: a table
//!   of (size, duration) measurements at power-of-two sizes, queried with
//!   log-indexed lookup and linear interpolation, exactly as NewMadeleine's
//!   sampling subsystem does (paper §III-C).
//! * [`builtin`] — models calibrated to the paper's testbed: MX/Myri-10G
//!   (1170 MB/s) and Elan/QsNetII Quadrics (837 MB/s), plus auxiliary rails.
//!
//! The separation between [`LinkModel`] (what the hardware does) and
//! [`PerfProfile`] (what sampling measured) mirrors the paper's design: all
//! strategy decisions are taken from sampled profiles, so prediction error is
//! a first-class citizen rather than an artifact.

#![forbid(unsafe_code)]

pub mod builtin;
pub mod error;
pub mod inline_vec;
pub mod link;
pub mod pio;
pub mod profile;
pub mod regime;
pub mod time;
pub mod units;

pub use error::ModelError;
pub use inline_vec::{InlineVec, MAX_RAILS};
pub use link::{LinkModel, Paradigm, TransferMode};
pub use pio::PioModel;
pub use profile::PerfProfile;
pub use regime::{Regime, RegimeTable};
pub use time::{SimDuration, SimTime};
pub use units::{Bytes, Micros};
