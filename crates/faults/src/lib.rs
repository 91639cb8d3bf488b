//! # nm-faults — deterministic rail fault injection
//!
//! The paper's strategy (§II-B) trusts every rail to stay as fast as its
//! init-time ping-pong profile. This crate supplies the adversary: seedable,
//! reproducible fault schedules that the simulated transport replays so the
//! engine's health tracking and failover re-planning (in `nm-core`) can be
//! exercised — and benchmarked — without any nondeterminism.
//!
//! Eight fault models cover the failure classes a multirail node sees —
//! four availability/performance classes and four corruption classes:
//!
//! | model | effect |
//! |---|---|
//! | [`FaultKind::RailDown`] | submissions fail, in-flight chunks are lost |
//! | [`FaultKind::TransientLoss`] | each chunk independently lost with `prob` |
//! | [`FaultKind::LatencySpike`] | fixed extra one-way latency |
//! | [`FaultKind::BandwidthDegrade`] | modeled durations stretched by `1/factor` |
//! | [`FaultKind::PayloadCorrupt`] | chunk payload bytes flipped in flight with `prob` |
//! | [`FaultKind::HeaderCorrupt`] | chunk header bytes flipped in flight with `prob` |
//! | [`FaultKind::DuplicateChunk`] | chunk delivered twice with `prob` |
//! | [`FaultKind::ChunkReorderStorm`] | deliveries held, released in reverse order |
//!
//! There is one fault model. A [`ClusterFaultSchedule`] addresses each fault
//! at a NIC port `(node, rail)`, validates its windows and compiles to
//! time-sorted [`ClusterTransition`]s; a [`ClusterFaultState`] applies them
//! as virtual time advances. The rail-addressed [`FaultSchedule`] of the
//! two-node testbed is a builder that lowers to it (rail `r` is the
//! sender's port `(node 0, r)`), so all eight kinds behave the same on two
//! nodes and on N.
//! Everything probabilistic draws from one RNG seeded by the schedule, so
//! `(workload, schedule)` fully determines a chaos run. An **empty**
//! schedule is guaranteed inert: the injecting driver adds no events,
//! perturbs no RNG stream and rounds no duration, which is what lets the
//! fault-free chaos harness reproduce the golden figures bit-identically.

// No unsafe anywhere in this crate; keep it that way.
#![forbid(unsafe_code)]

pub mod cluster;
pub mod schedule;

pub use cluster::{
    ClusterFaultSchedule, ClusterFaultSpec, ClusterFaultState, ClusterTransition, Draw,
};
pub use schedule::{Change, FaultKind, FaultSchedule, FaultSpec};
