//! # nm-core — the multirail communication engine
//!
//! The paper's contribution, reproduced as a library: a NewMadeleine-style
//! communication engine that multiplexes message flows over heterogeneous
//! parallel rails, using **sampled performance profiles** to predict
//! transfer durations, select NICs, compute equal-completion split ratios by
//! dichotomy, and offload eager PIO copies onto idle cores.
//!
//! ## Architecture (paper Fig 5)
//!
//! ```text
//!  application  ──▶  Session / Engine   (application layer: message queue,
//!                         │              engine/post.rs)
//!                   Strategy plug-in    (optimizer-scheduler layer, interrogated
//!                                        and carried out by engine/schedule.rs)
//!                    · SingleRail          · BandwidthRatioSplit (OMPI-like)
//!                    · GreedyBalance       · HeteroSplit  (paper §II-B)
//!                    · IsoSplit            · Aggregation  (paper §II-C)
//!                                          · MulticoreEager (paper §III-D)
//!                         │
//!                     Transport         (transfer layer: drivers; their events
//!                                        fold into completions in engine/mod.rs)
//!                    · simulated cluster — one discrete-event core, three handles:
//!                        SimDriver / FaultSimDriver (two nodes, ± fault schedule)
//!                        SimCluster + PairDriver    (N nodes, shared clock)
//!                    · ShmemDriver — real threads + throttled rails
//! ```
//!
//! The strategy is invoked exactly at the paper's trigger points: when a
//! message is submitted, and whenever a NIC becomes idle. Its decisions are
//! based only on the [`predictor`] view — sampled profiles plus the
//! busy-until state of each rail — never on the driver's ground truth.
//!
//! Beyond the paper, [`Engine::with_fault_tolerance`](engine::Engine::with_fault_tolerance)
//! arms a per-rail [`health`] state machine: failed or timed-out chunks are
//! retried with backoff and re-split across surviving rails, failing rails
//! are quarantined (excluded from selection) and probed back in
//! (`engine/recovery.rs`), and the `nm-faults` crate injects deterministic
//! rail outages to exercise it all.
//!
//! ## Quick start
//!
//! ```
//! use nm_core::prelude::*;
//!
//! // A simulated two-rail cluster (Myri-10G + QsNetII, the paper's testbed),
//! // sampled at startup like NewMadeleine does.
//! let mut session = Session::builder()
//!     .strategy(StrategyKind::HeteroSplit)
//!     .build_sim();
//! let msg = session.post_send(4 * 1024 * 1024);
//! let done = session.wait(msg);
//! println!("4 MiB delivered in {}", done.duration);
//! ```

// No unsafe anywhere in this crate; keep it that way.
#![forbid(unsafe_code)]

pub mod admission;
pub mod driver;
pub mod duplex;
pub mod engine;
pub mod error;
pub mod estimate;
pub mod feedback;
pub mod health;
pub mod plan_cache;
pub mod predictor;
pub mod replicated;
pub mod selection;
pub mod session;
pub mod split;
pub mod strategy;
pub mod transport;

pub use admission::{AdmissionConfig, Backpressure};
pub use engine::{Engine, MsgCompletion, MsgId};
pub use error::EngineError;
pub use feedback::{Feedback, RailFeedback};
pub use health::{HealthConfig, HealthTracker, RailState};
pub use plan_cache::{PlanCache, PlanCacheStats};
pub use predictor::{Predictor, RailView};
pub use replicated::{CounterKind, DecisionReader, DecisionState, EngineOp, SharedDecisionState};
pub use session::{Session, SessionBuilder};
pub use strategy::{Action, ChunkPlan, Ctx, Strategy, StrategyKind};
pub use transport::{ChunkSubmit, Transport, TransportEvent};

/// Convenient glob import for applications.
pub mod prelude {
    pub use crate::driver::shmem::ShmemDriver;
    pub use crate::driver::sim::SimDriver;
    pub use crate::engine::{Engine, MsgCompletion, MsgId};
    pub use crate::session::{Session, SessionBuilder};
    pub use crate::strategy::StrategyKind;
    pub use nm_model::units::{KIB, MIB};
    pub use nm_model::{SimDuration, SimTime};
}
