//! Replicated decision-path state: the engine's shared facts, readable by
//! every worker lock-free through an [`nm_replog`] operation log.
//!
//! The paper wants multicore nodes to drive multirail sends in parallel
//! (§II-C, Fig 4/7), but the facts a `decide()` needs — which rails are
//! selectable, which predictor generation memoized plans belong to, how far
//! feedback has corrected each rail — were mutated and read under the same
//! locks, so workers contended on the engine's cache lines. This module
//! splits those facts out as a [`DecisionState`]: a small, fixed-size,
//! `Clone`-cheap value advanced by typed [`EngineOp`]s through an
//! [`OpLog`]. The engine (single writer in practice, though the log accepts
//! any number) publishes ops at each mutation point; every worker holds a
//! [`DecisionReader`] replica it catches up — allocation-free, lock-free —
//! at the top of each decision.
//!
//! ## Op taxonomy
//!
//! | op | mirrors |
//! |----|---------|
//! | [`EngineOp::Health`] | [`HealthTracker`] transitions (quarantine, probe start, re-admission, degrade, clear) |
//! | [`EngineOp::EpochBump`] | `predictor_epoch` advances (plan-cache invalidation) |
//! | [`EngineOp::Feedback`] | per-rail EWMA actual/predicted ratio after a `Feedback::record` |
//! | [`EngineOp::Counter`] | decision-relevant counters (quarantines, readmissions, probes, …) |
//! | [`EngineOp::Nop`] | unknown wire encodings decode here — decode is total, never panics |
//!
//! ## Staleness contract
//!
//! A replica read observes a *prefix* of the op sequence (see the
//! `nm-replog` crate docs): a worker may briefly decide against a rail set
//! that is one batch stale, which is exactly as stale as a decision taken
//! just before the transition — never torn, never reordered. Epoch checks
//! make this safe for plan reuse: a plan memoized under epoch `e` is only
//! used while the replica still reads epoch `e`.

// Hot path: no panicking construct anywhere in this file (tests excepted, clippy.toml).
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::todo, clippy::unreachable)]

use crate::health::RailState;
use nm_model::MAX_RAILS;
use nm_replog::{OpLog, ReplicaHandle, Replicated, WireOp, OP_WORDS};
use nm_sim::RailId;

/// Number of [`CounterKind`] variants (array size for the fixed state).
pub const COUNTER_KINDS: usize = 5;

/// Decision-relevant counters mirrored into [`DecisionState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// Quarantine transitions.
    Quarantines = 0,
    /// Rails re-admitted after a passed probe ladder.
    Readmissions = 1,
    /// Health-probe chunks submitted.
    ProbesSent = 2,
    /// Probe points failed (rail back to quarantine, backoff doubled).
    ProbeFailures = 3,
    /// Feedback observations recorded.
    FeedbackRecords = 4,
}

impl CounterKind {
    fn from_u8(v: u8) -> Option<CounterKind> {
        match v {
            0 => Some(CounterKind::Quarantines),
            1 => Some(CounterKind::Readmissions),
            2 => Some(CounterKind::ProbesSent),
            3 => Some(CounterKind::ProbeFailures),
            4 => Some(CounterKind::FeedbackRecords),
            _ => None,
        }
    }
}

fn rail_state_to_u8(s: RailState) -> u8 {
    match s {
        RailState::Healthy => 0,
        RailState::Degraded => 1,
        RailState::Quarantined => 2,
        RailState::Probing => 3,
    }
}

fn rail_state_from_u8(v: u8) -> Option<RailState> {
    match v {
        0 => Some(RailState::Healthy),
        1 => Some(RailState::Degraded),
        2 => Some(RailState::Quarantined),
        3 => Some(RailState::Probing),
        _ => None,
    }
}

/// One typed mutation of the replicated decision state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineOp {
    /// A rail's health state changed.
    Health {
        /// Rail index.
        rail: u8,
        /// Its new state.
        state: RailState,
    },
    /// The predictor generation advanced; memoized plans are stale.
    EpochBump,
    /// Feedback updated a rail's EWMA actual/predicted ratio.
    Feedback {
        /// Rail index.
        rail: u8,
        /// The post-update EWMA ratio.
        ewma_ratio: f64,
    },
    /// A counter advanced.
    Counter {
        /// Which counter.
        kind: CounterKind,
        /// By how much.
        delta: u32,
    },
    /// Does nothing; the decode target for unknown wire encodings.
    Nop,
}

// Wire form: word0 packs discriminator bytes (opcode | rail << 8 |
// kind/state << 16), word1 carries the payload (f64 bits or delta).
const OPC_HEALTH: u64 = 1;
const OPC_EPOCH_BUMP: u64 = 2;
const OPC_FEEDBACK: u64 = 3;
const OPC_COUNTER: u64 = 4;

impl WireOp for EngineOp {
    fn encode_op(self) -> [u64; OP_WORDS] {
        match self {
            EngineOp::Health { rail, state } => {
                [OPC_HEALTH | u64::from(rail) << 8 | u64::from(rail_state_to_u8(state)) << 16, 0]
            }
            EngineOp::EpochBump => [OPC_EPOCH_BUMP, 0],
            EngineOp::Feedback { rail, ewma_ratio } => {
                [OPC_FEEDBACK | u64::from(rail) << 8, ewma_ratio.to_bits()]
            }
            EngineOp::Counter { kind, delta } => {
                [OPC_COUNTER | (kind as u64) << 16, u64::from(delta)]
            }
            EngineOp::Nop => [0, 0],
        }
    }

    // Total decode: any unrecognized pattern is a Nop, never a panic — this
    // runs inside the replica-read hot path.
    // nm-analyzer: hot_path
    fn decode_op(words: [u64; OP_WORDS]) -> Self {
        let [w0, w1] = words;
        let rail = (w0 >> 8) as u8;
        let aux = (w0 >> 16) as u8;
        match w0 & 0xff {
            OPC_HEALTH => match rail_state_from_u8(aux) {
                Some(state) => EngineOp::Health { rail, state },
                None => EngineOp::Nop,
            },
            OPC_EPOCH_BUMP => EngineOp::EpochBump,
            OPC_FEEDBACK => EngineOp::Feedback { rail, ewma_ratio: f64::from_bits(w1) },
            OPC_COUNTER => match CounterKind::from_u8(aux) {
                Some(kind) => EngineOp::Counter { kind, delta: w1 as u32 },
                None => EngineOp::Nop,
            },
            _ => EngineOp::Nop,
        }
    }
}

/// The facts a worker's `decide()` consumes, in a fixed-size value: rail
/// health (selectability), the predictor epoch, per-rail feedback ratios,
/// and decision-relevant counters. `Clone` copies plain arrays — no heap —
/// so replica seeding and lap resync stay cheap.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionState {
    rail_count: u32,
    epoch: u64,
    rail_states: [RailState; MAX_RAILS],
    ewma_ratio: [f64; MAX_RAILS],
    counters: [u64; COUNTER_KINDS],
}

impl DecisionState {
    /// Initial state: every rail Healthy, epoch 0, unit feedback ratios.
    pub fn new(rail_count: usize) -> Self {
        DecisionState {
            rail_count: rail_count.min(MAX_RAILS) as u32,
            epoch: 0,
            rail_states: [RailState::Healthy; MAX_RAILS],
            ewma_ratio: [1.0; MAX_RAILS],
            counters: [0; COUNTER_KINDS],
        }
    }

    /// Rails this state tracks.
    // nm-analyzer: hot_path
    // nm-analyzer: no_alloc
    #[must_use]
    pub fn rail_count(&self) -> usize {
        self.rail_count as usize
    }

    /// Predictor generation: compare against a memoized plan's epoch before
    /// reusing it.
    // nm-analyzer: hot_path
    // nm-analyzer: no_alloc
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// One rail's mirrored health state (Healthy when out of range).
    // nm-analyzer: hot_path
    // nm-analyzer: no_alloc
    #[must_use]
    pub fn rail_state(&self, rail: RailId) -> RailState {
        self.rail_states.get(rail.index()).copied().unwrap_or(RailState::Healthy)
    }

    /// True when the strategy may place chunks on the rail.
    // nm-analyzer: hot_path
    // nm-analyzer: no_alloc
    #[must_use]
    pub fn is_selectable(&self, rail: RailId) -> bool {
        matches!(self.rail_state(rail), RailState::Healthy | RailState::Degraded)
    }

    /// Number of selectable rails.
    // nm-analyzer: hot_path
    // nm-analyzer: no_alloc
    #[must_use]
    pub fn selectable_count(&self) -> usize {
        self.rail_states
            .iter()
            .take(self.rail_count as usize)
            .filter(|s| matches!(s, RailState::Healthy | RailState::Degraded))
            .count()
    }

    /// Masks the waits of unselectable rails to `+∞` in place — the same
    /// exclusion the engine applies before invoking the strategy, so a
    /// worker-side `Ctx` sees quarantined rails exactly like hopelessly
    /// busy NICs.
    // nm-analyzer: hot_path
    // nm-analyzer: no_alloc
    pub fn mask_unselectable(&self, waits: &mut [f64]) {
        for (wait, state) in waits.iter_mut().zip(self.rail_states.iter()) {
            if !matches!(state, RailState::Healthy | RailState::Degraded) {
                *wait = f64::INFINITY;
            }
        }
    }

    /// One rail's mirrored feedback EWMA ratio (1.0 when out of range).
    // nm-analyzer: hot_path
    // nm-analyzer: no_alloc
    #[must_use]
    pub fn ewma_ratio(&self, rail: RailId) -> f64 {
        self.ewma_ratio.get(rail.index()).copied().unwrap_or(1.0)
    }

    /// A mirrored counter's value.
    // nm-analyzer: hot_path
    // nm-analyzer: no_alloc
    #[must_use]
    pub fn counter(&self, kind: CounterKind) -> u64 {
        self.counters.get(kind as usize).copied().unwrap_or(0)
    }
}

impl Replicated for DecisionState {
    type Op = EngineOp;

    // Runs on the replica-read hot path: pure array writes, total over any
    // decoded op, no panics.
    // nm-analyzer: hot_path
    // nm-analyzer: no_alloc
    fn apply_op(&mut self, op: EngineOp) {
        match op {
            EngineOp::Health { rail, state } => {
                if let Some(s) = self.rail_states.get_mut(usize::from(rail)) {
                    *s = state;
                }
            }
            EngineOp::EpochBump => self.epoch = self.epoch.wrapping_add(1),
            EngineOp::Feedback { rail, ewma_ratio } => {
                if let Some(r) = self.ewma_ratio.get_mut(usize::from(rail)) {
                    *r = ewma_ratio;
                }
            }
            EngineOp::Counter { kind, delta } => {
                if let Some(c) = self.counters.get_mut(kind as usize) {
                    *c = c.wrapping_add(u64::from(delta));
                }
            }
            EngineOp::Nop => {}
        }
    }
}

/// The shared handle: an op log over [`DecisionState`]. The engine holds
/// one and publishes ops at every mutation point; workers call
/// [`SharedDecisionState::reader`] once and then read their replica per
/// decision. Cloning shares the same log.
#[derive(Debug, Clone)]
pub struct SharedDecisionState {
    log: OpLog<DecisionState>,
}

/// Ring capacity: large enough that a worker parked for a whole scheduling
/// quantum while health churns at full tilt still replays instead of
/// resyncing.
const RING_CAPACITY: usize = 4096;

impl SharedDecisionState {
    /// Fresh state for `rail_count` rails.
    pub fn new(rail_count: usize) -> Self {
        SharedDecisionState { log: OpLog::new(DecisionState::new(rail_count), RING_CAPACITY) }
    }

    /// A new per-worker replica, seeded current.
    #[must_use]
    pub fn reader(&self) -> DecisionReader {
        DecisionReader { replica: self.log.replica() }
    }

    /// Publishes one op.
    pub fn publish(&self, op: EngineOp) {
        self.log.append(op);
    }

    /// Publishes a batch of ops under one combining-lock acquisition; a
    /// transition and its epoch bump land atomically with respect to any
    /// replica read (prefix visibility — see the staleness contract).
    pub fn publish_batch(&self, ops: &[EngineOp]) {
        self.log.append_batch(ops);
    }

    /// A clone of the authoritative master state (locked; test/debug use).
    #[must_use]
    pub fn snapshot(&self) -> DecisionState {
        self.log.master_snapshot()
    }

    /// Total ops published.
    #[must_use]
    pub fn ops_appended(&self) -> u64 {
        self.log.ops_appended()
    }
}

/// One worker's lock-free view of the decision state.
#[derive(Debug)]
pub struct DecisionReader {
    replica: ReplicaHandle<DecisionState>,
}

impl DecisionReader {
    /// Catches the replica up (lock-free, allocation-free in steady state)
    /// and returns the current decision facts.
    // nm-analyzer: hot_path
    // nm-analyzer: no_alloc
    #[must_use]
    pub fn read(&mut self) -> &DecisionState {
        self.replica.read()
    }

    /// The facts as of the last catch-up, without replaying new ops.
    // nm-analyzer: hot_path
    // nm-analyzer: no_alloc
    #[must_use]
    pub fn peek(&self) -> &DecisionState {
        self.replica.peek()
    }

    /// Ops replayed from the ring over this replica's lifetime.
    #[must_use]
    pub fn ops_applied(&self) -> u64 {
        self.replica.ops_applied()
    }

    /// Lap-recovery resyncs over this replica's lifetime (0 in steady
    /// state with a sanely sized ring).
    #[must_use]
    pub fn resyncs(&self) -> u64 {
        self.replica.resyncs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_OPS: &[EngineOp] = &[
        EngineOp::Health { rail: 1, state: RailState::Quarantined },
        EngineOp::EpochBump,
        EngineOp::Feedback { rail: 0, ewma_ratio: 1.75 },
        EngineOp::Counter { kind: CounterKind::Quarantines, delta: 1 },
        EngineOp::Nop,
    ];

    #[test]
    fn wire_roundtrip_is_identity() {
        for &op in ALL_OPS {
            assert_eq!(EngineOp::decode_op(op.encode_op()), op, "roundtrip of {op:?}");
        }
        for rail in 0..MAX_RAILS as u8 {
            for state in [
                RailState::Healthy,
                RailState::Degraded,
                RailState::Quarantined,
                RailState::Probing,
            ] {
                let op = EngineOp::Health { rail, state };
                assert_eq!(EngineOp::decode_op(op.encode_op()), op);
            }
        }
    }

    #[test]
    fn unknown_encodings_decode_to_nop() {
        assert_eq!(EngineOp::decode_op([0xff, 0]), EngineOp::Nop);
        assert_eq!(EngineOp::decode_op([OPC_HEALTH | 9 << 16, 0]), EngineOp::Nop);
        assert_eq!(EngineOp::decode_op([OPC_COUNTER | 200 << 16, 1]), EngineOp::Nop);
        // Applying garbage never panics and never mutates.
        let mut s = DecisionState::new(2);
        let before = s.clone();
        s.apply_op(EngineOp::decode_op([u64::MAX, u64::MAX]));
        assert_eq!(s, before);
    }

    #[test]
    fn health_ops_drive_selectability_and_masking() {
        let mut s = DecisionState::new(2);
        assert!(s.is_selectable(RailId(1)));
        assert_eq!(s.selectable_count(), 2);

        s.apply_op(EngineOp::Health { rail: 1, state: RailState::Quarantined });
        assert!(!s.is_selectable(RailId(1)));
        assert_eq!(s.rail_state(RailId(1)), RailState::Quarantined);
        assert_eq!(s.selectable_count(), 1);

        let mut waits = [3.0, 7.0];
        s.mask_unselectable(&mut waits);
        assert_eq!(waits[0], 3.0);
        assert!(waits[1].is_infinite(), "quarantined rail waits like a busy NIC: +inf");

        s.apply_op(EngineOp::Health { rail: 1, state: RailState::Probing });
        assert!(!s.is_selectable(RailId(1)), "probing rails stay excluded");
        s.apply_op(EngineOp::Health { rail: 1, state: RailState::Healthy });
        assert!(s.is_selectable(RailId(1)));
        s.apply_op(EngineOp::Health { rail: 1, state: RailState::Degraded });
        assert!(s.is_selectable(RailId(1)), "degraded rails still carry traffic");
    }

    #[test]
    fn epoch_feedback_and_counters_accumulate() {
        let mut s = DecisionState::new(2);
        s.apply_op(EngineOp::EpochBump);
        s.apply_op(EngineOp::EpochBump);
        assert_eq!(s.epoch(), 2);
        s.apply_op(EngineOp::Feedback { rail: 1, ewma_ratio: 2.5 });
        assert_eq!(s.ewma_ratio(RailId(1)), 2.5);
        assert_eq!(s.ewma_ratio(RailId(0)), 1.0);
        s.apply_op(EngineOp::Counter { kind: CounterKind::ProbesSent, delta: 3 });
        s.apply_op(EngineOp::Counter { kind: CounterKind::ProbesSent, delta: 2 });
        assert_eq!(s.counter(CounterKind::ProbesSent), 5);
        assert_eq!(s.counter(CounterKind::Quarantines), 0);
    }

    #[test]
    fn out_of_range_rails_are_ignored() {
        let mut s = DecisionState::new(2);
        let before = s.clone();
        s.apply_op(EngineOp::Health { rail: 200, state: RailState::Quarantined });
        s.apply_op(EngineOp::Feedback { rail: 200, ewma_ratio: 9.0 });
        assert_eq!(s, before);
        assert_eq!(s.rail_state(RailId(200)), RailState::Healthy);
        assert_eq!(s.ewma_ratio(RailId(200)), 1.0);
    }

    #[test]
    fn shared_state_flows_to_readers() {
        let shared = SharedDecisionState::new(2);
        let mut reader = shared.reader();
        assert_eq!(reader.read().epoch(), 0);

        shared.publish_batch(&[
            EngineOp::Health { rail: 0, state: RailState::Quarantined },
            EngineOp::EpochBump,
            EngineOp::Counter { kind: CounterKind::Quarantines, delta: 1 },
        ]);
        let s = reader.read();
        assert_eq!(s.epoch(), 1);
        assert!(!s.is_selectable(RailId(0)));
        assert_eq!(s.counter(CounterKind::Quarantines), 1);
        assert_eq!(shared.ops_appended(), 3);
        assert_eq!(reader.ops_applied(), 3);
        assert_eq!(reader.resyncs(), 0);
        assert_eq!(*reader.peek(), shared.snapshot());
    }
}
