//! Rail health tracking: the `Healthy → Degraded → Quarantined → Probing →
//! Healthy` state machine behind the engine's failover layer.
//!
//! The paper's strategy assumes every sampled rail stays as fast as its
//! init-time ping-pong profile. On a real multirail node a NIC can stall,
//! drop, or degrade — which silently corrupts the time-until-idle and
//! prediction pipeline and strands in-flight chunks. The [`HealthTracker`]
//! closes that gap:
//!
//! * **Healthy** — the rail behaves as sampled; fully selectable.
//! * **Degraded** — [`crate::feedback::Feedback`] reports systematic drift
//!   on the rail. Still selectable (the predictions are corrected via
//!   [`crate::Engine::adopt_feedback_correction`]), but one chunk failure
//!   quarantines it immediately.
//! * **Quarantined** — the rail lost a chunk (explicit
//!   [`crate::TransportEvent::ChunkFailed`] or timeout). Not selectable:
//!   the engine reports its wait as `+∞`, so NIC selection and the split
//!   dichotomy discard it exactly like a hopelessly busy NIC (Fig 2's
//!   mechanism, repurposed). A probe is scheduled after a backoff.
//! * **Probing** — a 2–3 point mini ping-pong (see [`nm_sampler::probe`])
//!   is in flight on the rail. A point outside tolerance, or a failed
//!   probe chunk, sends the rail back to Quarantined with the backoff
//!   doubled; all points in tolerance re-admit it.
//!
//! Every transition into or out of the selectable set must be paired with
//! a predictor-epoch bump by the caller so memoized split plans die with
//! the stale rail set (see `crates/core/src/plan_cache.rs`).

use nm_model::{SimDuration, SimTime};
use nm_sampler::ProbeConfig;
use nm_sim::RailId;

/// One rail's health state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RailState {
    /// Behaving as sampled.
    Healthy,
    /// Systematic prediction drift observed; still selectable.
    Degraded,
    /// Lost a chunk; excluded from selection until a probe passes.
    Quarantined,
    /// Re-admission probe in flight.
    Probing,
}

/// Delay between quarantine and the first re-admission probe.
const PROBE_BACKOFF: SimDuration = SimDuration::from_micros(500);
/// Backoff multiplier after each failed probe.
const PROBE_BACKOFF_FACTOR: f64 = 2.0;

/// Tunables for health tracking, probing and retries.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Consecutive chunk failures that quarantine a rail (≥ 1). The default
    /// of 1 treats any loss as grounds for quarantine — rails are probed
    /// back in cheaply, so erring toward exclusion is safe.
    pub quarantine_after: u32,
    /// Cap on the probe backoff, which starts at 500 µs and doubles after
    /// each failed probe.
    pub max_probe_backoff: SimDuration,
    /// Probe sizes and pass tolerance (see [`nm_sampler::probe`]).
    pub probe: ProbeConfig,
    /// Resubmission bound per failed chunk before the engine gives up and
    /// surfaces an error.
    pub max_retries: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            quarantine_after: 1,
            max_probe_backoff: SimDuration::from_micros(8_000),
            probe: ProbeConfig::default(),
            max_retries: 4,
        }
    }
}

impl HealthConfig {
    /// Checks parameter sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.quarantine_after == 0 {
            return Err("quarantine_after must be >= 1".into());
        }
        if self.max_probe_backoff < PROBE_BACKOFF {
            return Err("max_probe_backoff below the first probe backoff".into());
        }
        self.probe.validate()
    }
}

#[derive(Debug, Clone)]
struct RailHealth {
    state: RailState,
    consecutive_failures: u32,
    /// Current probe backoff (grows exponentially on failed probes).
    backoff: SimDuration,
    /// When the next probe may start (meaningful while Quarantined).
    next_probe_at: SimTime,
    /// Index into the probe size ladder (meaningful while Probing).
    probe_idx: usize,
}

/// Per-rail health state machine.
#[derive(Debug, Clone)]
pub struct HealthTracker {
    cfg: HealthConfig,
    rails: Vec<RailHealth>,
}

impl HealthTracker {
    /// A tracker with every rail Healthy.
    pub fn new(cfg: HealthConfig, rail_count: usize) -> Result<Self, String> {
        cfg.validate()?;
        let fresh = RailHealth {
            state: RailState::Healthy,
            consecutive_failures: 0,
            backoff: PROBE_BACKOFF,
            next_probe_at: SimTime::ZERO,
            probe_idx: 0,
        };
        Ok(HealthTracker { cfg, rails: vec![fresh; rail_count] })
    }

    /// The configuration in force.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// One rail's current state.
    pub fn state(&self, rail: RailId) -> RailState {
        self.rails[rail.index()].state
    }

    /// True when the strategy may place chunks on the rail.
    pub fn is_selectable(&self, rail: RailId) -> bool {
        matches!(self.state(rail), RailState::Healthy | RailState::Degraded)
    }

    /// Number of selectable rails.
    pub fn selectable_count(&self) -> usize {
        self.rails
            .iter()
            .filter(|r| matches!(r.state, RailState::Healthy | RailState::Degraded))
            .count()
    }

    /// True when any rail is out of the selectable set.
    pub fn any_excluded(&self) -> bool {
        self.selectable_count() < self.rails.len()
    }

    /// A delivered chunk on `rail`: clears the failure streak.
    pub fn on_chunk_success(&mut self, rail: RailId) {
        self.rails[rail.index()].consecutive_failures = 0;
    }

    /// A failed (or timed-out) chunk on `rail`. Returns `true` when this
    /// failure *transitions* the rail into Quarantined — the caller must
    /// then bump the predictor epoch and count [`Self::next_probe_at`] among
    /// its deadlines.
    pub fn on_chunk_failure(&mut self, rail: RailId, now: SimTime) -> bool {
        let r = &mut self.rails[rail.index()];
        r.consecutive_failures += 1;
        match r.state {
            RailState::Healthy | RailState::Degraded
                if r.consecutive_failures >= self.cfg.quarantine_after =>
            {
                r.state = RailState::Quarantined;
                r.backoff = PROBE_BACKOFF;
                r.next_probe_at = now + r.backoff;
                true
            }
            _ => false,
        }
    }

    /// Feedback drift on `rail`: Healthy rails become Degraded. Returns
    /// `true` on transition.
    pub fn note_drift(&mut self, rail: RailId) -> bool {
        let r = &mut self.rails[rail.index()];
        if r.state == RailState::Healthy {
            r.state = RailState::Degraded;
            true
        } else {
            false
        }
    }

    /// The predictor was corrected (e.g. feedback adoption): Degraded rails
    /// return to Healthy — the drift they flagged is now folded into the
    /// predictions.
    pub fn clear_degraded(&mut self) {
        for r in &mut self.rails {
            if r.state == RailState::Degraded {
                r.state = RailState::Healthy;
            }
        }
    }

    /// When the next probe on `rail` may start.
    pub fn next_probe_at(&self, rail: RailId) -> SimTime {
        self.rails[rail.index()].next_probe_at
    }

    /// True when `rail` is Quarantined and its backoff has elapsed.
    pub fn probe_due(&self, rail: RailId, now: SimTime) -> bool {
        let r = &self.rails[rail.index()];
        r.state == RailState::Quarantined && now >= r.next_probe_at
    }

    /// Earliest pending probe instant over all quarantined rails.
    pub fn earliest_probe_at(&self) -> Option<SimTime> {
        self.rails
            .iter()
            .filter(|r| r.state == RailState::Quarantined)
            .map(|r| r.next_probe_at)
            .min()
    }

    /// Starts the probe ladder on a quarantined rail; returns the first
    /// probe size.
    pub fn begin_probe(&mut self, rail: RailId) -> u64 {
        let r = &mut self.rails[rail.index()];
        assert_eq!(r.state, RailState::Quarantined, "probe only from quarantine");
        r.state = RailState::Probing;
        r.probe_idx = 0;
        self.cfg.probe.sizes[0]
    }

    /// A probe point passed. Returns the next probe size, or `None` when
    /// the ladder is complete and the rail has been re-admitted (Healthy) —
    /// the caller must then bump the predictor epoch.
    pub fn probe_point_passed(&mut self, rail: RailId) -> Option<u64> {
        let sizes_len = self.cfg.probe.sizes.len();
        let r = &mut self.rails[rail.index()];
        debug_assert_eq!(r.state, RailState::Probing);
        r.probe_idx += 1;
        if r.probe_idx < sizes_len {
            Some(self.cfg.probe.sizes[r.probe_idx])
        } else {
            r.state = RailState::Healthy;
            r.consecutive_failures = 0;
            r.backoff = PROBE_BACKOFF;
            None
        }
    }

    /// A probe point failed (out of tolerance, or the probe chunk itself
    /// was lost): back to Quarantined with the backoff doubled (capped).
    pub fn probe_failed(&mut self, rail: RailId, now: SimTime) {
        let max = self.cfg.max_probe_backoff;
        let r = &mut self.rails[rail.index()];
        debug_assert_eq!(r.state, RailState::Probing);
        r.state = RailState::Quarantined;
        r.backoff = r.backoff.mul_f64(PROBE_BACKOFF_FACTOR).min(max);
        r.next_probe_at = now + r.backoff;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn tracker() -> HealthTracker {
        HealthTracker::new(HealthConfig::default(), 2).unwrap()
    }

    const R0: RailId = RailId(0);
    const R1: RailId = RailId(1);

    #[test]
    fn full_cycle_healthy_to_healthy() {
        let mut h = tracker();
        assert_eq!(h.state(R0), RailState::Healthy);
        assert!(h.is_selectable(R0));

        // One failure quarantines (quarantine_after = 1).
        assert!(h.on_chunk_failure(R0, t(100)));
        assert_eq!(h.state(R0), RailState::Quarantined);
        assert!(!h.is_selectable(R0));
        assert_eq!(h.selectable_count(), 1);
        assert_eq!(h.next_probe_at(R0), t(600), "500us default backoff");
        assert!(!h.probe_due(R0, t(599)));
        assert!(h.probe_due(R0, t(600)));

        // Probe ladder: both default points pass → re-admitted.
        let first = h.begin_probe(R0);
        assert_eq!(first, h.config().probe.sizes[0]);
        assert_eq!(h.state(R0), RailState::Probing);
        assert!(!h.is_selectable(R0), "probing rail still excluded");
        let second = h.probe_point_passed(R0).expect("two-point ladder");
        assert_eq!(second, h.config().probe.sizes[1]);
        assert_eq!(h.probe_point_passed(R0), None, "ladder complete");
        assert_eq!(h.state(R0), RailState::Healthy);
        assert!(h.is_selectable(R0));
    }

    #[test]
    fn failed_probe_doubles_the_backoff_up_to_the_cap() {
        let mut h = tracker();
        h.on_chunk_failure(R0, t(0));
        let mut expect_backoff = 500u64;
        let mut now = 0;
        for _ in 0..6 {
            now = h.next_probe_at(R0).as_micros_f64() as u64;
            h.begin_probe(R0);
            h.probe_failed(R0, t(now));
            expect_backoff = (expect_backoff * 2).min(8_000);
            assert_eq!(h.next_probe_at(R0), t(now + expect_backoff));
        }
        assert_eq!(expect_backoff, 8_000, "backoff must have hit the cap");
        let _ = now;
    }

    #[test]
    fn drift_degrades_and_correction_clears() {
        let mut h = tracker();
        assert!(h.note_drift(R1));
        assert!(!h.note_drift(R1), "already degraded");
        assert_eq!(h.state(R1), RailState::Degraded);
        assert!(h.is_selectable(R1), "degraded rails still carry traffic");
        h.clear_degraded();
        assert_eq!(h.state(R1), RailState::Healthy);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let cfg = HealthConfig { quarantine_after: 3, ..HealthConfig::default() };
        let mut h = HealthTracker::new(cfg, 1).unwrap();
        assert!(!h.on_chunk_failure(R0, t(0)));
        assert!(!h.on_chunk_failure(R0, t(1)));
        h.on_chunk_success(R0);
        assert!(!h.on_chunk_failure(R0, t(2)), "streak was reset");
        assert!(!h.on_chunk_failure(R0, t(3)));
        assert!(h.on_chunk_failure(R0, t(4)), "third consecutive failure");
    }

    #[test]
    fn earliest_probe_scans_quarantined_rails_only() {
        let mut h = tracker();
        assert_eq!(h.earliest_probe_at(), None);
        h.on_chunk_failure(R1, t(1000));
        assert_eq!(h.earliest_probe_at(), Some(t(1500)));
        h.on_chunk_failure(R0, t(200));
        assert_eq!(h.earliest_probe_at(), Some(t(700)));
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let ok = HealthConfig::default();
        assert!(ok.validate().is_ok());
        assert!(HealthConfig { quarantine_after: 0, ..ok.clone() }.validate().is_err());
        assert!(HealthConfig { max_probe_backoff: SimDuration::ZERO, ..ok }.validate().is_err());
    }
}
