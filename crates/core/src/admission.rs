//! Bounded-memory admission control and graceful degradation policy.
//!
//! The paper's premise (§II-B, §III-D) is that the decision path must stay
//! cheap and predictable under load — which it cannot if the engine accepts
//! unbounded work. [`AdmissionConfig`] caps the pending state an
//! [`Engine`](crate::engine::Engine) will hold; once a cap is hit,
//! `try_post_send` returns a typed [`Backpressure`] rejection instead of
//! growing memory, queued messages past their deadline are shed
//! (oldest-first), and when the backlog or the feedback correction factor
//! says the model is losing the plant, the engine degrades from dichotomy
//! splitting to the cheap static-ratio strategy — decision cost degrades
//! before correctness does. All thresholds are hysteresis-guarded so the
//! engine does not flap at a boundary.

use nm_model::SimDuration;

/// Why an admission-controlled post was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// The pending-message cap is full.
    MsgCap {
        /// Messages currently pending (queued + in flight).
        pending: u64,
        /// The configured cap.
        cap: u64,
    },
    /// Admitting the message would exceed the pending-bytes cap.
    ByteCap {
        /// Bytes currently pending.
        pending: u64,
        /// Bytes the rejected message asked for.
        requested: u64,
        /// The configured cap.
        cap: u64,
    },
}

impl std::fmt::Display for Backpressure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backpressure::MsgCap { pending, cap } => {
                write!(f, "pending-message cap full ({pending}/{cap})")
            }
            Backpressure::ByteCap { pending, requested, cap } => {
                write!(f, "pending-byte cap full ({pending} + {requested} > {cap})")
            }
        }
    }
}

/// Admission-control and degradation thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionConfig {
    /// Cap on pending messages (queued + in flight).
    pub max_pending_msgs: u64,
    /// Cap on pending payload bytes (queued + in flight).
    pub max_pending_bytes: u64,
    /// Deadline stamped on messages posted without an explicit one
    /// (`None`: such messages never expire).
    pub default_deadline: Option<SimDuration>,
    /// Backlog (queued messages) at or above which the engine degrades to
    /// the static-ratio strategy.
    pub degrade_enter_backlog: usize,
    /// Backlog at or below which a degraded engine may recover (must be
    /// strictly below `degrade_enter_backlog` — the hysteresis band).
    pub degrade_exit_backlog: usize,
}

/// Feedback correction-factor deviation (max of EWMA ratio and its
/// reciprocal over all rails) at or above which the engine degrades: the
/// predictor is so far off that precise dichotomy splits are noise.
pub(crate) const DEGRADE_CORRECTION: f64 = 4.0;
/// Correction-factor deviation at or below which a degraded engine may
/// recover.
pub(crate) const RECOVER_CORRECTION: f64 = 2.0;

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_pending_msgs: 1024,
            max_pending_bytes: 256 * 1024 * 1024,
            default_deadline: None,
            degrade_enter_backlog: 64,
            degrade_exit_backlog: 16,
        }
    }
}

impl AdmissionConfig {
    /// Checks internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_pending_msgs == 0 {
            return Err("max_pending_msgs must be at least 1".into());
        }
        if self.max_pending_bytes == 0 {
            return Err("max_pending_bytes must be at least 1".into());
        }
        if self.degrade_exit_backlog >= self.degrade_enter_backlog {
            return Err(format!(
                "degrade_exit_backlog {} must be below degrade_enter_backlog {} (hysteresis band)",
                self.degrade_exit_backlog, self.degrade_enter_backlog
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        AdmissionConfig::default().validate().unwrap();
    }

    #[test]
    fn validation_rejects_inverted_hysteresis() {
        let mut cfg = AdmissionConfig { degrade_exit_backlog: 64, ..Default::default() };
        assert!(cfg.validate().is_err());
        cfg.degrade_exit_backlog = 8;
        assert!(cfg.validate().is_ok());
        let zero_msgs = AdmissionConfig { max_pending_msgs: 0, ..Default::default() };
        assert!(zero_msgs.validate().is_err());
        let zero_bytes = AdmissionConfig { max_pending_bytes: 0, ..Default::default() };
        assert!(zero_bytes.validate().is_err());
    }

    #[test]
    fn backpressure_display() {
        let m = Backpressure::MsgCap { pending: 4, cap: 4 };
        assert!(m.to_string().contains("4/4"));
        let b = Backpressure::ByteCap { pending: 10, requested: 5, cap: 12 };
        assert!(b.to_string().contains("10 + 5 > 12"));
    }
}
