//! Engine error type.

use crate::admission::Backpressure;
use std::fmt;

/// Errors surfaced by the engine and its drivers.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A strategy produced an invalid plan (e.g. chunks not covering the
    /// message, unknown rail).
    BadPlan(String),
    /// The transport failed.
    Transport(String),
    /// Waiting on an unknown or already-consumed message handle.
    UnknownMessage(u64),
    /// Configuration problem at build time.
    Config(String),
    /// Admission control rejected the post — pending state is at its cap.
    /// Not a failure of anything in flight: retry after draining.
    Backpressure(Backpressure),
    /// The message was shed by deadline-aware load shedding before any of
    /// its bytes moved; it will never complete.
    Shed(u64),
    /// A chunk of the message spent every retry; it will never complete.
    Failed(u64),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::BadPlan(m) => write!(f, "bad strategy plan: {m}"),
            EngineError::Transport(m) => write!(f, "transport error: {m}"),
            EngineError::UnknownMessage(id) => write!(f, "unknown message handle {id}"),
            EngineError::Config(m) => write!(f, "configuration error: {m}"),
            EngineError::Backpressure(b) => write!(f, "backpressure: {b}"),
            EngineError::Shed(id) => write!(f, "message {id} shed past its deadline"),
            EngineError::Failed(id) => write!(f, "message {id} failed: a chunk spent its retries"),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(EngineError::BadPlan("x".into()).to_string().contains("bad strategy plan"));
        assert!(EngineError::UnknownMessage(7).to_string().contains('7'));
    }
}
