//! High-level session API.
//!
//! A [`Session`] bundles what NewMadeleine sets up at initialization:
//! sample every rail (paper §III-C), build the predictor, pick a strategy
//! plug-in, and wire the engine to a driver. Errors in this convenience
//! layer panic with context; use [`crate::Engine`] directly for `Result`s.

use crate::driver::shmem::ShmemDriver;
use crate::driver::sim::SimDriver;
use crate::engine::{Engine, EngineStats, MsgCompletion, MsgId};
use crate::predictor::Predictor;
use crate::strategy::{Strategy, StrategyKind};
use crate::transport::Transport;
use bytes::Bytes;
use nm_model::SimTime;
use nm_sampler::{SamplingConfig, SimTransport};
use nm_sim::{ClusterSpec, RailId};

/// A ready-to-use multirail communication session.
pub struct Session {
    engine: Engine<Box<dyn Transport>>,
}

/// Configures and builds a [`Session`].
pub struct SessionBuilder {
    strategy: Option<Box<dyn Strategy>>,
    sampling: SamplingConfig,
    spec: ClusterSpec,
}

impl Session {
    /// Starts configuring a session (paper-testbed simulator by default).
    pub fn builder() -> SessionBuilder {
        SessionBuilder {
            strategy: None,
            sampling: SamplingConfig { iters: 1, warmup: 0, ..Default::default() },
            spec: ClusterSpec::paper_testbed(),
        }
    }

    /// Posts a size-only message.
    pub fn post_send(&mut self, size: u64) -> MsgId {
        self.engine.post_send(size).expect("post_send")
    }

    /// Posts a message with a payload.
    pub fn post_send_bytes(&mut self, payload: Bytes) -> MsgId {
        self.engine.post_send_bytes(payload).expect("post_send_bytes")
    }

    /// Enqueues several messages before the strategy is interrogated (the
    /// pattern that enables aggregation).
    pub fn post_send_batch(&mut self, sizes: &[u64]) -> Vec<MsgId> {
        self.engine.post_send_batch(sizes).expect("post_send_batch")
    }

    /// Waits for one message.
    pub fn wait(&mut self, id: MsgId) -> MsgCompletion {
        self.engine.wait(id).expect("wait")
    }

    /// Waits for everything posted so far.
    pub fn drain(&mut self) -> Vec<MsgCompletion> {
        self.engine.drain().expect("drain")
    }

    /// Engine counters.
    pub fn stats(&self) -> &EngineStats {
        self.engine.stats()
    }

    /// Current time on the session's clock.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Active strategy name.
    pub fn strategy_name(&self) -> &'static str {
        self.engine.strategy_name()
    }

    /// The sampled knowledge driving decisions.
    pub fn predictor(&self) -> &Predictor {
        self.engine.predictor()
    }
}

impl SessionBuilder {
    /// Selects a built-in strategy (default: [`StrategyKind::HeteroSplit`]).
    pub fn strategy(mut self, kind: StrategyKind) -> Self {
        self.strategy = Some(kind.build());
        self
    }

    /// Overrides the sampling campaign parameters.
    pub fn sampling(mut self, config: SamplingConfig) -> Self {
        self.sampling = config;
        self
    }

    /// Uses a custom simulated cluster instead of the paper testbed.
    pub fn cluster(mut self, spec: ClusterSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Builds a session over the discrete-event simulator: samples every
    /// rail (natural + forced-eager) like NewMadeleine's init does, then
    /// wires the engine.
    pub fn build_sim(self) -> Session {
        let mut sampler = SimTransport::new(self.spec.clone());
        let predictor =
            Predictor::sampled(&mut sampler, &self.sampling, |i| self.spec.rails[i].rdv_threshold)
                .expect("sampling");
        let strategy = self.strategy.unwrap_or_else(|| StrategyKind::HeteroSplit.build());
        let transport: Box<dyn Transport> = Box::new(SimDriver::new(self.spec));
        Session { engine: Engine::new(transport, predictor, strategy).expect("engine config") }
    }

    /// Builds a session over a real-thread shared-memory driver. The driver
    /// is sampled first (wall clock), then reused as the transport.
    pub fn build_shmem(self, mut driver: ShmemDriver) -> Session {
        let thresholds: Vec<u64> =
            (0..Transport::rail_count(&driver)).map(|i| driver.rdv_threshold(RailId(i))).collect();
        let predictor =
            Predictor::sampled(&mut driver, &self.sampling, |i| thresholds[i]).expect("sampling");
        let strategy = self.strategy.unwrap_or_else(|| StrategyKind::HeteroSplit.build());
        let transport: Box<dyn Transport> = Box::new(driver);
        Session { engine: Engine::new(transport, predictor, strategy).expect("engine config") }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_model::units::{KIB, MIB};

    #[test]
    fn quickstart_flow_works() {
        let mut s = Session::builder().strategy(StrategyKind::HeteroSplit).build_sim();
        assert_eq!(s.strategy_name(), "hetero-split");
        let id = s.post_send(4 * MIB);
        let done = s.wait(id);
        assert_eq!(done.size, 4 * MIB);
        assert!(done.duration.as_micros_f64() > 0.0);
        assert_eq!(done.chunks.len(), 2, "4MiB hetero-splits over both rails");
        assert_eq!(s.stats().msgs_completed, 1);
    }

    #[test]
    fn default_strategy_is_hetero() {
        let s = Session::builder().build_sim();
        assert_eq!(s.strategy_name(), "hetero-split");
    }

    #[test]
    fn sampled_profiles_carry_rail_names() {
        let s = Session::builder().build_sim();
        let names: Vec<&str> = s.predictor().rails().iter().map(|r| &*r.name).collect();
        assert_eq!(names, vec!["myri-10g", "qsnet2"]);
    }

    #[test]
    fn many_messages_drain_in_order_of_completion() {
        let mut s = Session::builder().strategy(StrategyKind::GreedyBalance).build_sim();
        let ids: Vec<MsgId> = (0..8).map(|_| s.post_send(16 * KIB)).collect();
        let done = s.drain();
        assert_eq!(done.len(), ids.len());
        assert_eq!(s.stats().msgs_completed, 8);
    }
}
