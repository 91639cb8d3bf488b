//! The simulated two-node driver.
//!
//! The paper's testbed is the smallest cluster the simulated transport
//! serves: a [`SimDriver`] owns a `SimCore` whose single slot sends
//! node 0 → node 1, and holds no logic of its own. Chunk ids are the
//! simulator's transfer ids; only *local* (node-0) NIC idle events are
//! surfaced — the engine schedules sends, not receives.

use super::cluster::{slot_transport, SimCore};
use crate::transport::{ChunkId, ChunkSubmit, Transport, TransportEvent};
use nm_model::SimTime;
use nm_sim::{ClusterSpec, CoreId, NodeId, RailId};

/// Discrete-event transport between two simulated nodes.
pub struct SimDriver {
    core: SimCore,
}

impl SimDriver {
    /// A driver over a fresh simulator for `spec`, sending node 0 → node 1.
    pub fn new(spec: ClusterSpec) -> Self {
        let mut core = SimCore::new(spec);
        core.register(NodeId(0), NodeId(1));
        SimDriver { core }
    }

    /// The paper's testbed (2× four-core nodes, Myri-10G + QsNetII).
    pub fn paper_testbed() -> Self {
        SimDriver::new(ClusterSpec::paper_testbed())
    }
}

// The pair registered at construction is the core's first slot.
slot_transport!(SimDriver, self, self.core, self.core, 0);

#[cfg(test)]
mod tests {
    use super::*;
    use nm_model::builtin;
    use nm_model::units::KIB;

    #[test]
    fn exposes_the_paper_testbed_shape() {
        let d = SimDriver::paper_testbed();
        assert_eq!(d.rail_count(), 2);
        assert_eq!(d.rail_name(RailId(0)), "myri-10g");
        assert_eq!(d.core_count(), 4);
        assert_eq!(d.idle_cores().len(), 4);
        assert_eq!(d.rdv_threshold(RailId(0)), builtin::RDV_THRESHOLD);
    }

    #[test]
    fn chunk_delivery_round_trip() {
        let mut d = SimDriver::paper_testbed();
        let id = d.submit(ChunkSubmit::new(RailId(0), 4 * KIB));
        let mut delivered = None;
        loop {
            let evs = d.poll();
            if evs.is_empty() {
                break;
            }
            for ev in evs {
                if let TransportEvent::ChunkDelivered { chunk, at } = ev {
                    assert_eq!(chunk, id);
                    delivered = Some(at);
                }
            }
        }
        let at = delivered.expect("chunk must deliver");
        let want = builtin::myri_10g().one_way_us(4 * KIB).get();
        assert!((at.as_micros_f64() - want).abs() < 0.01);
    }

    #[test]
    fn busy_until_reflects_submissions() {
        let mut d = SimDriver::paper_testbed();
        assert_eq!(d.rail_busy_until(RailId(0)), SimTime::ZERO);
        d.submit(ChunkSubmit::new(RailId(0), 64 * KIB));
        assert!(d.rail_busy_until(RailId(0)) > SimTime::ZERO);
        assert_eq!(d.rail_busy_until(RailId(1)), SimTime::ZERO, "other rail untouched");
    }

    #[test]
    fn only_local_idle_events_surface() {
        let mut d = SimDriver::paper_testbed();
        d.submit(ChunkSubmit::new(RailId(0), 4 * KIB));
        let mut saw_rail_idle = false;
        loop {
            let evs = d.poll();
            if evs.is_empty() {
                break;
            }
            for ev in &evs {
                if let TransportEvent::RailIdle { rail, .. } = ev {
                    assert_eq!(*rail, RailId(0));
                    saw_rail_idle = true;
                }
            }
        }
        assert!(saw_rail_idle, "local NIC idle must be reported");
    }
}
