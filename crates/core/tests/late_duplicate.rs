//! Regression: a duplicate of a watchdog-abandoned chunk must be counted and
//! dropped like any other duplicate, not surface as a hard poll error.
//!
//! Sequence under test: a chunk's delivery is held back until the watchdog
//! writes it off (the transport cannot retract it, so it is abandoned and
//! retried); the zombie then delivers late — swallowed — and a duplication
//! fault delivers the same chunk id once more. Before the fix the first late
//! delivery removed the chunk from the abandoned set without recording it as
//! delivered, so the copy was "delivery for unknown chunk".

use nm_core::driver::sim::SimDriver;
use nm_core::engine::Engine;
use nm_core::strategy::StrategyKind;
use nm_core::transport::{ChunkId, ChunkSubmit, Transport, TransportEvent};
use nm_core::{HealthConfig, Session};
use nm_model::SimTime;
use nm_sim::{ClusterSpec, CoreId, RailId};
use std::cell::Cell;
use std::rc::Rc;

/// A `SimDriver` whose first chunk's delivery is withheld until the test
/// sets `release`, and then raised twice: the late delivery and a duplicate
/// of it. It cannot retract chunks.
struct Lagging {
    inner: SimDriver,
    victim: Option<ChunkId>,
    held: Option<TransportEvent>,
    release: Rc<Cell<bool>>,
}

impl Transport for Lagging {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn rail_count(&self) -> usize {
        self.inner.rail_count()
    }
    fn rail_name(&self, rail: RailId) -> String {
        self.inner.rail_name(rail)
    }
    fn rdv_threshold(&self, rail: RailId) -> u64 {
        self.inner.rdv_threshold(rail)
    }
    fn rail_busy_until(&self, rail: RailId) -> SimTime {
        self.inner.rail_busy_until(rail)
    }
    fn core_count(&self) -> usize {
        self.inner.core_count()
    }
    fn idle_cores(&self) -> Vec<CoreId> {
        self.inner.idle_cores()
    }
    fn submit(&mut self, chunk: ChunkSubmit) -> ChunkId {
        let id = self.inner.submit(chunk);
        self.victim.get_or_insert(id);
        id
    }
    fn poll(&mut self) -> Vec<TransportEvent> {
        let mut events = self.inner.poll();
        events.retain(|ev| match ev {
            TransportEvent::ChunkDelivered { chunk, .. } if Some(*chunk) == self.victim => {
                self.held = Some(ev.clone());
                false
            }
            _ => true,
        });
        if self.release.get() {
            if let Some(ev) = self.held.take() {
                events.extend([ev.clone(), ev]);
            }
        }
        events
    }
    fn schedule_wakeup(&mut self, at: SimTime) {
        self.inner.schedule_wakeup(at)
    }
}

#[test]
fn duplicate_of_an_abandoned_chunk_is_counted_not_fatal() {
    // The default session samples the paper testbed: borrow its predictor.
    let predictor = Session::builder().build_sim().predictor().clone();
    let release = Rc::new(Cell::new(false));
    let transport = Lagging {
        inner: SimDriver::new(ClusterSpec::paper_testbed()),
        victim: None,
        held: None,
        release: release.clone(),
    };
    let mut engine = Engine::new(transport, predictor, StrategyKind::SingleRail(None).build())
        .expect("engine")
        .with_fault_tolerance(HealthConfig::default())
        .expect("health config");

    // The victim never delivers: the watchdog times it out, abandons it
    // (no retraction) and the retry completes the message.
    let id = engine.post_send(64 * 1024).expect("post");
    engine.wait(id).expect("the retry must complete the message");
    let stats = engine.stats().clone();
    assert_eq!(stats.chunks_timed_out, 1, "{stats:?}");
    assert!(stats.retries >= 1, "{stats:?}");
    assert!(engine.transport().held.is_some(), "the victim's delivery was withheld");

    // Late delivery of the zombie, then a duplicate of it, in one poll.
    release.set(true);
    let done = engine.poll().expect("a duplicate of a swallowed late chunk is not an error");
    assert!(done.is_empty());
    assert_eq!(engine.stats().duplicate_chunks_dropped, 1);
    assert_eq!(engine.stats().msgs_completed, 1, "the zombie must not complete anything twice");
}
