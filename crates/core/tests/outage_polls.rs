//! Poll-count pin: an outage costs the engine polls in proportion to what
//! happens during it (failures, probes, re-admissions), not to how long it
//! lasts or how many chunks sit it out.
//!
//! Sixteen 256 KiB messages are posted at t = 0 and both rails go down for
//! 800 µs from t = 50 µs. While every retry re-parked itself one microsecond
//! ahead with a timer of its own, this took 68 692 polls; with parked retries
//! released by the re-admission and one armed timer it takes about a hundred.
//!
//! The second test drives the same script through a transport that ignores
//! `schedule_wakeup` and whose clock runs on its own, the way
//! `ShmemDriver`'s does: every time-driven scan compares its deadline with
//! the clock, never with "a wake-up arrived", so recovery takes the same
//! course — only in more polls.

use nm_core::driver::faulty::FaultSimDriver;
use nm_core::engine::{Engine, EngineStats};
use nm_core::strategy::StrategyKind;
use nm_core::transport::{ChunkId, ChunkSubmit, Transport, TransportEvent};
use nm_core::{HealthConfig, Session};
use nm_faults::{FaultKind, FaultSchedule, FaultSpec};
use nm_model::units::KIB;
use nm_model::{SimDuration, SimTime};
use nm_sim::{CoreId, RailId};

const MSGS: usize = 16;

fn outage() -> FaultSimDriver {
    let down = |rail| FaultSpec {
        rail: RailId(rail),
        at: SimTime::from_micros(50),
        kind: FaultKind::RailDown { duration: SimDuration::from_micros(800) },
    };
    FaultSimDriver::paper_testbed(FaultSchedule::new(1).with(down(0)).with(down(1)))
}

/// Posts the sixteen messages and polls until all are complete; returns the
/// polls that took, the final stats and the instant the last one finished.
fn ride_out<T: Transport>(transport: T) -> (u64, EngineStats, SimTime) {
    let predictor = Session::builder().build_sim().predictor().clone();
    let mut engine = Engine::new(transport, predictor, StrategyKind::HeteroSplit.build())
        .expect("engine")
        .with_fault_tolerance(HealthConfig { max_retries: 8, ..HealthConfig::default() })
        .expect("health config");
    for _ in 0..MSGS {
        engine.post_send(256 * KIB).expect("post");
    }
    let (mut polls, mut done) = (0u64, 0usize);
    while done < MSGS {
        polls += 1;
        assert!(polls < 1_000_000, "the engine stopped making progress: {:?}", engine.stats());
        done += engine.poll().expect("poll").len();
    }
    (polls, engine.stats().clone(), engine.now())
}

/// What recovery did, by count: `(retries, probes, quarantines, failures)`.
fn recovery(stats: &EngineStats) -> (u64, u64, u64, u64) {
    (stats.retries, stats.probes_sent, stats.quarantines, stats.chunks_failed)
}

#[test]
fn an_outage_costs_polls_per_event_not_per_microsecond() {
    let (polls, stats, _) = ride_out(outage());
    assert_eq!(recovery(&stats), (32, 6, 2, 34), "{stats:?}");
    assert_eq!(stats.msgs_completed, MSGS as u64);
    assert!(polls <= 256, "{polls} polls to ride out one outage");
}

/// A transport without a timer facility: `schedule_wakeup` is dropped, no
/// `Wakeup` is ever raised, and the clock advances by itself — a poll that
/// finds nothing returns empty-handed one tick later.
struct NoTimers {
    inner: FaultSimDriver,
    next_tick: SimTime,
}

const TICK: SimDuration = SimDuration::from_micros(1);

impl Transport for NoTimers {
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
        self.inner.submit(chunk)
    }
    fn poll(&mut self) -> Vec<TransportEvent> {
        // The driver's own timer stands in for the free-running clock.
        if self.inner.now() >= self.next_tick {
            self.next_tick = self.inner.now() + TICK;
            self.inner.schedule_wakeup(self.next_tick);
        }
        let mut events = self.inner.poll();
        events.retain(|ev| !matches!(ev, TransportEvent::Wakeup { .. }));
        events
    }
    fn cancel_chunks(&mut self, chunks: &[ChunkId]) -> bool {
        self.inner.cancel_chunks(chunks)
    }
}

#[test]
fn a_transport_that_ignores_wakeups_recovers_the_same_way() {
    let (polls, stats, finished) = ride_out(outage());
    let (polls_untimed, stats_untimed, finished_untimed) =
        ride_out(NoTimers { inner: outage(), next_tick: SimTime::ZERO });
    assert_eq!(recovery(&stats_untimed), recovery(&stats), "{stats_untimed:?}");
    assert_eq!(stats_untimed.msgs_completed, MSGS as u64);
    assert_eq!(stats_untimed.rail_bytes, stats.rail_bytes, "the same bytes on the same rails");
    // Every deadline is noticed at most one tick late, and there are only a
    // handful of them on the critical path.
    let late = finished_untimed.saturating_since(finished);
    assert!(late <= TICK * 16, "finished {late:?} after the timer-driven engine");
    assert!(polls_untimed > polls, "{polls_untimed} vs {polls}: the clock ran by itself");
}
