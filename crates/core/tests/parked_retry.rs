//! Regression: a retry parked while no rail is selectable must leave at the
//! instant *any* rail is re-admitted, not at the next probe instant of
//! whichever rail is still quarantined.
//!
//! Sequence under test: both rails go down under a split message, so both
//! chunks fail and park. Rail 0 comes back first and passes its second probe
//! ladder while rail 1, still down, fails its second probe and is left
//! quarantined with a doubled backoff two milliseconds out. Before the fix
//! the parked chunks computed their wake-up from the *quarantined* rails
//! only — rail 0, probing, had no probe instant to offer — and slept until
//! rail 1's next probe + 1 µs, straight through rail 0's re-admission.

use nm_core::driver::faulty::FaultSimDriver;
use nm_core::engine::Engine;
use nm_core::strategy::StrategyKind;
use nm_core::{HealthConfig, RailState, Session};
use nm_faults::{FaultKind, FaultSchedule, FaultSpec};
use nm_model::units::KIB;
use nm_model::{SimDuration, SimTime};
use nm_sim::RailId;

const BACK_FIRST: RailId = RailId(0);
const STILL_DOWN: RailId = RailId(1);

#[test]
fn a_parked_retry_leaves_when_the_first_rail_is_readmitted() {
    let down = |rail: RailId, for_us: u64| FaultSpec {
        rail,
        at: SimTime::from_micros(50),
        kind: FaultKind::RailDown { duration: SimDuration::from_micros(for_us) },
    };
    // Probes go out at 550 µs (both fail) and 1550 µs: by then rail 0 is
    // back, rail 1 is not, and its third probe is due at 3550 µs.
    let schedule =
        FaultSchedule::new(1).with(down(BACK_FIRST, 1_400)).with(down(STILL_DOWN, 9_000));
    let predictor = Session::builder().build_sim().predictor().clone();
    let mut engine = Engine::new(
        FaultSimDriver::paper_testbed(schedule),
        predictor,
        StrategyKind::HeteroSplit.build(),
    )
    .expect("engine")
    .with_fault_tolerance(HealthConfig { max_retries: 8, ..HealthConfig::default() })
    .expect("health config");

    let id = engine.post_send(256 * KIB).expect("post");
    while engine.stats().readmissions == 0 {
        assert!(engine.poll().expect("poll").is_empty(), "nothing can complete during the outage");
    }
    let readmitted_at = engine.now();
    let health = engine.health().expect("fault tolerance is on");
    assert_eq!(health.state(BACK_FIRST), RailState::Healthy);
    assert_eq!(health.state(STILL_DOWN), RailState::Quarantined);
    let next_probe = health.next_probe_at(STILL_DOWN);
    assert!(
        next_probe > readmitted_at + SimDuration::from_millis(1),
        "the quarantined rail's next probe is far off: {next_probe:?} vs {readmitted_at:?}"
    );

    // Two chunks and three probes failed; the chunks found no rail when their backoff
    // elapsed; the poll that re-admitted rail 0 put both back on the wire.
    let stats = engine.stats();
    assert_eq!((stats.chunks_failed, stats.retries), (5, 2), "{stats:?}");
    let done = engine.wait(id).expect("the survivor carries the message");
    assert!(
        done.delivered_at < next_probe,
        "the retry slept through the re-admission: delivered {:?}, re-admitted {readmitted_at:?}",
        done.delivered_at
    );
    assert!(done.chunks.iter().all(|&(rail, _)| rail == BACK_FIRST), "{:?}", done.chunks);
}
