//! Multi-thread stress for the replicated decision path.
//!
//! Two layers:
//!
//! 1. **Raw replica races** — N worker threads run full `HeteroSplit`
//!    decisions off their own [`DecisionReader`] while a churn thread
//!    races health transitions and epoch bumps through the op log. The
//!    invariant under test is the staleness contract: a decision is made
//!    against one *coherent* replica read, so the plan may never use a
//!    rail that read said was unselectable, and the plan-cache epoch in
//!    the `Ctx` always matches that same read (no stale-epoch plan).
//!
//! 2. **Engine publication** — a seeded chaos run (rail outage →
//!    quarantine → probe ladder → readmission) on an engine with shared
//!    state enabled: after the stream drains, a fresh replica must agree
//!    with the engine's own authoritative facts (epoch, per-rail health,
//!    stat counters).

use nm_core::driver::faulty::FaultSimDriver;
use nm_core::engine::Engine;
use nm_core::replicated::{CounterKind, EngineOp, SharedDecisionState};
use nm_core::strategy::{Action, Ctx, StrategyKind};
use nm_core::{HealthConfig, RailState};
use nm_faults::{FaultKind, FaultSchedule, FaultSpec};
use nm_model::units::MIB;
use nm_model::{SimDuration, SimTime};
use nm_sim::{ClusterSpec, CoreId, RailId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

const WORKERS: usize = 4;
const CHURN_ROUNDS: u64 = 3_000;
const CHURNED_RAIL: RailId = RailId(1);

/// Health churn with the engine's invariant baked in: the selectable set
/// never changes without an epoch bump riding in the same batch.
fn churn_batch(round: u64) -> Vec<EngineOp> {
    match round % 8 {
        0 => vec![
            EngineOp::Health { rail: CHURNED_RAIL.0 as u8, state: RailState::Quarantined },
            EngineOp::EpochBump,
            EngineOp::Counter { kind: CounterKind::Quarantines, delta: 1 },
        ],
        4 => vec![
            EngineOp::Health { rail: CHURNED_RAIL.0 as u8, state: RailState::Healthy },
            EngineOp::EpochBump,
            EngineOp::Counter { kind: CounterKind::Readmissions, delta: 1 },
        ],
        r => vec![EngineOp::Feedback { rail: (r % 2) as u8, ewma_ratio: 1.0 + r as f64 * 0.01 }],
    }
}

#[test]
fn racing_workers_never_use_an_unselectable_rail_or_a_stale_epoch() {
    let spec = ClusterSpec::paper_testbed();
    let predictor = Arc::new(nm_tests::sample_predictor(&spec));
    let shared = SharedDecisionState::new(2);
    let stop = Arc::new(AtomicBool::new(false));
    let decisions = Arc::new(AtomicU64::new(0));
    // The churn starts only once every worker is running, so it races them
    // instead of finishing before a worker was scheduled at all.
    let start = Arc::new(Barrier::new(WORKERS + 1));

    let workers: Vec<_> = (0..WORKERS)
        .map(|_| {
            let shared = shared.clone();
            let predictor = Arc::clone(&predictor);
            let stop = Arc::clone(&stop);
            let decisions = Arc::clone(&decisions);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                let mut reader = shared.reader();
                let mut strategy = StrategyKind::HeteroSplit.build();
                let queued = [4u64 << 20];
                let mut count = 0u64;
                while !stop.load(Ordering::Acquire) {
                    // One coherent read feeds the entire decision: the
                    // selectable mask, the waits, and the cache epoch all
                    // come from the same replica state.
                    let facts = reader.read();
                    let epoch = facts.epoch();
                    let churned_ok = facts.is_selectable(CHURNED_RAIL);
                    let mut waits = [0.0, 120.0];
                    facts.mask_unselectable(&mut waits);
                    let ctx = Ctx {
                        now: SimTime::ZERO,
                        predictor: &predictor,
                        rail_waits_us: &waits,
                        idle_cores: &[CoreId(1), CoreId(2), CoreId(3)],
                        core_count: 4,
                        queued_sizes: &queued,
                        predictor_epoch: epoch,
                    };
                    match strategy.decide(&ctx) {
                        Action::Split(chunks) => {
                            for c in chunks.iter() {
                                assert!(
                                    c.rail != CHURNED_RAIL || churned_ok,
                                    "plan used rail {:?} which the replica read \
                                     (epoch {epoch}) said was unselectable",
                                    c.rail
                                );
                            }
                        }
                        Action::Aggregate { rail, .. } => {
                            assert!(rail != CHURNED_RAIL || churned_ok);
                        }
                        _ => {}
                    }
                    count += 1;
                }
                decisions.fetch_add(count, Ordering::AcqRel);
            })
        })
        .collect();

    let mut feedback_published = 0u64;
    let mut quarantines = 0u64;
    let mut readmissions = 0u64;
    start.wait();
    for round in 0..CHURN_ROUNDS {
        let batch = churn_batch(round);
        for op in &batch {
            match op {
                EngineOp::Feedback { .. } => feedback_published += 1,
                EngineOp::Counter { kind: CounterKind::Quarantines, .. } => quarantines += 1,
                EngineOp::Counter { kind: CounterKind::Readmissions, .. } => readmissions += 1,
                _ => {}
            }
        }
        shared.publish_batch(&batch);
        if round % 16 == 0 {
            std::thread::yield_now();
        }
    }
    stop.store(true, Ordering::Release);
    for w in workers {
        w.join().expect("worker panicked (invariant violated)");
    }
    assert!(decisions.load(Ordering::Acquire) > 0, "workers made no decisions");

    // Conservation: a fresh replica that replays the full log agrees with
    // the master on every op-derived fact.
    let master = shared.snapshot();
    let mut reader = shared.reader();
    let replica = reader.read();
    assert_eq!(replica.epoch(), master.epoch());
    assert_eq!(replica.counter(CounterKind::Quarantines), quarantines);
    assert_eq!(replica.counter(CounterKind::Readmissions), readmissions);
    assert_eq!(replica.counter(CounterKind::FeedbackRecords), 0, "engine-only counter");
    let _ = feedback_published; // feedback ops overwrite, they don't count
    assert_eq!(replica.epoch(), quarantines + readmissions, "one bump per set change");
    for rail in 0..2u32 {
        assert_eq!(
            replica.rail_state(RailId(rail as usize)),
            master.rail_state(RailId(rail as usize))
        );
        assert!(
            (replica.ewma_ratio(RailId(rail as usize)) - master.ewma_ratio(RailId(rail as usize)))
                .abs()
                < f64::EPSILON
        );
    }
}

#[test]
fn engine_chaos_run_publishes_facts_replicas_agree_with() {
    let spec = ClusterSpec::paper_testbed();
    let predictor = nm_tests::sample_predictor(&spec);
    let schedule = FaultSchedule::new(42).with(FaultSpec {
        rail: RailId(0),
        at: SimTime::from_micros(2_000),
        kind: FaultKind::RailDown { duration: SimDuration::from_micros(10_000) },
    });
    let cfg = HealthConfig {
        max_probe_backoff: SimDuration::from_micros(2_000),
        ..HealthConfig::default()
    };
    let mut engine = Engine::new(
        FaultSimDriver::new(spec, schedule),
        predictor,
        StrategyKind::HeteroSplit.build(),
    )
    .expect("engine")
    .with_fault_tolerance(cfg)
    .expect("health config")
    .with_shared_state();

    for _ in 0..40 {
        let id = engine.post_send(MIB).expect("post");
        engine.wait(id).expect("message survives the outage");
    }

    let stats = engine.stats().clone();
    assert!(stats.quarantines >= 1, "outage must quarantine the rail");
    assert!(stats.readmissions >= 1, "probe ladder must readmit it");

    // A replica spun up after the fact replays the whole run's ops and
    // must land exactly on the engine's authoritative view.
    let shared = engine.shared_state().expect("enabled").clone();
    let mut reader = shared.reader();
    let facts = reader.read();
    assert_eq!(facts.epoch(), engine.predictor_epoch(), "replica epoch tracks plan cache");
    let health = engine.health().expect("enabled");
    for rail in [RailId(0), RailId(1)] {
        assert_eq!(facts.rail_state(rail), health.state(rail), "rail {rail:?} health");
        assert_eq!(facts.is_selectable(rail), health.is_selectable(rail));
    }
    assert_eq!(facts.counter(CounterKind::Quarantines), stats.quarantines);
    assert_eq!(facts.counter(CounterKind::Readmissions), stats.readmissions);
    assert_eq!(facts.counter(CounterKind::ProbesSent), stats.probes_sent);
    assert!(facts.counter(CounterKind::FeedbackRecords) > 0, "deliveries feed the EWMA");
}
