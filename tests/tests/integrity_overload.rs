//! End-to-end integrity and overload protection, driven entirely through
//! the public [`Engine`] API over the two-rail paper testbed.
//!
//! * A deterministic corruption storm (payload + header corruption,
//!   duplication, a reorder window) over both rails: every message must
//!   still complete, detected corruption must be retried, and the whole
//!   run must replay bit-identically.
//! * Admission control: `try_post_send` rejects at the pending caps with a
//!   typed backpressure reason, deadline-aware shedding removes exactly
//!   the queued messages that aged out, and `cancel` racing a shed of the
//!   same message yields exactly one terminal outcome.
//! * Hysteresis-guarded degradation: a deep backlog flips the engine to
//!   the static-ratio fallback and it recovers once drained.

use nm_core::driver::faulty::FaultSimDriver;
use nm_core::driver::sim::SimDriver;
use nm_core::engine::{Engine, EngineStats, MsgId};
use nm_core::strategy::StrategyKind;
use nm_core::{AdmissionConfig, Backpressure, EngineError, HealthConfig};
use nm_faults::{FaultKind, FaultSchedule, FaultSpec};
use nm_model::units::{KIB, MIB};
use nm_model::{SimDuration, SimTime};
use nm_sim::{ClusterSpec, RailId};

const MSGS: usize = 30;
const MSG_BYTES: u64 = 256 * KIB;

/// All four corruption-class faults across both rails, plus a reorder
/// window on the slower rail.
fn storm_schedule() -> FaultSchedule {
    let long = SimDuration::from_micros(1_000_000);
    FaultSchedule::new(7)
        .with(FaultSpec {
            rail: RailId(0),
            at: SimTime::from_micros(1),
            kind: FaultKind::PayloadCorrupt { prob: 0.10, duration: long },
        })
        .with(FaultSpec {
            rail: RailId(1),
            at: SimTime::from_micros(1),
            kind: FaultKind::HeaderCorrupt { prob: 0.05, duration: long },
        })
        .with(FaultSpec {
            rail: RailId(0),
            at: SimTime::from_micros(1),
            kind: FaultKind::DuplicateChunk { prob: 0.10, duration: long },
        })
        .with(FaultSpec {
            rail: RailId(1),
            at: SimTime::from_micros(2_000),
            kind: FaultKind::ChunkReorderStorm { duration: SimDuration::from_micros(1_500) },
        })
}

fn chaos_engine(schedule: FaultSchedule) -> Engine<FaultSimDriver> {
    let spec = ClusterSpec::paper_testbed();
    let predictor = nm_tests::sample_predictor(&spec);
    Engine::new(FaultSimDriver::new(spec, schedule), predictor, StrategyKind::HeteroSplit.build())
        .expect("engine")
        .with_fault_tolerance(HealthConfig::default())
        .expect("health config")
}

/// Runs the storm stream once; returns per-message completion instants and
/// the final stats.
fn run_storm() -> (Vec<f64>, EngineStats) {
    let mut engine = chaos_engine(storm_schedule());
    let mut completions = Vec::with_capacity(MSGS);
    for _ in 0..MSGS {
        let id = engine.post_send(MSG_BYTES).expect("post");
        let done = engine.wait(id).expect("every message must survive the storm");
        assert_eq!(done.size, MSG_BYTES);
        completions.push(done.delivered_at.as_micros_f64());
    }
    (completions, engine.stats().clone())
}

#[test]
fn corruption_storm_completes_every_message_and_counts_faults() {
    let (times, stats) = run_storm();
    assert_eq!(stats.msgs_completed, MSGS as u64);
    assert_eq!(stats.bytes_completed, MSGS as u64 * MSG_BYTES);
    assert!(stats.corrupt_chunks > 0, "storm must corrupt something: {stats:?}");
    assert!(stats.duplicate_chunks_dropped > 0, "duplicates must be recognized: {stats:?}");
    assert!(stats.retries >= stats.corrupt_chunks, "every corrupt chunk is retried: {stats:?}");
    // Detected corruption charges the rail's health, like any loss.
    assert!(stats.rail_failures.iter().sum::<u64>() > 0);
    assert!(times.windows(2).all(|w| w[0] <= w[1]), "completions move forward in time");
}

#[test]
fn corruption_storm_replays_bit_identically() {
    assert_eq!(run_storm(), run_storm(), "same schedule, same seed => same run");
}

#[test]
fn empty_schedule_keeps_integrity_counters_at_zero() {
    let mut engine = chaos_engine(FaultSchedule::empty());
    for _ in 0..5 {
        let id = engine.post_send(MSG_BYTES).expect("post");
        engine.wait(id).expect("wait");
    }
    let s = engine.stats();
    assert_eq!(
        (s.corrupt_chunks, s.duplicate_chunks_dropped, s.retries, s.chunks_failed),
        (0, 0, 0, 0),
        "an empty schedule must be inert: {s:?}"
    );
}

fn sim_engine_with(cfg: AdmissionConfig) -> Engine<SimDriver> {
    let spec = ClusterSpec::paper_testbed();
    let predictor = nm_tests::sample_predictor(&spec);
    Engine::new(SimDriver::new(spec), predictor, StrategyKind::HeteroSplit.build())
        .expect("engine")
        .with_admission_control(cfg)
        .expect("admission config")
}

#[test]
fn try_post_send_rejects_at_the_message_cap() {
    let mut engine =
        sim_engine_with(AdmissionConfig { max_pending_msgs: 4, ..AdmissionConfig::default() });
    let ids: Vec<MsgId> =
        (0..4).map(|_| engine.try_post_send(MSG_BYTES).expect("under cap")).collect();
    match engine.try_post_send(MSG_BYTES) {
        Err(EngineError::Backpressure(Backpressure::MsgCap { pending, cap })) => {
            assert_eq!((pending, cap), (4, 4));
        }
        other => panic!("expected MsgCap backpressure, got {other:?}"),
    }
    assert_eq!(engine.stats().backpressure_rejections, 1);
    for id in ids {
        engine.wait(id).expect("accepted messages complete");
    }
    // Completion releases the budget: the cap opens again.
    engine.try_post_send(MSG_BYTES).expect("cap released after drain");
    assert_eq!(engine.admission_pending(), Some((1, MSG_BYTES)));
}

#[test]
fn try_post_send_rejects_at_the_byte_cap() {
    let mut engine =
        sim_engine_with(AdmissionConfig { max_pending_bytes: MIB, ..AdmissionConfig::default() });
    let id = engine.try_post_send(800 * KIB).expect("under cap");
    match engine.try_post_send(512 * KIB) {
        Err(EngineError::Backpressure(Backpressure::ByteCap { pending, requested, cap })) => {
            assert_eq!((pending, requested, cap), (800 * KIB, 512 * KIB, MIB));
        }
        other => panic!("expected ByteCap backpressure, got {other:?}"),
    }
    engine.wait(id).expect("wait");
    engine.try_post_send(512 * KIB).expect("bytes released");
}

/// Blacks out both rails so queued messages cannot be scheduled, which is
/// the only way a deadline can expire while a message is still queued.
fn blackout_schedule(duration_us: u64) -> FaultSchedule {
    let down = |rail| FaultSpec {
        rail,
        at: SimTime::from_micros(10),
        kind: FaultKind::RailDown { duration: SimDuration::from_micros(duration_us) },
    };
    FaultSchedule::new(11).with(down(RailId(0))).with(down(RailId(1)))
}

fn blackout_engine(duration_us: u64, cfg: AdmissionConfig) -> Engine<FaultSimDriver> {
    let spec = ClusterSpec::paper_testbed();
    let predictor = nm_tests::sample_predictor(&spec);
    let health = HealthConfig {
        quarantine_after: 1,
        max_probe_backoff: SimDuration::from_micros(2_000),
        ..HealthConfig::default()
    };
    Engine::new(
        FaultSimDriver::new(spec, blackout_schedule(duration_us)),
        predictor,
        StrategyKind::HeteroSplit.build(),
    )
    .expect("engine")
    .with_fault_tolerance(health)
    .expect("health config")
    .with_admission_control(cfg)
    .expect("admission config")
}

/// Polls until virtual time reaches `until_us`. Bounded, because a poll
/// that only processes same-instant events does not advance the clock.
fn advance_to<T: nm_core::Transport>(engine: &mut Engine<T>, until_us: u64) {
    for _ in 0..10_000 {
        if engine.now() >= SimTime::from_micros(until_us) {
            return;
        }
        let _ = engine.poll().expect("poll");
    }
    panic!("simulation made no progress toward {until_us} us");
}

#[test]
fn deadline_shedding_removes_exactly_the_expired_queued_messages() {
    let mut engine = blackout_engine(5_000, AdmissionConfig::default());
    // A first message draws the rails into quarantine (its chunks fail at
    // the blackout), so everything after it stays queued.
    let pioneer = engine.post_send(MSG_BYTES).expect("post");
    advance_to(&mut engine, 500);
    let with_deadline: Vec<MsgId> = (0..3)
        .map(|_| {
            engine
                .post_send_with_deadline(MSG_BYTES, SimDuration::from_micros(1_500))
                .expect("post")
        })
        .collect();
    let unbounded = engine.post_send(MSG_BYTES).expect("post");
    // Run past every deadline (posted ~500 us + 1500 us), still inside the
    // blackout: the shed pass must fire while the messages are queued.
    advance_to(&mut engine, 3_000);
    assert_eq!(engine.stats().msgs_shed, 3, "exactly the deadline posts shed");
    for id in &with_deadline {
        match engine.wait(*id) {
            Err(EngineError::Shed(got)) => assert_eq!(got, id.0),
            other => panic!("expected Shed for {id:?}, got {other:?}"),
        }
    }
    // The survivors complete once the blackout lifts and probes readmit.
    let done = engine.drain().expect("drain skips shed messages");
    let done_ids: Vec<MsgId> = done.iter().map(|c| c.id).collect();
    assert!(done_ids.contains(&pioneer), "pre-blackout message survives");
    assert!(done_ids.contains(&unbounded), "deadline-less message survives");
    assert_eq!(done.len(), 2);
}

/// A caller that only polls never `wait`s for a shed id; `drain` claims
/// everything, so it must forget those verdicts too.
#[test]
fn drain_forgets_shed_verdicts_nobody_asked_for() {
    let mut engine = blackout_engine(5_000, AdmissionConfig::default());
    let _pioneer = engine.post_send(MSG_BYTES).expect("post");
    advance_to(&mut engine, 500);
    let doomed: Vec<MsgId> = (0..3)
        .map(|_| {
            engine
                .post_send_with_deadline(MSG_BYTES, SimDuration::from_micros(1_500))
                .expect("post")
        })
        .collect();
    advance_to(&mut engine, 3_000);
    assert_eq!(engine.stats().msgs_shed, 3, "exactly the deadline posts shed");
    assert_eq!(engine.msg_census().shed, 3);
    let done = engine.drain().expect("drain skips shed messages");
    assert_eq!(done.len(), 1, "only the pioneer completes");
    assert_eq!(engine.admission_pending(), Some((0, 0)));
    assert_eq!(engine.msg_census(), Default::default(), "drain leaves no record behind");
    for id in doomed {
        assert!(
            matches!(engine.wait(id), Err(EngineError::UnknownMessage(_))),
            "{id:?} is still remembered after drain"
        );
    }
}

#[test]
fn deadlines_require_admission_control() {
    let spec = ClusterSpec::paper_testbed();
    let predictor = nm_tests::sample_predictor(&spec);
    let mut engine =
        Engine::new(SimDriver::new(spec), predictor, StrategyKind::HeteroSplit.build())
            .expect("engine");
    assert!(matches!(
        engine.post_send_with_deadline(MSG_BYTES, SimDuration::from_micros(100)),
        Err(EngineError::Config(_))
    ));
}

#[test]
fn cancel_beats_the_shed_pass_with_one_terminal_outcome() {
    let mut engine = blackout_engine(5_000, AdmissionConfig::default());
    let pioneer = engine.post_send(MSG_BYTES).expect("post");
    advance_to(&mut engine, 500);
    let doomed =
        engine.post_send_with_deadline(MSG_BYTES, SimDuration::from_micros(1_500)).expect("post");
    // Cancel while still queued, before any poll lets the deadline pass.
    assert!(engine.cancel(doomed).expect("cancel"), "queued messages are removable");
    let _ = engine.drain().expect("drain");
    let s = engine.stats();
    assert_eq!((s.cancelled, s.msgs_shed), (1, 0), "cancel won: no shed outcome");
    assert!(matches!(engine.wait(doomed), Err(EngineError::UnknownMessage(_))));
    engine.wait(pioneer).expect_err("already claimed by drain");
}

#[test]
fn shed_beats_cancel_with_one_terminal_outcome() {
    let mut engine = blackout_engine(5_000, AdmissionConfig::default());
    let _pioneer = engine.post_send(MSG_BYTES).expect("post");
    advance_to(&mut engine, 500);
    let doomed =
        engine.post_send_with_deadline(MSG_BYTES, SimDuration::from_micros(1_500)).expect("post");
    advance_to(&mut engine, 4_000); // the shed pass fires first
    assert!(!engine.cancel(doomed).expect("cancel"), "already shed: nothing to cancel");
    let s = engine.stats();
    assert_eq!((s.msgs_shed, s.cancelled), (1, 0), "shed won: no cancel outcome");
    assert!(matches!(engine.wait(doomed), Err(EngineError::Shed(_))));
}

#[test]
fn deep_backlog_degrades_to_ratio_split_and_recovers() {
    let mut engine = sim_engine_with(AdmissionConfig {
        degrade_enter_backlog: 4,
        degrade_exit_backlog: 1,
        ..AdmissionConfig::default()
    });
    // Batch-post so the strategy sees the whole backlog at once.
    let ids = engine.post_send_batch(&[MSG_BYTES; 10]).expect("batch");
    // Backlogs seen per kick iteration: 10, 9, ..., 1. Degradation latches
    // at 10 (>= 4) and recovers at 1 (<= 1): one flip each way, and every
    // decision in between comes from the fallback.
    let s = engine.stats();
    assert_eq!(s.degrade_transitions, 2, "{s:?}");
    assert_eq!(s.degraded_decisions, 9, "{s:?}");
    assert!(!engine.is_degraded(), "recovered after the backlog drained");
    for id in ids {
        engine.wait(id).expect("degraded decisions still deliver");
    }
    assert_eq!(engine.stats().msgs_completed, 10);
}

/// `repro overload`'s storm at seed 35: corruption and duplication over
/// both rails with a 2.4 ms dual-rail blackout from 1.2 ms.
fn overload_storm_seed_35() -> FaultSchedule {
    let window = SimDuration::from_micros(1_000_000);
    let at = SimTime::from_micros(1);
    let blackout = |rail| FaultSpec {
        rail,
        at: SimTime::from_micros(1_200),
        kind: FaultKind::RailDown { duration: SimDuration::from_micros(2_400) },
    };
    FaultSchedule::new(35)
        .with(FaultSpec {
            rail: RailId(0),
            at,
            kind: FaultKind::PayloadCorrupt { prob: 0.06, duration: window },
        })
        .with(FaultSpec {
            rail: RailId(1),
            at,
            kind: FaultKind::HeaderCorrupt { prob: 0.03, duration: window },
        })
        .with(FaultSpec {
            rail: RailId(0),
            at,
            kind: FaultKind::DuplicateChunk { prob: 0.04, duration: window },
        })
        .with(blackout(RailId(0)))
        .with(blackout(RailId(1)))
}

/// `repro overload --seed 35` at offered level 96: eight bursts of 12
/// 32 KiB posts, 600 µs apart, into an admission-controlled aggregation
/// engine, polled until every message has a verdict. One chunk spends its
/// retries after the blackout; its message used to keep its flow slot, so
/// every later message stayed held and `wait` spun forever.
fn settled_seed_35_storm() -> (Engine<FaultSimDriver>, Vec<MsgId>) {
    let spec = ClusterSpec::paper_testbed();
    let predictor = nm_tests::sample_predictor(&spec);
    let strategy = StrategyKind::Aggregation.build();
    let mut engine =
        Engine::new(FaultSimDriver::new(spec, overload_storm_seed_35()), predictor, strategy)
            .expect("engine")
            .with_fault_tolerance(HealthConfig::default())
            .expect("health")
            .with_admission_control(AdmissionConfig {
                max_pending_msgs: 128,
                max_pending_bytes: 16 * MIB,
                default_deadline: Some(SimDuration::from_micros(1_500)),
                degrade_enter_backlog: 32,
                degrade_exit_backlog: 8,
            })
            .expect("admission");
    let mut ids = Vec::new();
    for _ in 0..8 {
        for _ in 0..12 {
            ids.push(engine.try_post_send(32 * KIB).expect("under the caps"));
        }
        let due = engine.now() + SimDuration::from_micros(600);
        let _ = engine.advance_to(due).expect("advance");
    }
    // Every message reaches a verdict in bounded virtual time.
    let bound = SimTime::from_micros(20_000);
    loop {
        let c = engine.msg_census();
        if c.queued + c.inflight + c.held == 0 {
            break;
        }
        assert!(engine.now() < bound, "unsettled at {:?}: {c:?}", engine.now());
        let _ = engine.poll().expect("retry exhaustion is a verdict, not a poll error");
    }
    assert_eq!(engine.msg_census().failed, 1);
    assert_eq!(engine.admission_pending(), Some((0, 0)), "the failed message left its budget");
    (engine, ids)
}

#[test]
fn a_message_whose_retries_run_out_fails_once_and_frees_its_flow() {
    let (mut engine, ids) = settled_seed_35_storm();
    let (mut completed, mut shed, mut failed) = (0, 0, 0);
    for &id in &ids {
        match engine.wait(id) {
            Ok(_) => completed += 1,
            Err(EngineError::Shed(_)) => shed += 1,
            Err(EngineError::Failed(_)) => failed += 1,
            Err(e) => panic!("message {id:?}: {e}"),
        }
        assert!(matches!(engine.wait(id), Err(EngineError::UnknownMessage(_))), "reported once");
    }
    assert_eq!(failed, 1, "completed {completed}, shed {shed}");
    assert_eq!(completed + shed + failed, ids.len());
    assert_eq!(engine.msg_census(), Default::default());
}

#[test]
fn abandon_claims_a_failed_message_for_reposting() {
    let (mut engine, ids) = settled_seed_35_storm();
    let claimed: Vec<MsgId> =
        ids.iter().copied().filter(|&id| engine.abandon(id).expect("abandon")).collect();
    assert_eq!(claimed.len(), 1, "only the failed message: the rest completed or were shed");
    assert!(matches!(engine.wait(claimed[0]), Err(EngineError::UnknownMessage(_))));
    assert_eq!(engine.msg_census().failed, 0);
    assert_eq!(engine.stats().msgs_abandoned, 0, "a failed message is not torn out");
}
