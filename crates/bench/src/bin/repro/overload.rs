//! Overload harness: goodput, shedding and completion tails under offered
//! load sweeps with a corruption storm in the background.
//!
//! Each load level posts a burst of messages through `try_post_send` into
//! an admission-controlled aggregation engine over the chaos driver, with
//! both rails under seeded corruption/duplication faults. Reported per
//! level: accepted vs rejected posts (backpressure at the pending caps),
//! messages shed past their deadline, goodput of what completed, the p99
//! completion time, and the integrity/degradation counters. A message whose
//! chunk spends every retry fails; the `failed` column appears only at a
//! seed where one does. Every level must account for each post:
//! offered = accepted + rejected, accepted = completed + shed + failed.
//!
//! Results go to stdout and to `BENCH_overload.json`.

use crate::doc::{floats, json};
use crate::{chaos_paper_engine_kind, Args, Output};
use nm_core::strategy::StrategyKind;
use nm_core::{AdmissionConfig, EngineError, HealthConfig};
use nm_faults::{FaultKind, FaultSchedule, FaultSpec};
use nm_model::units::{KIB, MIB};
use nm_model::{SimDuration, SimTime};
use nm_sim::RailId;

const MSG_BYTES: u64 = 32 * KIB;
const OFFERED: [usize; 4] = [32, 96, 192, 384];
const DEADLINE_US: u64 = 1_500;
const STORM_US: u64 = 1_000_000;
/// Bursts per run; the offered level divides into bursts this many times.
const BURSTS: usize = 8;
/// Virtual time between bursts — the offered-load clock.
const BURST_GAP_US: u64 = 600;

fn storm_schedule(seed: u64) -> FaultSchedule {
    let window = SimDuration::from_micros(STORM_US);
    let at = SimTime::from_micros(1);
    FaultSchedule::new(seed)
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
        // A short dual-rail blackout mid-run: arriving bursts must queue,
        // age past their deadline and shed instead of growing memory.
        .with(FaultSpec {
            rail: RailId(0),
            at: SimTime::from_micros(1_200),
            kind: FaultKind::RailDown { duration: SimDuration::from_micros(2_400) },
        })
        .with(FaultSpec {
            rail: RailId(1),
            at: SimTime::from_micros(1_200),
            kind: FaultKind::RailDown { duration: SimDuration::from_micros(2_400) },
        })
}

fn admission_config() -> AdmissionConfig {
    AdmissionConfig {
        max_pending_msgs: 128,
        max_pending_bytes: 16 * MIB,
        default_deadline: Some(SimDuration::from_micros(DEADLINE_US)),
        degrade_enter_backlog: 32,
        degrade_exit_backlog: 8,
    }
}

struct Row {
    offered: usize,
    accepted: u64,
    rejected: u64,
    shed: u64,
    completed: u64,
    failed: u64,
    goodput_mibps: f64,
    p99_completion_us: f64,
    corrupt_chunks: u64,
    retries: u64,
    degrade_transitions: u64,
}

fn run_level(offered: usize, seed: u64) -> Row {
    let mut engine = chaos_paper_engine_kind(
        StrategyKind::Aggregation,
        storm_schedule(seed),
        HealthConfig::default(),
    )
    .with_admission_control(admission_config())
    .expect("admission config");
    let mut ids = Vec::new();
    let mut rejected = 0u64;
    let burst = offered.div_ceil(BURSTS);
    let mut posted = 0usize;
    while posted < offered {
        for _ in 0..burst.min(offered - posted) {
            match engine.try_post_send(MSG_BYTES) {
                Ok(id) => ids.push(id),
                Err(EngineError::Backpressure(_)) => rejected += 1,
                Err(e) => panic!("unexpected post error: {e}"),
            }
            posted += 1;
        }
        // Advance virtual time to the next burst instant. The engine's own
        // timers need not reach it (an idle engine has none), so it is told.
        let due = engine.now() + SimDuration::from_micros(BURST_GAP_US);
        let _ = engine.advance_to(due).expect("poll");
        assert!(engine.now() >= due, "the next burst would leave before its due instant");
    }
    let accepted = ids.len() as u64;
    let mut completions = Vec::new();
    let mut failed = 0u64;
    for id in ids {
        match engine.wait(id) {
            Ok(c) => completions.push(c),
            Err(EngineError::Shed(_)) => {} // counted in stats.msgs_shed
            Err(EngineError::Failed(_)) => failed += 1,
            Err(e) => panic!("unexpected wait error: {e}"),
        }
    }
    let total_us = engine.now().as_micros_f64();
    let stats = engine.stats();
    let mut durations: Vec<f64> = completions.iter().map(|c| c.duration.as_micros_f64()).collect();
    durations.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let p99 = if durations.is_empty() {
        0.0
    } else {
        durations[((durations.len() as f64 * 0.99).ceil() as usize).clamp(1, durations.len()) - 1]
    };
    let completed_bytes: u64 = completions.iter().map(|c| c.size).sum();
    let goodput_mibps = if total_us > 0.0 {
        completed_bytes as f64 / (1024.0 * 1024.0) / (total_us / 1e6)
    } else {
        0.0
    };
    let (shed, completed) = (stats.msgs_shed, completions.len() as u64);
    assert_eq!(offered as u64, accepted + rejected, "offered level {offered}: a post went missing");
    assert_eq!(
        accepted,
        completed + shed + failed,
        "offered level {offered}: an accepted message has no verdict"
    );
    Row {
        offered,
        accepted,
        rejected,
        shed,
        completed,
        failed,
        goodput_mibps,
        p99_completion_us: p99,
        corrupt_chunks: stats.corrupt_chunks,
        retries: stats.retries,
        degrade_transitions: stats.degrade_transitions,
    }
}

pub fn run(&Args { seed, .. }: &Args) -> Output {
    let rows: Vec<Row> = OFFERED.iter().map(|&n| run_level(n, seed)).collect();

    let mut out = String::new();
    outln!(out, "# overload: {MSG_BYTES}-byte bursts under a corruption storm (seed {seed})");
    outln!(
        out,
        "# caps: {} msgs / {} bytes pending, deadline {DEADLINE_US} us",
        admission_config().max_pending_msgs,
        admission_config().max_pending_bytes
    );
    outln!(
        out,
        "{:>8} {:>9} {:>9} {:>6} {:>10} {:>14} {:>10} {:>9} {:>8} {:>8}",
        "offered",
        "accepted",
        "rejected",
        "shed",
        "completed",
        "goodput MiB/s",
        "p99 us",
        "corrupt",
        "retries",
        "degrade"
    );
    for r in &rows {
        outln!(
            out,
            "{:>8} {:>9} {:>9} {:>6} {:>10} {:>14.1} {:>10.1} {:>9} {:>8} {:>8}",
            r.offered,
            r.accepted,
            r.rejected,
            r.shed,
            r.completed,
            r.goodput_mibps,
            r.p99_completion_us,
            r.corrupt_chunks,
            r.retries,
            r.degrade_transitions
        );
    }

    let column = |f: fn(&Row) -> u64| rows.iter().map(f).collect::<Vec<_>>();
    let any_failed = rows.iter().any(|r| r.failed > 0);
    if any_failed {
        outln!(out, "# failed (a chunk spent its retries): {:?}", column(|r| r.failed));
    }
    let mut doc = json! {
        "bench": "overload", "seed": seed, "msg_bytes": MSG_BYTES, "deadline_us": DEADLINE_US,
        "offered_msgs": OFFERED.to_vec(), "accepted": column(|r| r.accepted),
        "rejected": column(|r| r.rejected), "shed": column(|r| r.shed),
        "completed": column(|r| r.completed),
        "goodput_mibps": floats(rows.iter().map(|r| r.goodput_mibps), 1),
        "p99_completion_us": floats(rows.iter().map(|r| r.p99_completion_us), 1),
        "corrupt_chunks": column(|r| r.corrupt_chunks), "retries": column(|r| r.retries),
        "degrade_transitions": column(|r| r.degrade_transitions),
    };
    if any_failed {
        let at = doc.0.iter().position(|(k, _)| *k == "completed").map_or(doc.0.len(), |i| i + 1);
        doc.0.insert(at, ("failed", column(|r| r.failed).into()));
    }
    Output { text: out, bench: Some(("BENCH_overload.json", doc)) }
}
