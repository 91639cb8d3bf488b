//! Overload harness: goodput, shedding and completion tails under offered
//! load sweeps with a corruption storm in the background.
//!
//! Each load level posts a burst of messages through `try_post_send` into
//! an admission-controlled aggregation engine over the chaos driver, with
//! both rails under seeded corruption/duplication faults. Reported per
//! level: accepted vs rejected posts (backpressure at the pending caps),
//! messages shed past their deadline, goodput of what completed, the p99
//! completion time, and the integrity/degradation counters.
//!
//! Results go to stdout and to `BENCH_overload.json` in the working
//! directory (machine-readable; CI pins the key schema).
//!
//! Usage: `overload [--seed N]` (default seed 42).

use nm_bench::chaos_paper_engine_kind;
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
    for id in ids {
        match engine.wait(id) {
            Ok(c) => completions.push(c),
            Err(EngineError::Shed(_)) => {} // counted in stats.msgs_shed
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
    Row {
        offered,
        accepted,
        rejected,
        shed: stats.msgs_shed,
        completed: completions.len() as u64,
        goodput_mibps,
        p99_completion_us: p99,
        corrupt_chunks: stats.corrupt_chunks,
        retries: stats.retries,
        degrade_transitions: stats.degrade_transitions,
    }
}

fn json_list<T: std::fmt::Display>(rows: &[Row], f: impl Fn(&Row) -> T) -> String {
    rows.iter().map(|r| f(r).to_string()).collect::<Vec<_>>().join(", ")
}

fn main() {
    let mut seed = 42u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed =
                    args.next().and_then(|v| v.parse().ok()).expect("--seed requires an integer");
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let rows: Vec<Row> = OFFERED.iter().map(|&n| run_level(n, seed)).collect();

    println!("# overload: {MSG_BYTES}-byte bursts under a corruption storm (seed {seed})");
    println!(
        "# caps: {} msgs / {} bytes pending, deadline {DEADLINE_US} us",
        admission_config().max_pending_msgs,
        admission_config().max_pending_bytes
    );
    println!(
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
        println!(
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

    let json = format!(
        "{{\n  \"bench\": \"overload\",\n  \"seed\": {seed},\n  \"msg_bytes\": {MSG_BYTES},\n  \"deadline_us\": {DEADLINE_US},\n  \"offered_msgs\": [{}],\n  \"accepted\": [{}],\n  \"rejected\": [{}],\n  \"shed\": [{}],\n  \"completed\": [{}],\n  \"goodput_mibps\": [{}],\n  \"p99_completion_us\": [{}],\n  \"corrupt_chunks\": [{}],\n  \"retries\": [{}],\n  \"degrade_transitions\": [{}]\n}}\n",
        json_list(&rows, |r| r.offered),
        json_list(&rows, |r| r.accepted),
        json_list(&rows, |r| r.rejected),
        json_list(&rows, |r| r.shed),
        json_list(&rows, |r| r.completed),
        json_list(&rows, |r| format!("{:.1}", r.goodput_mibps)),
        json_list(&rows, |r| format!("{:.1}", r.p99_completion_us)),
        json_list(&rows, |r| r.corrupt_chunks),
        json_list(&rows, |r| r.retries),
        json_list(&rows, |r| r.degrade_transitions),
    );
    match std::fs::write("BENCH_overload.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_overload.json"),
        Err(e) => eprintln!("could not write BENCH_overload.json: {e}"),
    }
}
