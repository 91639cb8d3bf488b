//! Resilience harness: completion-time inflation under a seeded rail outage.
//!
//! Replays the same 40 x 1 MiB hetero-split stream twice over the chaos
//! driver — once with an empty fault schedule (bit-identical to the plain
//! simulator, see `fig8_chaos`) and once with the fastest rail
//! going hard-down mid-stream. Reports how much the outage inflates total
//! completion time, the mean failover latency (first failure of a chunk to
//! its eventual delivery), and the retransmission overhead.
//!
//! Results go to stdout and to `BENCH_resilience.json`.

use crate::doc::{float, json};
use crate::{chaos_paper_engine_kind, Args, Output};
use nm_bench::one_way_us_in;
use nm_core::engine::EngineStats;
use nm_core::strategy::StrategyKind;
use nm_core::transport::Transport;
use nm_core::HealthConfig;
use nm_faults::{FaultKind, FaultSchedule, FaultSpec};
use nm_model::units::MIB;
use nm_model::{SimDuration, SimTime};
use nm_sim::RailId;

const MSGS: usize = 40;
const MSG_BYTES: u64 = MIB;
const DOWN_RAIL: RailId = RailId(0); // myri-10g, the faster rail

fn outage_schedule(seed: u64) -> FaultSchedule {
    FaultSchedule::new(seed).with(FaultSpec {
        rail: DOWN_RAIL,
        at: SimTime::from_micros(2_000),
        kind: FaultKind::RailDown { duration: SimDuration::from_micros(10_000) },
    })
}

fn health_config() -> HealthConfig {
    HealthConfig {
        // Brisk probing so re-admission lands inside the 40-message stream.
        max_probe_backoff: SimDuration::from_micros(2_000),
        ..HealthConfig::default()
    }
}

/// Runs the stream and returns (total completion µs, final stats).
fn run_stream(schedule: FaultSchedule) -> (f64, EngineStats) {
    let mut engine = chaos_paper_engine_kind(StrategyKind::HeteroSplit, schedule, health_config());
    let mut total_us = 0.0;
    for _ in 0..MSGS {
        one_way_us_in(&mut engine, MSG_BYTES);
        total_us = engine.transport().now().as_micros_f64();
    }
    (total_us, engine.stats().clone())
}

pub fn run(&Args { seed, .. }: &Args) -> Output {
    let (clean_us, clean) = run_stream(FaultSchedule::empty());
    let (faulted_us, s) = run_stream(outage_schedule(seed));
    assert_eq!(
        (clean.chunks_failed, clean.retries, clean.quarantines),
        (0, 0, 0),
        "empty schedule must be inert"
    );

    let inflation_pct = 100.0 * (faulted_us - clean_us) / clean_us;
    let failover_latency_us_mean = if s.failover_completions > 0 {
        s.failover_latency_us_sum / s.failover_completions as f64
    } else {
        0.0
    };

    let mut out = String::new();
    outln!(out, "# resilience: seeded RailDown on {DOWN_RAIL:?} mid-stream (seed {seed})");
    outln!(out, "stream:                    {MSGS} x {} hetero-split", MSG_BYTES);
    outln!(out, "fault-free completion:     {clean_us:10.1} us");
    outln!(out, "faulted completion:        {faulted_us:10.1} us");
    outln!(out, "completion inflation:      {inflation_pct:10.1} %");
    outln!(out, "mean failover latency:     {failover_latency_us_mean:10.1} us");
    outln!(out, "retransmitted bytes:       {:10}", s.retransmitted_bytes);
    outln!(out, "retries:                   {:10}", s.retries);
    outln!(out, "failovers:                 {:10}", s.failovers);
    outln!(out, "quarantines/readmissions:  {:10}/{}", s.quarantines, s.readmissions);
    outln!(out, "probes sent:               {:10}", s.probes_sent);

    let doc = json! {
        "bench": "resilience", "seed": seed, "msgs": MSGS, "msg_bytes": MSG_BYTES,
        "fault_free_completion_us": float(clean_us, 1),
        "faulted_completion_us": float(faulted_us, 1),
        "completion_inflation_pct": float(inflation_pct, 2),
        "failover_latency_us_mean": float(failover_latency_us_mean, 1),
        "retransmitted_bytes": s.retransmitted_bytes, "retries": s.retries,
        "failovers": s.failovers, "quarantines": s.quarantines, "readmissions": s.readmissions,
        "probes_sent": s.probes_sent,
    };
    Output { text: out, bench: Some(("BENCH_resilience.json", doc)) }
}
