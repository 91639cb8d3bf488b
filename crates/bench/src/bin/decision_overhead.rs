//! Decision-overhead ablation: the cost of the optimizer itself.
//!
//! The paper's strategy sits on the per-message critical path, so its
//! software overhead must stay far below network latencies (§III-B). This
//! harness measures:
//!
//! * **cold** decisions — split-plan cache miss: full NIC selection +
//!   equal-completion dichotomy over the sampled profiles (forced by
//!   bumping the predictor epoch before every decision, exactly what a
//!   feedback correction does);
//! * **warm** decisions — split-plan cache hit: the steady-state fast
//!   path;
//! * **event-queue throughput** — push+pop pairs per second through the
//!   indexed calendar.
//!
//! Results go to stdout and to `BENCH_decision.json` in the working
//! directory (machine-readable, consumed by the README's Performance
//! section).

use nm_bench::sample_predictor;
use nm_core::strategy::{Ctx, StrategyKind};
use nm_model::SimTime;
use nm_sim::{ClusterSpec, CoreId, EventQueue};
use std::hint::black_box;
use std::time::Instant;

/// Median-of-runs wall time per iteration, in nanoseconds.
fn time_ns<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    let mut runs: Vec<f64> = (0..7)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    runs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    runs[runs.len() / 2]
}

fn main() {
    let predictor = sample_predictor(&ClusterSpec::paper_testbed());
    let queued = [4u64 << 20];
    let make_ctx = |epoch: u64| Ctx {
        now: SimTime::ZERO,
        predictor: &predictor,
        rail_waits_us: &[0.0, 120.0],
        idle_cores: vec![CoreId(1), CoreId(2), CoreId(3)],
        core_count: 4,
        queued_sizes: &queued,
        predictor_epoch: epoch,
    };

    // Cold: every decision sees a new predictor epoch -> guaranteed miss.
    let mut cold_strategy = StrategyKind::HeteroSplit.build();
    let mut epoch = 0u64;
    let cold_ns = time_ns(2_000, || {
        epoch += 1;
        black_box(cold_strategy.decide(&make_ctx(epoch)));
    });

    // Warm: identical inputs, stable epoch -> plan-cache hit.
    let mut warm_strategy = StrategyKind::HeteroSplit.build();
    warm_strategy.decide(&make_ctx(0));
    let warm_ns = time_ns(20_000, || {
        black_box(warm_strategy.decide(&make_ctx(0)));
    });

    // Event-queue throughput: 1024 scattered push+pop pairs per rep.
    let queue_ops_per_rep = 2 * 1024u64;
    let calendar_ns = time_ns(500, || {
        let mut q = EventQueue::new();
        for i in 0..1024u64 {
            q.push(SimTime::from_nanos((i * 2_654_435_761) % 1_000_000), i);
        }
        while let Some(v) = q.pop() {
            black_box(v);
        }
    });
    let calendar_ops_per_sec = queue_ops_per_rep as f64 / (calendar_ns * 1e-9);
    let speedup = cold_ns / warm_ns;

    println!("# decision-overhead ablation (paper-testbed predictor, 4 MiB head)");
    println!("cold decision (cache miss): {cold_ns:8.1} ns");
    println!("warm decision (cache hit):  {warm_ns:8.1} ns");
    println!("warm speedup:               {speedup:8.1} x");
    println!("calendar queue:             {calendar_ops_per_sec:12.0} ops/s");

    let json = format!(
        "{{\n  \"bench\": \"decision_overhead\",\n  \"cold_ns_per_decision\": {cold_ns:.1},\n  \"warm_ns_per_decision\": {warm_ns:.1},\n  \"warm_speedup\": {speedup:.2},\n  \"event_queue_ops_per_sec\": {calendar_ops_per_sec:.0}\n}}\n"
    );
    match std::fs::write("BENCH_decision.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_decision.json"),
        Err(e) => eprintln!("could not write BENCH_decision.json: {e}"),
    }
}
