//! Multicore decision-path scaling: replicated state vs a lock.
//!
//! The paper's claim (§II-C, Fig 4/7) is that multicore nodes should drive
//! multirail sends in parallel — which only pays if the *decision path*
//! itself scales with workers. This harness pits two organizations of the
//! shared decision facts (rail health, predictor epoch, feedback ratios)
//! against each other under concurrent decide() + health-churn load:
//!
//! * **replicated** — each worker reads its own `nm-replog` replica
//!   (lock-free catch-up, then a pure local read) while a churn thread
//!   appends health/feedback/epoch ops through the combining log;
//! * **locked** — the baseline this PR replaces: every decision locks a
//!   `Mutex<DecisionState>` and copies the facts out while the churn
//!   thread mutates under the same lock.
//!
//! Workers run the full paper decision (HeteroSplit over the sampled
//! paper-testbed predictor, 4 MiB head-of-queue, one rail busy 120 µs)
//! with the replica's epoch keying the plan cache and quarantined rails
//! masked to `+∞` waits — the engine's own exclusion rule.
//!
//! ## Single-core honesty
//!
//! CI runs on one core, where real threads timeslice instead of running in
//! parallel: *measured* multi-worker numbers cannot show parallel speedup
//! there (the same reason nm-runtime validates timing in the simulator).
//! The harness therefore reports both the measured sweep and a **modeled
//! projection** from measured single-thread costs, with the cross-core
//! cache-line transfer cost as the one modeling constant
//! ([`XFER_NS`] = 100 ns, the order of a remote-L2/LLC hit on commodity
//! x86): replicas touch only core-local lines in steady state, so
//! replicated throughput scales as `N / t_read`; the lock serializes its
//! critical section and bounces its lines on every handoff, capping
//! throughput at `1 / (t_cs + xfer)` no matter how many workers push. The
//! headline `speedup_4w_vs_locked_1w` uses measured numbers when ≥ 4 cores
//! are available, the model otherwise (`cores_available` says which).
//!
//! Results go to stdout and `BENCH_scaling.json` (schema-gated in ci.sh).

use crate::doc::{float, floats, json};
use crate::{Args, Output};
use nm_bench::sample_predictor;
use nm_core::replicated::{CounterKind, DecisionState, EngineOp, SharedDecisionState};
use nm_core::strategy::{Ctx, StrategyKind};
use nm_core::RailState;
use nm_model::SimTime;
use nm_replog::Replicated;
use nm_sim::{ClusterSpec, CoreId, RailId};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Modeled cost of migrating a contended cache line between cores (ns).
/// The order of a remote-cache hit on commodity x86 — the constant the
/// locked baseline pays per lock handoff under cross-core contention.
const XFER_NS: f64 = 100.0;

/// Wall-clock budget per measured sweep point.
const POINT_MS: u64 = 150;

/// Worker counts swept.
const WORKERS: [usize; 3] = [1, 2, 4];

/// Message size at the head of the queue for every decision.
const MSG_BYTES: u64 = 4 << 20;

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

/// One full paper decision against the given facts. `waits` arrives
/// pre-masked (quarantined rails at `+∞`).
fn decide(
    strategy: &mut dyn nm_core::Strategy,
    predictor: &nm_core::Predictor,
    waits: &[f64],
    epoch: u64,
) {
    let queued = [MSG_BYTES];
    let ctx = Ctx {
        now: SimTime::ZERO,
        predictor,
        rail_waits_us: waits,
        idle_cores: &[CoreId(1), CoreId(2), CoreId(3)],
        core_count: 4,
        queued_sizes: &queued,
        predictor_epoch: epoch,
    };
    black_box(strategy.decide(&ctx));
}

/// The churn body: feedback drip plus a quarantine/re-admit toggle with
/// its epoch bump — the same batches the engine publishes.
fn churn_ops(i: u64) -> Vec<EngineOp> {
    if i % 64 == 32 {
        vec![
            EngineOp::Health { rail: 1, state: RailState::Quarantined },
            EngineOp::EpochBump,
            EngineOp::Counter { kind: CounterKind::Quarantines, delta: 1 },
        ]
    } else if i.is_multiple_of(64) {
        vec![
            EngineOp::Health { rail: 1, state: RailState::Healthy },
            EngineOp::EpochBump,
            EngineOp::Counter { kind: CounterKind::Readmissions, delta: 1 },
        ]
    } else {
        vec![EngineOp::Feedback { rail: 0, ewma_ratio: 1.0 + (i % 10) as f64 * 0.01 }]
    }
}

/// Measured aggregate decisions/sec with `n` workers reading replicas
/// while a churn thread appends ops. Returns (ops/sec, resyncs).
fn run_replicated(predictor: &Arc<nm_core::Predictor>, n: usize) -> (f64, u64) {
    let shared = SharedDecisionState::new(2);
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    let resyncs = Arc::new(AtomicU64::new(0));

    let churn = {
        let shared = shared.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Acquire) {
                shared.publish_batch(&churn_ops(i));
                i += 1;
                std::thread::yield_now();
            }
        })
    };
    let workers: Vec<_> = (0..n)
        .map(|_| {
            let shared = shared.clone();
            let predictor = Arc::clone(predictor);
            let stop = Arc::clone(&stop);
            let total = Arc::clone(&total);
            let resyncs = Arc::clone(&resyncs);
            std::thread::spawn(move || {
                let mut reader = shared.reader();
                let mut strategy = StrategyKind::HeteroSplit.build();
                let mut count = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let facts = reader.read();
                    let epoch = facts.epoch();
                    let mut waits = [0.0, 120.0];
                    facts.mask_unselectable(&mut waits);
                    decide(strategy.as_mut(), &predictor, &waits, epoch);
                    count += 1;
                }
                total.fetch_add(count, Ordering::AcqRel);
                resyncs.fetch_add(reader.resyncs(), Ordering::AcqRel);
            })
        })
        .collect();

    let start = Instant::now();
    std::thread::sleep(Duration::from_millis(POINT_MS));
    stop.store(true, Ordering::Release);
    for w in workers {
        w.join().expect("worker");
    }
    churn.join().expect("churn");
    let secs = start.elapsed().as_secs_f64();
    (total.load(Ordering::Acquire) as f64 / secs, resyncs.load(Ordering::Acquire))
}

/// Measured aggregate decisions/sec with `n` workers copying the facts out
/// of a mutex while a churn thread mutates under the same lock — the
/// baseline organization this PR replaces.
fn run_locked(predictor: &Arc<nm_core::Predictor>, n: usize) -> f64 {
    let state = Arc::new(Mutex::new(DecisionState::new(2)));
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));

    let churn = {
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Acquire) {
                let ops = churn_ops(i);
                {
                    let mut s = state.lock().expect("unpoisoned");
                    for op in ops {
                        s.apply_op(op);
                    }
                }
                i += 1;
                std::thread::yield_now();
            }
        })
    };
    let workers: Vec<_> = (0..n)
        .map(|_| {
            let state = Arc::clone(&state);
            let predictor = Arc::clone(predictor);
            let stop = Arc::clone(&stop);
            let total = Arc::clone(&total);
            std::thread::spawn(move || {
                let mut strategy = StrategyKind::HeteroSplit.build();
                let mut count = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let facts = state.lock().expect("unpoisoned").clone();
                    let epoch = facts.epoch();
                    let mut waits = [0.0, 120.0];
                    facts.mask_unselectable(&mut waits);
                    decide(strategy.as_mut(), &predictor, &waits, epoch);
                    count += 1;
                }
                total.fetch_add(count, Ordering::AcqRel);
            })
        })
        .collect();

    let start = Instant::now();
    std::thread::sleep(Duration::from_millis(POINT_MS));
    stop.store(true, Ordering::Release);
    for w in workers {
        w.join().expect("worker");
    }
    churn.join().expect("churn");
    let secs = start.elapsed().as_secs_f64();
    total.load(Ordering::Acquire) as f64 / secs
}

pub fn run(_: &Args) -> Output {
    let predictor = Arc::new(sample_predictor(&ClusterSpec::paper_testbed()));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // --- Single-thread per-op costs (churn-free, warm plan cache) -------
    // A warm boxed-strategy `decide` on one fixed 4 MiB context — the
    // shape the `perf` ledger times as `strategy.decide_ns_p50` on
    // `split_warm`.
    let queued = [MSG_BYTES];
    let make_ctx = |waits: &'static [f64], epoch: u64| Ctx {
        now: SimTime::ZERO,
        predictor: &predictor,
        rail_waits_us: waits,
        idle_cores: &[CoreId(1), CoreId(2), CoreId(3)],
        core_count: 4,
        queued_sizes: &queued,
        predictor_epoch: epoch,
    };

    // The per-decision variants are measured in *interleaved* passes:
    // shared CI hosts drift between fast and slow clock phases lasting
    // seconds, so back-to-back measurement blocks can land in different
    // phases and skew the comparison. Sampling every variant within each
    // pass and taking per-variant medians keeps the *ratios* honest even
    // when the absolute clock wanders between runs.
    let mut warm = StrategyKind::HeteroSplit.build();
    warm.decide(&make_ctx(&[0.0, 120.0], 0));

    let shared = SharedDecisionState::new(2);
    let mut reader = shared.reader();
    let mut rep_strategy = StrategyKind::HeteroSplit.build();
    rep_strategy.decide(&make_ctx(&[0.0, 120.0], 0));

    let locked_state = Mutex::new(DecisionState::new(2));
    let mut lock_strategy = StrategyKind::HeteroSplit.build();
    lock_strategy.decide(&make_ctx(&[0.0, 120.0], 0));

    let mut decide_samples = Vec::new();
    let mut rep_samples = Vec::new();
    let mut lock_samples = Vec::new();
    let mut cs_samples = Vec::new();
    for _ in 0..7 {
        // decide alone: the reference fast path.
        decide_samples.push(time_ns(20_000, || {
            black_box(warm.decide(&make_ctx(&[0.0, 120.0], 0)));
        }));
        // decide + replica read: the new hot path. The replica is fully
        // caught up (no churn), so `read` is the pure fast path: one tail
        // load + compare, then a borrow of local state.
        rep_samples.push(time_ns(20_000, || {
            let facts = reader.read();
            let epoch = facts.epoch();
            black_box(facts.is_selectable(RailId(1)));
            black_box(rep_strategy.decide(&make_ctx(&[0.0, 120.0], epoch)));
        }));
        // decide + lock/copy: the old hot path.
        lock_samples.push(time_ns(20_000, || {
            let facts = locked_state.lock().expect("unpoisoned").clone();
            let epoch = facts.epoch();
            black_box(facts.is_selectable(RailId(1)));
            black_box(lock_strategy.decide(&make_ctx(&[0.0, 120.0], epoch)));
        }));
        // lock + copy alone: the baseline's serialized critical section.
        cs_samples.push(time_ns(100_000, || {
            black_box(locked_state.lock().expect("unpoisoned").clone());
        }));
    }
    let median = |xs: &mut Vec<f64>| -> f64 {
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        xs[xs.len() / 2]
    };
    let decide_only_ns = median(&mut decide_samples);
    let replicated_1w_ns = median(&mut rep_samples);
    let locked_1w_ns = median(&mut lock_samples);
    let lock_copy_ns = median(&mut cs_samples);
    let replica_overhead_pct = (replicated_1w_ns / decide_only_ns - 1.0) * 100.0;

    // --- Measured sweep under churn ------------------------------------
    let mut measured_rep = Vec::new();
    let mut measured_lock = Vec::new();
    let mut resyncs_total = 0u64;
    for &n in &WORKERS {
        let (ops, resyncs) = run_replicated(&predictor, n);
        measured_rep.push(ops);
        resyncs_total += resyncs;
        measured_lock.push(run_locked(&predictor, n));
    }

    // Log appended-op volume of a representative churn run for the schema.
    let shared = SharedDecisionState::new(2);
    for i in 0..1000 {
        shared.publish_batch(&churn_ops(i));
    }
    let ops_appended = shared.ops_appended();

    // --- Modeled multicore projection ----------------------------------
    // Replicated: per-worker state is core-local; N workers sustain
    // N / t_read. Locked: each handoff migrates the lock + state lines
    // (XFER_NS) and the critical section serializes all workers.
    let modeled_rep: Vec<f64> =
        WORKERS.iter().map(|&n| n as f64 * 1e9 / replicated_1w_ns).collect();
    let modeled_lock: Vec<f64> = WORKERS
        .iter()
        .map(|&n| {
            let per_worker = n as f64 * 1e9 / (locked_1w_ns + XFER_NS);
            let serialization_cap = 1e9 / (lock_copy_ns + XFER_NS);
            if n == 1 {
                1e9 / locked_1w_ns
            } else {
                per_worker.min(serialization_cap.max(1e9 / (locked_1w_ns + XFER_NS)))
            }
        })
        .collect();

    // Headline: 4 workers replicated vs 1 worker locked. Measured when the
    // machine can actually run 4 workers in parallel; modeled otherwise.
    let (speedup, speedup_source) = if cores >= 4 {
        (measured_rep[2] / measured_lock[0], "measured")
    } else {
        (modeled_rep[2] / modeled_lock[0], "modeled")
    };

    let mut out = String::new();
    outln!(out, "# decision-path scaling (paper-testbed predictor, 4 MiB head, health churn)");
    outln!(out, "cores available:            {cores}");
    outln!(out, "decide only (warm):         {decide_only_ns:8.1} ns");
    outln!(out, "decide + replica read:      {replicated_1w_ns:8.1} ns");
    outln!(out, "decide + lock/copy:         {locked_1w_ns:8.1} ns");
    outln!(out, "lock+copy critical section: {lock_copy_ns:8.1} ns");
    outln!(out, "replica read overhead:      {replica_overhead_pct:8.1} %");
    for (i, &n) in WORKERS.iter().enumerate() {
        outln!(
            out,
            "{n}w measured: replicated {:12.0} ops/s   locked {:12.0} ops/s",
            measured_rep[i],
            measured_lock[i]
        );
        outln!(
            out,
            "{n}w modeled:   replicated {:12.0} ops/s   locked {:12.0} ops/s",
            modeled_rep[i],
            modeled_lock[i]
        );
    }
    outln!(out, "speedup 4w vs locked 1w:    {speedup:8.2} x ({speedup_source})");
    outln!(out, "replica resyncs:            {resyncs_total}");

    let doc = json! {
        "bench": "scaling", "msg_bytes": MSG_BYTES, "cores_available": cores,
        "worker_counts": WORKERS.to_vec(), "decide_only_ns": float(decide_only_ns, 1),
        "replicated_ns_per_decision_1w": float(replicated_1w_ns, 1),
        "replica_read_overhead_pct": float(replica_overhead_pct, 1),
        "locked_ns_per_decision_1w": float(locked_1w_ns, 1), "lock_copy_ns": float(lock_copy_ns, 1),
        "xfer_ns_model": float(XFER_NS, 0), "replicated_ops_per_sec": floats(measured_rep, 0),
        "locked_ops_per_sec": floats(measured_lock, 0),
        "modeled_replicated_ops_per_sec": floats(modeled_rep, 0),
        "modeled_locked_ops_per_sec": floats(modeled_lock, 0),
        "speedup_4w_vs_locked_1w": float(speedup, 2), "speedup_source": speedup_source,
        "ops_appended": ops_appended, "replica_resyncs": resyncs_total,
    };
    Output { text: out, bench: Some(("BENCH_scaling.json", doc)) }
}
