//! `perf` — the benchmark of this repository: seven seeded workloads, each
//! measured end to end in host time and in simulator virtual time, then
//! traced layer by layer from outside. See `README.md` beside this file.
//!
//! Usage:
//!
//! ```text
//! perf [--seed N] [--seconds S] [--quick] [--repeat-check]
//! perf --workload NAME --seed N --seconds S --trace 0|1      (one workload, one result line)
//! ```

mod alloc;
mod collective_loads;
mod engine_loads;
mod harness;
mod layers;
mod metrics;
mod spans;
mod traced;

use collective_loads::{cluster_spec, CollectivesRound, NodeDeath, COLLECTIVE_KEYS, ROUND};
use engine_loads::{
    fig8_golden, storm_hard_errors, storm_schedule, FramedBytes, OverloadStorm, SmallBatch, Split,
    Storm, FIG8_SIZES, FRAMED_DUPLICATE_EVERY, FRAMED_SIZES, STORM_MSG_BYTES,
};
use harness::{drive, report_untraced, trace, Load, PassCfg, PassResult, TraceResult};
use metrics::{percentile_sorted, Report, RunInfo};
use nm_sim::ClusterSpec;
use std::path::PathBuf;
use traced::{Plain, Traced};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// What one invocation asks for.
#[derive(Debug, Clone)]
struct Opts {
    seed: u64,
    /// Host seconds of the untraced timed phase of each workload.
    seconds: f64,
    /// Timed set-ups per workload.
    setups: usize,
    /// Run the traced pass and the direct layer calls.
    trace: bool,
    /// Tiny op counts: a smoke run, not a measurement.
    quick: bool,
    /// Where trace files go; `None` writes none.
    out_dir: Option<PathBuf>,
}

/// One workload of the benchmark.
struct Workload {
    name: &'static str,
    why: &'static str,
    run: fn(&Opts) -> Report,
}

const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "small_batch",
        why: "16-message batches of 64 B-16 KiB: per-message bookkeeping dominates, decide is warm",
        run: small_batch,
    },
    Workload {
        name: "split_warm",
        why: "Fig 8's nine sizes one at a time: every split comes from the plan cache",
        run: split_warm,
    },
    Workload {
        name: "split_cold",
        why: "same loop, every size distinct: plan cache bypassed, dichotomy on every message",
        run: split_cold,
    },
    Workload {
        name: "framed_bytes",
        why:
            "real payloads with integrity framing, decoded and reassembled: nm-proto does the work",
        run: framed_bytes,
    },
    Workload {
        name: "overload_storm",
        why: "open-loop bursts under faults: admission, shedding, health and failover do the work",
        run: overload_storm,
    },
    Workload {
        name: "collectives_round",
        why: "barrier, broadcast and all-to-all on 16 nodes: the collectives runner dominates",
        run: collectives_round,
    },
    Workload {
        name: "collectives_node_death",
        why: "tree barrier healing around a seeded node death: watchdog and DAG repair",
        run: collectives_node_death,
    },
];

/// Episodes of the storm as issued that the known-failure probe runs.
const STORM_PROBE_EPISODES: u64 = 64;

/// How a workload's passes are cut into blocks.
struct Shape {
    /// Blocks of the fixed prefix that the virtual-time metrics and counts
    /// come from: enough ops for a steady p99 across seeds.
    prefix_blocks: usize,
    /// Blocks the traced pass replays.
    trace_blocks: usize,
    ops_per_block: usize,
    /// Blocks per wall-time sample (see [`PassCfg::group`]).
    group: usize,
}

/// Runs the untraced pass of `P`, then (when asked) the traced pass of `T`
/// over the same prefix, and lets `layers` derive the per-layer metrics.
fn run_load<P: Load, T: Load>(
    name: &'static str,
    o: &Opts,
    shape: Shape,
    faulted: bool,
    layers: impl FnOnce(&mut Report, &PassResult, Option<&TraceResult>),
) -> Report {
    harness::set_quick(o.quick);
    let mut report = Report::new(name);
    let cfg = PassCfg {
        seed: o.seed,
        setups: o.setups,
        prefix_blocks: if o.quick { 2 } else { shape.prefix_blocks },
        trace_blocks: shape.trace_blocks,
        ops_per_block: shape.ops_per_block,
        group: if o.quick { 1 } else { shape.group },
        seconds: Some(o.seconds),
    };
    let mut pass = drive::<P>(&cfg);
    report_untraced(&mut report, &mut pass, cfg.group, faulted);
    let traced = o.trace.then(|| {
        let path = o.out_dir.as_ref().map(|d| d.join(format!("trace_{name}.json")));
        trace::<T>(&mut report, &cfg, &pass, path.as_deref())
    });
    layers(&mut report, &pass, traced.as_ref());
    if let Some(t) = &traced {
        print_layer_shares(name, t);
    }
    report
}

/// Self time by layer (the part of a span name before the dot) and by span
/// name, as shares of the traced op time: the README's "measured" column.
fn print_layer_shares(name: &str, t: &TraceResult) {
    let mut by_layer = std::collections::BTreeMap::<&str, f64>::new();
    for (span, agg) in &t.times {
        *by_layer.entry(span.split('.').next().unwrap_or(span)).or_default() += agg.self_ns as f64;
    }
    let by_span = t.times.iter().map(|(span, agg)| (*span, agg.self_ns as f64));
    for (what, shares) in [("layer", by_layer.into_iter().collect()), ("span", by_span.collect())] {
        let mut shares: Vec<(&str, f64)> = shares;
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        let line: Vec<String> = shares
            .iter()
            .map(|(l, ns)| format!("{l} {:.1}%", ns / t.root_ns.max(1) as f64 * 100.0))
            .collect();
        println!("# {name}: self time by {what}: {}", line.join(", "));
    }
}

fn counter(pass: &PassResult, name: &str) -> f64 {
    pass.counters.get(name).copied().unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics every engine workload shares: counts from the untraced
/// prefix, times and the wrappers' counts from the traced one.
fn engine_layers(
    r: &mut Report,
    pass: &PassResult,
    t: Option<&TraceResult>,
    spec: &ClusterSpec,
    sizes: &[u64],
) {
    let msgs = pass.prefix.msgs;
    let per_msg = |name| counter(pass, name) / msgs.max(1) as f64;
    r.set("engine.chunks_per_msg", per_msg("chunks_submitted"), msgs);
    r.set("strategy.defers_per_msg", per_msg("defers"), msgs);
    r.set(
        "engine.aggregated_share",
        ratio(counter(pass, "msgs_aggregated"), counter(pass, "msgs_completed")),
        msgs,
    );
    r.set(
        "engine.rail0_bytes_share",
        ratio(counter(pass, "rail0_bytes"), counter(pass, "rail_bytes")),
        msgs,
    );
    let Some(t) = t else { return };
    let m = t.msgs.max(1) as f64;
    let root = t.root_ns.max(1) as f64;
    let decide_ns = spans::durations(&t.spans, "strategy.decide");
    let decides = decide_ns.len() as u64;
    r.set("strategy.decide_ns_p50", percentile_sorted(&decide_ns, 0.50), decides);
    r.set("strategy.decide_ns_p99", percentile_sorted(&decide_ns, 0.99), decides);
    r.set("strategy.decide_calls_per_msg", decides as f64 / m, t.msgs);
    r.set("strategy.decide_share", t.total("strategy.decide").0 / root, decides);
    let cache = traced::cache_stats();
    if cache.hits + cache.misses > 0 {
        let lookups = cache.hits + cache.misses;
        r.set("strategy.plan_cache_hit_ratio", cache.hits as f64 / lookups as f64, lookups);
    }
    r.set("engine.post_self_ns_per_msg", t.self_ns("engine.post") / m, t.msgs);
    r.set("engine.poll_self_ns_per_msg", t.self_ns("engine.poll") / m, t.msgs);
    r.set("engine.polls_per_msg", t.per_msg("polls"), t.msgs);
    let submit_ns = spans::durations(&t.spans, "driver.submit");
    let poll_ns = spans::durations(&t.spans, "driver.poll");
    let (submits, polls) = (submit_ns.len() as u64, poll_ns.len() as u64);
    r.set("driver.submit_ns_p50", percentile_sorted(&submit_ns, 0.50), submits);
    r.set("driver.poll_ns_p50", percentile_sorted(&poll_ns, 0.50), polls);
    r.set("driver.submit_share", t.self_ns("driver.submit") / root, submits);
    r.set("driver.poll_share", t.self_ns("driver.poll") / root, polls);
    let events = t.counters.get("events").copied().unwrap_or(0.0);
    r.set("driver.events_per_poll", ratio(events, polls as f64), polls);
    r.set("driver.state_queries_per_msg", t.per_msg("state_queries"), t.msgs);
    r.set("driver.state_query_ns_per_msg", t.per_msg("state_query_ns"), t.msgs);
    r.set("sim.events_per_msg", events / m, t.msgs);
    layers::sampler(r, spec);
    layers::model(r, spec, sizes);
    layers::sim(r, spec, sizes);
}

fn small_batch(o: &Opts) -> Report {
    let spec = ClusterSpec::paper_testbed();
    run_load::<SmallBatch<Plain>, SmallBatch<Traced>>(
        "small_batch",
        o,
        Shape {
            prefix_blocks: 8192,
            trace_blocks: 96,
            ops_per_block: SmallBatch::<Plain>::MSGS_PER_BLOCK,
            group: 1,
        },
        false,
        |r, pass, t| {
            r.check(pass.prefix.refused == 0, || "small_batch refused ops".into());
            engine_layers(r, pass, t, &spec, &[64, 256, 1024, 4096, 16384]);
        },
    )
}

fn split_checks(r: &mut Report, pass: &PassResult) {
    r.check(pass.prefix.refused == 0, || "split workload refused ops".into());
    // Hetero-split must not lose to the best single rail at any Fig 8 size.
    // From the rendezvous threshold (128 KiB) up that fails the run. At the
    // two eager sizes below it hetero-split is 6 % behind Myri-10G alone at
    // the seed commit, as the fig8 golden prints: a known failure, counted.
    let g = fig8_golden();
    let mut behind = 0;
    for (i, size) in FIG8_SIZES.iter().enumerate().filter(|(i, _)| g.hetero[*i] > g.best_single[*i])
    {
        behind += 1;
        let what = format!(
            "hetero split ({} sim_us) loses to the best single rail ({} sim_us) at {size} bytes",
            g.hetero[i], g.best_single[i]
        );
        if *size >= 128 * 1024 {
            r.check(false, || what);
        } else {
            r.known_failure("hetero-behind-single-rail", what);
        }
    }
    r.set("strategy.split_behind_single_sizes", f64::from(behind), FIG8_SIZES.len() as u64);
}

fn split<const COLD: bool>(name: &'static str, o: &Opts) -> Report {
    // Computed once per process, outside every timed set-up.
    fig8_golden();
    let spec = ClusterSpec::paper_testbed();
    run_load::<Split<Plain, COLD>, Split<Traced, COLD>>(
        name,
        o,
        Shape { prefix_blocks: 8192, trace_blocks: 512, ops_per_block: FIG8_SIZES.len(), group: 1 },
        false,
        |r, pass, t| {
            split_checks(r, pass);
            engine_layers(r, pass, t, &spec, &FIG8_SIZES);
        },
    )
}

fn split_warm(o: &Opts) -> Report {
    split::<false>("split_warm", o)
}

fn split_cold(o: &Opts) -> Report {
    split::<true>("split_cold", o)
}

fn framed_bytes(o: &Opts) -> Report {
    let spec = ClusterSpec::paper_testbed();
    run_load::<FramedBytes<Plain>, FramedBytes<Traced>>(
        "framed_bytes",
        o,
        Shape {
            prefix_blocks: 512,
            trace_blocks: 128,
            ops_per_block: FramedBytes::<Plain>::MSGS_PER_BLOCK,
            group: 1,
        },
        false,
        |r, pass, t| {
            r.check(pass.prefix.refused == 0, || "framed_bytes refused ops".into());
            engine_layers(r, pass, t, &spec, &FRAMED_SIZES);
            // Framing overhead of what was sent; the duplicates are extra.
            let wire = counter(pass, "rx_wire_bytes") - counter(pass, "rx_duplicate_wire_bytes");
            r.set("proto.wire_overhead_share", ratio(wire - counter(pass, "rx_bytes"), wire), 1);
            r.set("proto.corrupt_dropped", counter(pass, "rx_corrupt_dropped"), 1);
            let duplicates = counter(pass, "rx_duplicates_dropped");
            r.set("proto.duplicates_dropped", duplicates, 1);
            // Every message has one chunk that leaves it incomplete.
            let due = pass.prefix.msgs / FRAMED_DUPLICATE_EVERY;
            r.check(duplicates + 1.0 >= due as f64, || {
                format!("the receiver dropped {duplicates} duplicated chunks of {due} handed to it")
            });
            let Some(t) = t else { return };
            let chunks = t.counters.get("rx_chunks").copied().unwrap_or(0.0);
            let wire_kib = t.counters.get("rx_wire_bytes").copied().unwrap_or(0.0) / 1024.0;
            r.set(
                "proto.decode_ns_per_kib",
                ratio(t.total("proto.decode").0, wire_kib),
                chunks as u64,
            );
            r.set(
                "proto.reassemble_ns_per_chunk",
                ratio(t.total("proto.reassemble").0, chunks),
                chunks as u64,
            );
            r.set(
                "proto.sequence_ns_per_msg",
                t.total("proto.sequence").0 / t.msgs.max(1) as f64,
                t.msgs,
            );
            let payloads: Vec<bytes::Bytes> =
                FRAMED_SIZES.iter().map(|&s| bytes::Bytes::from(vec![0x5a; s as usize])).collect();
            layers::proto_send(r, &payloads);
        },
    )
}

fn overload_storm(o: &Opts) -> Report {
    let spec = ClusterSpec::paper_testbed();
    let seed = o.seed;
    run_load::<OverloadStorm<Plain>, OverloadStorm<Traced>>(
        "overload_storm",
        o,
        // One episode's host cost swings several-fold with its fault lottery;
        // four make one wall-time sample. One traced episode fills a quarter
        // of the span store.
        Shape {
            prefix_blocks: 768,
            trace_blocks: 1,
            ops_per_block: OverloadStorm::<Plain>::MSGS_PER_BLOCK,
            group: 4,
        },
        true,
        |r, pass, t| {
            let msgs = pass.prefix.msgs;
            engine_layers(r, pass, t, &spec, &[STORM_MSG_BYTES]);
            let rejected = counter(pass, "rejections");
            r.set("admission.accepted", msgs as f64 - rejected, msgs);
            r.set("admission.rejected", rejected, msgs);
            r.set("admission.shed", counter(pass, "msgs_shed"), msgs);
            r.set("admission.degrade_transitions", counter(pass, "degrade_transitions"), msgs);
            r.check(pass.prefix.refused as f64 == rejected + counter(pass, "msgs_shed"), || {
                "refused ops differ from the engine's rejected + shed".into()
            });
            let failed_share = r.get("failed_share").unwrap_or(0.0);
            r.check((0.05..=0.30).contains(&failed_share), || {
                format!("failed_share {failed_share} left the band 0.05-0.30 the storm is tuned to")
            });
            for (metric, name) in [
                ("health.retries", "retries"),
                ("health.failovers", "failovers"),
                ("health.quarantines", "quarantines"),
                ("health.readmissions", "readmissions"),
                ("health.probes_sent", "probes_sent"),
                ("health.chunks_timed_out", "chunks_timed_out"),
                ("proto.corrupt_dropped", "corrupt_chunks"),
            ] {
                r.set(metric, counter(pass, name), msgs);
            }
            r.set(
                "health.failover_latency_us_mean",
                ratio(
                    counter(pass, "failover_latency_us_sum"),
                    counter(pass, "failover_completions"),
                ),
                counter(pass, "failover_completions") as u64,
            );
            r.set(
                "health.retransmitted_bytes_share",
                ratio(counter(pass, "retransmitted_bytes"), counter(pass, "rail_bytes")),
                msgs,
            );
            r.set(
                "replog.ops_appended_per_msg",
                counter(pass, "ops_appended") / msgs.max(1) as f64,
                msgs,
            );
            let Some(t) = t else { return };
            let rejects = t.counters.get("reject_calls").copied().unwrap_or(0.0);
            let reject_ns = t.counters.get("reject_ns").copied().unwrap_or(0.0);
            r.set("admission.reject_ns", ratio(reject_ns, rejects), rejects as u64);
            layers::faults(r, &storm_schedule(seed, 0, Storm::Measured));
            layers::replog(r);
            let episodes = harness::scaled(STORM_PROBE_EPISODES as usize) as u64;
            let ended = storm_hard_errors(seed, episodes);
            r.set("health.hard_poll_errors", ended as f64, episodes);
            if ended > 0 {
                r.known_failure(
                    "storm-as-issued-hard-poll-error",
                    format!(
                        "{ended} of {episodes} episodes with DuplicateChunk faults and the default \
                         max_retries ended in a hard Engine::poll error"
                    ),
                );
            }
        },
    )
}

/// Per-collective means over the prefix, shared by both collectives workloads.
fn collective_layers(r: &mut Report, pass: &PassResult, t: Option<&TraceResult>) {
    let ops = counter(pass, "ops").max(1.0);
    r.set("collectives.hops_per_op", counter(pass, "hops") / ops, ops as u64);
    for k in &COLLECTIVE_KEYS {
        let n = counter(pass, k.runs);
        if n > 0.0 {
            r.set(k.sim_metric, counter(pass, k.sim_us) / n, n as u64);
            if pass.counters.contains_key(k.err) {
                r.set(k.err_metric, counter(pass, k.err) / n, n as u64);
            }
        }
    }
    let Some(t) = t else { return };
    let hops = t.counters.get("hops").copied().unwrap_or(0.0).max(1.0);
    let (run_ns, runs) = t.total("collectives.run");
    // `run_algorithm` rebuilds the DAG and predicts it before it runs it; take
    // one measured build and prediction off each run.
    let (dag_ns, dags) = t.total("collectives.dag");
    let (predict_ns, predicts) = t.total("collectives.predict");
    let inner = ratio(predict_ns, predicts as f64) * runs as f64;
    r.set("collectives.run_ns_per_hop", (run_ns - inner).max(0.0) / hops, hops as u64);
    if dags > 0 {
        // Two candidate DAGs are built per collective; per hop of the chosen one.
        r.set("collectives.dag_build_ns_per_hop", dag_ns / 2.0 / hops, dags);
        r.set(
            "collectives.predict_ns_per_hop",
            (predict_ns - dag_ns).max(0.0) / 2.0 / hops,
            predicts,
        );
        let (select_ns, selects) = t.total("collectives.select");
        r.set("collectives.select_ns", ratio(select_ns, selects as f64), selects);
    }
    let sizes: Vec<u64> = ROUND.iter().map(|r| r.1).collect();
    let base = layers::lone_pair_ns_per_msg(&cluster_spec(), &sizes);
    r.set(
        "collectives.runner_overhead_ratio",
        (run_ns - inner).max(0.0) / hops / base,
        hops as u64,
    );
    layers::sampler(r, &cluster_spec());
    layers::sim(r, &cluster_spec(), &sizes);
}

fn collectives_round(o: &Opts) -> Report {
    run_load::<CollectivesRound<Plain>, CollectivesRound<Traced>>(
        "collectives_round",
        o,
        Shape {
            prefix_blocks: 48,
            trace_blocks: 48,
            ops_per_block: CollectivesRound::<Plain>::OPS_PER_BLOCK,
            group: 1,
        },
        false,
        |r, pass, t| {
            r.check(pass.prefix.refused == 0, || "collectives_round refused ops".into());
            r.check(counter(pass, "repairs") == 0.0, || "a fault-free round repaired".into());
            collective_layers(r, pass, t);
        },
    )
}

fn collectives_node_death(o: &Opts) -> Report {
    run_load::<NodeDeath<Plain>, NodeDeath<Traced>>(
        "collectives_node_death",
        o,
        // Whether a death needs a repair, and how large, depends on the
        // victim and the instant: sixteen barriers make one wall-time sample.
        Shape {
            prefix_blocks: 4096,
            trace_blocks: 512,
            ops_per_block: NodeDeath::<Plain>::OPS_PER_BLOCK,
            group: 16,
        },
        true,
        |r, pass, t| {
            let ops = counter(pass, "ops").max(1.0);
            for (metric, name) in [
                ("collectives.repairs", "repairs"),
                ("collectives.hops_retried", "hops_retried"),
                ("collectives.hops_rerouted", "hops_rerouted"),
                ("collectives.retry_queue_peak", "retry_queue_peak"),
            ] {
                r.set(metric, counter(pass, name), ops as u64);
            }
            let repairs = counter(pass, "repairs");
            r.set(
                "collectives.repair_latency_us",
                ratio(counter(pass, "repair_latency_us"), repairs),
                repairs as u64,
            );
            r.set(
                "collectives.timeout_wait_share",
                ratio(counter(pass, "timeout_wait_us"), pass.prefix.virtual_us),
                ops as u64,
            );
            collective_layers(r, pass, t);
        },
    )
}

// ------------------------------------------------------------------ the runs

fn run_info(o: &Opts) -> RunInfo {
    let cmd = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    RunInfo {
        seed: o.seed,
        seconds: o.seconds,
        cores_available: std::thread::available_parallelism().map_or(1, usize::from),
        git_describe: cmd("git", &["describe", "--always", "--dirty"]),
        rustc: cmd("rustc", &["--version"]),
    }
}

/// Runs every workload once and prints every metric by name.
fn run_all(o: &Opts) -> Vec<Report> {
    WORKLOADS
        .iter()
        .map(|w| {
            let report = (w.run)(o);
            metrics::print_table(&report, w.why);
            report
        })
        .collect()
}

/// The differences between two runs of the same code that break a bound: a
/// modeled or counted metric that moved at all, or a measured end-to-end one
/// that moved by more than its bound. Measured per-layer metrics have no
/// bound and are not compared.
fn repeat_failures(first: &[Report], second: &[Report]) -> Vec<String> {
    let mut out = Vec::new();
    for (a, b) in first.iter().zip(second) {
        for (name, va) in &a.metrics {
            let d = metrics::def(name).expect("catalogue name");
            let Some(vb) = b.metrics.get(name) else {
                out.push(format!("{}/{name}: missing from the second run", a.workload));
                continue;
            };
            if d.provenance.exact() {
                if va.value.to_bits() != vb.value.to_bits() {
                    out.push(format!("{}/{name}: {} then {}", a.workload, va.value, vb.value));
                }
            } else if let Some(bound) = d.bound {
                let rel = (vb.value - va.value).abs() / va.value.abs().max(f64::MIN_POSITIVE);
                if rel > bound {
                    out.push(format!(
                        "{}/{name}: {} then {} ({:.1} % apart, bound {:.1} %)",
                        a.workload,
                        va.value,
                        vb.value,
                        rel * 100.0,
                        bound * 100.0
                    ));
                }
            }
        }
    }
    out
}

fn usage() -> ! {
    eprintln!(
        "usage: perf [--seed N] [--seconds S] [--quick] [--repeat-check]\n       \
         perf --workload NAME --seed N --seconds S --trace 0|1\nworkloads: {}",
        WORKLOADS.map(|w| w.name).join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let mut o = Opts {
        seed: 42,
        seconds: 6.0,
        setups: 20,
        trace: true,
        quick: false,
        out_dir: Some(
            PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
                .join("perf"),
        ),
    };
    let mut workload = None;
    let mut repeat_check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--seed" => o.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => o.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => o.trace = value().parse::<u8>().unwrap_or_else(|_| usage()) != 0,
            "--workload" => workload = Some(value()),
            "--quick" => o.quick = true,
            "--repeat-check" => repeat_check = true,
            _ => usage(),
        }
    }
    if !(o.seconds.is_finite() && (0.0..=60.0).contains(&o.seconds)) {
        usage();
    }
    if o.quick {
        o.seconds = 0.0;
        o.setups = 2;
    }

    if let Some(name) = workload {
        // The driver's contract: one workload, one result line, last.
        let Some(w) = WORKLOADS.iter().find(|w| w.name == name) else { usage() };
        if o.trace {
            // Half the time untraced, then the fixed-size traced pass.
            o.seconds /= 2.0;
            o.setups = 3;
        }
        let report = (w.run)(&o);
        metrics::print_table(&report, w.why);
        println!("{}", metrics::contract_line(&report, o.trace));
        std::process::exit(if report.correct() { 0 } else { 1 });
    }

    let info = run_info(&o);
    let reports = run_all(&o);
    let mut failures: Vec<String> = reports
        .iter()
        .flat_map(|r| r.errors.iter().map(move |e| format!("{}: {e}", r.workload)))
        .collect();
    if repeat_check {
        println!("# repeat-check: second run");
        failures.extend(repeat_failures(&reports, &run_all(&o)));
    }
    let json = metrics::results_json(&info, &reports);
    print!("{json}");
    if let Some(dir) = &o.out_dir {
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(dir.join("results.json"), &json));
        if let Err(e) = written {
            failures.push(format!("writing {}: {e}", dir.join("results.json").display()));
        }
    }
    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    std::process::exit(if failures.is_empty() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::END_TO_END;

    /// `BENCHMARK.json`, derived from the catalogue and the workload table.
    fn benchmark_json() -> String {
        let manifest = "crates/bench/src/bin/perf/Cargo.toml";
        let mut out = String::from("{\n");
        out += &format!(
            "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"{manifest}\", \"--\"],\n"
        );
        out += "  \"paths\": [\"crates/bench/src/bin/perf\"],\n  \"run_seconds\": 15,\n";
        let workloads: Vec<String> = WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect();
        out += &format!("  \"workloads\": [\n{}\n  ],\n", workloads.join(",\n"));
        let gated: Vec<String> = END_TO_END
            .iter()
            .filter(|d| d.gated)
            .map(|d| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    d.name,
                    d.unit,
                    d.better.as_str(),
                    d.bound.expect("end-to-end metrics carry a bound")
                )
            })
            .collect();
        out += &format!("  \"end_to_end\": [\n{}\n  ],\n", gated.join(",\n"));
        let layers: Vec<String> = END_TO_END
            .iter()
            .filter(|d| !d.gated)
            .chain(metrics::PER_LAYER)
            .map(|d| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    d.name,
                    d.unit,
                    d.better.as_str()
                )
            })
            .collect();
        out += &format!("  \"per_layer\": [\n{}\n  ]\n}}\n", layers.join(",\n"));
        out
    }

    #[test]
    fn benchmark_json_is_the_catalogue() {
        let expected = benchmark_json();
        if include_str!("../../../../../BENCHMARK.json") != expected {
            println!("{expected}");
            panic!("BENCHMARK.json is not the document printed above");
        }
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    /// `--quick`: every workload and every named metric comes out exactly
    /// once, finite, and every output check holds.
    #[test]
    fn quick_run_emits_every_workload_and_metric() {
        let o = Opts { seed: 7, seconds: 0.0, setups: 2, trace: true, quick: true, out_dir: None };
        let reports = run_all(&o);
        let names: Vec<&str> = reports.iter().map(|r| r.workload).collect();
        assert_eq!(names, WORKLOADS.map(|w| w.name), "each workload once, in order");
        for r in &reports {
            assert!(r.correct(), "{}: {:?}", r.workload, r.errors);
            assert!(r.attempted >= 1);
            assert!(r.metrics.values().all(|v| v.value.is_finite()));
            for d in END_TO_END {
                let faulted =
                    r.workload == "overload_storm" || r.workload == "collectives_node_death";
                let expected = !(d.name == "predict_err" && faulted);
                assert_eq!(r.metrics.contains_key(d.name), expected, "{}/{}", r.workload, d.name);
            }
        }
        for d in metrics::PER_LAYER {
            let emitted = reports.iter().filter(|r| r.metrics.contains_key(d.name)).count();
            assert!(emitted >= 1, "{} is emitted by no workload", d.name);
        }
        assert!(repeat_failures(&reports, &reports).is_empty());
    }
}
