//! The load generator's core: repeated set-up, block-timed passes, the
//! fixed-size prefix that the virtual-time metrics and counts come from, and
//! the derivation of the metrics every workload shares.

use crate::alloc;
use crate::metrics::{median, percentile_sorted, Report};
use crate::spans::{self, Agg, Span};
use std::collections::BTreeMap;
use std::time::Instant;

/// Capacity of the per-block sample store of one pass.
pub const MAX_BLOCKS: usize = 1 << 20;

/// Host seconds a pass may spend repeating a cheap set-up, and the most
/// repetitions it makes: a sub-millisecond set-up needs hundreds of samples
/// for a steady median. (Spreading the repetitions over the timed phase was
/// tried: each then runs on cold caches, and both `setup_s` and the blocks
/// around it got noisier.)
pub const SETUP_BUDGET_S: f64 = 0.5;
pub const MAX_SETUPS: usize = 1024;

/// The quantile over wall-time samples that `wall_ns_per_msg` reports. The
/// samples of one workload are near-equal work, and on a shared host the
/// noise is one-sided: stretches of a run go 5-45 % slow, which moves the
/// median of a run but not its fastest decile.
pub const WALL_QUANTILE: f64 = 0.10;

/// Blocks of the short repetition that the determinism check replays.
pub const REPLAY_BLOCKS: usize = 8;

/// Named event counts a load accumulates over its whole life; the harness
/// differences two readings to get the prefix's own counts.
pub type Counters = BTreeMap<&'static str, f64>;

/// Adds `v` under `name`.
pub fn bump(c: &mut Counters, name: &'static str, v: f64) {
    *c.entry(name).or_insert(0.0) += v;
}

/// Running totals of a pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that completed.
    pub completed: u64,
    /// Ops the program refused by design (admission reject, deadline shed).
    pub refused: u64,
    /// Ops that reached no legal terminal state.
    pub broken: u64,
    /// Messages posted through an engine (a collective hop is one message).
    pub msgs: u64,
    /// Payload bytes of completed ops.
    pub bytes: u64,
    /// Virtual time the timed phase covered, µs.
    pub virtual_us: f64,
    /// Sum and count of |actual − predicted| ÷ predicted.
    pub err_sum: f64,
    pub err_n: u64,
}

/// Where a load reports what its ops did.
pub struct Sink {
    pub tot: Totals,
    /// Virtual latency per completed op, µs; recorded over the prefix only.
    lat_us: Vec<f64>,
    recording: bool,
    /// FNV-1a over every op's virtual outcome: the determinism fingerprint.
    digest: u64,
    /// The fingerprint after each block of the prefix.
    digests: Vec<u64>,
    /// Largest lateness of the open-loop generator, virtual µs.
    pub late_us_max: f64,
}

impl Sink {
    fn new(prefix_ops: usize) -> Self {
        Sink {
            tot: Totals::default(),
            lat_us: Vec::with_capacity(prefix_ops),
            recording: true,
            digest: 0xcbf2_9ce4_8422_2325,
            digests: Vec::new(),
            late_us_max: 0.0,
        }
    }

    /// A sink for warm-up ops: counts, records no latency.
    pub fn scratch() -> Self {
        Sink { recording: false, ..Sink::new(0) }
    }

    fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.digest = (self.digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// One op completed after `latency_us` of virtual time, moving `bytes`.
    // nm-analyzer: allow(unit-bare) -- virtual µs exactly as `SimDuration::as_micros_f64`
    // reports them; they go into percentiles and a digest, not back into the model
    pub fn completed(&mut self, latency_us: f64, bytes: u64) {
        self.tot.attempted += 1;
        self.tot.completed += 1;
        self.tot.bytes += bytes;
        self.mix(latency_us.to_bits());
        self.mix(bytes);
        // Pre-sized to the prefix's op count; never grows past its capacity.
        if self.recording && self.lat_us.len() < self.lat_us.capacity() {
            self.lat_us.push(latency_us);
        }
    }

    /// `n` ops were refused by design.
    pub fn refused(&mut self, n: u64) {
        self.tot.attempted += n;
        self.tot.refused += n;
        self.mix(n ^ 0x5ef0_5ed0);
    }

    /// `n` ops ended in no legal terminal state.
    pub fn broken(&mut self, n: u64) {
        self.tot.attempted += n;
        self.tot.broken += n;
    }

    /// `n` messages went through an engine in this block.
    pub fn msgs(&mut self, n: u64) {
        self.tot.msgs += n;
    }

    /// The block advanced the virtual clock by `us`.
    pub fn virtual_elapsed(&mut self, us: f64) {
        self.tot.virtual_us += us;
        self.mix(us.to_bits());
    }

    /// Prediction error: `sum` of relative errors over `n` predictions.
    pub fn predict_err(&mut self, sum: f64, n: u64) {
        self.tot.err_sum += sum;
        self.tot.err_n += n;
    }
}

/// One workload's program state and input generator.
pub trait Load: Sized {
    /// Spec → sampling → construction → warm-up to steady state. The same
    /// seed gives the same inputs.
    fn setup(seed: u64) -> Self;
    /// Runs one block of ops. Returns false once the program state is spent;
    /// [`Load::rearm`] then runs before the next block.
    fn block(&mut self, sink: &mut Sink) -> bool;
    /// Retires the spent program state, checking what it owes, and builds
    /// the next one. Outside the timed spans.
    fn rearm(&mut self, errors: &mut Vec<String>);
    /// Cumulative event counts, retired states included.
    fn counters(&self) -> Counters;
    /// Final conservation checks on the live state.
    fn finish(self, errors: &mut Vec<String>);
}

/// How long and how much a pass runs.
#[derive(Debug, Clone, Copy)]
pub struct PassCfg {
    pub seed: u64,
    /// Timed set-ups, at least (the median is `setup_s`): cheap set-ups are
    /// repeated beyond this until [`SETUP_BUDGET_S`] is spent.
    pub setups: usize,
    /// Blocks of the fixed prefix.
    pub prefix_blocks: usize,
    /// Blocks the traced pass replays (at most `prefix_blocks`): as many as
    /// keep its spans inside the span store.
    pub trace_blocks: usize,
    /// Ops per block, to size the latency store.
    pub ops_per_block: usize,
    /// Consecutive blocks summed into one wall-time sample. A block whose
    /// work swings with a fault lottery is too uneven to take a low quantile
    /// over; a group of them is steadier work.
    pub group: usize,
    /// Keep running blocks until this much host time has passed since the
    /// pass began, set-ups included; `None` stops after the prefix (the
    /// traced pass). The prefix always completes: a box shorter than the
    /// set-ups and the prefix take does not shorten the pass.
    pub seconds: Option<f64>,
}

/// What a pass measured.
pub struct PassResult {
    pub setup_s: Vec<f64>,
    /// Host ns and messages of each block.
    pub block_ns: Vec<f64>,
    pub block_msgs: Vec<u64>,
    /// Totals when the prefix ended, and when the pass ended.
    pub prefix: Totals,
    pub total: Totals,
    /// Sorted virtual latencies of the prefix's completed ops.
    pub lat_sorted: Vec<f64>,
    /// Fingerprint of the virtual outcome after each block of the prefix.
    pub digests: Vec<u64>,
    /// Counts over the prefix.
    pub counters: Counters,
    /// Allocations and bytes requested inside the prefix's blocks.
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Live-bytes high-water mark from set-up to the end of the prefix,
    /// above what the harness itself held.
    pub peak_heap: u64,
    pub late_us_max: f64,
    pub errors: Vec<String>,
}

/// Runs one pass of `L`.
// nm-analyzer: allow(determinism-taint) -- the pass is what measures host time; virtual-time
// results are kept apart (Totals, the latency store, the digest) and never read a clock
pub fn drive<L: Load>(cfg: &PassCfg) -> PassResult {
    let started = Instant::now();
    let mut errors = Vec::new();
    let mut setup_s = Vec::with_capacity(cfg.setups.max(MAX_SETUPS));
    let mut block_ns: Vec<f64> = Vec::with_capacity(MAX_BLOCKS);
    let mut block_msgs: Vec<u64> = Vec::with_capacity(MAX_BLOCKS);
    let mut sink = Sink::new(cfg.prefix_blocks * cfg.ops_per_block);
    sink.digests.reserve_exact(cfg.prefix_blocks);

    // Repeated set-up. The first one replays a short prefix, untimed, for the
    // determinism check; the last is the measured state.
    let mut digest_rehearsal = None;
    let mut spent_s = 0.0;
    while setup_s.len() + 1 < cfg.setups
        || (cfg.setups > 1
            && setup_s.len() + 1 < MAX_SETUPS
            && !quick()
            && spent_s < SETUP_BUDGET_S)
    {
        let mut load = timed_setup::<L>(cfg.seed, &mut setup_s);
        spent_s += setup_s.last().copied().unwrap_or(0.0);
        if digest_rehearsal.is_none() {
            let mut rehearsal = Sink::new(0);
            for _ in 0..REPLAY_BLOCKS.min(cfg.prefix_blocks) {
                if !load.block(&mut rehearsal) {
                    load.rearm(&mut errors);
                }
            }
            digest_rehearsal = Some(rehearsal.digest);
        }
    }
    let live0 = alloc::snapshot().live;
    alloc::reset_peak();
    let mut load = timed_setup::<L>(cfg.seed, &mut setup_s);
    let base = load.counters();

    let mut result_prefix = None;
    let (mut allocs, mut alloc_bytes) = (0, 0);
    let mut blocks = 0usize;
    loop {
        let before = sink.tot.msgs;
        let a0 = alloc::snapshot();
        let t = Instant::now();
        let alive = load.block(&mut sink);
        let ns = t.elapsed().as_nanos() as f64;
        let a1 = alloc::snapshot();
        blocks += 1;
        // Pre-sized; later blocks still run but are not sampled.
        if block_ns.len() < MAX_BLOCKS {
            block_ns.push(ns);
            block_msgs.push(sink.tot.msgs - before);
        }
        if blocks <= cfg.prefix_blocks {
            allocs += a1.allocs - a0.allocs;
            alloc_bytes += a1.bytes - a0.bytes;
            sink.digests.push(sink.digest);
        }
        if blocks == cfg.prefix_blocks {
            sink.recording = false;
            let mut counters = load.counters();
            for (k, v) in &base {
                bump(&mut counters, k, -v);
            }
            result_prefix = Some((sink.tot, counters, a1.peak.saturating_sub(live0)));
        }
        let timed_out = cfg.seconds.is_none_or(|s| started.elapsed().as_secs_f64() >= s);
        if blocks >= cfg.prefix_blocks && timed_out {
            break;
        }
        if !alive {
            load.rearm(&mut errors);
        }
    }
    load.finish(&mut errors);

    let replayed = REPLAY_BLOCKS.min(cfg.prefix_blocks);
    if digest_rehearsal.is_some_and(|d| d != sink.digests[replayed - 1]) {
        errors.push(format!(
            "two repetitions of the first {replayed} blocks differ in virtual time or counts"
        ));
    }
    let (prefix, counters, peak_heap) = result_prefix.expect("prefix reached");
    let mut lat_sorted = std::mem::take(&mut sink.lat_us);
    lat_sorted.sort_by(f64::total_cmp);
    PassResult {
        setup_s,
        block_ns,
        block_msgs,
        prefix,
        total: sink.tot,
        lat_sorted,
        digests: std::mem::take(&mut sink.digests),
        counters,
        allocs,
        alloc_bytes,
        peak_heap,
        late_us_max: sink.late_us_max,
        errors,
    }
}

/// Sets `L` up, timing it into `setup_s`.
// nm-analyzer: allow(determinism-taint) -- host time of one set-up
fn timed_setup<L: Load>(seed: u64, setup_s: &mut Vec<f64>) -> L {
    let t = Instant::now();
    let load = L::setup(seed);
    // Pre-sized by `drive` for every set-up it makes.
    setup_s.push(t.elapsed().as_secs_f64());
    load
}

/// Host ns per message of every `group` consecutive blocks, sorted.
fn wall_samples(ns: &[f64], msgs: &[u64], group: usize) -> Vec<f64> {
    let mut samples: Vec<f64> = ns
        .chunks_exact(group)
        .zip(msgs.chunks_exact(group))
        .map(|(ns, msgs)| ns.iter().sum::<f64>() / msgs.iter().sum::<u64>().max(1) as f64)
        .collect();
    samples.sort_by(f64::total_cmp);
    samples
}

const MIB: f64 = 1024.0 * 1024.0;

/// Fills the end-to-end metrics and the counts every workload shares from
/// the untraced pass. `faulted` workloads leave `predict_err` out.
pub fn report_untraced(report: &mut Report, pass: &mut PassResult, group: usize, faulted: bool) {
    report.errors.append(&mut pass.errors);
    report.attempted += pass.total.attempted;
    report.failed += pass.total.broken;
    let p = pass.prefix;
    report.check(p.attempted == p.completed + p.refused + p.broken, || {
        format!(
            "{} ops attempted but {} reached a terminal state",
            p.attempted,
            p.completed + p.refused + p.broken
        )
    });
    report.check(p.completed as usize == pass.lat_sorted.len(), || {
        "latency store missed completed ops of the prefix".into()
    });
    let n = pass.setup_s.len() as u64;
    report.set("setup_s", median(&mut pass.setup_s), n);
    let sorted = wall_samples(&pass.block_ns, &pass.block_msgs, group);
    let samples = sorted.len() as u64;
    report.set("wall_ns_per_msg", percentile_sorted(&sorted, WALL_QUANTILE), samples);
    report.set("loadgen.wall_ns_per_msg_p50", percentile_sorted(&sorted, 0.50), samples);
    report.set("engine.block_ns_per_msg_p99", percentile_sorted(&sorted, 0.99), samples);
    report.set("sim_goodput_mibps", p.bytes as f64 / MIB / (p.virtual_us / 1e6), p.completed);
    report.set("sim_latency_us_p50", percentile_sorted(&pass.lat_sorted, 0.50), p.completed);
    report.set("sim_latency_us_p99", percentile_sorted(&pass.lat_sorted, 0.99), p.completed);
    if !faulted {
        report.set("predict_err", p.err_sum / p.err_n.max(1) as f64, p.err_n);
    }
    let failed_share = (p.refused + p.broken) as f64 / p.attempted.max(1) as f64;
    report.set("failed_share", failed_share, p.attempted);
    report.set("completed_share", 1.0 - failed_share, p.attempted);
    report.set("peak_heap_mib", pass.peak_heap as f64 / MIB, 1);
    report.set("engine.allocs_per_msg", pass.allocs as f64 / p.msgs.max(1) as f64, p.msgs);
    report.set(
        "engine.alloc_bytes_per_msg",
        pass.alloc_bytes as f64 / p.msgs.max(1) as f64,
        p.msgs,
    );
    report.set("loadgen.blocks", pass.block_ns.len() as f64, 1);
    report.set("loadgen.ops", p.attempted as f64, 1);
    report.set("loadgen.late_us_max", pass.late_us_max, p.attempted);
}

/// What the traced pass adds: span totals, the traced op time, and the
/// counts the wrappers made.
pub struct TraceResult {
    pub spans: Vec<Span>,
    pub times: BTreeMap<&'static str, Agg>,
    pub root_ns: u64,
    pub msgs: u64,
    pub counters: Counters,
}

impl TraceResult {
    /// Self time of every span whose name starts with `prefix`, ns.
    pub fn self_ns(&self, prefix: &str) -> f64 {
        self.times
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, a)| a.self_ns as f64)
            .sum()
    }

    /// Total time and count of the spans called `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        self.times.get(name).map_or((0.0, 0), |a| (a.total_ns as f64, a.count))
    }

    /// A counter per message.
    pub fn per_msg(&self, counter: &str) -> f64 {
        self.counters.get(counter).copied().unwrap_or(0.0) / self.msgs.max(1) as f64
    }
}

/// Runs the traced pass of `L` over the untraced pass's prefix and checks
/// that the wrappers changed nothing the simulator can see.
pub fn trace<L: Load>(
    report: &mut Report,
    cfg: &PassCfg,
    untraced: &PassResult,
    trace_path: Option<&std::path::Path>,
) -> TraceResult {
    spans::start();
    let blocks = cfg.trace_blocks.min(cfg.prefix_blocks);
    let mut pass = drive::<L>(&PassCfg { setups: 1, seconds: None, prefix_blocks: blocks, ..*cfg });
    let (recorded, dropped) = spans::finish();
    report.errors.append(&mut pass.errors);
    report.attempted += pass.total.attempted;
    report.failed += pass.total.broken;
    report.check(dropped == 0, || format!("{dropped} spans did not fit the span store"));
    report.check(pass.digests.last() == untraced.digests.get(blocks - 1), || {
        "the traced pass and the untraced pass differ in virtual time or counts".into()
    });
    let times = spans::self_times(&recorded);
    let root_ns = spans::root_ns(&recorded);
    let self_sum: u64 = times.values().map(|a| a.self_ns).sum();
    let coverage = self_sum as f64 / root_ns.max(1) as f64;
    report.set("loadgen.self_time_coverage", coverage, recorded.len() as u64);
    report.check((coverage - 1.0).abs() <= 0.05, || {
        format!("self times sum to {coverage:.3} of the traced op time")
    });
    // Block for block over the same inputs, ungrouped.
    let fast = |p: &PassResult| {
        percentile_sorted(
            &wall_samples(&p.block_ns[..blocks], &p.block_msgs[..blocks], 1),
            WALL_QUANTILE,
        )
    };
    report.set("loadgen.trace_overhead_share", fast(&pass) / fast(untraced) - 1.0, blocks as u64);
    if let Some(path) = trace_path {
        if let Err(e) = spans::write_trace(path, &recorded) {
            report.errors.push(format!("writing {}: {e}", path.display()));
        }
    }
    TraceResult { spans: recorded, times, root_ns, msgs: pass.prefix.msgs, counters: pass.counters }
}

/// Set by `--quick`: the direct timed calls then do a token amount of work.
static QUICK: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Turns the smoke-run scaling of [`scaled`] and [`time_ns`] on or off.
pub fn set_quick(on: bool) {
    // RELAXED-OK: a flag read by the thread that set it; it publishes nothing.
    QUICK.store(on, std::sync::atomic::Ordering::Relaxed);
}

fn quick() -> bool {
    // RELAXED-OK: see `set_quick`.
    QUICK.load(std::sync::atomic::Ordering::Relaxed)
}

/// `n` iterations, or a sixty-fourth of them in a smoke run.
pub fn scaled(n: usize) -> usize {
    if quick() {
        n.div_ceil(64)
    } else {
        n
    }
}

/// Times `f` over `iters` calls and returns ns per call (median of 5 rounds;
/// one short round in a smoke run).
// nm-analyzer: allow(determinism-taint) -- direct timed calls into one layer; host time
pub fn time_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let iters = scaled(iters);
    let mut rounds = vec![0.0f64; if quick() { 1 } else { 5 }];
    for r in &mut rounds {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        *r = t.elapsed().as_nanos() as f64 / iters as f64;
    }
    median(&mut rounds)
}
