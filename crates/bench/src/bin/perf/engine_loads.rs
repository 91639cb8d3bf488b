//! The five workloads that drive one `Engine` on the paper's two-node
//! testbed: `small_batch`, `split_warm`, `split_cold`, `framed_bytes` and
//! `overload_storm`.

use crate::harness::{bump, Counters, Load, Sink};
use crate::traced::{Alarm, LoopbackRx, Plain, RxShared, Wrap};
use bytes::Bytes;
use nm_bench::sample_predictor;
use nm_core::driver::faulty::FaultSimDriver;
use nm_core::driver::sim::SimDriver;
use nm_core::engine::{Engine, MsgCompletion, MsgId};
use nm_core::strategy::StrategyKind;
use nm_core::transport::Transport;
use nm_core::{AdmissionConfig, EngineError, HealthConfig, Predictor};
use nm_faults::{FaultKind, FaultSchedule, FaultSpec};
use nm_model::units::{KIB, MIB};
use nm_model::{SimDuration, SimTime};
use nm_sim::{ClusterSpec, RailId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::OnceLock;

/// An engine with the tallies the output checks need.
struct Rig<W: Wrap, I: Transport> {
    engine: Engine<W::Out<I>>,
    /// Completed on this engine, warm-up included.
    completed: u64,
    completed_bytes: u64,
    /// Last reading of the engine's prediction feedback: Σ error, Σ chunks.
    fb: (f64, u64),
    /// Counts of the engines already retired.
    retired: Counters,
}

impl<W: Wrap, I: Transport> Rig<W, I> {
    fn new(engine: Engine<W::Out<I>>) -> Self {
        Rig { engine, completed: 0, completed_bytes: 0, fb: (0.0, 0), retired: Counters::new() }
    }

    /// Folds one completion into the sink, timing it from `posted`.
    fn complete(&mut self, c: &MsgCompletion, sink: &mut Sink) {
        self.completed += 1;
        self.completed_bytes += c.size;
        sink.completed(c.duration.as_micros_f64(), c.size);
    }

    /// Closes a block: virtual time since `t0` and the per-chunk prediction
    /// error the engine's feedback gathered meanwhile.
    fn end_block(&mut self, t0: SimTime, msgs: u64, sink: &mut Sink) {
        sink.msgs(msgs);
        sink.virtual_elapsed((self.engine.now() - t0).as_micros_f64());
        let now: (f64, u64) = self
            .engine
            .feedback()
            .rails()
            .iter()
            .fold((0.0, 0), |(s, n), r| (s + r.mean_abs_rel_err * r.count as f64, n + r.count));
        sink.predict_err(now.0 - self.fb.0, now.1 - self.fb.1);
        self.fb = now;
    }

    /// Adds the live engine's counts to `c`, and what a traced transport
    /// counted (nothing in a plain pass).
    fn harvest(&self, c: &mut Counters) {
        let t = W::counters::<I>(self.engine.transport());
        bump(c, "submits", t.submits as f64);
        bump(c, "polls", t.polls as f64);
        bump(c, "events", t.events as f64);
        bump(c, "state_queries", t.state_queries.iter().sum::<u64>() as f64);
        bump(c, "state_query_ns", t.state_query_ns);
        let s = self.engine.stats();
        for (name, v) in [
            ("msgs_completed", s.msgs_completed as f64),
            ("bytes_completed", s.bytes_completed as f64),
            ("chunks_submitted", s.chunks_submitted as f64),
            ("msgs_aggregated", s.msgs_aggregated as f64),
            ("rail0_bytes", s.rail_bytes.first().copied().unwrap_or(0) as f64),
            ("rail_bytes", s.rail_bytes.iter().sum::<u64>() as f64),
            ("defers", s.defers as f64),
            ("msgs_shed", s.msgs_shed as f64),
            ("rejections", s.backpressure_rejections as f64),
            ("degrade_transitions", s.degrade_transitions as f64),
            ("retries", s.retries as f64),
            ("failovers", s.failovers as f64),
            ("quarantines", s.quarantines as f64),
            ("readmissions", s.readmissions as f64),
            ("probes_sent", s.probes_sent as f64),
            ("chunks_timed_out", s.chunks_timed_out as f64),
            ("failover_latency_us_sum", s.failover_latency_us_sum),
            ("failover_completions", s.failover_completions as f64),
            ("retransmitted_bytes", s.retransmitted_bytes as f64),
            ("corrupt_chunks", s.corrupt_chunks as f64),
            ("duplicate_chunks_dropped", s.duplicate_chunks_dropped as f64),
        ] {
            bump(c, name, v);
        }
        if let Some(shared) = self.engine.shared_state() {
            bump(c, "ops_appended", shared.ops_appended() as f64);
        }
    }

    /// Conservation on the live engine: every completion the load saw is one
    /// the engine counted, byte for byte.
    fn check(&self, errors: &mut Vec<String>) {
        let s = self.engine.stats();
        if s.msgs_completed != self.completed || s.bytes_completed != self.completed_bytes {
            errors.push(format!(
                "engine counted {} msgs / {} bytes completed, the load saw {} / {}",
                s.msgs_completed, s.bytes_completed, self.completed, self.completed_bytes
            ));
        }
    }

    /// Retires the live engine for `next`.
    fn replace(&mut self, next: Engine<W::Out<I>>, errors: &mut Vec<String>) {
        self.check(errors);
        let mut retired = std::mem::take(&mut self.retired);
        self.harvest(&mut retired);
        *self = Rig { retired, ..Rig::new(next) };
    }

    fn counters(&self) -> Counters {
        let mut c = self.retired.clone();
        self.harvest(&mut c);
        c
    }
}

fn testbed() -> ClusterSpec {
    ClusterSpec::paper_testbed()
}

// ---------------------------------------------------------------- small_batch

/// Messages per `post_send_batch`.
const BATCH: usize = 16;
/// Batches per timed block.
const BATCHES_PER_BLOCK: usize = 4;
/// Size classes of `small_batch`, all eager on both rails.
const SMALL_SIZES: [u64; 5] = [64, 256, KIB, 4 * KIB, 16 * KIB];
/// Messages after which an engine is retired: the simulator keeps a ledger
/// entry per transfer for its whole life, so a state must not live forever.
const SMALL_EPISODE_MSGS: u64 = 1 << 16;

/// Closed loop of 16-message batches of the smallest sizes under the paper's
/// composite strategy.
pub struct SmallBatch<W: Wrap> {
    rig: Rig<W, SimDriver>,
    predictor: Predictor,
    rng: StdRng,
}

impl<W: Wrap> SmallBatch<W> {
    pub const MSGS_PER_BLOCK: usize = BATCH * BATCHES_PER_BLOCK;

    fn engine(predictor: &Predictor) -> Engine<W::Out<SimDriver>> {
        Engine::new(
            W::transport(SimDriver::new(testbed())),
            predictor.clone(),
            W::strategy(StrategyKind::Paper),
        )
        .expect("engine")
    }

    fn batch(&mut self, sink: &mut Sink) {
        let _op = W::span("loadgen.op");
        let mut sizes = [0u64; BATCH];
        for s in &mut sizes {
            *s = SMALL_SIZES[self.rng.random_range(0..SMALL_SIZES.len())];
        }
        {
            let _s = W::span("engine.post");
            self.rig.engine.post_send_batch(&sizes).expect("post batch");
        }
        let done = {
            let _s = W::span("engine.poll");
            self.rig.engine.drain().expect("drain")
        };
        for c in &done {
            self.rig.complete(c, sink);
        }
        sink.broken((BATCH - done.len()) as u64);
    }

    fn warm_up(&mut self) {
        let mut scratch = Sink::scratch();
        for _ in 0..32 {
            self.batch(&mut scratch);
        }
    }
}

impl<W: Wrap> Load for SmallBatch<W> {
    fn setup(seed: u64) -> Self {
        let predictor = sample_predictor(&testbed());
        let mut load = SmallBatch {
            rig: Rig::new(Self::engine(&predictor)),
            predictor,
            rng: StdRng::seed_from_u64(seed),
        };
        load.warm_up();
        load
    }

    fn block(&mut self, sink: &mut Sink) -> bool {
        let t0 = self.rig.engine.now();
        for _ in 0..BATCHES_PER_BLOCK {
            self.batch(sink);
        }
        self.rig.end_block(t0, Self::MSGS_PER_BLOCK as u64, sink);
        self.rig.completed < SMALL_EPISODE_MSGS
    }

    fn rearm(&mut self, errors: &mut Vec<String>) {
        self.rig.replace(Self::engine(&self.predictor), errors);
        self.warm_up();
    }

    fn counters(&self) -> Counters {
        self.rig.counters()
    }

    fn finish(self, errors: &mut Vec<String>) {
        self.rig.check(errors);
    }
}

// ------------------------------------------------------ split_warm / split_cold

/// Fig 8's nine power-of-two sizes, 32 KiB … 8 MiB.
pub const FIG8_SIZES: [u64; 9] =
    [32 * KIB, 64 * KIB, 128 * KIB, 256 * KIB, 512 * KIB, MIB, 2 * MIB, 4 * MIB, 8 * MIB];
/// Messages after which a split engine is retired.
const SPLIT_EPISODE_MSGS: u64 = 1 << 15;

/// Virtual one-way µs of every Fig 8 size on a fresh engine, per strategy:
/// hetero split (what `fig8` prints) and each single rail.
pub struct Fig8Golden {
    pub hetero: [f64; 9],
    pub best_single: [f64; 9],
}

/// The golden durations, computed once per process, outside every timed span.
pub fn fig8_golden() -> &'static Fig8Golden {
    static GOLDEN: OnceLock<Fig8Golden> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let us = |kind, size| nm_bench::one_way_us(kind, size).get();
        Fig8Golden {
            hetero: FIG8_SIZES.map(|s| us(StrategyKind::HeteroSplit, s)),
            best_single: FIG8_SIZES.map(|s| {
                us(StrategyKind::SingleRail(Some(RailId(0))), s)
                    .min(us(StrategyKind::SingleRail(Some(RailId(1))), s))
            }),
        }
    })
}

/// Closed loop of one message at a time under `HeteroSplit`, rails idle.
/// Warm: the nine Fig 8 sizes in a seeded order, each owning a plan-cache
/// slot. Cold: every size a fresh log-uniform draw over the same range, so
/// every decision runs selection and the dichotomy.
pub struct Split<W: Wrap, const COLD: bool> {
    rig: Rig<W, SimDriver>,
    predictor: Predictor,
    rng: StdRng,
    /// Warm ops whose virtual duration was not the golden one.
    off_golden: u64,
}

impl<W: Wrap, const COLD: bool> Split<W, COLD> {
    pub const MSGS_PER_BLOCK: usize = FIG8_SIZES.len();

    fn engine(predictor: &Predictor) -> Engine<W::Out<SimDriver>> {
        Engine::new(
            W::transport(SimDriver::new(testbed())),
            predictor.clone(),
            W::strategy(StrategyKind::HeteroSplit),
        )
        .expect("engine")
    }

    /// The block's sizes, with the golden duration where there is one.
    fn draw(&mut self) -> [(u64, Option<f64>); 9] {
        let mut out = [(0, None); 9];
        if COLD {
            // Stratified: one draw from each ninth of the log-range, so the
            // size mix of every block is the same and only the sizes differ.
            let (lo, hi) = ((32 * KIB) as f64, (8 * MIB) as f64);
            let step = (hi.ln() - lo.ln()) / out.len() as f64;
            for (i, o) in out.iter_mut().enumerate() {
                let from = lo.ln() + step * i as f64;
                let u: f64 = self.rng.random_range(from..from + step);
                *o = (u.exp() as u64, None);
            }
        } else {
            let golden = fig8_golden();
            for (i, o) in out.iter_mut().enumerate() {
                *o = (FIG8_SIZES[i], Some(golden.hetero[i]));
            }
        }
        // Fisher–Yates with the workload's own generator.
        for i in (1..out.len()).rev() {
            out.swap(i, self.rng.random_range(0..=i));
        }
        out
    }

    fn cycle(&mut self, sink: &mut Sink) {
        for (size, golden) in self.draw() {
            let _op = W::span("loadgen.op");
            let id = {
                let _s = W::span("engine.post");
                self.rig.engine.post_send(size).expect("post")
            };
            let done = {
                let _s = W::span("engine.poll");
                self.rig.engine.wait(id).expect("wait")
            };
            if golden.is_some_and(|g| g != done.duration.as_micros_f64()) {
                self.off_golden += 1;
            }
            self.rig.complete(&done, sink);
        }
    }

    fn warm_up(&mut self) {
        let mut scratch = Sink::scratch();
        for _ in 0..4 {
            self.cycle(&mut scratch);
        }
    }
}

impl<W: Wrap, const COLD: bool> Load for Split<W, COLD> {
    fn setup(seed: u64) -> Self {
        let predictor = sample_predictor(&testbed());
        let mut load = Split {
            rig: Rig::new(Self::engine(&predictor)),
            predictor,
            rng: StdRng::seed_from_u64(seed),
            off_golden: 0,
        };
        load.warm_up();
        load
    }

    fn block(&mut self, sink: &mut Sink) -> bool {
        let t0 = self.rig.engine.now();
        self.cycle(sink);
        self.rig.end_block(t0, Self::MSGS_PER_BLOCK as u64, sink);
        self.rig.completed < SPLIT_EPISODE_MSGS
    }

    fn rearm(&mut self, errors: &mut Vec<String>) {
        self.rig.replace(Self::engine(&self.predictor), errors);
        self.warm_up();
    }

    fn counters(&self) -> Counters {
        self.rig.counters()
    }

    fn finish(self, errors: &mut Vec<String>) {
        self.rig.check(errors);
        if self.off_golden > 0 {
            errors.push(format!(
                "{} split_warm durations differ from nm_bench::one_way_us(HeteroSplit, size)",
                self.off_golden
            ));
        }
    }
}

// --------------------------------------------------------------- framed_bytes

/// Payload sizes of `framed_bytes`.
pub const FRAMED_SIZES: [u64; 3] = [4 * KIB, 64 * KIB, MIB];
/// Distinct seeded buffers per size.
const FRAMED_POOL: usize = 2;
/// Flow tags in use; per-tag order is checked on receive.
const FRAMED_TAGS: u32 = 2;
/// One message of each size per block, in a seeded order, so that every
/// block is the same work and the median over blocks is one mode.
const FRAMED_MSGS_PER_BLOCK: usize = FRAMED_SIZES.len();
const FRAMED_EPISODE_MSGS: u64 = 1 << 12;
/// The receiver is handed every eighth chunk that leaves its message
/// incomplete a second time, as a `DuplicateChunk` fault on the wire would:
/// reassembly has to recognise and drop it.
pub const FRAMED_DUPLICATE_EVERY: u64 = 8;

/// Closed loop of real payloads under `HeteroSplit` with integrity framing,
/// received by a [`LoopbackRx`].
pub struct FramedBytes<W: Wrap> {
    rig: Rig<W, LoopbackRx<SimDriver>>,
    predictor: Predictor,
    rng: StdRng,
    pool: Vec<Bytes>,
    rx: Rc<RefCell<RxShared>>,
    /// Receiver tallies of the engines already retired.
    rx_retired: Counters,
}

impl<W: Wrap> FramedBytes<W> {
    pub const MSGS_PER_BLOCK: usize = FRAMED_MSGS_PER_BLOCK;

    fn engine(
        predictor: &Predictor,
        rx: &Rc<RefCell<RxShared>>,
    ) -> Engine<W::Out<LoopbackRx<SimDriver>>> {
        Engine::new(
            W::transport(
                LoopbackRx::new(SimDriver::new(testbed()), rx.clone())
                    .duplicating_every(FRAMED_DUPLICATE_EVERY),
            ),
            predictor.clone(),
            W::strategy(StrategyKind::HeteroSplit),
        )
        .expect("engine")
        .with_integrity()
    }

    fn message(&mut self, size_class: usize, sink: &mut Sink) {
        let buffer = size_class * FRAMED_POOL + self.rng.random_range(0..FRAMED_POOL);
        let payload = self.pool[buffer].clone();
        let tag = self.rng.random_range(0..FRAMED_TAGS);
        self.rx.borrow_mut().expect(tag, payload.clone());
        let _op = W::span("loadgen.op");
        let id = {
            let _s = W::span("engine.post");
            self.rig.engine.post_send_bytes_tagged(payload, tag).expect("post")
        };
        let done = {
            let _s = W::span("engine.poll");
            self.rig.engine.wait(id).expect("wait")
        };
        self.rig.complete(&done, sink);
    }

    fn warm_up(&mut self) {
        let mut scratch = Sink::scratch();
        for i in 0..8 {
            self.message(i % FRAMED_SIZES.len(), &mut scratch);
        }
    }

    fn harvest_rx(&self, c: &mut Counters) {
        let rx = self.rx.borrow();
        bump(c, "rx_chunks", rx.chunks as f64);
        bump(c, "rx_wire_bytes", rx.wire_bytes as f64);
        bump(c, "rx_duplicate_wire_bytes", rx.duplicate_wire_bytes as f64);
        bump(c, "rx_msgs", rx.delivered_msgs as f64);
        bump(c, "rx_bytes", rx.delivered_bytes as f64);
        bump(c, "rx_corrupt_dropped", rx.corrupt_dropped as f64);
        bump(c, "rx_duplicates_dropped", rx.duplicates_dropped as f64);
    }

    /// Every completed message was released by the receiver, in order, with
    /// the bytes that were posted.
    fn check_rx(&self, errors: &mut Vec<String>) {
        let rx = self.rx.borrow();
        if let Some(e) = &rx.error {
            errors.push(format!("receive path: {e:?}"));
        }
        if rx.delivered_msgs != self.rig.completed || rx.delivered_bytes != self.rig.completed_bytes
        {
            errors.push(format!(
                "receiver verified {} msgs / {} bytes of {} / {} completed",
                rx.delivered_msgs, rx.delivered_bytes, self.rig.completed, self.rig.completed_bytes
            ));
        }
    }
}

impl<W: Wrap> Load for FramedBytes<W> {
    fn setup(seed: u64) -> Self {
        let predictor = sample_predictor(&testbed());
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = FRAMED_SIZES
            .iter()
            .flat_map(|&size| std::iter::repeat_n(size, FRAMED_POOL))
            .map(|size| {
                let mut buf = vec![0u8; size as usize];
                for word in buf.chunks_mut(8) {
                    let r = rng.random::<u64>().to_le_bytes();
                    word.copy_from_slice(&r[..word.len()]);
                }
                Bytes::from(buf)
            })
            .collect();
        let rx = Rc::new(RefCell::new(RxShared::default()));
        let mut load = FramedBytes {
            rig: Rig::new(Self::engine(&predictor, &rx)),
            predictor,
            rng,
            pool,
            rx,
            rx_retired: Counters::new(),
        };
        load.warm_up();
        load
    }

    fn block(&mut self, sink: &mut Sink) -> bool {
        let t0 = self.rig.engine.now();
        let mut order = [0, 1, 2];
        for i in (1..order.len()).rev() {
            order.swap(i, self.rng.random_range(0..=i));
        }
        for size_class in order {
            self.message(size_class, sink);
        }
        self.rig.end_block(t0, FRAMED_MSGS_PER_BLOCK as u64, sink);
        self.rig.completed < FRAMED_EPISODE_MSGS
    }

    fn rearm(&mut self, errors: &mut Vec<String>) {
        self.check_rx(errors);
        let mut rx_retired = std::mem::take(&mut self.rx_retired);
        self.harvest_rx(&mut rx_retired);
        self.rx_retired = rx_retired;
        self.rx = Rc::new(RefCell::new(RxShared::default()));
        self.rig.replace(Self::engine(&self.predictor, &self.rx), errors);
        self.warm_up();
    }

    fn counters(&self) -> Counters {
        let mut c = self.rig.counters();
        for (k, v) in &self.rx_retired {
            bump(&mut c, k, *v);
        }
        self.harvest_rx(&mut c);
        c
    }

    fn finish(self, errors: &mut Vec<String>) {
        self.rig.check(errors);
        self.check_rx(errors);
    }
}

// ------------------------------------------------------------- overload_storm

/// Message size of the storm.
pub const STORM_MSG_BYTES: u64 = 32 * KIB;
/// Virtual time between bursts: the offered-load clock.
const STORM_GAP_US: u64 = 600;
/// Messages per burst: the one stated rate, 16 × 32 KiB per 600 µs
/// (833 MiB/s offered). Tuned once, with the outage below, so that about
/// 15 % of the posts are shed or rejected at the seed commit.
pub const STORM_BURST: usize = 16;
/// Bursts per episode; an episode is one engine, one fault schedule, one
/// timed block.
pub const STORM_BURSTS: usize = 48;
/// Deadline after which a queued message is shed.
const STORM_DEADLINE_US: u64 = 1_500;
/// The periodic dual-rail outage: once per episode, at the same instant, so
/// that every episode is the same work and only the fault lottery differs.
const STORM_OUTAGE_AT_US: u64 = 7_500;
const STORM_OUTAGE_US: u64 = 800;

/// Polls the generator grants the engine to reach a burst's due instant. With
/// a backlog behind quarantined rails the engine at the seed commit wakes
/// itself up to 30 000 times inside one 600 µs gap, each a poll.
const STORM_MAX_POLLS: usize = 1 << 20;

/// Resubmissions per chunk before the engine gives up with a hard `poll`
/// error. The default of 4 is spent by a chunk that fails once to corruption
/// and then meets the outage (about one episode in 40 000), and a benchmark's
/// ops must not fail; twice that outlasts the outage with room to spare. The
/// storm as issued keeps the default: see [`Storm`].
const STORM_MAX_RETRIES: u32 = 8;

/// Which storm an engine faces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storm {
    /// The measured workload: no op may fail, so it leaves out the two
    /// things that make `Engine::poll` fail hard at the seed commit.
    Measured,
    /// The issue's definition to the letter: `DuplicateChunk` faults too and
    /// the default `max_retries`. A duplicate of a chunk the watchdog had
    /// abandoned ("delivery for unknown chunk") and a chunk out of retries
    /// are hard `poll` errors; [`storm_hard_errors`] counts the episodes they
    /// end, so that the known failure stays in the results.
    AsIssued,
}

/// The admission caps of the `overload` bin.
fn storm_admission() -> AdmissionConfig {
    AdmissionConfig {
        max_pending_msgs: 128,
        max_pending_bytes: 16 * MIB,
        default_deadline: Some(SimDuration::from_micros(STORM_DEADLINE_US)),
        degrade_enter_backlog: 32,
        degrade_exit_backlog: 8,
        ..AdmissionConfig::default()
    }
}

/// One episode's faults: continuous low-probability payload and header
/// corruption (and, as issued, duplication) under a seeded lottery, and the
/// periodic dual-rail outage.
pub fn storm_schedule(seed: u64, episode: u64, storm: Storm) -> FaultSchedule {
    let mut rng = StdRng::seed_from_u64(seed ^ episode.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let horizon = SimDuration::from_micros(1_000_000);
    let at = SimTime::from_micros(1);
    let outage_at = SimTime::from_micros(STORM_OUTAGE_AT_US);
    let outage = FaultKind::RailDown { duration: SimDuration::from_micros(STORM_OUTAGE_US) };
    let mut schedule = FaultSchedule::new(rng.random())
        .with(FaultSpec {
            rail: RailId(0),
            at,
            kind: FaultKind::PayloadCorrupt { prob: 0.02, duration: horizon },
        })
        .with(FaultSpec {
            rail: RailId(1),
            at,
            kind: FaultKind::HeaderCorrupt { prob: 0.01, duration: horizon },
        })
        .with(FaultSpec { rail: RailId(0), at: outage_at, kind: outage.clone() })
        .with(FaultSpec { rail: RailId(1), at: outage_at, kind: outage });
    if storm == Storm::AsIssued {
        schedule = schedule.with(FaultSpec {
            rail: RailId(1),
            at,
            kind: FaultKind::DuplicateChunk { prob: 0.01, duration: horizon },
        });
    }
    schedule
}

/// Open loop in virtual time: bursts of `try_post_send` on a fixed schedule
/// into an admission-controlled, fault-tolerant engine over the chaos driver.
pub struct OverloadStorm<W: Wrap> {
    rig: Rig<W, Alarm<FaultSimDriver>>,
    /// Where the live engine's transport is told to wake up next.
    alarm: Rc<Cell<Option<SimTime>>>,
    predictor: Predictor,
    seed: u64,
    episode: u64,
    storm: Storm,
    /// Accepted posts of the episode: id and the burst they were due in.
    accepted: Vec<(MsgId, SimTime)>,
    /// Host ns and count of rejected posts (traced pass only).
    reject: (f64, u64),
    /// Bursts posted before their due instant: the offered rate compressed.
    early_bursts: u64,
}

impl<W: Wrap> OverloadStorm<W> {
    pub const MSGS_PER_BLOCK: usize = STORM_BURST * STORM_BURSTS;

    fn engine(
        predictor: &Predictor,
        seed: u64,
        episode: u64,
        storm: Storm,
        alarm: &Rc<Cell<Option<SimTime>>>,
    ) -> Engine<W::Out<Alarm<FaultSimDriver>>> {
        let driver = FaultSimDriver::new(testbed(), storm_schedule(seed, episode, storm));
        let driver = Alarm::new(driver, alarm.clone());
        let health = match storm {
            Storm::Measured => {
                HealthConfig { max_retries: STORM_MAX_RETRIES, ..HealthConfig::default() }
            }
            Storm::AsIssued => HealthConfig::default(),
        };
        Engine::new(W::transport(driver), predictor.clone(), W::strategy(StrategyKind::Aggregation))
            .expect("engine")
            .with_fault_tolerance(health)
            .expect("health config")
            .with_admission_control(storm_admission())
            .expect("admission config")
            .with_shared_state()
    }

    fn new(seed: u64, storm: Storm) -> Self {
        let predictor = sample_predictor(&testbed());
        let alarm = Rc::new(Cell::new(None));
        OverloadStorm {
            rig: Rig::new(Self::engine(&predictor, seed, 0, storm, &alarm)),
            alarm,
            predictor,
            seed,
            episode: 0,
            storm,
            accepted: Vec::with_capacity(Self::MSGS_PER_BLOCK),
            reject: (0.0, 0),
            early_bursts: 0,
        }
    }

    fn post(&mut self, due: SimTime, sink: &mut Sink) -> Result<(), EngineError> {
        let _op = W::span("loadgen.op");
        let _s = W::span("engine.post");
        // Host cost of a rejected post, traced pass only.
        let t = W::TRACED.then(std::time::Instant::now);
        match self.rig.engine.try_post_send(STORM_MSG_BYTES) {
            // nm-analyzer: bounded(STORM_BURSTS) -- drained every episode, which posts
            // STORM_BURST * STORM_BURSTS messages into a store pre-sized for them
            Ok(id) => self.accepted.push((id, due)),
            Err(EngineError::Backpressure(_)) => {
                sink.refused(1);
                if let Some(t) = t {
                    self.reject.0 += t.elapsed().as_nanos() as f64;
                    self.reject.1 += 1;
                }
            }
            Err(e) => return Err(e),
        }
        Ok(())
    }

    /// One episode: every burst at its due instant, then every accepted post
    /// waited on. A hard engine error ends it.
    fn episode(&mut self, t0: SimTime, sink: &mut Sink) -> Result<(), EngineError> {
        self.accepted.clear();
        let gap = SimDuration::from_micros(STORM_GAP_US);
        for burst in 0..STORM_BURSTS as u64 {
            let due = t0 + gap * burst;
            // Advance virtual time to the burst's due instant: an idle engine
            // waits for nothing, so the transport is told to wake up then.
            // Bounded, because the clock moving is the program's business; a
            // burst that goes out early fails the run.
            if self.rig.engine.now() < due {
                self.alarm.set(Some(due));
            }
            for _ in 0..STORM_MAX_POLLS {
                if self.rig.engine.now() >= due {
                    break;
                }
                let _op = W::span("loadgen.op");
                let _s = W::span("engine.poll");
                self.rig.engine.poll()?;
            }
            if self.rig.engine.now() < due {
                self.early_bursts += 1;
            }
            let late = self.rig.engine.now().saturating_since(due).as_micros_f64();
            sink.late_us_max = sink.late_us_max.max(late);
            for _ in 0..STORM_BURST {
                self.post(due, sink)?;
            }
        }
        for i in 0..self.accepted.len() {
            let (id, due) = self.accepted[i];
            let _op = W::span("loadgen.op");
            let _s = W::span("engine.poll");
            match self.rig.engine.wait(id) {
                Ok(c) => {
                    self.rig.completed += 1;
                    self.rig.completed_bytes += c.size;
                    sink.completed((c.delivered_at - due).as_micros_f64(), c.size);
                }
                Err(EngineError::Shed(_)) => sink.refused(1),
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// A spent engine holds nothing back: every accepted post was waited on,
    /// and every burst went out no earlier than it was due.
    fn check_drained(&self, errors: &mut Vec<String>) {
        if self.rig.engine.admission_pending() != Some((0, 0)) {
            errors.push("messages still pending after every accepted post was waited on".into());
        }
        if self.early_bursts > 0 {
            errors.push(format!(
                "{} bursts were posted before their due instant: the clock did not advance",
                self.early_bursts
            ));
        }
    }
}

/// Of `episodes` episodes of the storm as issued ([`Storm::AsIssued`]), how
/// many a hard engine error ended. A direct call on the workload's own
/// inputs, outside every timed span.
pub fn storm_hard_errors(seed: u64, episodes: u64) -> u64 {
    let mut load = OverloadStorm::<Plain>::new(seed, Storm::AsIssued);
    let mut scratch = Sink::scratch();
    let mut ended = 0;
    for _ in 0..episodes {
        let t0 = load.rig.engine.now();
        ended += u64::from(load.episode(t0, &mut scratch).is_err());
        // The spent engine may be broken; it is dropped unchecked.
        load.rearm(&mut Vec::new());
    }
    ended
}

impl<W: Wrap> Load for OverloadStorm<W> {
    fn setup(seed: u64) -> Self {
        Self::new(seed, Storm::Measured)
    }

    fn block(&mut self, sink: &mut Sink) -> bool {
        let t0 = self.rig.engine.now();
        let before = sink.tot.attempted;
        if let Err(e) = self.episode(t0, sink) {
            // The posts of the episode that reached no terminal state.
            sink.broken(Self::MSGS_PER_BLOCK as u64 - (sink.tot.attempted - before));
            eprintln!("overload_storm: episode {} ended by a hard error: {e}", self.episode);
        }
        self.rig.end_block(t0, Self::MSGS_PER_BLOCK as u64, sink);
        false
    }

    fn rearm(&mut self, errors: &mut Vec<String>) {
        self.check_drained(errors);
        self.episode += 1;
        self.early_bursts = 0;
        self.alarm.set(None);
        let next = Self::engine(&self.predictor, self.seed, self.episode, self.storm, &self.alarm);
        self.rig.replace(next, errors);
    }

    fn counters(&self) -> Counters {
        let mut c = self.rig.counters();
        bump(&mut c, "reject_ns", self.reject.0);
        bump(&mut c, "reject_calls", self.reject.1 as f64);
        c
    }

    fn finish(self, errors: &mut Vec<String>) {
        // `block` leaves the engine spent: retire-time conservation applies.
        self.rig.check(errors);
        self.check_drained(errors);
    }
}
