//! Stream pin: everything an application can observe of an [`Engine`] with
//! every opt-in layer switched on, digested, under a seeded
//! post/cancel/abandon/poll/wait script and a fault schedule that keeps the
//! recovery paths busy.
//!
//! The digests were captured at the commit *before* the engine's three
//! chunk-keyed maps, its four `transport.submit(` sites and its five copies
//! of the per-flow release became one of each and `engine.rs` was cut into
//! `engine/{mod,post,schedule,recovery}.rs` — with one exception, made on
//! purpose and in its own commit: `Engine::drain` now also claims the
//! completions an earlier `poll`/`wait` had already released, which changes
//! what the script's final `drain` returns, so the digests were re-recorded
//! once, after that fix and before the refactor.
//!
//! Digested: the verdict (id or error class) of every post, cancel and
//! abandon; every poll's clock and done list with the degradation latch and
//! the admission counters after it; every `wait`/`drain` completion field by
//! field (chunk layout included); and at the end the `EngineStats`, the
//! per-rail `Feedback` (bit patterns), the rail health states and the
//! replicated decision state.
//!
//! Beside the digest (and never fed into it), every scripted operation is
//! followed by an audit of [`Engine::msg_census`] against what the script
//! itself knows: each id it was handed and has not seen leave stands in
//! exactly one state, and the messages with work ahead of them are the ones
//! admission control counts as pending.

use bytes::Bytes;
use nm_core::driver::faulty::FaultSimDriver;
use nm_core::engine::{Engine, EngineStats, MsgCompletion, MsgId};
use nm_core::strategy::StrategyKind;
use nm_core::{AdmissionConfig, EngineError, HealthConfig, Predictor, Session};
use nm_faults::{FaultKind, FaultSchedule, FaultSpec};
use nm_model::units::{KIB, MIB};
use nm_model::{SimDuration, SimTime};
use nm_sim::RailId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn push(&mut self, words: &[u64]) {
        for w in words {
            self.bytes(&w.to_le_bytes());
        }
    }

    /// The error classes the script provokes on purpose; anything else is
    /// the engine giving up, which no case may end in.
    fn error(&mut self, e: &EngineError) {
        let class = match e {
            EngineError::UnknownMessage(_) => 3,
            EngineError::Backpressure(_) => 5,
            EngineError::Shed(_) => 6,
            hard => panic!("the script hit a hard error: {hard}"),
        };
        self.push(&[0xe, class]);
    }

    fn posted(&mut self, verdict: Result<MsgId, EngineError>, known: &mut Vec<MsgId>) {
        match verdict {
            Ok(id) => {
                self.push(&[1, id.0]);
                known.push(id);
            }
            Err(e) => self.error(&e),
        }
    }

    fn removed(&mut self, what: u64, verdict: Result<bool, EngineError>) {
        match verdict {
            Ok(gone) => self.push(&[what, u64::from(gone)]),
            Err(e) => self.error(&e),
        }
    }

    fn completion(&mut self, c: &MsgCompletion) {
        self.push(&[
            4,
            c.id.0,
            u64::from(c.tag),
            c.size,
            c.posted_at.as_nanos(),
            c.delivered_at.as_nanos(),
            c.duration.as_nanos(),
            c.chunks.len() as u64,
        ]);
        for &(rail, bytes) in &c.chunks {
            self.push(&[rail.index() as u64, bytes]);
        }
    }
}

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

/// Lotteries that stay open for the whole run (corruption on rail 0, loss
/// and duplication on rail 1), two overlapping outages early on — for
/// 0.7 ms no rail is selectable — and a latency spike long enough to push
/// chunks past the watchdog's 1 ms floor, so their deliveries arrive after
/// they were written off.
fn schedule(seed: u64) -> FaultSchedule {
    let long = us(1_000_000);
    let spec = |rail: usize, at_us: u64, kind: FaultKind| FaultSpec {
        rail: RailId(rail),
        at: SimTime::from_micros(at_us),
        kind,
    };
    FaultSchedule::new(seed ^ 0xe91e)
        .with(spec(0, 1, FaultKind::PayloadCorrupt { prob: 0.05, duration: long }))
        .with(spec(1, 1, FaultKind::TransientLoss { prob: 0.08, duration: long }))
        .with(spec(1, 1, FaultKind::DuplicateChunk { prob: 0.10, duration: long }))
        .with(spec(0, 900, FaultKind::RailDown { duration: us(1_500) }))
        .with(spec(1, 1_400, FaultKind::RailDown { duration: us(700) }))
        .with(spec(1, 6_000, FaultKind::LatencySpike { extra: us(1_300), duration: us(1_200) }))
}

fn engine(
    predictor: &Predictor,
    seed: u64,
    kind: StrategyKind,
    framed: bool,
) -> Engine<FaultSimDriver> {
    // Ten retries: no chunk of the script runs out of attempts, so no case
    // ends in the engine's hard error.
    let health = HealthConfig { max_retries: 10, ..HealthConfig::default() };
    let admission = AdmissionConfig {
        max_pending_msgs: 48,
        max_pending_bytes: 24 * MIB,
        default_deadline: Some(us(2_500)),
        degrade_enter_backlog: 24,
        degrade_exit_backlog: 6,
    };
    let engine =
        Engine::new(FaultSimDriver::paper_testbed(schedule(seed)), predictor.clone(), kind.build())
            .expect("engine")
            .with_fault_tolerance(health)
            .expect("health config")
            .with_admission_control(admission)
            .expect("admission config")
            .with_shared_state();
    if framed {
        engine.with_integrity()
    } else {
        engine
    }
}

/// 64 B – 3 MiB, log-uniform.
fn size(rng: &mut StdRng) -> u64 {
    let base = 1u64 << rng.random_range(6..=21u32);
    base + rng.random_range(0..=base / 2)
}

/// One of the last `window` accepted ids (most older ones are long done).
fn earlier(rng: &mut StdRng, known: &[MsgId], window: usize) -> Option<MsgId> {
    let from = known.len().saturating_sub(window);
    (!known.is_empty()).then(|| known[rng.random_range(from..known.len())])
}

/// The per-message state table, held against the script's own bookkeeping:
/// `live` ids were handed out (or left queued by a batch that failed
/// half-way) and have not been claimed, cancelled or abandoned since.
fn audit(e: &Engine<FaultSimDriver>, live: usize) {
    let c = e.msg_census();
    assert_eq!(c.queued + c.inflight + c.held + c.released + c.shed, live, "{c:?}");
    let (pending, _) = e.admission_pending().expect("admission is on");
    assert_eq!((c.queued + c.inflight) as u64, pending, "{c:?}");
}

/// Forty phases of: a seeded burst of posts through every entry point, a
/// seeded cancel and abandon of some earlier message, a seeded number of
/// polls, and now and then a wait — then drain.
fn run(predictor: &Predictor, seed: u64, kind: StrategyKind, framed: bool) -> (u64, EngineStats) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut e = engine(predictor, seed, kind, framed);
    let mut known: Vec<MsgId> = Vec::new();
    // Records the script holds no id for (a batch rejected half-way leaves
    // its accepted head queued), and ids it saw leave the table.
    let (mut orphans, mut gone) = (0usize, 0usize);
    for _phase in 0..40 {
        for _ in 0..rng.random_range(1..=10u32) {
            match rng.random_range(0..4u32) {
                0 => {
                    let tag = rng.random_range(0..3u32);
                    h.posted(e.post_send_tagged(size(&mut rng), tag), &mut known);
                }
                1 => {
                    let deadline = us(rng.random_range(50..3_000u64));
                    h.posted(e.post_send_with_deadline(size(&mut rng), deadline), &mut known);
                }
                2 => {
                    let sizes: Vec<u64> = (0..rng.random_range(1..=6u32))
                        .map(|_| rng.random_range(64..=24 * KIB))
                        .collect();
                    let pending_before = e.admission_pending().expect("admission is on").0;
                    match e.post_send_batch(&sizes) {
                        Ok(ids) => {
                            for id in ids {
                                h.posted(Ok(id), &mut known);
                            }
                        }
                        Err(err) => {
                            h.error(&err);
                            let pending = e.admission_pending().expect("admission is on").0;
                            orphans += (pending - pending_before) as usize;
                        }
                    }
                }
                _ => {
                    let tag = rng.random_range(0..3u32);
                    // Real bytes are capped well below the size-only range:
                    // the point is the framing path, not moving megabytes.
                    let len = size(&mut rng).min(384 * KIB) as usize;
                    let payload = Bytes::from(vec![rng.random_range(0..=255u8); len]);
                    h.posted(e.post_send_bytes_tagged(payload, tag), &mut known);
                }
            }
            audit(&e, known.len() + orphans - gone);
        }
        if rng.random_range(0..3u32) == 0 {
            if let Some(id) = earlier(&mut rng, &known, 12) {
                let verdict = e.cancel(id);
                gone += usize::from(matches!(verdict, Ok(true)));
                h.removed(2, verdict);
                audit(&e, known.len() + orphans - gone);
            }
        }
        if rng.random_range(0..3u32) == 0 {
            if let Some(id) = earlier(&mut rng, &known, 12) {
                let verdict = e.abandon(id);
                gone += usize::from(matches!(verdict, Ok(true)));
                h.removed(3, verdict);
                audit(&e, known.len() + orphans - gone);
            }
        }
        for _ in 0..rng.random_range(0..60u32) {
            // With nothing pending only the schedule's own timers are left,
            // and polling would run the clock to the far end of its windows.
            if e.admission_pending() == Some((0, 0)) {
                break;
            }
            match e.poll() {
                Ok(done) => {
                    h.push(&[5, e.now().as_nanos(), done.len() as u64]);
                    for id in done {
                        h.push(&[id.0]);
                    }
                }
                Err(err) => h.error(&err),
            }
            let (msgs, bytes) = e.admission_pending().expect("admission is on");
            h.push(&[u64::from(e.is_degraded()), msgs, bytes]);
            audit(&e, known.len() + orphans - gone);
        }
        for _ in 0..rng.random_range(0..3u32) {
            if let Some(id) = earlier(&mut rng, &known, 64) {
                match e.wait(id) {
                    Ok(c) => {
                        gone += 1;
                        h.completion(&c);
                    }
                    Err(err) => {
                        gone += usize::from(matches!(err, EngineError::Shed(_)));
                        h.error(&err);
                    }
                }
                audit(&e, known.len() + orphans - gone);
            }
        }
        h.push(&[6, e.now().as_nanos()]);
    }
    match e.drain() {
        Ok(all) => {
            h.push(&[7, all.len() as u64]);
            for c in &all {
                h.completion(c);
            }
        }
        Err(err) => h.error(&err),
    }
    audit(&e, 0);
    let stats = e.stats().clone();
    h.bytes(format!("{stats:?}").as_bytes());
    for fb in e.feedback().rails() {
        h.push(&[
            fb.count,
            fb.mean_abs_rel_err.to_bits(),
            fb.mean_signed_rel_err.to_bits(),
            fb.ewma_ratio.to_bits(),
        ]);
    }
    let health = e.health().expect("fault tolerance is on");
    for r in 0..2 {
        h.bytes(format!("{:?}", health.state(RailId(r))).as_bytes());
    }
    let shared = e.shared_state().expect("shared state is on");
    h.push(&[shared.ops_appended(), e.predictor_epoch(), e.now().as_nanos()]);
    h.bytes(format!("{:?}", shared.snapshot()).as_bytes());
    (h.0, stats)
}

const SEEDS: [u64; 6] = [3, 17, 40, 77, 123, 2024];
const STRATEGIES: [StrategyKind; 4] = [
    StrategyKind::HeteroSplit,
    StrategyKind::MulticoreEager,
    StrategyKind::Aggregation,
    StrategyKind::Paper,
];

/// `PINNED[seed][strategy]` = `[unframed, framed]`.
const PINNED: [[[u64; 2]; 4]; 6] = [
    [
        [0x7078_e4f3_2626_58aa, 0xa444_81d0_71f3_be19],
        [0x27fd_4d9d_e490_e444, 0x246e_654c_0dba_d690],
        [0x8355_5a5b_6e63_3bf3, 0xe38b_84d7_8857_8cf7],
        [0xd038_3fd1_43a1_f952, 0x2848_8fe9_b30d_544d],
    ],
    [
        [0x9d7d_4b34_2601_3e28, 0x548c_c8e3_6740_d0e9],
        [0x562a_b3fe_b2c8_55ce, 0xc258_7294_400b_2cc3],
        [0x3e4c_645f_6dc2_8c7a, 0xa59a_dda4_57e7_ad0a],
        [0xcfd4_d5a9_81e2_e7f2, 0xff94_818d_6486_402d],
    ],
    [
        [0x7d58_36c0_3729_0daa, 0x5c3f_48a2_42cd_e957],
        [0xf2b0_cd5c_e198_a13e, 0xf5f7_c9f2_f003_2b31],
        [0x9563_fb55_3b55_28a9, 0x850e_73bf_03e2_bb63],
        [0x6b71_ac7f_54c9_7849, 0x0b54_5c76_01d8_302e],
    ],
    [
        [0x709a_5805_8636_8c79, 0x1734_625a_1786_62cd],
        [0x070a_6bd3_4fc8_25bf, 0x3e32_8e28_22ba_55a1],
        [0x0edc_3711_6241_f5b4, 0x1c94_a1cf_fec0_9841],
        [0x56ad_b4ba_8ad7_84fe, 0x3b4c_d837_2705_6370],
    ],
    [
        [0x49cd_b39f_62d3_2bfd, 0x13c8_bfe7_fa88_947b],
        [0xa995_8d9b_dba7_1052, 0xdb54_23a8_e1c5_0cc9],
        [0xf71f_56b0_2de6_2bbd, 0x62ad_85be_6a48_feb2],
        [0xd03b_f08b_5a8c_dbd9, 0xca33_4a47_dd34_e6ab],
    ],
    [
        [0xc539_a89d_4654_0d7e, 0xc21d_92a6_cdf8_dd8f],
        [0x6404_bd9a_c244_c8da, 0x1186_4b16_8691_f5b4],
        [0xf9c1_5af7_a353_ec69, 0x1120_e626_86d2_1ed2],
        [0x6857_ef41_14ff_9beb, 0x875e_8322_a13f_f566],
    ],
];

/// Runs the 24 cases of one framing variant against their pinned column.
fn check(framed: bool) {
    let predictor = Session::builder().build_sim().predictor().clone();
    let mut got = [[0u64; 4]; 6];
    // What the set as a whole must have produced, by name.
    let mut seen = [
        ("completions", 0),
        ("duplicates dropped", 0),
        ("corrupt chunks", 0),
        ("sheds", 0),
        ("rejections", 0),
        ("cancels", 0),
        ("abandons", 0),
        ("aggregated messages", 0),
        ("degrade transitions", 0),
    ];
    for (s, &seed) in SEEDS.iter().enumerate() {
        for (k, &kind) in STRATEGIES.iter().enumerate() {
            let (digest, stats) = run(&predictor, seed, kind, framed);
            got[s][k] = digest;
            // Every case on its own must have gone through recovery.
            assert!(
                stats.retries > 0
                    && stats.failovers > 0
                    && stats.chunks_timed_out > 0
                    && stats.quarantines > 0
                    && stats.readmissions > 0,
                "seed {seed} {kind:?} framed={framed} missed a recovery path: {stats:?}"
            );
            let counts = [
                stats.msgs_completed,
                stats.duplicate_chunks_dropped,
                stats.corrupt_chunks,
                stats.msgs_shed,
                stats.backpressure_rejections,
                stats.cancelled,
                stats.msgs_abandoned,
                stats.msgs_aggregated,
                stats.degrade_transitions,
            ];
            for (slot, n) in seen.iter_mut().zip(counts) {
                slot.1 += n;
            }
        }
    }
    for (what, n) in seen {
        assert!(n > 0, "framed={framed}: the script never produced any {what}");
    }
    let pinned = PINNED.map(|per_seed| per_seed.map(|pair| pair[usize::from(framed)]));
    assert_eq!(got, pinned, "the engine's observable stream moved: {got:#018x?}");
}

#[test]
fn the_engine_replays_its_pinned_stream_without_framing() {
    check(false);
}

#[test]
fn the_engine_replays_its_pinned_stream_with_integrity_framing() {
    check(true);
}
