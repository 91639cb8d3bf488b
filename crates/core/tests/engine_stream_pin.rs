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
//! They were re-recorded a second time when the engine's timers became one
//! armed deadline and parked retries stopped re-parking themselves a
//! microsecond ahead: the digest takes every `poll`'s clock, and a poll now
//! advances to the next event instead of the next microsecond. With the old
//! digests every per-case assertion below still held (census audits, "every
//! case went through recovery"); the one that did not was the set-level
//! "the script produced rejections" — all of the old script's rejections
//! came from polls that stood still during the outage while posts piled up
//! — so the message cap went from 48 to 32 with the re-recording, which
//! gives the script about as many rejections as it had.
//!
//! A third re-recording came when `MulticoreEager` began to defer a medium
//! eager message that finds a NIC busy until the split on idle NICs wins:
//! the `MulticoreEager` and `Paper` columns moved, the `HeteroSplit` and
//! `Aggregation` columns did not. A fourth, when the destination began to
//! pick the receive core of an offloaded eager chunk, moved only seed 17's
//! `MulticoreEager` pair. A fifth, when the composite strategy began to
//! move a pack or single-rail eager send off a busy core 0, moved the
//! `Paper` column and no other. A sixth, when the simulator stopped raising
//! core-idle events, moved every case: an engine with fault tolerance or
//! admission control polls on every event, and the script polls a seeded
//! number of times, so each of those polls now reaches further. A driver
//! that merely dropped the events gave the same 48 digests.
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
        max_pending_msgs: 32,
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
    assert_eq!(c.queued + c.inflight + c.held + c.released + c.shed + c.failed, live, "{c:?}");
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
        [0x281f_f554_2039_dca7, 0x8bf8_d78a_815c_5651],
        [0x040e_3041_9f70_b6cf, 0x7eae_4d01_e1cd_aea8],
        [0x5afb_1036_0e85_f771, 0x6257_d0dd_1581_7bda],
        [0x37b4_59c9_ae2b_b86a, 0xb451_f086_9ecd_1fc3],
    ],
    [
        [0x3f34_3fa9_22df_c8a0, 0x9ad4_2bba_56ad_c4ef],
        [0x5e57_e1fd_a3f6_2598, 0xada1_8db7_c615_00b0],
        [0xcbe9_6243_f5a4_bb79, 0xd61b_d83b_b74d_bffd],
        [0xd97e_8cef_b4fb_2054, 0xff41_5a9a_6bd4_6547],
    ],
    [
        [0xf926_1a58_97b6_b1d2, 0xbfaf_d1b1_456c_3c07],
        [0xa21b_11cf_5fc8_ae09, 0x650e_3538_d7bc_c8bf],
        [0x5cf3_11a0_16ac_0537, 0x1df0_149d_d03c_a29a],
        [0xe7a5_a9d2_bf63_8d40, 0x0d4b_0402_8ba0_7c28],
    ],
    [
        [0xae24_3b31_c587_d514, 0xff86_7ad4_f377_e60f],
        [0x61d6_4d2e_e548_9584, 0xe8b6_9b8c_21b6_695b],
        [0x0206_ade1_cb2a_4362, 0xa2f8_541c_9418_4718],
        [0x078b_ac88_3a3b_f957, 0x2ef3_6e28_c7b2_19b1],
    ],
    [
        [0x9af8_e42e_18fe_3a1e, 0x82fe_f87a_f00c_f6f4],
        [0x2464_c70b_463c_9386, 0x38c1_bf70_c888_2fb8],
        [0x34d3_929d_3b55_492c, 0xb94a_ea7d_9a1c_4c32],
        [0x3030_4bef_8ddf_e100, 0x8abe_18a9_19ce_30ea],
    ],
    [
        [0xdaeb_a32d_27c4_f016, 0x23a7_a466_ce8a_9855],
        [0x8780_63bb_2aa6_ab9b, 0x0b67_d000_de39_d233],
        [0x234f_1430_2c38_e0e7, 0xffd8_bd1f_3e37_8525],
        [0x0a72_c672_19b2_4f98, 0x2cac_7cbb_8618_35bf],
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
