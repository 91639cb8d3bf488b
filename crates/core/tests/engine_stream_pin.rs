//! Stream pin: everything an application can observe of an [`Engine`] with
//! every opt-in layer switched on, digested, under a seeded
//! post/cancel/abandon/poll/wait script and a fault schedule that keeps the
//! recovery paths busy.
//!
//! The digests were captured at the commit *before* the engine's three
//! chunk-keyed maps, its four `transport.submit(` sites and its five copies
//! of the per-flow release became one of each and `engine.rs` was cut into
//! `engine/{mod,post,schedule,recovery}.rs`.
//!
//! Digested: the verdict (id or error class) of every post, cancel and
//! abandon; every poll's clock and done list with the degradation latch and
//! the admission counters after it; every `wait`/`drain` completion field by
//! field (chunk layout included); and at the end the `EngineStats`, the
//! per-rail `Feedback` (bit patterns), the rail health states and the
//! replicated decision state.

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
        ..AdmissionConfig::default()
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

/// Forty phases of: a seeded burst of posts through every entry point, a
/// seeded cancel and abandon of some earlier message, a seeded number of
/// polls, and now and then a wait — then drain.
fn run(predictor: &Predictor, seed: u64, kind: StrategyKind, framed: bool) -> (u64, EngineStats) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut e = engine(predictor, seed, kind, framed);
    let mut known: Vec<MsgId> = Vec::new();
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
                    match e.post_send_batch(&sizes) {
                        Ok(ids) => {
                            for id in ids {
                                h.posted(Ok(id), &mut known);
                            }
                        }
                        Err(err) => h.error(&err),
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
        }
        if rng.random_range(0..3u32) == 0 {
            if let Some(id) = earlier(&mut rng, &known, 12) {
                h.removed(2, e.cancel(id));
            }
        }
        if rng.random_range(0..3u32) == 0 {
            if let Some(id) = earlier(&mut rng, &known, 12) {
                h.removed(3, e.abandon(id));
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
        }
        for _ in 0..rng.random_range(0..3u32) {
            if let Some(id) = earlier(&mut rng, &known, 64) {
                match e.wait(id) {
                    Ok(c) => h.completion(&c),
                    Err(err) => h.error(&err),
                }
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
        [0x4628_e984_954b_edbb, 0x4c32_2a75_6e1c_aa37],
        [0xc8bf_d24d_f685_9247, 0xd480_0beb_ab37_6e9c],
        [0x6fc2_2701_8b6b_80c4, 0x9ae5_4f6a_c098_a03a],
        [0x5a37_c93d_4d20_0bb3, 0xe64a_b3cb_0cb6_6421],
    ],
    [
        [0x835e_85b8_816c_7932, 0x0616_6dee_4d9e_97a8],
        [0x8fc6_97ce_a7a9_81d2, 0x2a99_203f_7428_9055],
        [0x33ff_fe5d_893d_c802, 0x3c92_dab5_2560_5c9c],
        [0x8db0_f5ba_db2f_19c5, 0xf2c9_c304_c45f_5b31],
    ],
    [
        [0xcdf6_156a_c8a4_a752, 0xbf62_33d2_6bcd_f9e3],
        [0x978d_51bf_8366_28e1, 0x143b_adc3_ef33_155c],
        [0xaa0c_5b0e_c1b2_be61, 0x536a_1a3e_aa97_bfa2],
        [0x32d3_73b0_4758_64b3, 0xb2e3_01b8_2c48_283b],
    ],
    [
        [0x0e04_103b_ed22_f99b, 0xcae4_521c_048c_0d26],
        [0x4f03_da10_47d4_f9b0, 0x3c2e_7f33_2105_e4f6],
        [0xbd03_6c21_1be1_f9d1, 0xdaa3_7a68_3ef5_126c],
        [0xea2e_d146_231c_ead0, 0xfe6b_fe3c_9425_e147],
    ],
    [
        [0x7e05_8cbf_bdc1_37a9, 0x1f49_917b_a6e9_0323],
        [0xd3d2_477a_709a_726a, 0xeab4_2d04_add0_56fa],
        [0x9ade_0ce2_bb1a_74c1, 0xf489_716d_16c5_8dc3],
        [0x470e_1de5_4a83_c72f, 0x572a_6d60_4d70_d147],
    ],
    [
        [0x3926_7f62_ccbc_ebd5, 0x5583_d863_05ef_3b4c],
        [0x1de2_b1ec_6ca2_9177, 0x398b_a2a1_aa40_5feb],
        [0x2ac3_d3c6_8159_dbae, 0x1af4_cf36_3f57_3a5c],
        [0xf346_891d_57f1_cd62, 0x7fe2_a5f3_e730_3429],
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
