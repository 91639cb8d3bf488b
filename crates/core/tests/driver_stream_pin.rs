//! Stream pin: the full [`TransportEvent`] stream of the two-node simulated
//! transports, digested, under a seeded submit/cancel/poll script — for the
//! plain driver, the empty fault schedule, one schedule per fault kind and
//! the `perf` storm shape, with size-only and with framed-integrity
//! payloads.
//!
//! The digests were captured at the commit *before* `SimDriver` and
//! `FaultSimDriver` became the `node 0 → node 1` slot of the cluster core
//! (they had their own simulator stepping, event mapping and fault replay
//! then). Every event's variant, chunk, rail/core and instant is digested,
//! plus the id, clock and rail occupancy each submission returned and the
//! verdict of every cancel. Two things are deliberately left out because
//! the unification changed them on purpose: `Wakeup` events (fault-transition
//! timers used to surface to the engine; only the engine's own timers do
//! now) and batch boundaries (a rejected submission's failure used to ride
//! in front of the next stepped batch; it is returned on its own now). The
//! script never opens a window at `t = 0` and never polls with nothing but
//! fault timers pending, which is where those two differences would move the
//! clock.
//!
//! They were re-recorded once since, when the destination began to pick an
//! eager chunk's receive core: the script stopped drawing a receive core
//! for each chunk and draws an offload delay (0 or 3 µs) instead, so half
//! the chunks are offloaded and their receive copies land on the core the
//! destination picks, inside the fault windows and the retractions.

use bytes::Bytes;
use nm_core::driver::faulty::FaultSimDriver;
use nm_core::driver::sim::SimDriver;
use nm_core::transport::{ChunkId, ChunkSubmit, Transport, TransportEvent};
use nm_faults::{FaultKind, FaultSchedule, FaultSpec};
use nm_model::units::{KIB, MIB};
use nm_model::{SimDuration, SimTime};
use nm_proto::{Packet, PacketHeader, PacketKind};
use nm_sim::{CoreId, RailId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashSet;

/// Ids at or above this never reached the simulator (rejected submissions);
/// their failure is reported without the clock moving.
const REJECTED: u64 = 1 << 63;

struct Fnv(u64);

impl Fnv {
    fn push(&mut self, words: &[u64]) {
        for w in words {
            for byte in w.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

/// Folds one event into the digest; returns the chunk whose life it ends
/// (delivered, failed or found corrupt), if any.
fn record(h: &mut Fnv, ev: &TransportEvent) -> Option<ChunkId> {
    let (tag, id, at) = match *ev {
        TransportEvent::ChunkDelivered { chunk, at } => (1, chunk.0, at),
        TransportEvent::ChunkSendDone { chunk, at } => (2, chunk.0, at),
        TransportEvent::RailIdle { rail, at } => (3, rail.index() as u64, at),
        TransportEvent::CoreIdle { core, at } => (4, core.index() as u64, at),
        TransportEvent::ChunkFailed { chunk, at } => (5, chunk.0, at),
        TransportEvent::ChunkCorrupt { chunk, at } => (6, chunk.0, at),
        TransportEvent::Wakeup { .. } => return None,
    };
    h.push(&[tag, id, at.as_nanos()]);
    matches!(tag, 1 | 5 | 6).then_some(ChunkId(id))
}

/// An integrity-framed packet carrying `len` payload bytes.
fn framed(len: u64, msg_id: u64) -> Bytes {
    let header = PacketHeader {
        kind: PacketKind::Eager,
        flow: 1,
        msg_id,
        offset: 0,
        total_len: len,
        chunk_index: 0,
        payload_len: 0,
    };
    Packet::new(header, Bytes::from(vec![msg_id as u8; len as usize])).with_integrity(true).encode()
}

/// Eager and rendezvous sizes; the large ones stay on the wire for
/// milliseconds, so a window that opens mid-script finds chunks in flight.
const SIZES: [u64; 6] = [512, 4 * KIB, 48 * KIB, 256 * KIB, MIB, 4 * MIB];

/// Eight phases of: submit a seeded batch, try to retract its tail, set a
/// timer, then poll until the timer has fired and only a seeded number of
/// chunks are still on the wire — so most phases submit behind traffic in
/// flight, the clock moves even when a whole batch was rejected, and it is
/// never run past the traffic into a window's far end.
fn digest<T: Transport>(mut t: T, seed: u64, with_payload: bool) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    // Simulator-backed chunks that have neither ended nor been retracted.
    let mut live: HashSet<ChunkId> = HashSet::new();
    let mut submitted = 0u64;
    for _phase in 0..8 {
        let mut last = ChunkId(0);
        for _ in 0..rng.random_range(3..=8u64) {
            let rail = RailId(rng.random_range(0..2usize));
            let size = SIZES[rng.random_range(0..SIZES.len())];
            let mut chunk = ChunkSubmit::new(rail, size);
            chunk.send_core = CoreId(rng.random_range(0..4usize));
            chunk.offload_delay = us(3 * rng.random_range(0..2u64));
            if with_payload {
                let bytes = framed(size, submitted);
                chunk.bytes = bytes.len() as u64;
                chunk.payload = Some(bytes);
            }
            submitted += 1;
            last = t.submit(chunk);
            if last.0 < REJECTED {
                live.insert(last);
            }
            h.push(&[7, last.0, t.now().as_nanos(), t.rail_busy_until(rail).as_nanos()]);
        }
        let retracted = t.cancel_chunks(&[last]);
        if retracted {
            live.remove(&last);
        }
        h.push(&[8, u64::from(retracted)]);
        let timer = t.now() + SimDuration::from_micros(rng.random_range(1..400u64));
        t.schedule_wakeup(timer);
        let leave = rng.random_range(0..live.len().max(1));
        while live.len() > leave || t.now() < timer {
            let events = t.poll();
            assert!(!events.is_empty(), "work pending but the transport went quiet");
            for ev in &events {
                if let Some(chunk) = record(&mut h, ev) {
                    live.remove(&chunk);
                }
            }
        }
        h.push(&[9, t.now().as_nanos()]);
    }
    loop {
        let events = t.poll();
        if events.is_empty() {
            break;
        }
        for ev in &events {
            record(&mut h, ev);
        }
    }
    h.push(&[10, t.now().as_nanos(), t.idle_cores().len() as u64]);
    h.0
}

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

fn one(rail: usize, at_us: u64, kind: FaultKind) -> FaultSchedule {
    FaultSchedule::new(0x51ab).with(FaultSpec {
        rail: RailId(rail),
        at: SimTime::from_micros(at_us),
        kind,
    })
}

/// One schedule per fault kind. The outage opens at 150 µs — after the
/// first batch went out, so it kills chunks in flight and the next batch is
/// submitted into it; the lottery and shaping windows open at 1 µs.
fn per_kind() -> [FaultSchedule; 8] {
    [
        one(0, 150, FaultKind::RailDown { duration: us(30_000) }),
        one(0, 1, FaultKind::TransientLoss { prob: 0.3, duration: us(1_000_000) }),
        one(1, 1, FaultKind::LatencySpike { extra: us(120), duration: us(1_000_000) }),
        one(0, 1, FaultKind::BandwidthDegrade { factor: 0.4, duration: us(1_000_000) }),
        one(0, 1, FaultKind::PayloadCorrupt { prob: 0.4, duration: us(1_000_000) }),
        one(1, 1, FaultKind::HeaderCorrupt { prob: 0.4, duration: us(1_000_000) }),
        one(0, 1, FaultKind::DuplicateChunk { prob: 0.5, duration: us(1_000_000) }),
        one(1, 1, FaultKind::ChunkReorderStorm { duration: us(9_000) }),
    ]
}

/// The `perf` storm: continuous low-probability corruption on both rails
/// and one outage taking both rails down together.
fn storm(seed: u64) -> FaultSchedule {
    let at = SimTime::from_micros(1);
    let outage_at = SimTime::from_micros(600);
    let outage = FaultKind::RailDown { duration: us(500) };
    FaultSchedule::new(seed ^ 0x5707)
        .with(FaultSpec {
            rail: RailId(0),
            at,
            kind: FaultKind::PayloadCorrupt { prob: 0.02, duration: us(1_000_000) },
        })
        .with(FaultSpec {
            rail: RailId(1),
            at,
            kind: FaultKind::HeaderCorrupt { prob: 0.01, duration: us(1_000_000) },
        })
        .with(FaultSpec { rail: RailId(0), at: outage_at, kind: outage.clone() })
        .with(FaultSpec { rail: RailId(1), at: outage_at, kind: outage })
}

/// `[size-only, framed]` digests of `schedule` under script seed `seed`.
fn both(schedule: &FaultSchedule, seed: u64) -> [u64; 2] {
    [false, true].map(|p| digest(FaultSimDriver::paper_testbed(schedule.clone()), seed, p))
}

const PLAIN: [u64; 2] = [0x45d5_2190_aa65_dd27, 0x37dc_52b8_86df_bf5c];
const PER_KIND: [[u64; 2]; 8] = [
    [0x48bd_e306_99ba_80dd, 0x416e_c724_88ba_beaa],
    [0x9d05_cce9_9d71_e670, 0x6411_37ff_de1c_b644],
    [0xa6b8_b48c_bfcc_bc10, 0xdd74_99d0_9d41_1fd6],
    [0xd0e0_7a61_7a43_4e15, 0x1d7e_9ab2_8dfb_fb01],
    [0x2c7b_5d00_5f36_da2c, 0x9426_0a68_c6f6_6bd3],
    [0x5ff0_06bf_041f_0025, 0x3ff1_cf19_b59a_982c],
    [0xda86_28d0_3e94_712f, 0xae32_14a3_f9b8_1dce],
    [0x39ae_0112_ca7b_0dc7, 0x946b_c805_f6b5_99da],
];
const STORM: [[u64; 2]; 3] = [
    [0xfe8d_460e_85fa_ceee, 0xdf1d_c8b8_2507_e525],
    [0x812a_1b5f_af93_3ade, 0x48c3_a683_59d5_bcef],
    [0x6eea_6b27_4e35_ece8, 0x408d_5aa0_cf64_f44a],
];

#[test]
fn plain_driver_and_empty_schedule_streams_are_pinned_and_equal() {
    let plain = [false, true].map(|p| digest(SimDriver::paper_testbed(), 11, p));
    assert_eq!(plain, PLAIN, "SimDriver stream moved: {plain:#018x?}");
    assert_eq!(both(&FaultSchedule::empty(), 11), PLAIN, "an empty schedule must be inert");
}

#[test]
fn every_fault_kind_replays_its_pinned_stream() {
    let got: Vec<[u64; 2]> =
        per_kind().iter().enumerate().map(|(i, s)| both(s, 109 + i as u64)).collect();
    assert_eq!(got, PER_KIND, "a fault kind's stream moved: {got:#018x?}");
    for (i, pair) in got.iter().enumerate() {
        assert_ne!(pair[0], digest(SimDriver::paper_testbed(), 109 + i as u64, false));
    }
}

#[test]
fn the_perf_storm_shape_replays_its_pinned_stream() {
    let got = [20, 26, 32].map(|seed| both(&storm(seed), seed));
    assert_eq!(got, STORM, "the storm stream moved: {got:#018x?}");
}
