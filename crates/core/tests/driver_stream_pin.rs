//! Stream pin: the full [`TransportEvent`] stream of the two-node simulated
//! transports, digested, under a seeded submit/cancel/poll script — for the
//! plain driver, the empty fault schedule, one schedule per fault kind and
//! the `perf` storm shape, with size-only and with framed-integrity
//! payloads.
//!
//! The digests were captured at the commit *before* `SimDriver` and
//! `FaultSimDriver` became the `node 0 → node 1` slot of the cluster core
//! (they had their own simulator stepping, event mapping and fault replay
//! then). Every event's variant, chunk or rail, and instant is digested,
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
//! destination picks, inside the fault windows and the retractions. And
//! again when the simulator stopped raising core-idle events: no engine
//! acts on one, so the stream lost them and nothing else (a driver that
//! merely dropped them gave the same digests).

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

const PLAIN: [u64; 2] = [0x7f76_80a2_43b1_cd4b, 0xd31a_dd49_cf51_8952];
const PER_KIND: [[u64; 2]; 8] = [
    [0xe8a3_a866_8d36_e9a8, 0x736e_beff_798d_8741],
    [0xdae4_b88e_2186_553c, 0xadac_e7fd_bd7f_63e8],
    [0x7695_73c1_c4cc_366a, 0x2956_b9f5_786e_1c85],
    [0xf5b0_1ff3_867b_f988, 0xeffd_9ea1_aea6_6bbb],
    [0xc2e1_096a_6927_816c, 0x4bd0_fd77_53bf_2de3],
    [0x3fcc_cbde_c5a6_fd3b, 0x66c2_e2ab_25ca_fa9c],
    [0xba1a_c407_4a54_70de, 0x222e_899f_487d_147f],
    [0xf8a2_7463_6884_1e48, 0xc5ca_6239_433b_bbce],
];
const STORM: [[u64; 2]; 3] = [
    [0xf59f_2489_965e_6a72, 0xaf2c_82b0_6a0b_8bec],
    [0x124f_0e71_b8e3_e535, 0x74d0_ceb5_293a_0287],
    [0x16f1_0ddf_f481_4ce2, 0x9f14_8127_d1fd_122b],
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
