//! Two-sided endpoints: tagged send/recv between peers over real threads.
//!
//! The paper closes with the plan to integrate the engine "in the
//! MPICH2-Nemesis software stack so as to use the multirail capabilities
//! ... within the widespread MPI implementation". This module is that
//! integration in miniature: a [`pair`] of connected [`Endpoint`]s, each
//! owning an integrity-framed [`Engine`] over its own multirail
//! [`ShmemDriver`], with the full receive path — wire-packet decoding,
//! per-message [`Reassembler`]s for chunks racing over different rails, and
//! per-flow [`Sequencer`]s so `recv` observes every tag in send order.
//!
//! There is one wire mode and one integrity check on this path, the one the
//! wire format owns: every packet carries a header self-check and a CRC32C
//! payload trailer, and `Packet::decode` in the receive path drops — and
//! counts in [`Endpoint::corrupt_received`] — what fails either. The driver
//! underneath verifies nothing of its own.
//!
//! ```text
//! let (mut a, mut b) = duplex::pair(DuplexConfig::default());
//! a.send(7, Bytes::from("hello"));
//! let (tag, data) = b.recv(Duration::from_secs(1)).unwrap();
//! ```

use crate::driver::shmem::{Delivery, ShmemDriver, ShmemRail};
use crate::engine::{Engine, MsgId};
use crate::predictor::{Predictor, RailView};
use crate::strategy::StrategyKind;
use crate::transport::Transport;
use bytes::Bytes;
use nm_proto::{unpack_aggregate, Packet, PacketKind, Reassembler, Sequencer};
use nm_sampler::{sample_rail, SampleTransport, SamplingConfig};
use nm_sim::RailId;
use std::collections::HashMap;
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

/// Configuration of a duplex pair (both directions use the same rails).
#[derive(Debug, Clone)]
pub struct DuplexConfig {
    /// Rail set per direction.
    pub rails: Vec<ShmemRail>,
    /// Worker cores per endpoint.
    pub cores: usize,
    /// Strategy for both endpoints.
    pub strategy: StrategyKind,
    /// Sampling campaign run per endpoint at construction.
    pub sampling: SamplingConfig,
}

impl Default for DuplexConfig {
    /// A fast heterogeneous two-rail pair with coarse sampling — endpoints
    /// come up in tens of milliseconds.
    fn default() -> Self {
        DuplexConfig {
            rails: vec![
                ShmemRail::new("fast-rail", 30, 2400.0, 256 * 1024),
                ShmemRail::new("slow-rail", 15, 1200.0, 256 * 1024),
            ],
            cores: 4,
            strategy: StrategyKind::HeteroSplit,
            sampling: SamplingConfig {
                min_size: 1024,
                max_size: 256 * 1024,
                iters: 1,
                warmup: 0,
                ..Default::default()
            },
        }
    }
}

/// One side of a duplex connection.
pub struct Endpoint {
    engine: Engine<ShmemDriver>,
    incoming: Receiver<Delivery>,
    assemblers: HashMap<(u32, u64), Reassembler>,
    sequencers: HashMap<u32, Sequencer<Bytes>>,
    /// What the last arrival released from its flow, emptied into `ready`.
    released: Vec<Bytes>,
    ready: std::collections::VecDeque<(u32, Bytes)>,
    /// Messages received and re-sequenced so far.
    received: u64,
    /// Wire buffers dropped because integrity verification failed.
    corrupt_received: u64,
    /// Byte-identical duplicate chunks absorbed during reassembly.
    duplicates_dropped: u64,
}

/// Builds a connected endpoint pair. Both directions are sampled *before*
/// either endpoint goes live (sampling transfers would otherwise pollute
/// the peer's receive stream with unframed payloads).
pub fn pair(config: DuplexConfig) -> (Endpoint, Endpoint) {
    let mut driver_ab = ShmemDriver::new(config.rails.clone(), config.cores);
    let mut driver_ba = ShmemDriver::new(config.rails.clone(), config.cores);
    let deliveries_at_b = driver_ab.take_delivery_receiver().expect("fresh driver");
    let deliveries_at_a = driver_ba.take_delivery_receiver().expect("fresh driver");

    let predictor_ab = sample_driver(&mut driver_ab, &config.sampling);
    let predictor_ba = sample_driver(&mut driver_ba, &config.sampling);
    // Discard the sampling payloads so application receives start clean.
    while deliveries_at_a.try_recv().is_ok() {}
    while deliveries_at_b.try_recv().is_ok() {}

    let a = Endpoint::new(driver_ab, predictor_ab, deliveries_at_a, &config.strategy);
    let b = Endpoint::new(driver_ba, predictor_ba, deliveries_at_b, &config.strategy);
    (a, b)
}

fn sample_driver(driver: &mut ShmemDriver, sampling: &SamplingConfig) -> Predictor {
    let thresholds: Vec<u64> = (0..Transport::rail_count(driver))
        .map(|i| Transport::rdv_threshold(driver, RailId(i)))
        .collect();
    let rails: Vec<RailView> = (0..SampleTransport::rail_count(driver))
        .map(|i| {
            let natural = sample_rail(driver, i, sampling).expect("sampling");
            RailView {
                rail: RailId(i),
                name: SampleTransport::rail_name(driver, i).into(),
                eager: natural.clone(),
                natural,
                rdv_threshold: thresholds[i],
            }
        })
        .collect();
    Predictor::new(rails)
}

impl Endpoint {
    fn new(
        driver: ShmemDriver,
        predictor: Predictor,
        incoming: Receiver<Delivery>,
        strategy: &StrategyKind,
    ) -> Self {
        let engine = Engine::new(driver, predictor, strategy.build())
            .expect("engine config")
            .with_integrity();
        Endpoint {
            engine,
            incoming,
            assemblers: HashMap::new(),
            sequencers: HashMap::new(),
            released: Vec::new(),
            ready: std::collections::VecDeque::new(),
            received: 0,
            corrupt_received: 0,
            duplicates_dropped: 0,
        }
    }

    /// Posts a tagged message toward the peer; returns immediately. The
    /// strategy splits or aggregates it, and the framed chunks hit the
    /// rails.
    pub fn send(&mut self, tag: u32, data: Bytes) -> MsgId {
        assert!(!data.is_empty(), "empty messages are not modeled");
        self.engine.post_send_bytes_tagged(data, tag).expect("post")
    }

    /// Blocks until the peer's message for any tag arrives (in per-tag send
    /// order) or `timeout` elapses.
    pub fn recv(&mut self, timeout: Duration) -> Option<(u32, Bytes)> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(front) = self.ready.pop_front() {
                return Some(front);
            }
            // Keep our own sends progressing while we wait. The completions
            // this releases are claimed later by `flush`; errors must still
            // surface.
            self.engine.poll().expect("send engine poll");
            match self.incoming.recv_timeout(Duration::from_millis(1)) {
                Ok(delivery) => self.ingest(delivery.payload),
                Err(_) => {
                    if Instant::now() >= deadline {
                        return None;
                    }
                }
            }
        }
    }

    /// Waits until every posted send completed locally (buffers reusable).
    pub fn flush(&mut self) {
        self.engine.drain().expect("drain");
    }

    /// Messages received so far.
    pub fn received_count(&self) -> u64 {
        self.received
    }

    /// Wire buffers this endpoint dropped as corrupt.
    pub fn corrupt_received(&self) -> u64 {
        self.corrupt_received
    }

    /// Byte-identical duplicate chunks absorbed during reassembly.
    pub fn duplicates_dropped(&self) -> u64 {
        self.duplicates_dropped
    }

    /// The sending engine (stats, feedback, strategy name).
    pub fn engine(&self) -> &Engine<ShmemDriver> {
        &self.engine
    }

    fn ingest(&mut self, wire: Bytes) {
        let mut buf = wire;
        // A corrupt buffer is the expected failure mode of a lossy wire:
        // count it and drop it — never consume damaged bytes, never tear
        // down the endpoint. A *protocol* violation (bad framing from a
        // well-behaved peer) still panics: that is a bug, not line noise.
        let packet = match Packet::decode(&mut buf) {
            Ok(p) => p,
            Err(e) if e.is_corruption() => {
                self.corrupt_received += 1;
                return;
            }
            Err(e) => panic!("peer framing violation: {e}"),
        };
        match packet.header.kind {
            PacketKind::Eager => {
                let h = packet.header;
                let key = (h.flow, h.msg_id);
                // `total_len` is authenticated only in an integrity frame,
                // and `decode` still accepts a legacy one; the reassembler
                // holds views of what arrived and allocates nothing from
                // the claim.
                let asm =
                    self.assemblers.entry(key).or_insert_with(|| Reassembler::new(h.total_len));
                let complete = match asm.feed(h.offset, &packet.payload) {
                    Ok(c) => c,
                    Err(e) if e.is_corruption() => {
                        self.corrupt_received += 1;
                        return;
                    }
                    Err(e) => panic!("chunks must tile the message: {e}"),
                };
                if complete {
                    let asm = self.assemblers.remove(&key).expect("present");
                    self.duplicates_dropped += asm.duplicates_dropped();
                    let msg = asm.into_message();
                    self.release(h.flow, h.msg_id, msg);
                }
            }
            PacketKind::EagerAggregate => {
                for entry in unpack_aggregate(&packet).expect("valid pack") {
                    self.release(entry.flow, entry.msg_id, entry.data);
                }
            }
            other => panic!("unexpected packet kind on a duplex rail: {other:?}"),
        }
    }

    fn release(&mut self, flow: u32, flow_seq: u64, msg: Bytes) {
        let seq = self.sequencers.entry(flow).or_insert_with(|| Sequencer::new(4096));
        seq.accept_into(flow_seq, msg, &mut self.released).expect("peer respects flow sequencing");
        for out in self.released.drain(..) {
            self.received += 1;
            self.ready.push_back((flow, out));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Duration = Duration::from_secs(10);

    fn payload(len: usize, seed: u8) -> Bytes {
        Bytes::from(
            (0..len).map(|i| (i as u8).wrapping_mul(17).wrapping_add(seed)).collect::<Vec<u8>>(),
        )
    }

    #[test]
    fn ping_pong_round_trip() {
        let (mut a, mut b) = pair(DuplexConfig::default());
        a.send(1, payload(10_000, 1));
        let (tag, data) = b.recv(T).expect("ping arrives");
        assert_eq!(tag, 1);
        assert_eq!(data, payload(10_000, 1));
        b.send(1, data);
        let (_, back) = a.recv(T).expect("pong returns");
        assert_eq!(back, payload(10_000, 1));
    }

    #[test]
    fn split_messages_reassemble_across_rails() {
        // Large enough that hetero-split uses both rails; content must
        // survive chunk racing.
        let (mut a, mut b) = pair(DuplexConfig::default());
        let msg = payload(800_000, 3);
        a.send(0, msg.clone());
        let (_, got) = b.recv(T).expect("arrives");
        assert_eq!(got.len(), msg.len());
        assert_eq!(got, msg);
        assert!(
            a.engine().stats().chunks_submitted >= 2,
            "an 800KB message should split: {:?}",
            a.engine().stats()
        );
    }

    #[test]
    fn small_messages_aggregate_and_unpack() {
        let cfg = DuplexConfig { strategy: StrategyKind::Aggregation, ..DuplexConfig::default() };
        let (mut a, mut b) = pair(cfg);
        // One engine.post per message would kick immediately; the duplex
        // send is per-message, so aggregation happens when sends outpace
        // the rails. Send a burst and verify everything arrives in order.
        for i in 0..10u8 {
            a.send(5, payload(300 + i as usize, i));
        }
        for i in 0..10u8 {
            let (tag, data) = b.recv(T).expect("message arrives");
            assert_eq!(tag, 5);
            assert_eq!(data, payload(300 + i as usize, i), "message {i} corrupted/reordered");
        }
    }

    #[test]
    fn interleaved_tags_arrive_in_per_tag_order() {
        let (mut a, mut b) = pair(DuplexConfig::default());
        for i in 0..6u8 {
            let tag = (i % 2) as u32;
            a.send(tag, payload(5_000 + i as usize, i));
        }
        let mut seen: HashMap<u32, u8> = HashMap::new();
        for _ in 0..6 {
            let (tag, data) = b.recv(T).expect("arrives");
            // Recover the seed byte: payload(_, seed)[0] == seed.
            let seed = data[0];
            let last = seen.insert(tag, seed);
            if let Some(prev) = last {
                assert!(seed > prev, "tag {tag}: {seed} after {prev}");
            }
        }
    }

    #[test]
    fn both_directions_run_concurrently() {
        let (mut a, mut b) = pair(DuplexConfig::default());
        for i in 0..4u8 {
            a.send(0, payload(20_000, i));
            b.send(0, payload(30_000, i + 100));
        }
        for i in 0..4u8 {
            let (_, at_b) = b.recv(T).expect("a->b");
            assert_eq!(at_b, payload(20_000, i));
            let (_, at_a) = a.recv(T).expect("b->a");
            assert_eq!(at_a, payload(30_000, i + 100));
        }
        a.flush();
        b.flush();
        assert_eq!(a.received_count(), 4);
        assert_eq!(b.received_count(), 4);
    }

    /// `recv` pumps the sending engine, which releases completions nobody
    /// asks for by id; `flush` must claim them or each send leaks one.
    #[test]
    fn flush_leaves_no_completion_behind_in_the_sending_engine() {
        let (mut a, mut b) = pair(DuplexConfig::default());
        let mut ids = Vec::new();
        for round in 0..3u8 {
            for i in 0..4u8 {
                ids.push(a.send(u32::from(i % 2), payload(6_000, round * 4 + i)));
            }
            for _ in 0..4 {
                b.recv(T).expect("a->b");
            }
            // Nothing comes back: this only polls a's own sends to completion.
            assert!(a.recv(Duration::from_millis(5)).is_none());
            a.flush();
        }
        assert_eq!(a.engine().stats().msgs_completed, ids.len() as u64);
        for id in ids {
            assert!(a.engine.try_completion(id).is_none(), "{id:?} outlived flush");
        }
    }

    #[test]
    fn corrupt_wire_bytes_are_counted_dropped_and_do_not_wedge_the_endpoint() {
        use nm_proto::{PacketHeader, HEADER_LEN};
        let (mut a, mut b) = pair(DuplexConfig::default());
        let pkt = Packet::new(
            PacketHeader {
                kind: PacketKind::Eager,
                flow: 9,
                msg_id: 0,
                offset: 0,
                total_len: 4,
                chunk_index: 0,
                payload_len: 0,
            },
            Bytes::from_static(b"abcd"),
        )
        .with_integrity(true);
        let mut wire = pkt.encode().to_vec();
        // Damage one payload byte: the CRC32C trailer must catch it.
        wire[HEADER_LEN + 1] ^= 0xFF;
        b.ingest(Bytes::from(wire));
        assert_eq!(b.corrupt_received(), 1);
        assert_eq!(b.received_count(), 0, "damaged bytes must not surface");
        // The endpoint keeps working after dropping the corrupt buffer.
        a.send(1, payload(5_000, 2));
        let (_, data) = b.recv(T).expect("clean traffic still flows");
        assert_eq!(data, payload(5_000, 2));
    }

    #[test]
    fn duplicate_chunks_are_absorbed_byte_exactly() {
        use nm_proto::PacketHeader;
        let (_a, mut b) = pair(DuplexConfig::default());
        let chunk = |offset: u64, index: u32, data: &'static [u8]| {
            Packet::new(
                PacketHeader {
                    kind: PacketKind::Eager,
                    flow: 3,
                    msg_id: 0,
                    offset,
                    total_len: 8,
                    chunk_index: index,
                    payload_len: 0,
                },
                Bytes::from_static(data),
            )
            .with_integrity(true)
            .encode()
        };
        b.ingest(chunk(0, 0, b"abcd"));
        b.ingest(chunk(0, 0, b"abcd")); // duplicated in flight
        b.ingest(chunk(4, 1, b"efgh"));
        assert_eq!(b.duplicates_dropped(), 1);
        assert_eq!(b.received_count(), 1);
        let (tag, data) = b.ready.pop_front().expect("message released");
        assert_eq!(tag, 3);
        assert_eq!(&data[..], b"abcdefgh");
    }

    /// A legacy frame does not authenticate its header, so `total_len` is
    /// whatever the wire says: it must size nothing until the bytes arrive.
    #[test]
    fn unauthenticated_total_len_sizes_no_allocation() {
        use nm_proto::PacketHeader;
        let (mut a, mut b) = pair(DuplexConfig::default());
        let pkt = Packet::new(
            PacketHeader {
                kind: PacketKind::Eager,
                flow: 4,
                msg_id: 0,
                offset: 0,
                total_len: 1 << 40,
                chunk_index: 0,
                payload_len: 0,
            },
            Bytes::from_static(&[0xAB; 16]),
        );
        b.ingest(pkt.encode());
        assert_eq!(b.received_count(), 0, "16 bytes of a claimed terabyte complete nothing");
        assert_eq!(b.assemblers.len(), 1);
        // The endpoint is unharmed and other flows keep working.
        a.send(1, payload(5_000, 2));
        let (_, data) = b.recv(T).expect("clean traffic still flows");
        assert_eq!(data, payload(5_000, 2));
    }

    #[test]
    fn recv_times_out_when_idle() {
        let (_a, mut b) = pair(DuplexConfig::default());
        let start = Instant::now();
        assert!(b.recv(Duration::from_millis(30)).is_none());
        assert!(start.elapsed() >= Duration::from_millis(25));
    }
}
