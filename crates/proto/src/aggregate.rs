//! Aggregation of small messages into one packet.
//!
//! Paper Fig 3 / §II-C: for eager packets "it is more efficient to aggregate
//! the messages and to send them over the fastest available network instead
//! of using the entire set of network resources". The [`Aggregator`] packs
//! consecutive small messages bound for the same peer into one wire packet;
//! [`unpack_aggregate`] recovers them on the receive side.
//!
//! Pack payload layout: a sequence of `(u32 flow, u64 msg_id, u32 len,
//! len bytes)` entries.

use crate::error::ProtoError;
use crate::header::{PacketHeader, PacketKind};
use crate::packet::{encode_segments, Packet};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Per-entry overhead inside an aggregation pack.
pub const ENTRY_OVERHEAD: usize = 4 + 8 + 4;

/// One small message inside a pack.
#[derive(Debug, Clone, PartialEq)]
pub struct AggEntry {
    /// Logical flow (application tag).
    pub flow: u32,
    /// Message id within the flow.
    pub msg_id: u64,
    /// Message bytes.
    pub data: Bytes,
}

/// Accumulates small messages until flushed into one packet.
///
/// ```
/// use bytes::Bytes;
/// use nm_proto::aggregate::{AggEntry, Aggregator};
/// use nm_proto::unpack_aggregate;
///
/// let mut agg = Aggregator::new(4096);
/// agg.push(AggEntry { flow: 1, msg_id: 0, data: Bytes::from_static(b"ping") });
/// agg.push(AggEntry { flow: 1, msg_id: 1, data: Bytes::from_static(b"pong") });
/// let packet = agg.flush(0).unwrap();          // one wire packet...
/// let entries = unpack_aggregate(&packet).unwrap();
/// assert_eq!(entries.len(), 2);                // ...two messages inside
/// assert_eq!(&entries[1].data[..], b"pong");
/// ```
#[derive(Debug)]
pub struct Aggregator {
    max_bytes: usize,
    entries: Vec<AggEntry>,
    payload_bytes: usize,
}

impl Aggregator {
    /// An aggregator flushing at `max_bytes` of packed payload.
    pub fn new(max_bytes: usize) -> Self {
        assert!(max_bytes > ENTRY_OVERHEAD, "pack budget too small");
        Aggregator { max_bytes, entries: Vec::new(), payload_bytes: 0 }
    }

    /// True if `data` would still fit.
    pub fn fits(&self, data_len: usize) -> bool {
        self.payload_bytes + ENTRY_OVERHEAD + data_len <= self.max_bytes
    }

    /// Adds a message; returns `false` (without adding) when it no longer
    /// fits — flush first.
    // nm-analyzer: allow(unbounded-growth) -- byte-capped by the fits() admission check above
    // the push; the pack never exceeds max_bytes
    pub fn push(&mut self, entry: AggEntry) -> bool {
        if !self.fits(entry.data.len()) {
            return false;
        }
        self.payload_bytes += ENTRY_OVERHEAD + entry.data.len();
        self.entries.push(entry);
        true
    }

    /// Number of pending messages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current packed payload size.
    pub fn payload_bytes(&self) -> usize {
        self.payload_bytes
    }

    /// Drains the pending messages into a **zero-copy** pack: per-entry
    /// headers are slices of one shared buffer and message payloads travel
    /// as refcounted clones of the original [`Bytes`] — no payload byte is
    /// copied. Returns `None` when empty. `pack_id` becomes the pack's
    /// `msg_id`.
    pub fn flush_segments(&mut self, pack_id: u64) -> Option<AggPack> {
        if self.entries.is_empty() {
            return None;
        }
        let n = self.entries.len();
        let mut headers = BytesMut::with_capacity(n * ENTRY_OVERHEAD);
        for e in &self.entries {
            headers.put_u32(e.flow);
            headers.put_u64(e.msg_id);
            headers.put_u32(e.data.len() as u32);
        }
        let headers = headers.freeze();
        let mut segments = Vec::with_capacity(2 * n);
        for (i, e) in self.entries.drain(..).enumerate() {
            segments.push(headers.slice(i * ENTRY_OVERHEAD..(i + 1) * ENTRY_OVERHEAD));
            if !e.data.is_empty() {
                segments.push(e.data);
            }
        }
        let total = self.payload_bytes as u64;
        self.payload_bytes = 0;
        Some(AggPack {
            header: PacketHeader {
                kind: PacketKind::EagerAggregate,
                flow: 0,
                msg_id: pack_id,
                offset: 0,
                total_len: total,
                chunk_index: 0,
                payload_len: total as u32,
            },
            segments,
        })
    }

    /// Drains the pending messages into one contiguous `EagerAggregate`
    /// packet (a gather of [`Self::flush_segments`] — for transports that
    /// need a flat buffer). Returns `None` when empty.
    pub fn flush(&mut self, pack_id: u64) -> Option<Packet> {
        self.flush_segments(pack_id).map(|pack| pack.into_packet())
    }
}

/// A flushed aggregation pack as an ordered segment list, ready for
/// vectored ("gather") transmission without assembling a contiguous
/// buffer: `[hdr₀, data₀, hdr₁, data₁, …]` where every `hdrᵢ` is a slice
/// of one shared header block and every `dataᵢ` shares storage with the
/// message it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct AggPack {
    /// Wire header of the pack (its `payload_len`/`total_len` cover the
    /// concatenated segments).
    pub header: PacketHeader,
    /// Payload segments in wire order.
    pub segments: Vec<Bytes>,
}

impl AggPack {
    /// Total payload bytes across all segments.
    pub fn payload_len(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum()
    }

    /// Encodes the pack as one wire packet, gathering the segments straight
    /// into the wire buffer — byte-identical to `into_packet()` followed by
    /// [`Packet::encode`], without the intermediate contiguous payload.
    pub fn encode(&self, integrity: bool) -> Bytes {
        encode_segments(&self.header, integrity, self.segments.iter().map(|s| &s[..]))
    }

    /// Gathers the segments into one contiguous [`Packet`] — the single
    /// copy a flat-buffer transport pays; byte-identical to what the
    /// pre-segment `flush` produced.
    pub fn into_packet(self) -> Packet {
        let mut payload = BytesMut::with_capacity(self.payload_len());
        for s in &self.segments {
            payload.extend_from_slice(s);
        }
        Packet::new(self.header, payload.freeze())
    }
}

/// Recovers the packed messages from an `EagerAggregate` packet.
pub fn unpack_aggregate(packet: &Packet) -> Result<Vec<AggEntry>, ProtoError> {
    if packet.header.kind != PacketKind::EagerAggregate {
        return Err(ProtoError::BadHeader(format!(
            "expected EagerAggregate, got {:?}",
            packet.header.kind
        )));
    }
    let mut buf = packet.payload.clone();
    let mut out = Vec::new();
    while buf.has_remaining() {
        if buf.remaining() < ENTRY_OVERHEAD {
            return Err(ProtoError::Truncated { needed: ENTRY_OVERHEAD, got: buf.remaining() });
        }
        let flow = buf.get_u32();
        let msg_id = buf.get_u64();
        let len = buf.get_u32() as usize;
        if buf.remaining() < len {
            return Err(ProtoError::Truncated { needed: len, got: buf.remaining() });
        }
        let data = buf.split_to(len);
        out.push(AggEntry { flow, msg_id, data });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(flow: u32, msg_id: u64, data: &[u8]) -> AggEntry {
        AggEntry { flow, msg_id, data: Bytes::copy_from_slice(data) }
    }

    #[test]
    fn pack_unpack_round_trip() {
        let mut agg = Aggregator::new(4096);
        let entries = vec![entry(1, 10, b"alpha"), entry(2, 20, b""), entry(1, 11, &[7u8; 100])];
        for e in &entries {
            assert!(agg.push(e.clone()));
        }
        assert_eq!(agg.len(), 3);
        let packet = agg.flush(99).expect("non-empty");
        assert!(agg.is_empty());
        assert_eq!(packet.header.msg_id, 99);
        let got = unpack_aggregate(&packet).unwrap();
        assert_eq!(got, entries);
    }

    #[test]
    fn budget_is_enforced() {
        let mut agg = Aggregator::new(ENTRY_OVERHEAD * 2 + 10);
        assert!(agg.push(entry(0, 0, &[1u8; 5])));
        assert!(agg.push(entry(0, 1, &[2u8; 5])));
        assert!(!agg.push(entry(0, 2, &[3u8; 1])), "over budget must be refused");
        assert_eq!(agg.len(), 2);
        // After a flush there is room again.
        let _ = agg.flush(1).unwrap();
        assert!(agg.push(entry(0, 2, &[3u8; 1])));
    }

    #[test]
    fn flush_of_empty_aggregator_is_none() {
        let mut agg = Aggregator::new(1024);
        assert!(agg.flush(0).is_none());
    }

    #[test]
    fn unpack_rejects_wrong_kind_and_corruption() {
        let mut agg = Aggregator::new(1024);
        agg.push(entry(1, 1, b"data"));
        let packet = agg.flush(0).unwrap();

        let mut wrong = packet.clone();
        wrong.header.kind = PacketKind::Eager;
        assert!(matches!(unpack_aggregate(&wrong), Err(ProtoError::BadHeader(_))));

        let mut cut = packet.clone();
        cut.payload = cut.payload.slice(0..cut.payload.len() - 1);
        assert!(matches!(unpack_aggregate(&cut), Err(ProtoError::Truncated { .. })));
    }

    #[test]
    fn segments_share_storage_with_the_original_messages() {
        // The zero-copy claim, verified by pointer identity: the data
        // segments of a flushed pack alias the pushed payload buffers.
        let big = Bytes::from(vec![42u8; 1024]);
        let mut agg = Aggregator::new(4096);
        agg.push(AggEntry { flow: 1, msg_id: 0, data: big.clone() });
        agg.push(AggEntry { flow: 1, msg_id: 1, data: big.slice(100..200) });
        let pack = agg.flush_segments(0).unwrap();
        // Layout: [hdr0, data0, hdr1, data1].
        assert_eq!(pack.segments.len(), 4);
        assert_eq!(pack.segments[1].as_ptr(), big.as_ptr());
        assert_eq!(pack.segments[3].as_ptr(), big.slice(100..200).as_ptr());
        // And both entry headers alias ONE shared header block.
        let h0 = pack.segments[0].as_ptr();
        let h1 = pack.segments[2].as_ptr();
        // SAFETY: `offset_from` requires both pointers inside one
        // allocation — that is the property under test: segments 0 and 2
        // are slices of the single shared header `Bytes` built by
        // `flush_segments`, `ENTRY_OVERHEAD` bytes apart. If a regression
        // put them in separate blocks this would be UB rather than a
        // clean assert, so the layout is re-checked structurally first
        // (`segments.len() == 4` with data segments aliasing the pushed
        // buffers), and the Miri CI lane runs this test to catch exactly
        // that misuse.
        assert_eq!(unsafe { h1.offset_from(h0) }, ENTRY_OVERHEAD as isize);
    }

    #[test]
    fn gathered_pack_is_byte_identical_to_reference_layout() {
        // flush() (a gather of flush_segments) must reproduce the exact
        // wire bytes of the documented layout: (flow, msg_id, len, data)*.
        let entries = vec![entry(1, 10, b"alpha"), entry(2, 20, b""), entry(9, 11, &[7u8; 64])];
        let mut agg = Aggregator::new(4096);
        for e in &entries {
            assert!(agg.push(e.clone()));
        }
        let packet = agg.flush(5).unwrap();

        let mut reference = BytesMut::new();
        for e in &entries {
            reference.put_u32(e.flow);
            reference.put_u64(e.msg_id);
            reference.put_u32(e.data.len() as u32);
            reference.extend_from_slice(&e.data);
        }
        assert_eq!(packet.payload, reference.freeze());
        assert_eq!(packet.header.payload_len as usize, packet.payload.len());
        assert_eq!(packet.header.total_len, packet.payload.len() as u64);
    }

    #[test]
    fn segment_flush_round_trips_through_unpack() {
        let entries = vec![entry(3, 30, b"abc"), entry(4, 40, b"defg")];
        let mut agg = Aggregator::new(4096);
        for e in &entries {
            agg.push(e.clone());
        }
        let pack = agg.flush_segments(8).unwrap();
        assert_eq!(pack.payload_len(), 2 * ENTRY_OVERHEAD + 7);
        let packet = pack.into_packet();
        assert_eq!(packet.header.msg_id, 8);
        assert_eq!(unpack_aggregate(&packet).unwrap(), entries);
    }

    #[test]
    fn segment_encode_equals_gather_then_encode() {
        let entries = vec![entry(3, 30, b"abc"), entry(4, 40, b""), entry(5, 50, &[9u8; 20_000])];
        for integrity in [false, true] {
            let mut agg = Aggregator::new(32 * 1024);
            for e in &entries {
                assert!(agg.push(e.clone()));
            }
            let pack = agg.flush_segments(8).unwrap();
            let direct = pack.encode(integrity);
            let gathered = pack.into_packet().with_integrity(integrity).encode();
            assert_eq!(direct, gathered, "integrity {integrity}");
        }
    }

    #[test]
    fn wire_round_trip_of_a_pack() {
        let mut agg = Aggregator::new(1024);
        agg.push(entry(5, 50, b"x"));
        agg.push(entry(6, 60, b"yy"));
        let packet = agg.flush(7).unwrap();
        let mut wire = packet.encode();
        let decoded = Packet::decode(&mut wire).unwrap();
        let entries = unpack_aggregate(&decoded).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1].data, Bytes::from_static(b"yy"));
    }
}
