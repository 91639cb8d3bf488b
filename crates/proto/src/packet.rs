//! Header + payload: the unit a driver puts on a wire.

use crate::crc::{crc32c, crc32c_append};
use crate::error::ProtoError;
use crate::header::{PacketHeader, PacketKind, HEADER_LEN};
use bytes::{Buf, Bytes, BytesMut};

/// Length of the payload CRC32C trailer in integrity mode.
pub const TRAILER_LEN: usize = 4;

/// Block size of the fused checksum-and-copy in [`encode_segments`]: two of
/// the CRC kernel's 3 KiB interleave blocks. Measured on the CI host, 6 KiB
/// blocks encode a 1 MiB payload ~25 % faster than a whole-payload CRC pass
/// followed by a whole-payload copy (the second pass reads from L1, not
/// from memory); 24 KiB and up lose most of that.
const FUSE_BLOCK: usize = 6 * 1024;

/// Writes one wire packet — header, payload `segments` in order, trailer —
/// into a buffer sized once from `header.payload_len`, so every payload
/// byte is read from memory once and written once. In integrity mode each
/// block is checksummed and then copied while it is still hot in cache.
pub(crate) fn encode_segments<'a>(
    header: &PacketHeader,
    integrity: bool,
    segments: impl IntoIterator<Item = &'a [u8]>,
) -> Bytes {
    let trailer = if integrity { TRAILER_LEN } else { 0 };
    let mut buf = BytesMut::with_capacity(HEADER_LEN + header.payload_len as usize + trailer);
    if integrity {
        header.encode_integrity(&mut buf);
    } else {
        header.encode(&mut buf);
    }
    let mut crc = !0;
    for block in segments.into_iter().flat_map(|s| s.chunks(FUSE_BLOCK)) {
        if integrity {
            crc = crc32c_append(crc, block);
        }
        buf.extend_from_slice(block);
    }
    if integrity {
        buf.extend_from_slice(&(!crc).to_be_bytes());
    }
    buf.freeze()
}

/// A complete packet.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Wire header (its `payload_len` always matches `payload.len()`).
    pub header: PacketHeader,
    /// Payload bytes (zero-copy slice).
    pub payload: Bytes,
    /// Integrity mode: encode stamps the header self-check and appends a
    /// 4-byte CRC32C payload trailer; decode verified both. Off by default
    /// so the legacy wire format stays bit-identical.
    pub integrity: bool,
}

impl Packet {
    /// Builds a packet, stamping `payload_len` from the payload.
    pub fn new(mut header: PacketHeader, payload: Bytes) -> Self {
        assert!(payload.len() <= u32::MAX as usize, "payload too large for header");
        header.payload_len = payload.len() as u32;
        Packet { header, payload, integrity: false }
    }

    /// Switches the packet to integrity framing (checksummed header +
    /// payload trailer on encode).
    pub fn with_integrity(mut self, integrity: bool) -> Self {
        self.integrity = integrity;
        self
    }

    /// A control packet (RTS/CTS) for a message.
    pub fn control(kind: PacketKind, flow: u32, msg_id: u64, total_len: u64) -> Self {
        assert!(matches!(kind, PacketKind::Rts | PacketKind::Cts), "not a control kind");
        Packet {
            header: PacketHeader {
                kind,
                flow,
                msg_id,
                offset: 0,
                total_len,
                chunk_index: 0,
                payload_len: 0,
            },
            payload: Bytes::new(),
            integrity: false,
        }
    }

    /// Serialized length.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len() + if self.integrity { TRAILER_LEN } else { 0 }
    }

    /// Encodes to a contiguous buffer in a single pass over the payload.
    pub fn encode(&self) -> Bytes {
        encode_segments(&self.header, self.integrity, [&self.payload[..]])
    }

    /// Decodes one packet from the front of `buf`, consuming exactly
    /// `wire_len` bytes (zero-copy for the payload). If the header carries
    /// the integrity flag, the header self-check and the payload CRC32C
    /// trailer are both verified; corruption surfaces as
    /// [`ProtoError::HeaderChecksum`] / [`ProtoError::PayloadChecksum`].
    pub fn decode(buf: &mut Bytes) -> Result<Packet, ProtoError> {
        let (header, integrity) = PacketHeader::decode_with_flags(buf)?;
        let plen = header.payload_len as usize;
        let needed = plen + if integrity { TRAILER_LEN } else { 0 };
        if buf.len() < needed {
            return Err(ProtoError::Truncated { needed, got: buf.len() });
        }
        let payload = buf.split_to(plen);
        if integrity {
            let wire_crc = buf.get_u32();
            let computed = crc32c(&payload);
            if computed != wire_crc {
                return Err(ProtoError::PayloadChecksum { expected: computed, got: wire_crc });
            }
        }
        Ok(Packet { header, payload, integrity })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_packet(payload: &[u8]) -> Packet {
        Packet::new(
            PacketHeader {
                kind: PacketKind::Eager,
                flow: 3,
                msg_id: 9,
                offset: 0,
                total_len: payload.len() as u64,
                chunk_index: 0,
                payload_len: 0, // stamped by new()
            },
            Bytes::copy_from_slice(payload),
        )
    }

    #[test]
    fn new_stamps_payload_len() {
        let p = data_packet(b"hello");
        assert_eq!(p.header.payload_len, 5);
        assert_eq!(p.wire_len(), HEADER_LEN + 5);
    }

    #[test]
    fn encode_decode_round_trip() {
        let p = data_packet(b"some payload bytes");
        let mut wire = p.encode();
        let q = Packet::decode(&mut wire).unwrap();
        assert_eq!(q, p);
        assert!(wire.is_empty(), "decode must consume exactly one packet");
    }

    #[test]
    fn integrity_round_trip() {
        let p = data_packet(b"checksummed payload").with_integrity(true);
        assert_eq!(p.wire_len(), HEADER_LEN + 19 + TRAILER_LEN);
        let mut wire = p.encode();
        assert_eq!(wire.len(), p.wire_len());
        let q = Packet::decode(&mut wire).unwrap();
        assert_eq!(q, p);
        assert!(q.integrity);
        assert!(wire.is_empty(), "decode must consume header + payload + trailer");
    }

    /// The exact wire bytes of an integrity packet, taken from the encoder
    /// as it was before the single-pass rewrite: header with its self-check
    /// (`8f41`), payload, CRC32C trailer. The format is frozen.
    #[test]
    fn integrity_wire_bytes_are_pinned() {
        let header = PacketHeader {
            kind: PacketKind::Eager,
            flow: 7,
            msg_id: 12345,
            offset: 4096,
            total_len: 65536,
            chunk_index: 1,
            payload_len: 0,
        };
        let wire =
            Packet::new(header, Bytes::from_static(b"multirail")).with_integrity(true).encode();
        let want: [u8; 53] = [
            0x01, 0x01, 0x8f, 0x41, 0x00, 0x00, 0x00, 0x07, // kind, flags, check, flow
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x30, 0x39, // msg_id
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00, // offset
            0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, // total_len
            0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x09, // chunk_index, payload_len
            b'm', b'u', b'l', b't', b'i', b'r', b'a', b'i', b'l', // payload
            0xe6, 0x0d, 0x97, 0x9f, // CRC32C(payload)
        ];
        assert_eq!(&wire[..], &want[..]);

        // A payload spanning several fused blocks: same header and trailer
        // as the two-pass encoder produced.
        let big: Vec<u8> = (0..20_000u32).map(|i| (i * 31 % 251) as u8).collect();
        let header = PacketHeader {
            kind: PacketKind::RdvData,
            flow: 1,
            msg_id: 2,
            offset: 0,
            total_len: 20_000,
            chunk_index: 0,
            payload_len: 0,
        };
        let wire = Packet::new(header, Bytes::from(big.clone())).with_integrity(true).encode();
        assert_eq!(wire[..4], [0x05, 0x01, 0x87, 0x6c]);
        assert_eq!(wire[HEADER_LEN..HEADER_LEN + big.len()], big[..]);
        assert_eq!(wire[HEADER_LEN + big.len()..], [0x5c, 0x01, 0xe0, 0x9d]);
    }

    #[test]
    fn integrity_detects_payload_corruption() {
        let p = data_packet(b"flip me somewhere").with_integrity(true);
        let wire = p.encode();
        // Corrupt each payload byte (and the trailer itself) in turn.
        for i in HEADER_LEN..wire.len() {
            let mut bytes = wire.to_vec();
            bytes[i] ^= 0x40;
            let mut buf = Bytes::from(bytes);
            assert!(
                matches!(Packet::decode(&mut buf), Err(ProtoError::PayloadChecksum { .. })),
                "payload flip at byte {i} undetected"
            );
        }
    }

    #[test]
    fn legacy_mode_ignores_payload_corruption() {
        // Without the flag there is no trailer: corruption passes silently.
        // This is the pre-integrity behaviour the version bit negotiates away.
        let p = data_packet(b"unprotected");
        let wire = p.encode();
        let mut bytes = wire.to_vec();
        bytes[HEADER_LEN] ^= 0xFF;
        let mut buf = Bytes::from(bytes);
        let q = Packet::decode(&mut buf).unwrap();
        assert_ne!(q.payload, p.payload);
    }

    #[test]
    fn integrity_truncated_trailer_is_truncation() {
        let p = data_packet(b"short trailer").with_integrity(true);
        let full = p.encode();
        let mut cut = full.slice(0..full.len() - 2);
        assert!(matches!(Packet::decode(&mut cut), Err(ProtoError::Truncated { .. })));
    }

    #[test]
    fn back_to_back_packets_decode_in_order() {
        let a = data_packet(b"first");
        let b = data_packet(b"second!").with_integrity(true);
        let mut wire = BytesMut::new();
        wire.extend_from_slice(&a.encode());
        wire.extend_from_slice(&b.encode());
        let mut wire = wire.freeze();
        assert_eq!(Packet::decode(&mut wire).unwrap(), a);
        assert_eq!(Packet::decode(&mut wire).unwrap(), b);
        assert!(wire.is_empty());
    }

    #[test]
    fn short_payload_is_truncation() {
        let p = data_packet(b"truncate me");
        let full = p.encode();
        let mut cut = full.slice(0..full.len() - 3);
        assert!(matches!(Packet::decode(&mut cut), Err(ProtoError::Truncated { .. })));
    }

    #[test]
    fn control_constructor_checks_kind() {
        let rts = Packet::control(PacketKind::Rts, 1, 2, 1024);
        assert_eq!(rts.header.payload_len, 0);
        assert_eq!(rts.wire_len(), HEADER_LEN);
        let mut wire = rts.encode();
        assert_eq!(Packet::decode(&mut wire).unwrap(), rts);
    }

    #[test]
    #[should_panic(expected = "not a control kind")]
    fn control_rejects_data_kinds() {
        let _ = Packet::control(PacketKind::Eager, 1, 2, 3);
    }
}
