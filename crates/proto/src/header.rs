//! The fixed binary packet header.
//!
//! Layout (big-endian, 40 bytes):
//!
//! | off | len | field        |
//! |-----|-----|--------------|
//! | 0   | 1   | kind         |
//! | 1   | 1   | flags        |
//! | 2   | 2   | header_check |
//! | 4   | 4   | flow (tag)   |
//! | 8   | 8   | msg_id       |
//! | 16  | 8   | offset       |
//! | 24  | 8   | total_len    |
//! | 32  | 4   | chunk_index  |
//! | 36  | 4   | payload_len  |
//!
//! `flags` and `header_check` live in what used to be three reserved zero
//! bytes. The only flag so far is [`FLAG_INTEGRITY`]: when set, the header
//! carries a truncated-CRC32C self-check in `header_check` (computed over
//! the 40 header bytes with the check field zeroed) and the packet's
//! payload is followed by a 4-byte CRC32C trailer (see
//! [`crate::packet::Packet`]). When clear, both fields are zero and the
//! encoding is bit-identical to the pre-integrity wire format — the flag
//! *is* the version negotiation: a sender that never sets it produces the
//! legacy format, and a receiver verifies exactly when the wire says so.

// Hot path: no panicking construct anywhere in this file (tests excepted, clippy.toml).
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::todo, clippy::unreachable)]

use crate::crc::crc32c;
use crate::error::ProtoError;
use bytes::{Buf, BufMut};

/// Header size on the wire.
pub const HEADER_LEN: usize = 40;

/// Flag bit: header self-check + payload CRC32C trailer are present.
pub const FLAG_INTEGRITY: u8 = 0x01;

/// What a packet carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// A self-contained eager message (or chunk of one).
    Eager,
    /// An aggregation pack of several small messages (Fig 3's winner).
    EagerAggregate,
    /// Rendezvous request (ready-to-send).
    Rts,
    /// Rendezvous grant (clear-to-send).
    Cts,
    /// Rendezvous data chunk.
    RdvData,
}

impl PacketKind {
    fn to_u8(self) -> u8 {
        match self {
            PacketKind::Eager => 1,
            PacketKind::EagerAggregate => 2,
            PacketKind::Rts => 3,
            PacketKind::Cts => 4,
            PacketKind::RdvData => 5,
        }
    }

    fn from_u8(v: u8) -> Result<Self, ProtoError> {
        Ok(match v {
            1 => PacketKind::Eager,
            2 => PacketKind::EagerAggregate,
            3 => PacketKind::Rts,
            4 => PacketKind::Cts,
            5 => PacketKind::RdvData,
            other => return Err(ProtoError::BadHeader(format!("unknown kind {other}"))),
        })
    }
}

/// Decoded packet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketHeader {
    /// Packet kind.
    pub kind: PacketKind,
    /// Logical flow (application tag).
    pub flow: u32,
    /// Message identifier, unique per flow on the sender.
    pub msg_id: u64,
    /// Byte offset of this chunk within the whole message.
    pub offset: u64,
    /// Total message length in bytes.
    pub total_len: u64,
    /// Index of this chunk among the message's chunks.
    pub chunk_index: u32,
    /// Payload bytes following the header.
    pub payload_len: u32,
}

impl PacketHeader {
    /// Serialises to a fixed array with the given `flags` and `header_check`
    /// bytes. The single source of truth for the wire layout — both encode
    /// paths and the self-check computation go through it.
    fn to_bytes(self, flags: u8, check: u16) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0] = self.kind.to_u8();
        out[1] = flags;
        out[2..4].copy_from_slice(&check.to_be_bytes());
        out[4..8].copy_from_slice(&self.flow.to_be_bytes());
        out[8..16].copy_from_slice(&self.msg_id.to_be_bytes());
        out[16..24].copy_from_slice(&self.offset.to_be_bytes());
        out[24..32].copy_from_slice(&self.total_len.to_be_bytes());
        out[32..36].copy_from_slice(&self.chunk_index.to_be_bytes());
        out[36..40].copy_from_slice(&self.payload_len.to_be_bytes());
        out
    }

    /// Truncated CRC32C over the header bytes with the check field zeroed.
    fn self_check(&self, flags: u8) -> u16 {
        (crc32c(&self.to_bytes(flags, 0)) & 0xFFFF) as u16
    }

    /// Encodes into `buf` (legacy format: flags and check both zero —
    /// bit-identical to the pre-integrity wire format).
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_slice(&self.to_bytes(0, 0));
    }

    /// Encodes into `buf` with [`FLAG_INTEGRITY`] set and the header
    /// self-check stamped.
    pub fn encode_integrity<B: BufMut>(&self, buf: &mut B) {
        let check = self.self_check(FLAG_INTEGRITY);
        buf.put_slice(&self.to_bytes(FLAG_INTEGRITY, check));
    }

    /// Decodes from `buf`, validating structural invariants
    /// (`offset + payload_len <= total_len` for payload-bearing kinds).
    /// Accepts both legacy and integrity-flagged headers; use
    /// [`decode_with_flags`](Self::decode_with_flags) when the caller needs
    /// to know whether a payload trailer follows.
    pub fn decode<B: Buf>(buf: &mut B) -> Result<Self, ProtoError> {
        Self::decode_with_flags(buf).map(|(h, _)| h)
    }

    /// Decodes from `buf`, returning the header and whether
    /// [`FLAG_INTEGRITY`] was set (i.e. whether a 4-byte payload CRC
    /// trailer follows the payload). Rejects unknown flag bits and, in
    /// integrity mode, verifies the header self-check before trusting any
    /// field.
    pub fn decode_with_flags<B: Buf>(buf: &mut B) -> Result<(Self, bool), ProtoError> {
        if buf.remaining() < HEADER_LEN {
            return Err(ProtoError::Truncated { needed: HEADER_LEN, got: buf.remaining() });
        }
        let mut raw = [0u8; HEADER_LEN];
        buf.copy_to_slice(&mut raw);
        // Irrefutable destructuring of the fixed-size array: every field
        // boundary is checked at compile time, so extraction is total — no
        // indexing, no fallible `try_into`.
        let [kind_b, flags, c0, c1, tail @ ..] = raw;
        let [w0, w1, w2, w3, tail @ ..] = tail;
        let [m0, m1, m2, m3, m4, m5, m6, m7, tail @ ..] = tail;
        let [o0, o1, o2, o3, o4, o5, o6, o7, tail @ ..] = tail;
        let [t0, t1, t2, t3, t4, t5, t6, t7, tail @ ..] = tail;
        let [x0, x1, x2, x3, p0, p1, p2, p3] = tail;
        if flags & !FLAG_INTEGRITY != 0 {
            return Err(ProtoError::BadHeader(format!("unknown flag bits {flags:#04x}")));
        }
        let integrity = flags & FLAG_INTEGRITY != 0;
        let wire_check = u16::from_be_bytes([c0, c1]);
        if !integrity && wire_check != 0 {
            return Err(ProtoError::BadHeader(format!(
                "nonzero check field {wire_check:#06x} without integrity flag"
            )));
        }
        if integrity {
            let mut zeroed = raw;
            let [_, _, z0, z1, ..] = &mut zeroed;
            (*z0, *z1) = (0, 0);
            let computed = (crc32c(&zeroed) & 0xFFFF) as u16;
            if computed != wire_check {
                return Err(ProtoError::HeaderChecksum { expected: computed, got: wire_check });
            }
        }
        let kind = PacketKind::from_u8(kind_b)?;
        let h = PacketHeader {
            kind,
            flow: u32::from_be_bytes([w0, w1, w2, w3]),
            msg_id: u64::from_be_bytes([m0, m1, m2, m3, m4, m5, m6, m7]),
            offset: u64::from_be_bytes([o0, o1, o2, o3, o4, o5, o6, o7]),
            total_len: u64::from_be_bytes([t0, t1, t2, t3, t4, t5, t6, t7]),
            chunk_index: u32::from_be_bytes([x0, x1, x2, x3]),
            payload_len: u32::from_be_bytes([p0, p1, p2, p3]),
        };
        h.validate()?;
        Ok((h, integrity))
    }

    fn validate(&self) -> Result<(), ProtoError> {
        match self.kind {
            PacketKind::Eager | PacketKind::EagerAggregate | PacketKind::RdvData => {
                let end = self
                    .offset
                    .checked_add(self.payload_len as u64)
                    .ok_or_else(|| ProtoError::BadHeader("offset overflow".into()))?;
                if end > self.total_len {
                    return Err(ProtoError::BadHeader(format!(
                        "chunk [{}, {end}) exceeds total_len {}",
                        self.offset, self.total_len
                    )));
                }
            }
            PacketKind::Rts => {
                if self.payload_len != 0 {
                    return Err(ProtoError::BadHeader("RTS carries no payload".into()));
                }
            }
            PacketKind::Cts => {
                if self.payload_len != 0 {
                    return Err(ProtoError::BadHeader("CTS carries no payload".into()));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use proptest::prelude::*;

    fn sample() -> PacketHeader {
        PacketHeader {
            kind: PacketKind::Eager,
            flow: 7,
            msg_id: 12345,
            offset: 4096,
            total_len: 65536,
            chunk_index: 1,
            payload_len: 8192,
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let h = sample();
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), HEADER_LEN);
        let got = PacketHeader::decode(&mut buf.freeze()).unwrap();
        assert_eq!(got, h);
    }

    #[test]
    fn truncated_buffer_is_rejected() {
        let h = sample();
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        let mut short = buf.freeze().slice(0..HEADER_LEN - 1);
        match PacketHeader::decode(&mut short) {
            Err(ProtoError::Truncated { needed, got }) => {
                assert_eq!(needed, HEADER_LEN);
                assert_eq!(got, HEADER_LEN - 1);
            }
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut buf = BytesMut::new();
        sample().encode(&mut buf);
        let mut bytes = buf.to_vec();
        bytes[0] = 200;
        assert!(matches!(PacketHeader::decode(&mut &bytes[..]), Err(ProtoError::BadHeader(_))));
    }

    #[test]
    fn chunk_overrunning_message_is_rejected() {
        let mut h = sample();
        h.offset = 60_000;
        h.payload_len = 8192; // 60000+8192 > 65536
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        assert!(matches!(PacketHeader::decode(&mut buf.freeze()), Err(ProtoError::BadHeader(_))));
    }

    #[test]
    fn control_packets_must_be_empty() {
        let mut h = sample();
        h.kind = PacketKind::Rts;
        h.payload_len = 4;
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        assert!(PacketHeader::decode(&mut buf.freeze()).is_err());
        h.payload_len = 0;
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        assert!(PacketHeader::decode(&mut buf.freeze()).is_ok());
    }

    #[test]
    fn integrity_round_trip_and_flag_surfaces() {
        let h = sample();
        let mut buf = BytesMut::new();
        h.encode_integrity(&mut buf);
        assert_eq!(buf.len(), HEADER_LEN);
        let (got, integrity) = PacketHeader::decode_with_flags(&mut buf.freeze()).unwrap();
        assert_eq!(got, h);
        assert!(integrity);

        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        let (got, integrity) = PacketHeader::decode_with_flags(&mut buf.freeze()).unwrap();
        assert_eq!(got, h);
        assert!(!integrity);
    }

    #[test]
    fn legacy_encoding_is_bit_identical_to_pre_integrity_format() {
        // Byte-for-byte pin of the flags=0 layout: kind, three zero bytes,
        // then the big-endian fields. Any change here breaks the goldens.
        let h = sample();
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        let mut want = vec![1u8, 0, 0, 0];
        want.extend_from_slice(&7u32.to_be_bytes());
        want.extend_from_slice(&12345u64.to_be_bytes());
        want.extend_from_slice(&4096u64.to_be_bytes());
        want.extend_from_slice(&65536u64.to_be_bytes());
        want.extend_from_slice(&1u32.to_be_bytes());
        want.extend_from_slice(&8192u32.to_be_bytes());
        assert_eq!(&buf[..], &want[..]);
    }

    #[test]
    fn header_corruption_is_detected_in_integrity_mode() {
        let h = sample();
        let mut buf = BytesMut::new();
        h.encode_integrity(&mut buf);
        // Flip one bit in every checked byte position (skip the check field
        // itself at 2..4 — flipping it is also caught, tested below).
        for i in (0..HEADER_LEN).filter(|i| !(2..4).contains(i)) {
            let mut bytes = buf.to_vec();
            bytes[i] ^= 0x10;
            let got = PacketHeader::decode_with_flags(&mut &bytes[..]);
            if i == 1 {
                // Flag byte flips become unknown-flag rejections.
                assert!(matches!(got, Err(ProtoError::BadHeader(_))), "byte {i}: {got:?}");
            } else {
                assert!(matches!(got, Err(ProtoError::HeaderChecksum { .. })), "byte {i}: {got:?}");
            }
        }
        // A corrupted check field itself is detected too.
        let mut bytes = buf.to_vec();
        bytes[2] ^= 0x10;
        assert!(matches!(
            PacketHeader::decode_with_flags(&mut &bytes[..]),
            Err(ProtoError::HeaderChecksum { .. })
        ));
    }

    #[test]
    fn unknown_flag_bits_are_rejected() {
        let mut buf = BytesMut::new();
        sample().encode(&mut buf);
        let mut bytes = buf.to_vec();
        bytes[1] = 0x02;
        assert!(matches!(
            PacketHeader::decode_with_flags(&mut &bytes[..]),
            Err(ProtoError::BadHeader(_))
        ));
    }

    /// Satellite: seeded exhaustive-ish corner sweep — decode must never
    /// panic on adversarial 40-byte input, only return typed errors. Mixes
    /// corner values (0, 1, MAX, sign bits) at every field position with a
    /// deterministic xorshift filler — no dependencies beyond the stdlib.
    #[test]
    fn decode_never_panics_corner_sweep() {
        let corners: [u8; 6] = [0x00, 0x01, 0x7F, 0x80, 0xFE, 0xFF];
        let mut x = 0x9E37_79B9_7F4A_7C15u64; // seed
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut decoded_ok = 0u32;
        for round in 0..2000 {
            let mut raw = [0u8; HEADER_LEN];
            if round % 3 == 0 {
                // Biased round: start from a *valid* header (legacy or
                // integrity framing) so the sweep reaches the deeper
                // validation paths, then corrupt one byte on half of them.
                let kind = [
                    PacketKind::Eager,
                    PacketKind::EagerAggregate,
                    PacketKind::Rts,
                    PacketKind::Cts,
                    PacketKind::RdvData,
                ][(round / 3) % 5];
                let total_len = next() % (1 << 20);
                let (offset, payload_len) = match kind {
                    PacketKind::Rts | PacketKind::Cts => (0, 0),
                    _ => {
                        let offset = next() % (total_len + 1);
                        (offset, (next() % (total_len - offset + 1)) as u32)
                    }
                };
                let h = PacketHeader {
                    kind,
                    flow: (next() & 0xFFFF_FFFF) as u32,
                    msg_id: next(),
                    offset,
                    total_len,
                    chunk_index: (next() & 0xFFFF_FFFF) as u32,
                    payload_len,
                };
                let mut buf = BytesMut::new();
                if round % 2 == 0 {
                    h.encode_integrity(&mut buf);
                } else {
                    h.encode(&mut buf);
                }
                raw.copy_from_slice(&buf);
                if round % 6 == 3 {
                    raw[(next() % HEADER_LEN as u64) as usize] ^= 1 << (next() % 8);
                }
            } else {
                // Adversarial round: random bytes with a corner value pinned
                // at a rotating position.
                for b in raw.iter_mut() {
                    *b = (next() & 0xFF) as u8;
                }
                let pos = round % HEADER_LEN;
                raw[pos] = corners[(round / HEADER_LEN) % corners.len()];
            }
            // An Err is fine (typed error: the point is no panic); anything
            // that decodes must re-encode to the same bytes (modulo the
            // check field legacy encode zeroes).
            if let Ok((h, integrity)) = PacketHeader::decode_with_flags(&mut &raw[..]) {
                decoded_ok += 1;
                let mut buf = BytesMut::new();
                if integrity {
                    h.encode_integrity(&mut buf);
                } else {
                    h.encode(&mut buf);
                }
                assert_eq!(&buf[..], &raw[..], "round {round} re-encode mismatch");
            }
            // Truncated prefixes must error, never panic.
            let cut = (next() % HEADER_LEN as u64) as usize;
            assert!(PacketHeader::decode_with_flags(&mut &raw[..cut]).is_err());
        }
        // Sanity: the biased rounds should have produced at least some
        // successful decodes, or the sweep isn't reaching validate().
        assert!(decoded_ok > 0, "sweep never decoded a single header");
    }

    proptest! {
        #[test]
        fn decode_never_panics_on_arbitrary_bytes(raw in proptest::collection::vec(any::<u8>(), 0..64)) {
            // Must return Ok or a typed error — never panic.
            let _ = PacketHeader::decode_with_flags(&mut &raw[..]);
        }

        #[test]
        fn integrity_round_trip_any_valid_header(
            kind_sel in 0u8..5,
            flow in any::<u32>(),
            msg_id in any::<u64>(),
            total_len in 0u64..(1 << 40),
            chunk_index in any::<u32>(),
            frac in 0.0f64..1.0,
            len_frac in 0.0f64..1.0,
        ) {
            let kind = [
                PacketKind::Eager,
                PacketKind::EagerAggregate,
                PacketKind::Rts,
                PacketKind::Cts,
                PacketKind::RdvData,
            ][kind_sel as usize];
            let (offset, payload_len) = match kind {
                PacketKind::Rts | PacketKind::Cts => (0, 0),
                _ => {
                    let offset = (total_len as f64 * frac) as u64;
                    let maxlen = (total_len - offset).min(u32::MAX as u64);
                    (offset, (maxlen as f64 * len_frac) as u32)
                }
            };
            let h = PacketHeader { kind, flow, msg_id, offset, total_len, chunk_index, payload_len };
            let mut buf = BytesMut::new();
            h.encode_integrity(&mut buf);
            let (got, integrity) = PacketHeader::decode_with_flags(&mut buf.freeze()).unwrap();
            prop_assert_eq!(got, h);
            prop_assert!(integrity);
        }

        #[test]
        fn round_trip_any_valid_header(
            kind_sel in 0u8..5,
            flow in any::<u32>(),
            msg_id in any::<u64>(),
            total_len in 0u64..(1 << 40),
            chunk_index in any::<u32>(),
            frac in 0.0f64..1.0,
            len_frac in 0.0f64..1.0,
        ) {
            let kind = [
                PacketKind::Eager,
                PacketKind::EagerAggregate,
                PacketKind::Rts,
                PacketKind::Cts,
                PacketKind::RdvData,
            ][kind_sel as usize];
            let (offset, payload_len) = match kind {
                PacketKind::Rts | PacketKind::Cts => (0, 0),
                _ => {
                    let offset = (total_len as f64 * frac) as u64;
                    let maxlen = (total_len - offset).min(u32::MAX as u64);
                    (offset, (maxlen as f64 * len_frac) as u32)
                }
            };
            let h = PacketHeader { kind, flow, msg_id, offset, total_len, chunk_index, payload_len };
            let mut buf = BytesMut::new();
            h.encode(&mut buf);
            let got = PacketHeader::decode(&mut buf.freeze()).unwrap();
            prop_assert_eq!(got, h);
        }
    }
}
