//! Message chunking and reassembly.
//!
//! The engine's strategies produce a *ratio vector* (e.g. the dichotomy
//! split of paper §II-B gives `[0.58, 0.42]` for Myri+Quadrics); this module
//! turns it into exact byte ranges and rebuilds messages from chunks that
//! arrive out of order — rails race each other, so arrival order is
//! unspecified.

// Hot path: no panicking construct anywhere in this file (tests excepted, clippy.toml).
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::todo, clippy::unreachable)]

use crate::error::ProtoError;
use bytes::Bytes;

/// One chunk's position within its message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkDesc {
    /// Chunk index (rail order).
    pub index: u32,
    /// Byte offset within the message.
    pub offset: u64,
    /// Chunk length in bytes.
    pub len: u64,
}

/// Splits `total` bytes into chunks proportional to `ratios`.
///
/// Guarantees: chunks tile `[0, total)` exactly (no gaps, no overlap, order
/// preserved); rounding error accumulates into the last non-empty chunk;
/// zero-ratio entries produce zero-length chunks (callers typically filter
/// them). Ratios must be non-negative and sum to ~1.
pub fn split_by_ratios(total: u64, ratios: &[f64]) -> Vec<ChunkDesc> {
    assert!(!ratios.is_empty(), "need at least one ratio");
    assert!(ratios.iter().all(|r| r.is_finite() && *r >= 0.0), "ratios must be >= 0");
    let sum: f64 = ratios.iter().sum();
    assert!((sum - 1.0).abs() < 1e-6, "ratios must sum to 1, got {sum}");

    let mut chunks = Vec::with_capacity(ratios.len());
    let mut offset = 0u64;
    for (i, &r) in ratios.iter().enumerate() {
        let len = if i == ratios.len() - 1 {
            total - offset
        } else {
            ((total as f64 * r).round() as u64).min(total - offset)
        };
        chunks.push(ChunkDesc { index: i as u32, offset, len });
        offset += len;
    }
    // Rounding may leave a tail when later ratios were clamped; the last
    // chunk absorbed it by construction.
    debug_assert_eq!(offset, total);
    chunks
}

/// Splits `total` bytes into `n` near-equal chunks (the iso-split baseline,
/// paper Fig 1b).
pub fn split_evenly(total: u64, n: usize) -> Vec<ChunkDesc> {
    assert!(n >= 1, "need at least one chunk");
    split_by_ratios(total, &vec![1.0 / n as f64; n])
}

/// Rebuilds one message from chunks arriving in any order.
///
/// Chunks are held as zero-copy views of the buffers they arrived in:
/// memory is proportional to the bytes *received*, never to the
/// `total_len` a (possibly unauthenticated) header claimed, and no byte is
/// copied until [`Self::into_message`] gathers them — a message that
/// arrived as one chunk is returned as that chunk.
///
/// Duplicate chunks (exact same range, byte-identical content) are
/// tolerated, *counted* in [`Self::duplicates_dropped`], and ignored — a
/// rail retry may deliver twice. A duplicate whose bytes *differ* from the
/// first copy is silent corruption and rejected with
/// [`ProtoError::DuplicateMismatch`]; *overlapping, non-identical* ranges
/// are a protocol violation and rejected.
///
/// The reassembler also carries an *epoch*: failover re-planning bumps it,
/// after which chunks stamped with an older epoch (stragglers from the
/// superseded plan) are rejected with [`ProtoError::StaleEpoch`] instead of
/// being spliced into the new plan's message.
///
/// ```
/// use bytes::Bytes;
/// use nm_proto::Reassembler;
///
/// let mut r = Reassembler::new(6);
/// // The fast rail's tail chunk overtakes the slow rail's head chunk.
/// assert!(!r.feed(3, &Bytes::from_static(b"def")).unwrap());
/// assert!(r.feed(0, &Bytes::from_static(b"abc")).unwrap());
/// assert_eq!(&r.into_message()[..], b"abcdef");
/// ```
#[derive(Debug)]
pub struct Reassembler {
    total_len: u64,
    /// Received `(offset, bytes)` chunks, disjoint, kept sorted by offset.
    chunks: Vec<(u64, Bytes)>,
    received: u64,
    /// Exact byte-identical duplicates that were dropped.
    duplicates_dropped: u64,
    /// Current reassembly epoch (bumped on failover re-planning).
    epoch: u64,
}

impl Reassembler {
    /// A reassembler for a message of `total_len` bytes. Allocates nothing.
    pub fn new(total_len: u64) -> Self {
        assert!(total_len <= usize::MAX as u64, "message exceeds address space");
        Reassembler { total_len, chunks: Vec::new(), received: 0, duplicates_dropped: 0, epoch: 0 }
    }

    /// Exact duplicates dropped so far.
    pub fn duplicates_dropped(&self) -> u64 {
        self.duplicates_dropped
    }

    /// Current reassembly epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advances the epoch (failover re-planned this message). Chunks fed
    /// via [`Self::feed_epoch`] with an older stamp are rejected from now
    /// on.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Feeds one chunk stamped with the epoch it was planned under. Chunks
    /// from a stale epoch are rejected ([`ProtoError::StaleEpoch`]); a
    /// future epoch the reassembler has never announced is a protocol
    /// violation.
    pub fn feed_epoch(
        &mut self,
        epoch: u64,
        offset: u64,
        data: &Bytes,
    ) -> Result<bool, ProtoError> {
        if epoch < self.epoch {
            return Err(ProtoError::StaleEpoch { got: epoch, current: self.epoch });
        }
        if epoch > self.epoch {
            return Err(ProtoError::BadChunk(format!(
                "chunk from future epoch {epoch} (current is {})",
                self.epoch
            )));
        }
        self.feed(offset, data)
    }

    /// Feeds one chunk — kept as a view of `data`, not copied. Returns
    /// `true` when the message became complete.
    // nm-analyzer: allow(unbounded-growth) -- chunks are disjoint non-empty spans of one message;
    // overlap rejection below caps them at total_len / min-chunk-size
    // nm-analyzer: allow(clone) -- refcount bump on the arriving buffer; that is the zero-copy hold
    pub fn feed(&mut self, offset: u64, data: &Bytes) -> Result<bool, ProtoError> {
        let len = data.len() as u64;
        let end = offset
            .checked_add(len)
            .ok_or_else(|| ProtoError::BadChunk("offset overflow".into()))?;
        if end > self.total_len {
            return Err(ProtoError::BadChunk(format!(
                "chunk [{offset}, {end}) exceeds message length {}",
                self.total_len
            )));
        }
        if len == 0 {
            return Ok(self.is_complete());
        }
        // Duplicate or overlap detection against the neighbouring chunks.
        let overlap = |o: u64, held: &Bytes| {
            ProtoError::BadChunk(format!(
                "chunk [{offset}, {end}) overlaps [{o}, {})",
                o + held.len() as u64
            ))
        };
        let pos = self.chunks.partition_point(|(o, _)| *o < offset);
        if let Some((o, held)) = self.chunks.get(pos) {
            if *o == offset && held.len() == data.len() {
                // Exact duplicate range: only byte-identical content may be
                // dropped — differing bytes mean one copy is corrupt, and
                // silently keeping either would mask it.
                if held != data {
                    return Err(ProtoError::DuplicateMismatch { offset });
                }
                self.duplicates_dropped += 1;
                return Ok(self.is_complete());
            }
            if *o < end {
                return Err(overlap(*o, held));
            }
        }
        if let Some((o, held)) = pos.checked_sub(1).and_then(|p| self.chunks.get(p)) {
            if o + held.len() as u64 > offset {
                return Err(overlap(*o, held));
            }
        }
        self.chunks.insert(pos, (offset, data.clone()));
        self.received += len;
        Ok(self.is_complete())
    }

    /// True when every byte has arrived.
    pub fn is_complete(&self) -> bool {
        self.received == self.total_len
    }

    /// Bytes received so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Consumes the reassembler and returns the message: the chunk itself
    /// when the message arrived whole, otherwise one gather copy of the
    /// chunks in offset order. Panics if the message is not complete —
    /// check [`Self::is_complete`] first.
    pub fn into_message(mut self) -> Bytes {
        assert!(self.is_complete(), "message incomplete: {}/{}", self.received, self.total_len);
        if self.chunks.len() <= 1 {
            return self.chunks.pop().map(|(_, whole)| whole).unwrap_or_default();
        }
        // Complete means received == total_len: the allocation is backed
        // byte for byte by data that arrived.
        let mut message = Vec::with_capacity(self.total_len as usize);
        for (_, chunk) in &self.chunks {
            message.extend_from_slice(chunk);
        }
        Bytes::from(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ratio_split_tiles_exactly() {
        let chunks = split_by_ratios(4 * 1024 * 1024, &[0.5812, 0.4188]);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].offset, 0);
        assert_eq!(chunks[0].offset + chunks[0].len, chunks[1].offset);
        assert_eq!(chunks[1].offset + chunks[1].len, 4 * 1024 * 1024);
        // 58.12% of 4 MiB, rounded.
        assert_eq!(chunks[0].len, (4.0 * 1024.0 * 1024.0f64 * 0.5812).round() as u64);
    }

    #[test]
    fn even_split_balances_within_one_byte() {
        let chunks = split_evenly(10, 3);
        let lens: Vec<u64> = chunks.iter().map(|c| c.len).collect();
        assert_eq!(lens.iter().sum::<u64>(), 10);
        assert!(lens.iter().all(|&l| l == 3 || l == 4), "{lens:?}");
    }

    #[test]
    fn tiny_messages_and_extreme_ratios() {
        // 1 byte split "in half": one chunk gets it, tiling holds.
        let chunks = split_by_ratios(1, &[0.5, 0.5]);
        assert_eq!(chunks.iter().map(|c| c.len).sum::<u64>(), 1);
        // Zero-byte message: all chunks empty.
        let chunks = split_by_ratios(0, &[0.3, 0.7]);
        assert!(chunks.iter().all(|c| c.len == 0));
        // A 100%/0% split degenerates to single-rail.
        let chunks = split_by_ratios(1000, &[1.0, 0.0]);
        assert_eq!(chunks[0].len, 1000);
        assert_eq!(chunks[1].len, 0);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn ratios_must_sum_to_one() {
        let _ = split_by_ratios(100, &[0.5, 0.2]);
    }

    #[test]
    fn reassembly_out_of_order() {
        let msg: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let chunks = split_by_ratios(1000, &[0.3, 0.45, 0.25]);
        let mut r = Reassembler::new(1000);
        // Feed in reverse order.
        for c in chunks.iter().rev() {
            let slice =
                Bytes::copy_from_slice(&msg[c.offset as usize..(c.offset + c.len) as usize]);
            r.feed(c.offset, &slice).unwrap();
        }
        assert!(r.is_complete());
        assert_eq!(&r.into_message()[..], &msg[..]);
    }

    #[test]
    fn duplicates_ignored_overlaps_rejected() {
        let mut r = Reassembler::new(100);
        let a = Bytes::from(vec![1u8; 40]);
        assert!(!r.feed(0, &a).unwrap());
        assert!(!r.feed(0, &a).unwrap(), "exact duplicate is ignored");
        assert_eq!(r.received(), 40);
        assert_eq!(r.duplicates_dropped(), 1);
        let bad = Bytes::from(vec![2u8; 30]);
        assert!(matches!(r.feed(20, &bad), Err(ProtoError::BadChunk(_))));
        let tail = Bytes::from(vec![3u8; 60]);
        assert!(r.feed(40, &tail).unwrap());
    }

    /// Regression (satellite): duplicated arrivals must be counted, must not
    /// perturb the byte-exact reassembly, and a duplicate with *different*
    /// bytes must be rejected as corruption rather than silently dropped.
    #[test]
    fn duplicate_arrivals_are_counted_and_byte_exact() {
        let msg: Vec<u8> = (0..500u64).map(|i| (i * 37 % 251) as u8).collect();
        let chunks = split_by_ratios(500, &[0.4, 0.35, 0.25]);
        let mut r = Reassembler::new(500);
        // Feed every chunk twice, interleaved out of order.
        for c in chunks.iter().rev() {
            let slice =
                Bytes::copy_from_slice(&msg[c.offset as usize..(c.offset + c.len) as usize]);
            r.feed(c.offset, &slice).unwrap();
            r.feed(c.offset, &slice).unwrap();
        }
        assert!(r.is_complete());
        assert_eq!(r.duplicates_dropped(), 3, "one duplicate per chunk");
        assert_eq!(r.received(), 500, "duplicates must not inflate received bytes");
        assert_eq!(&r.into_message()[..], &msg[..], "reassembly must stay byte-exact");
    }

    #[test]
    fn mismatched_duplicate_is_corruption() {
        let mut r = Reassembler::new(100);
        let a = Bytes::from(vec![1u8; 40]);
        assert!(!r.feed(0, &a).unwrap());
        let mut tampered = vec![1u8; 40];
        tampered[17] ^= 0x08;
        let err = r.feed(0, &Bytes::from(tampered)).unwrap_err();
        assert_eq!(err, ProtoError::DuplicateMismatch { offset: 0 });
        assert!(err.is_corruption());
        assert_eq!(r.duplicates_dropped(), 0);
    }

    #[test]
    fn stale_epoch_chunks_are_rejected() {
        let mut r = Reassembler::new(100);
        let head = Bytes::from(vec![1u8; 40]);
        assert!(!r.feed_epoch(0, 0, &head).unwrap());
        assert_eq!(r.epoch(), 0);
        // Failover re-plans the remainder: epoch advances.
        r.bump_epoch();
        assert_eq!(r.epoch(), 1);
        // A straggler from the old plan must not splice in.
        let stale = Bytes::from(vec![9u8; 60]);
        assert_eq!(
            r.feed_epoch(0, 40, &stale).unwrap_err(),
            ProtoError::StaleEpoch { got: 0, current: 1 }
        );
        // The replacement from the new plan completes the message.
        let fresh = Bytes::from(vec![3u8; 60]);
        assert!(r.feed_epoch(1, 40, &fresh).unwrap());
        // A chunk claiming an epoch never announced is a protocol violation.
        let mut r2 = Reassembler::new(10);
        assert!(matches!(
            r2.feed_epoch(5, 0, &Bytes::from(vec![0u8; 10])),
            Err(ProtoError::BadChunk(_))
        ));
    }

    #[test]
    fn chunk_past_end_rejected() {
        let mut r = Reassembler::new(10);
        let too_long = Bytes::from(vec![0u8; 11]);
        assert!(r.feed(0, &too_long).is_err());
        let past = Bytes::from(vec![0u8; 2]);
        assert!(r.feed(9, &past).is_err());
    }

    /// `total_len` comes from a header that legacy mode does not
    /// authenticate: claiming a terabyte must cost nothing until that many
    /// bytes have actually arrived.
    #[test]
    fn claimed_length_is_not_allocated() {
        let mut r = Reassembler::new(1 << 40);
        let chunk = Bytes::from(vec![5u8; 16]);
        assert!(!r.feed(1 << 39, &chunk).unwrap());
        assert_eq!(r.received(), 16);
        assert!(!r.is_complete());
        // The chunk is held as a view of the arriving buffer, not a copy.
        assert_eq!(r.chunks[0].1.as_ptr(), chunk.as_ptr());
    }

    #[test]
    fn whole_message_is_returned_without_a_copy() {
        let msg = Bytes::from(vec![7u8; 4096]);
        let mut r = Reassembler::new(4096);
        assert!(r.feed(0, &msg).unwrap());
        assert!(r.feed(0, &msg).unwrap(), "a duplicate after completion is still absorbed");
        assert_eq!(r.duplicates_dropped(), 1);
        assert_eq!(r.into_message().as_ptr(), msg.as_ptr());
    }

    #[test]
    fn empty_message_is_complete_immediately() {
        let r = Reassembler::new(0);
        assert!(r.is_complete());
        assert_eq!(r.into_message().len(), 0);
    }

    proptest! {
        /// Any ratio vector tiles any size exactly.
        #[test]
        fn split_always_tiles(
            total in 0u64..(1 << 30),
            raw in proptest::collection::vec(0.01f64..10.0, 1..6),
        ) {
            let sum: f64 = raw.iter().sum();
            let ratios: Vec<f64> = raw.iter().map(|r| r / sum).collect();
            let chunks = split_by_ratios(total, &ratios);
            prop_assert_eq!(chunks.len(), ratios.len());
            let mut expect_offset = 0u64;
            for (i, c) in chunks.iter().enumerate() {
                prop_assert_eq!(c.index as usize, i);
                prop_assert_eq!(c.offset, expect_offset);
                expect_offset += c.len;
            }
            prop_assert_eq!(expect_offset, total);
        }

        /// Chunks fed in any permutation reassemble to the original bytes.
        #[test]
        fn reassembly_any_permutation(
            total in 1u64..5000,
            raw in proptest::collection::vec(0.05f64..5.0, 1..5),
            seed in any::<u64>(),
        ) {
            let sum: f64 = raw.iter().sum();
            let ratios: Vec<f64> = raw.iter().map(|r| r / sum).collect();
            let msg: Vec<u8> = (0..total).map(|i| (i * 31 % 251) as u8).collect();
            let mut chunks = split_by_ratios(total, &ratios);
            // Deterministic pseudo-shuffle.
            let n = chunks.len();
            for i in 0..n {
                let j = (seed as usize).wrapping_mul(i + 7) % n;
                chunks.swap(i, j);
            }
            let mut r = Reassembler::new(total);
            for c in &chunks {
                let bytes = Bytes::copy_from_slice(
                    &msg[c.offset as usize..(c.offset + c.len) as usize]);
                r.feed(c.offset, &bytes).unwrap();
            }
            prop_assert!(r.is_complete());
            prop_assert_eq!(&r.into_message()[..], &msg[..]);
        }
    }
}
