//! CRC32C (Castagnoli) — the checksum behind the wire format's integrity
//! mode.
//!
//! The Castagnoli polynomial (iSCSI, ext4, SCTP) has better error-detection
//! properties on short frames than the legacy IEEE polynomial, which is why
//! NIC-protocol work (the Quadrics per-packet validation lineage) settled
//! on it — and why x86 has carried an instruction for it since SSE4.2.
//!
//! Integrity mode checksums every payload byte on both sides, so this
//! function bounds the framed data path: a byte-at-a-time table loop runs
//! at a third of the slower modelled rail. Two kernels, one value:
//!
//! * **x86_64 with SSE4.2** (detected at run time, no build flag): the
//!   `crc32` instruction, 8 bytes per step. The instruction has a 3-cycle
//!   latency and a 1-cycle throughput, so each 3 KiB block is cut into
//!   three 1 KiB lanes whose dependency chains interleave, and the lane
//!   states are merged with a table that advances a state over one lane
//!   of zero bytes.
//! * **everything else, and Miri**: slicing-by-8 — eight table lookups per
//!   8-byte word instead of one per byte.
//!
//! Both compute the same function as the byte-at-a-time loop, which is
//! kept as the test oracle: the differential tests below compare all three
//! over every length, alignment and lane boundary. Which kernel ran is
//! therefore unobservable in any output, and results stay deterministic
//! across platforms.

// Hot path: no panicking construct anywhere in this file (tests excepted, clippy.toml).
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::todo, clippy::unreachable)]

/// Reflected CRC32C (Castagnoli) polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slicing tables, generated at compile time. `TABLES[0]` is the classic
/// byte-at-a-time table; `TABLES[k][b]` is the state left by byte `b`
/// followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

#[expect(clippy::indexing_slicing, reason = "const-eval loops: every index is bounded or masked")]
const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC32C of `data` with the standard framing (init `!0`, final xor `!0`).
pub fn crc32c(data: &[u8]) -> u32 {
    !crc32c_append(!0, data)
}

/// Folds `data` into a raw CRC state (no init/final xor applied). Start
/// from `!0`, feed slices in order, and finish with `!state` — lets a
/// caller checksum logically contiguous bytes held in separate buffers.
pub fn crc32c_append(state: u32, data: &[u8]) -> u32 {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `crc32c_sse42` is safe code whose only requirement is the
        // `sse4.2` target feature it is compiled with, and the detection
        // macro just confirmed this CPU has it.
        return unsafe { sse42::crc32c_sse42(state, data) };
    }
    crc32c_portable(state, data)
}

/// `table[b]`, the one lookup every kernel's table access goes through.
#[expect(clippy::indexing_slicing, reason = "a u8 cannot index past a 256-entry table")]
#[inline(always)]
fn entry(table: &[u32; 256], b: u8) -> u32 {
    table[b as usize]
}

/// One table step: folds byte `b` into `crc`.
fn step(crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ entry(&TABLES[0], crc as u8 ^ b)
}

/// Slicing-by-8: the kernel of every target without the SSE4.2 instruction.
fn crc32c_portable(state: u32, data: &[u8]) -> u32 {
    let mut crc = state;
    let mut rest = data;
    while let Some((word, tail)) = rest.split_first_chunk::<8>() {
        let [b0, b1, b2, b3, b4, b5, b6, b7] =
            (u64::from_le_bytes(*word) ^ u64::from(crc)).to_le_bytes();
        crc = entry(&TABLES[7], b0)
            ^ entry(&TABLES[6], b1)
            ^ entry(&TABLES[5], b2)
            ^ entry(&TABLES[4], b3)
            ^ entry(&TABLES[3], b4)
            ^ entry(&TABLES[2], b5)
            ^ entry(&TABLES[1], b6)
            ^ entry(&TABLES[0], b7);
        rest = tail;
    }
    rest.iter().fold(crc, |crc, &b| step(crc, b))
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod sse42 {
    use super::{entry, POLY};
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

    /// Bytes per lane of the three-lane kernel. Measured on the 2-core
    /// AVX-512 CI host: 1 KiB lanes reach ~23 GiB/s from 4 KiB upward
    /// against ~8 GiB/s for one dependency chain; longer lanes gain
    /// nothing and leave a longer single-lane remainder.
    const LANE: usize = 1024;

    /// `SHIFT[k][b]`: the state `b << 8k` advanced over [`LANE`] zero bytes.
    /// The advance is linear over GF(2), so a full state is advanced by
    /// xoring the entries of its four bytes.
    static SHIFT: [[u32; 256]; 4] = build_shift();

    /// Product of two polynomials modulo the CRC polynomial, in the
    /// reflected bit order of a CRC state (bit 31 is x⁰).
    const fn mul_mod(a: u32, mut b: u32) -> u32 {
        let mut product = 0;
        let mut bit = 1u32 << 31;
        while bit != 0 {
            if a & bit != 0 {
                product ^= b;
            }
            b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
            bit >>= 1;
        }
        product
    }

    #[expect(clippy::indexing_slicing, reason = "const-eval loops bounded by the table dimensions")]
    const fn build_shift() -> [[u32; 256]; 4] {
        // x^(8·LANE) mod P by square-and-multiply, starting from x¹.
        let mut advance = 1u32 << 31;
        let mut square = 1u32 << 30;
        let mut bits = 8 * LANE;
        while bits != 0 {
            if bits & 1 != 0 {
                advance = mul_mod(square, advance);
            }
            square = mul_mod(square, square);
            bits >>= 1;
        }
        let mut t = [[0u32; 256]; 4];
        let mut k = 0;
        while k < 4 {
            let mut b = 0;
            while b < 256 {
                t[k][b] = mul_mod(advance, (b as u32) << (8 * k));
                b += 1;
            }
            k += 1;
        }
        t
    }

    /// Advances `crc` over [`LANE`] zero bytes.
    fn shift(crc: u32) -> u32 {
        let [b0, b1, b2, b3] = crc.to_le_bytes();
        entry(&SHIFT[0], b0) ^ entry(&SHIFT[1], b1) ^ entry(&SHIFT[2], b2) ^ entry(&SHIFT[3], b3)
    }

    /// The hardware kernel. Safe to call exactly when the CPU has SSE4.2.
    #[target_feature(enable = "sse4.2")]
    pub(super) fn crc32c_sse42(state: u32, data: &[u8]) -> u32 {
        let mut crc = state;
        let mut rest = data;
        while let Some((block, tail)) = rest.split_first_chunk::<{ 3 * LANE }>() {
            let (words, _) = block.as_chunks::<8>();
            let (lane0, others) = words.split_at(LANE / 8);
            let (lane1, lane2) = others.split_at(LANE / 8);
            let (mut c0, mut c1, mut c2) = (u64::from(crc), 0, 0);
            for ((w0, w1), w2) in lane0.iter().zip(lane1).zip(lane2) {
                c0 = _mm_crc32_u64(c0, u64::from_le_bytes(*w0));
                c1 = _mm_crc32_u64(c1, u64::from_le_bytes(*w1));
                c2 = _mm_crc32_u64(c2, u64::from_le_bytes(*w2));
            }
            // state(s, A‖B) = advance(state(s, A), |B|) ^ state(0, B)
            crc = shift(shift(c0 as u32) ^ c1 as u32) ^ c2 as u32;
            rest = tail;
        }
        let (words, bytes) = rest.as_chunks::<8>();
        let crc =
            words.iter().fold(u64::from(crc), |c, w| _mm_crc32_u64(c, u64::from_le_bytes(*w)));
        bytes.iter().fold(crc as u32, |c, &b| _mm_crc32_u8(c, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time definition every kernel is compared against.
    fn oracle(state: u32, data: &[u8]) -> u32 {
        data.iter().fold(state, |crc, &b| step(crc, b))
    }

    type Kernel = fn(u32, &[u8]) -> u32;

    /// `(name, kernel)` for every kernel this build can run. The portable
    /// one is called directly: nothing selects it at run time on a host
    /// that has the instruction.
    fn kernels() -> [(&'static str, Kernel); 2] {
        [("dispatch", crc32c_append), ("portable", crc32c_portable)]
    }

    /// Seeded bytes with no period a table or lane size could hide behind.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_answer_vectors() {
        // RFC 3720 (iSCSI) appendix B.4 test vectors, on every kernel.
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        for (name, kernel) in kernels() {
            let crc = |data: &[u8]| !kernel(!0, data);
            assert_eq!(crc(b"123456789"), 0xE306_9283, "{name}");
            assert_eq!(crc(&[0u8; 32]), 0x8A91_36AA, "{name}");
            assert_eq!(crc(&[0xFFu8; 32]), 0x62A8_AB43, "{name}");
            assert_eq!(crc(&ascending), 0x46DD_794E, "{name}");
            assert_eq!(crc(&descending), 0x113F_DB5C, "{name}");
            assert_eq!(crc(b""), 0, "{name}");
        }
    }

    #[test]
    fn every_short_length_and_alignment_matches_the_oracle() {
        let buf = noise(300 + 8, 7);
        for (name, kernel) in kernels() {
            for start in 0..8 {
                for len in 0..=300 {
                    let data = &buf[start..start + len];
                    assert_eq!(
                        kernel(0x1357_9BDF, data),
                        oracle(0x1357_9BDF, data),
                        "{name}: start {start}, len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn append_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let state = crc32c_append(!0, &data[..split]);
            assert_eq!(!crc32c_append(state, &data[split..]), crc32c(data));
        }
    }

    #[test]
    fn single_bit_flips_are_detected() {
        let data: Vec<u8> = (0..64u8).collect();
        let base = crc32c(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut copy = data.clone();
                copy[i] ^= 1 << bit;
                assert_ne!(crc32c(&copy), base, "flip at byte {i} bit {bit} undetected");
            }
        }
    }

    /// Lengths around every multiple of the three-lane block up to 1 MiB,
    /// so each lane boundary and each block-to-remainder hand-over is hit
    /// at every alignment.
    #[cfg(not(miri))]
    #[test]
    fn block_boundaries_match_the_oracle() {
        // Three lanes of the SSE4.2 kernel, spelled out so the test also
        // builds (and exercises slicing-by-8) where that kernel does not.
        const BLOCK: usize = 3 * 1024;
        let buf = noise(342 * BLOCK + 8, 11);
        let mut lens = vec![(1 << 20) + 7];
        for blocks in [1, 2, 3, 21, 341] {
            for delta in [-9i64, -8, -1, 0, 1, 7, 8, 1023, 1024, 1025, 2047, 2048, 2049] {
                lens.push((blocks * BLOCK as i64 + delta) as usize);
            }
        }
        for (name, kernel) in kernels() {
            for &len in &lens {
                for start in [0, 1, 7] {
                    let data = &buf[start..start + len];
                    assert_eq!(kernel(!0, data), oracle(!0, data), "{name}: {start}+{len}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Random buffers up to 1 MiB + 7 at random alignments: every kernel
        /// equals the oracle, and a split at any point equals one shot.
        #[cfg(not(miri))]
        #[test]
        fn random_buffers_match_the_oracle(
            len in 0usize..=(1 << 20) + 7,
            start in 0usize..8,
            split in 0.0f64..=1.0,
            state in any::<u32>(),
            seed in any::<u64>(),
        ) {
            let buf = noise(start + len, seed);
            let data = &buf[start..];
            let want = oracle(state, data);
            let at = (len as f64 * split) as usize;
            for (name, kernel) in kernels() {
                prop_assert_eq!(kernel(state, data), want, "{}", name);
                prop_assert_eq!(kernel(kernel(state, &data[..at]), &data[at..]), want, "{} split {}", name, at);
            }
        }
    }
}
