//! Size units, typed quantity wrappers, and formatting helpers.
//!
//! The paper mixes conventions: bandwidth plots use decimal megabytes
//! (1 MB = 10^6 bytes) while message sizes on the x-axis are binary
//! (32K = 32768 bytes). This module pins both conventions down so every
//! crate agrees.
//!
//! [`Micros`] and [`Bytes`] are the unit-hygiene boundary enforced by
//! nm-analyzer's `unit-bare` rule: public APIs named `*_us`/`*_bytes`/`*_bw`
//! traffic in these wrappers instead of bare `f64`/`u64`. Both are
//! `#[repr(transparent)]`, so wrapping an existing value changes neither its
//! bit pattern nor any arithmetic performed through the accessors — golden
//! outputs stay bit-identical across the migration.

use crate::time::SimDuration;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A duration in microseconds, the cost-model currency of the engine.
///
/// A transparent wrapper over `f64`: same ABI, same bits, no rounding.
/// Arithmetic through the provided operators is exactly the arithmetic the
/// bare `f64` code performed.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct Micros(f64);

impl Micros {
    /// Zero microseconds.
    pub const ZERO: Micros = Micros(0.0);

    /// Wraps a raw microsecond count.
    #[must_use]
    pub const fn new(us: f64) -> Self {
        Micros(us)
    }

    /// The raw microsecond count.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Converts to the nanosecond-resolution simulator time base.
    #[must_use]
    pub fn to_duration(self) -> SimDuration {
        SimDuration::from_micros_f64(self.0)
    }

    /// Elementwise minimum.
    #[must_use]
    pub fn min(self, other: Micros) -> Micros {
        Micros(self.0.min(other.0))
    }

    /// Elementwise maximum.
    #[must_use]
    pub fn max(self, other: Micros) -> Micros {
        Micros(self.0.max(other.0))
    }

    /// True when the value is finite (guards against degenerate profiles).
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl Add for Micros {
    type Output = Micros;
    fn add(self, rhs: Micros) -> Micros {
        Micros(self.0 + rhs.0)
    }
}

impl AddAssign for Micros {
    fn add_assign(&mut self, rhs: Micros) {
        self.0 += rhs.0;
    }
}

impl Sub for Micros {
    type Output = Micros;
    fn sub(self, rhs: Micros) -> Micros {
        Micros(self.0 - rhs.0)
    }
}

impl Mul<f64> for Micros {
    type Output = Micros;
    fn mul(self, rhs: f64) -> Micros {
        Micros(self.0 * rhs)
    }
}

impl Div<f64> for Micros {
    type Output = Micros;
    fn div(self, rhs: f64) -> Micros {
        Micros(self.0 / rhs)
    }
}

/// Ratio of two durations (dimensionless).
impl Div<Micros> for Micros {
    type Output = f64;
    fn div(self, rhs: Micros) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

/// A byte count with its unit in the type.
///
/// A transparent wrapper over `u64`, used where a bare `u64` would be
/// ambiguous against counts, indices or identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct Bytes(u64);

impl Bytes {
    /// Wraps a raw byte count.
    #[must_use]
    pub const fn new(bytes: u64) -> Self {
        Bytes(bytes)
    }

    /// The raw byte count.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B", self.0)
    }
}

/// One binary kilobyte (KiB).
pub const KIB: u64 = 1024;
/// One binary megabyte (MiB).
pub const MIB: u64 = 1024 * 1024;
/// One decimal megabyte, the unit of all bandwidth figures (MB/s).
pub const MB: u64 = 1_000_000;

/// Formats a byte count the way the paper labels its x-axes:
/// `4`, `512`, `32K`, `2M`.
pub fn format_size(bytes: u64) -> String {
    if bytes >= MIB && bytes.is_multiple_of(MIB) {
        format!("{}M", bytes / MIB)
    } else if bytes >= KIB && bytes.is_multiple_of(KIB) {
        format!("{}K", bytes / KIB)
    } else {
        format!("{bytes}")
    }
}

/// Parses a size label in the paper's notation (`4`, `32K`, `8M`).
/// Returns `None` for malformed input.
pub fn parse_size(label: &str) -> Option<u64> {
    let label = label.trim();
    if label.is_empty() {
        return None;
    }
    let (digits, mult) = match label.as_bytes()[label.len() - 1] {
        b'K' | b'k' => (&label[..label.len() - 1], KIB),
        b'M' | b'm' => (&label[..label.len() - 1], MIB),
        b'G' | b'g' => (&label[..label.len() - 1], MIB * KIB),
        _ => (label, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

/// The power-of-two size ladder used for sampling and sweeps:
/// `lo`, `2·lo`, ... up to and including `hi` (both should be powers of two;
/// `hi` is included even if not reached by doubling).
pub fn pow2_sizes(lo: u64, hi: u64) -> Vec<u64> {
    assert!(lo >= 1 && lo <= hi, "invalid size range {lo}..{hi}");
    let mut out = Vec::new();
    let mut s = lo;
    while s < hi {
        out.push(s);
        match s.checked_mul(2) {
            Some(next) => s = next,
            None => break,
        }
    }
    out.push(hi);
    out
}

/// Log2 of a size rounded down; the index used for O(1) sample lookup
/// ("using a logarithm in the case of power of 2 samples", paper §III-C).
pub fn log2_floor(bytes: u64) -> u32 {
    debug_assert!(bytes >= 1);
    63 - bytes.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micros_is_transparent_and_arithmetically_identical() {
        let a = Micros::new(3.25);
        let b = Micros::new(1.5);
        assert_eq!((a + b).get(), 3.25 + 1.5);
        assert_eq!((a - b).get(), 3.25 - 1.5);
        assert_eq!((a * 2.0).get(), 3.25 * 2.0);
        assert_eq!((a / 2.0).get(), 3.25 / 2.0);
        assert_eq!(a / b, 3.25 / 1.5);
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
        assert_eq!(std::mem::size_of::<Micros>(), std::mem::size_of::<f64>());
        assert_eq!(Micros::new(2.0).to_duration(), SimDuration::from_micros(2));
        assert_eq!(Bytes::new(7).get(), 7);
        assert_eq!(format!("{} {}", Micros::new(1.5), Bytes::new(4)), "1.5us 4B");
    }

    #[test]
    fn format_matches_paper_labels() {
        assert_eq!(format_size(4), "4");
        assert_eq!(format_size(32 * KIB), "32K");
        assert_eq!(format_size(8 * MIB), "8M");
        assert_eq!(format_size(1500), "1500");
    }

    #[test]
    fn parse_round_trips() {
        for s in [1, 4, 512, KIB, 32 * KIB, MIB, 8 * MIB] {
            assert_eq!(parse_size(&format_size(s)), Some(s));
        }
        assert_eq!(parse_size("64k"), Some(64 * KIB));
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("x4"), None);
        assert_eq!(parse_size("K"), None);
    }

    #[test]
    fn pow2_ladder_covers_range_inclusively() {
        assert_eq!(pow2_sizes(4, 32), vec![4, 8, 16, 32]);
        assert_eq!(pow2_sizes(4, 4), vec![4]);
        // hi not a power-of-two multiple of lo still terminates and includes hi.
        assert_eq!(pow2_sizes(4, 24), vec![4, 8, 16, 24]);
    }

    #[test]
    fn log_and_floor_helpers() {
        assert_eq!(log2_floor(1), 0);
        assert_eq!(log2_floor(4096), 12);
        assert_eq!(log2_floor(4097), 12);
    }
}
