//! Virtual time base.
//!
//! All components — simulator, sampler, predictor, strategies — agree on a
//! single nanosecond-resolution time base. Virtual time keeps figure
//! reproduction deterministic and lets the same engine code run against the
//! discrete-event simulator (virtual clock) or real threads (wall clock
//! mapped onto [`SimTime`]).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the virtual timeline, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the timeline.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as "never" for idle resources.
    pub const FAR_FUTURE: SimTime = SimTime(u64::MAX);

    /// Builds an instant from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Builds an instant from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds as a float (lossy; for reporting).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is actually later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Maximum representable span; used as "infinite" cost.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a span from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Builds a span from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Builds a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Builds a span from fractional microseconds, rounding to the nearest
    /// nanosecond. Negative and non-finite inputs clamp to zero.
    pub fn from_micros_f64(us: f64) -> Self {
        if !us.is_finite() || us <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns = (us * 1_000.0).round();
        if ns >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(ns as u64)
        }
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds as a float (lossy; for reporting and interpolation).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Scales the span by a non-negative factor, rounding to nanoseconds.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_micros_f64(self.as_micros_f64() * factor)
    }

    /// True if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Bandwidth implied by moving `bytes` in this span, in decimal MB/s
    /// (1 MB = 10^6 bytes). Returns `f64::INFINITY` for a zero span.
    pub fn bandwidth_mbps(self, bytes: u64) -> f64 {
        let secs = self.as_secs_f64();
        if secs == 0.0 {
            return f64::INFINITY;
        }
        bytes as f64 / 1e6 / secs
    }

    /// Bandwidth in MiB/s (1 MiB = 2^20 bytes) — the convention of the
    /// paper's Fig 8 axis (its "1170 MB/s" only reconciles with the in-text
    /// "2 MB chunk in ~1730 us" when MB means 2^20 bytes). Returns
    /// `f64::INFINITY` for a zero span.
    pub fn bandwidth_mibps(self, bytes: u64) -> f64 {
        let secs = self.as_secs_f64();
        if secs == 0.0 {
            return f64::INFINITY;
        }
        bytes as f64 / (1024.0 * 1024.0) / secs
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}us", self.as_micros_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_micros(5);
        let d = SimDuration::from_micros(3);
        assert_eq!((t + d).as_nanos(), 8_000);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn subtraction_saturates() {
        let early = SimTime::from_micros(1);
        let late = SimTime::from_micros(2);
        assert_eq!(early - late, SimDuration::ZERO);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn fractional_micros_round_to_nanos() {
        assert_eq!(SimDuration::from_micros_f64(1.5).as_nanos(), 1_500);
        assert_eq!(SimDuration::from_micros_f64(0.0004).as_nanos(), 0);
        assert_eq!(SimDuration::from_micros_f64(-4.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_micros_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_micros_f64(f64::INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn bandwidth_uses_decimal_megabytes() {
        // 1 MB in 1 ms -> 1000 MB/s.
        let d = SimDuration::from_millis(1);
        assert!((d.bandwidth_mbps(1_000_000) - 1000.0).abs() < 1e-9);
        assert!(SimDuration::ZERO.bandwidth_mbps(1).is_infinite());
    }

    #[test]
    fn scaling_and_division() {
        let d = SimDuration::from_micros(10);
        assert_eq!(d * 3, SimDuration::from_micros(30));
        assert_eq!(d / 4, SimDuration::from_nanos(2_500));
        assert_eq!(d.mul_f64(0.5), SimDuration::from_micros(5));
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total, SimDuration::from_micros(10));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimDuration::from_micros(2)), "2.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", SimDuration::from_millis(2_000)), "2.000s");
    }

    #[test]
    fn far_future_ordering() {
        assert!(SimTime::FAR_FUTURE > SimTime::from_micros(u64::MAX / 2_000));
        let t = SimTime::FAR_FUTURE + SimDuration::from_micros(1);
        assert_eq!(t, SimTime::FAR_FUTURE); // saturates, never wraps
    }
}
