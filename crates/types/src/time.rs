//! Simulated time.
//!
//! The simulator measures time in integer nanoseconds. Two newtypes keep
//! instants and durations apart: [`SimTime`] is a point on the simulated
//! clock, [`SimDuration`] is a length of simulated time. Arithmetic between
//! them follows the same rules as `std::time::{Instant, Duration}`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulated clock, in nanoseconds since simulation start.
///
/// # Examples
///
/// ```
/// use amp_types::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(10);
/// assert_eq!(t.as_nanos(), 10_000_000);
/// assert_eq!(t - SimTime::ZERO, SimDuration::from_millis(10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use amp_types::SimDuration;
///
/// let slice = SimDuration::from_micros(4000);
/// assert_eq!(slice, SimDuration::from_millis(4));
/// assert_eq!(slice / 2, SimDuration::from_millis(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after the epoch.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `millis` milliseconds after the epoch.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since the epoch (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration since an earlier instant, saturating at zero.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

/// Round-half-away-from-zero to `u64`, bit-identical to
/// `x.round() as u64` for non-negative inputs, without the libm `round`
/// call on the hot path (the x86-64 baseline has no rounding
/// instruction, so `f64::round` compiles to a function call).
///
/// Below 2^53 both the truncation and the fractional remainder are
/// exact, so the half-away comparison reproduces `round` exactly;
/// larger (or non-finite) values — which already have no fractional
/// part, and never occur for simulated durations — take the slow path.
#[inline]
fn round_nonneg(x: f64) -> u64 {
    if x < 9_007_199_254_740_992.0 {
        let t = x as u64;
        t + u64::from(x - t as f64 >= 0.5)
    } else {
        x.round() as u64
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Length in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Length in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Whether this is the zero-length duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scales the duration by a non-negative factor, rounding to nearest.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "duration scale factor must be finite and non-negative, got {factor}"
        );
        // Identity scale is exact below 2^53 (`as f64` is lossless there,
        // and rounding an integral value is the identity) — and common:
        // nominal-frequency cores scale by 1.0 on every accounting piece.
        if factor == 1.0 && self.0 < 1 << 53 {
            return self;
        }
        SimDuration(round_nonneg(self.0 as f64 * factor))
    }

    /// Divides the duration by a positive factor, rounding to nearest.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite or not strictly positive.
    pub fn div_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor > 0.0,
            "duration divisor must be finite and positive, got {factor}"
        );
        if factor == 1.0 && self.0 < 1 << 53 {
            return self;
        }
        SimDuration(round_nonneg(self.0 as f64 / factor))
    }

    /// Subtraction saturating at zero.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
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
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime difference underflow"),
        )
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
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
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
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.0 as f64 / 1e6)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.0 as f64 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_units() {
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1000));
        assert_eq!(SimTime::from_millis(2).as_nanos(), 2_000_000);
    }

    #[test]
    fn instant_duration_arithmetic_round_trips() {
        let t0 = SimTime::from_nanos(5);
        let d = SimDuration::from_nanos(37);
        assert_eq!((t0 + d) - t0, d);
        assert_eq!((t0 + d) - d, t0);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = SimTime::from_nanos(10);
        let late = SimTime::from_nanos(50);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_nanos(40));
    }

    #[test]
    fn float_scaling_rounds_to_nearest() {
        let d = SimDuration::from_nanos(10);
        assert_eq!(d.mul_f64(1.26), SimDuration::from_nanos(13));
        assert_eq!(d.div_f64(4.0), SimDuration::from_nanos(3)); // 2.5 rounds to 3 (round half away)
    }

    #[test]
    fn fast_rounding_matches_f64_round_exactly() {
        // The hot-path rounding must be bit-identical to `f64::round`:
        // exact ties, near-tie neighbours (including the classic
        // 0.49999999999999994, where naive `floor(x + 0.5)` fails), huge
        // values past 2^53, and a pseudo-random sweep.
        let cases = [
            0.0,
            0.25,
            0.5,
            0.49999999999999994,
            0.5000000000000001,
            1.5,
            2.5,
            1e9 + 0.5,
            9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            1e18,
            f64::INFINITY,
        ];
        for &x in &cases {
            assert_eq!(round_nonneg(x), x.round() as u64, "case {x}");
        }
        let mut state = 0x243F_6A88_85A3_08D3u64;
        for _ in 0..10_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let ns = state >> 20; // ~44-bit nanosecond magnitudes
            let factor = (state % 10_000) as f64 / 1_000.0 + 0.0001;
            let x = ns as f64 * factor;
            assert_eq!(round_nonneg(x), x.round() as u64, "x = {x}");
            let y = ns as f64 / factor;
            assert_eq!(round_nonneg(y), y.round() as u64, "y = {y}");
        }
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn instant_difference_underflow_panics() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }

    #[test]
    fn addition_saturates_at_max() {
        assert_eq!(SimTime::MAX + SimDuration::from_nanos(1), SimTime::MAX);
        assert_eq!(
            SimDuration::MAX + SimDuration::from_nanos(1),
            SimDuration::MAX
        );
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_nanos).sum();
        assert_eq!(total, SimDuration::from_nanos(10));
    }

    #[test]
    fn display_formats_in_millis() {
        assert_eq!(SimTime::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_micros(1500).to_string(), "1.500ms");
    }
}
