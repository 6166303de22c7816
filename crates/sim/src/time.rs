//! Simulated time: instants and durations with microsecond resolution.
//!
//! [`SimTime`] is an instant measured from the start of a simulation run;
//! [`SimDuration`] is a span between instants. Both are thin newtypes over
//! `u64` microseconds ([C-NEWTYPE]), so arithmetic is exact and ordering is
//! total — essential for a deterministic event queue.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant in simulated time, in microseconds since the run started.
///
/// # Example
///
/// ```
/// use gloss_sim::{SimTime, SimDuration};
/// let t = SimTime::from_secs(2) + SimDuration::from_millis(500);
/// assert_eq!(t.as_micros(), 2_500_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
///
/// # Example
///
/// ```
/// use gloss_sim::SimDuration;
/// assert_eq!(SimDuration::from_millis(3) * 4, SimDuration::from_millis(12));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// A time later than any the simulator will reach.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `micros` microseconds after the start of the run.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after the start of the run.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant `secs` seconds after the start of the run.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Microseconds since the start of the run.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since the start of the run.
    #[cfg(test)]
    pub(crate) const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the start of the run, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration elapsed since `earlier`, saturating to zero if
    /// `earlier` is in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond. Negative inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration((secs.max(0.0) * 1e6).round() as u64)
    }

    /// The duration in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in whole milliseconds.
    #[cfg(test)]
    pub(crate) const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// The duration in seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Multiplies by a float factor, clamping negatives to zero.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration((self.0 as f64 * factor.max(0.0)).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
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
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us >= 1_000_000 {
            write!(f, "{:.3}s", us as f64 / 1e6)
        } else if us >= 1_000 {
            write!(f, "{:.3}ms", us as f64 / 1e3)
        } else {
            write!(f, "{us}us")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(SimTime::from_secs(1).as_micros(), 1_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimTime::from_micros(42).as_micros(), 42);
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2_000);
    }

    #[test]
    fn instant_arithmetic() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(250);
        assert_eq!(t.as_millis(), 1_250);
        assert_eq!(t - SimTime::from_secs(1), SimDuration::from_millis(250));
        // Subtraction saturates rather than underflowing.
        assert_eq!(SimTime::ZERO - SimTime::from_secs(1), SimDuration::ZERO);
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d * 3, SimDuration::from_millis(30));
        assert_eq!(d / 2, SimDuration::from_millis(5));
        assert_eq!(d + d, SimDuration::from_millis(20));
        assert_eq!(d - SimDuration::from_millis(4), SimDuration::from_millis(6));
        assert_eq!(d - SimDuration::from_millis(40), SimDuration::ZERO);
    }

    #[test]
    fn float_conversions() {
        assert_eq!(SimDuration::from_secs_f64(0.5).as_micros(), 500_000);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert!((SimTime::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-9);
        assert_eq!(SimDuration::from_millis(10).mul_f64(2.5).as_millis(), 25);
    }

    #[test]
    fn since_saturates() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(3);
        assert_eq!(late.since(early), SimDuration::from_secs(2));
        assert_eq!(early.since(late), SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_micros(7).to_string(), "7us");
        assert_eq!(SimDuration::from_micros(7_500).to_string(), "7.500ms");
        assert_eq!(SimDuration::from_millis(2_500).to_string(), "2.500s");
        assert_eq!(SimTime::from_millis(1).to_string(), "t+1.000ms");
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [SimTime::from_secs(3), SimTime::ZERO, SimTime::from_millis(10)];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
        assert_eq!(v[2], SimTime::from_secs(3));
    }
}
