//! Integer microsecond time base.
//!
//! The whole reproduction runs on a single discrete clock measured in
//! microseconds since the start of a simulation.  The LTE MAC operates on
//! 1 ms subframes (1000 µs) and 0.5 ms slots; the wired path schedules packet
//! events at arbitrary microsecond resolution.  Using plain integers keeps
//! event ordering exact and the simulation deterministic.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Microseconds in one millisecond.
pub const MICROS_PER_MS: u64 = 1_000;
/// Microseconds in one second.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// A point in simulated time, in microseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Instant(pub u64);

/// A span of simulated time, in microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Duration(pub u64);

impl Instant {
    /// The zero instant (simulation start).
    pub const ZERO: Instant = Instant(0);

    /// Construct from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        Instant(ms * MICROS_PER_MS)
    }

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        Instant(s * MICROS_PER_SEC)
    }

    /// Construct from microseconds.
    pub fn from_micros(us: u64) -> Self {
        Instant(us)
    }

    /// Microseconds since simulation start.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since simulation start (truncating).
    pub fn as_millis(self) -> u64 {
        self.0 / MICROS_PER_MS
    }

    /// Seconds since simulation start as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// The LTE subframe index this instant falls into (1 subframe = 1 ms).
    pub fn subframe_index(self) -> u64 {
        self.0 / MICROS_PER_MS
    }

    /// Saturating difference between two instants.
    pub fn saturating_since(self, earlier: Instant) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The zero duration.
    pub const ZERO: Duration = Duration(0);
    /// One millisecond (one LTE subframe).
    pub const MILLISECOND: Duration = Duration(MICROS_PER_MS);
    /// One second.
    pub const SECOND: Duration = Duration(MICROS_PER_SEC);

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * MICROS_PER_MS)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * MICROS_PER_SEC)
    }

    /// Construct from microseconds.
    pub fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    /// Construct from fractional seconds (rounded to the nearest microsecond).
    pub fn from_secs_f64(s: f64) -> Self {
        Duration((s * MICROS_PER_SEC as f64).round().max(0.0) as u64)
    }

    /// Microseconds in this duration.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds in this duration (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / MICROS_PER_MS
    }

    /// Milliseconds as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_MS as f64
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// Scale this duration by a float factor (rounded, clamped at zero).
    pub fn mul_f64(self, factor: f64) -> Duration {
        Duration((self.0 as f64 * factor).round().max(0.0) as u64)
    }

    /// True if this duration is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, rhs: Duration) -> Instant {
        Instant(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Instant {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Instant {
    type Output = Instant;
    fn sub(self, rhs: Duration) -> Instant {
        Instant(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    fn sub(self, rhs: Instant) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= MICROS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else {
            write!(f, "{:.3}ms", self.as_millis_f64())
        }
    }
}

/// Convert a rate in bits-per-second and a payload size in bytes into the
/// serialisation time of that payload.
pub fn transmission_time(bytes: usize, bits_per_sec: f64) -> Duration {
    if bits_per_sec <= 0.0 {
        return Duration(u64::MAX / 4);
    }
    let secs = (bytes as f64 * 8.0) / bits_per_sec;
    Duration::from_secs_f64(secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_arithmetic_roundtrips() {
        let t = Instant::from_millis(40);
        assert_eq!(t.as_micros(), 40_000);
        assert_eq!(t.as_millis(), 40);
        assert_eq!(t.subframe_index(), 40);
        let later = t + Duration::from_millis(8);
        assert_eq!((later - t).as_millis(), 8);
        assert_eq!(later.saturating_since(t), Duration::from_millis(8));
    }

    #[test]
    fn duration_scaling_and_display() {
        let d = Duration::from_millis(100);
        assert_eq!(d.mul_f64(1.25).as_millis(), 125);
        assert_eq!(d.mul_f64(0.0), Duration::ZERO);
        assert_eq!(format!("{}", Duration::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", Duration::from_secs(2)), "2.000s");
    }

    #[test]
    fn subtraction_saturates() {
        let a = Duration::from_millis(5);
        let b = Duration::from_millis(9);
        assert_eq!(a - b, Duration::ZERO);
        assert_eq!(
            Instant::from_millis(1) - Duration::from_millis(2),
            Instant::ZERO
        );
    }

    #[test]
    fn transmission_time_matches_rate() {
        // 1500 bytes at 12 Mbit/s = 1 ms.
        let d = transmission_time(1500, 12_000_000.0);
        assert_eq!(d.as_micros(), 1000);
        // Zero rate yields a huge sentinel rather than dividing by zero.
        assert!(transmission_time(1500, 0.0).as_micros() > MICROS_PER_SEC * 1000);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(Duration::from_secs_f64(0.0000014).as_micros(), 1);
        assert_eq!(Duration::from_secs_f64(-1.0), Duration::ZERO);
    }
}
