//! Integer simulation time.
//!
//! All event ordering in the simulator is integer microseconds, so runs are
//! bit-for-bit reproducible: there is no floating-point comparison anywhere
//! on the event path. Conversions to/from `f64` seconds exist only at the
//! statistics boundary.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant, in microseconds since the start of the simulated day/run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeDelta(pub u64);

impl Time {
    /// The origin of simulated time.
    pub const ZERO: Time = Time(0);

    /// Builds an instant from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Time(s * 1_000_000)
    }

    /// Builds an instant from fractional seconds (rounds to the grid).
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "time must be non-negative");
        Time((s * 1e6).round() as u64)
    }

    /// Builds an instant from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        Time(m * 60 * 1_000_000)
    }

    /// Builds an instant from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        Time(h * 3600 * 1_000_000)
    }

    /// This instant in seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time elapsed since `earlier`; saturates at zero if `earlier` is later.
    pub fn since(&self, earlier: Time) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(earlier.0))
    }
}

impl TimeDelta {
    /// The zero span.
    pub const ZERO: TimeDelta = TimeDelta(0);

    /// Builds a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        TimeDelta(s * 1_000_000)
    }

    /// Builds a span from fractional seconds (rounds to the grid).
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "duration must be non-negative");
        TimeDelta((s * 1e6).round() as u64)
    }

    /// Builds a span from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        TimeDelta(m * 60 * 1_000_000)
    }

    /// Builds a span from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        TimeDelta(h * 3600 * 1_000_000)
    }

    /// This span in seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl Add<TimeDelta> for Time {
    type Output = Time;
    fn add(self, rhs: TimeDelta) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<TimeDelta> for Time {
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = TimeDelta;
    fn sub(self, rhs: Time) -> TimeDelta {
        assert!(self.0 >= rhs.0, "time subtraction would underflow");
        TimeDelta(self.0 - rhs.0)
    }
}

impl Add<TimeDelta> for TimeDelta {
    type Output = TimeDelta;
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 + rhs.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Time::from_secs(2).0, 2_000_000);
        assert_eq!(Time::from_mins(3), Time::from_secs(180));
        assert_eq!(Time::from_hours(1), Time::from_secs(3600));
        assert!((Time::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-9);
        assert!((TimeDelta::from_secs_f64(0.25).as_secs_f64() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_secs(10) + TimeDelta::from_secs(5);
        assert_eq!(t, Time::from_secs(15));
        assert_eq!(t - Time::from_secs(10), TimeDelta::from_secs(5));
        assert_eq!(
            Time::from_secs(3).since(Time::from_secs(10)),
            TimeDelta::ZERO
        );
        let mut u = Time::ZERO;
        u += TimeDelta::from_secs(7);
        assert_eq!(u, Time::from_secs(7));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = Time::from_secs(1) - Time::from_secs(2);
    }

    #[test]
    fn ordering_is_integer_exact() {
        assert!(Time(1) < Time(2));
        assert_eq!(Time(5).since(Time(2)), TimeDelta(3));
    }
}
