//! Virtual time: microsecond-resolution instants and durations.
//!
//! All protocol timing in the workspace (heartbeats, session timeouts,
//! journal-flush latencies, MTTR measurements) is expressed in these types.
//! They are deliberately tiny newtypes over `u64` so they are free to copy
//! and hash, and so arithmetic overflows loudly in debug builds.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulation clock, in microseconds since simulation
/// start. `SimTime::ZERO` is the boot instant of the simulated cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as the "never" sentinel for timers.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Microseconds since simulation start.
    #[inline]
    pub fn micros(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    pub const ZERO: Duration = Duration(0);

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Duration {
        Duration(us)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Duration {
        Duration(s * 1_000_000)
    }

    #[inline]
    pub fn micros(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration scaled by a non-negative factor (latency model jitter).
    pub fn mul_f64(self, k: f64) -> Duration {
        assert!(k >= 0.0 && k.is_finite(), "negative or non-finite scale");
        Duration((self.0 as f64 * k).round() as u64)
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0.checked_sub(rhs.0).expect("SimTime subtraction underflow"))
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.checked_sub(rhs.0).expect("Duration subtraction underflow"))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", fmt_us(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_us(self.0))
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_us(self.0))
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_us(self.0))
    }
}

/// Render a microsecond count with a human-friendly unit.
fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.3}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.3}ms", us as f64 / 1e3)
    } else {
        format!("{}us", us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(Duration::from_secs(5).micros(), 5_000_000);
        assert_eq!(Duration::from_millis(5).micros(), 5_000);
        assert_eq!(Duration::from_micros(5).micros(), 5);
    }

    #[test]
    fn instant_arithmetic() {
        let t = SimTime::ZERO + Duration::from_millis(10);
        assert_eq!(t.micros(), 10_000);
        assert_eq!(t - SimTime::ZERO, Duration::from_millis(10));
        assert_eq!(t.since(t + Duration::from_secs(1)), Duration::ZERO);
        assert_eq!((t + Duration::from_secs(1)).since(t), Duration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn instant_subtraction_underflow_panics() {
        let _ = SimTime::ZERO - SimTime(1);
    }

    #[test]
    fn scaling() {
        assert_eq!(Duration::from_millis(100).mul_f64(2.5), Duration::from_millis(250));
        assert_eq!(Duration::from_millis(100).mul_f64(0.0), Duration::ZERO);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", Duration::from_micros(7)), "7us");
        assert_eq!(format!("{}", Duration::from_millis(7)), "7.000ms");
        assert_eq!(format!("{}", Duration::from_secs(7)), "7.000s");
        assert_eq!(format!("{}", SimTime::ZERO + Duration::from_secs(2)), "2.000s");
    }

    #[test]
    fn ordering() {
        assert!(SimTime(1) < SimTime(2));
        assert!(Duration::from_millis(1) < Duration::from_secs(1));
        assert_eq!(Duration::from_secs(1).saturating_sub(Duration::from_secs(2)), Duration::ZERO);
    }
}
