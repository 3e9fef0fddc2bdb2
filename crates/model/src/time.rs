//! Strongly-typed simulation clock.
//!
//! The simulator and controllers operate on a continuous clock measured in
//! seconds. [`SimTime`] is an absolute instant, [`SimDuration`] a span;
//! both are thin validated wrappers around `f64` that provide a total order
//! (construction rejects NaN), so they can key event queues directly.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::Serialize;

/// An absolute instant on the simulation clock, in seconds since the start
/// of the trace.
///
/// # Examples
///
/// ```
/// use harmony_model::{SimDuration, SimTime};
///
/// let t = SimTime::from_secs(10.0) + SimDuration::from_secs(5.0);
/// assert_eq!(t, SimTime::from_secs(15.0));
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SimTime(f64);

/// A span of simulated time, in seconds. May not be negative or NaN.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SimDuration(f64);

impl SimTime {
    /// The origin of the simulation clock.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates an instant `secs` seconds after the origin.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is NaN.
    pub fn from_secs(secs: f64) -> Self {
        assert!(!secs.is_nan(), "SimTime cannot be NaN");
        SimTime(secs)
    }

    /// Creates an instant `hours` hours after the origin.
    pub fn from_hours(hours: f64) -> Self {
        Self::from_secs(hours * 3600.0)
    }

    /// Seconds since the origin.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Hours since the origin.
    pub fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// The non-negative span from `earlier` to `self`, saturating at zero
    /// when `earlier` is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration::from_secs((self.0 - earlier.0).max(0.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a span of `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or NaN.
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs >= 0.0, "SimDuration must be non-negative, got {secs}");
        SimDuration(secs)
    }

    /// Creates a span of `mins` minutes.
    pub fn from_mins(mins: f64) -> Self {
        Self::from_secs(mins * 60.0)
    }

    /// Creates a span of `hours` hours.
    pub fn from_hours(hours: f64) -> Self {
        Self::from_secs(hours * 3600.0)
    }

    /// Creates a span of `days` days.
    pub fn from_days(days: f64) -> Self {
        Self::from_secs(days * 86_400.0)
    }

    /// The span in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The span in hours.
    pub fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // Construction forbids NaN; total_cmp keeps the ordering total
        // even if one slips through (no panic in the event loop).
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Eq for SimDuration {}

impl Ord for SimDuration {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for SimDuration {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
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

impl Sub for SimTime {
    type Output = SimDuration;

    /// # Panics
    ///
    /// Panics if `rhs` is later than `self` (a negative span); use
    /// [`SimTime::saturating_since`] if clamping is intended.
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration::from_secs(self.0 - rhs.0)
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

    /// # Panics
    ///
    /// Panics if `rhs > self`.
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_secs(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 * rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;

    fn div(self, rhs: SimDuration) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.1}s", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t0 = SimTime::from_secs(100.0);
        let d = SimDuration::from_secs(50.0);
        assert_eq!(t0 + d, SimTime::from_secs(150.0));
        assert_eq!((t0 + d) - t0, d);
        assert_eq!(d + d, SimDuration::from_secs(100.0));
        assert_eq!(d * 2.0, SimDuration::from_secs(100.0));
        assert_eq!(d / SimDuration::from_secs(25.0), 2.0);
    }

    #[test]
    fn ordering_is_total() {
        let mut ts = [SimTime::from_secs(3.0), SimTime::from_secs(1.0), SimTime::from_secs(2.0)];
        ts.sort();
        assert_eq!(ts[0], SimTime::from_secs(1.0));
        assert_eq!(ts[2], SimTime::from_secs(3.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_panics() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_secs(5.0);
        let b = SimTime::from_secs(10.0);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(5.0));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(SimDuration::from_hours(2.0).as_secs(), 7200.0);
        assert_eq!(SimDuration::from_days(1.0).as_hours(), 24.0);
        assert_eq!(SimDuration::from_mins(3.0).as_secs(), 180.0);
        assert_eq!(SimTime::from_hours(1.0).as_secs(), 3600.0);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(|i| SimDuration::from_secs(i as f64)).sum();
        assert_eq!(total, SimDuration::from_secs(10.0));
    }
}
