//! Simulated time.
//!
//! The simulator runs on integer **ticks**; the paper's plots use abstract
//! "time units". One time unit is [`TICKS_PER_TIME_UNIT`] ticks, giving
//! sub-time-unit resolution for arrivals and execution times while keeping
//! all arithmetic exact (no floating-point clock drift).
//!
//! Probability distributions are coarser than ticks: a [`BinSpec`] maps
//! ticks onto PMF bins (default 250 ticks/bin — ¼ of a time unit). The
//! trade-off is measured by the `ablation_bin_width` bench.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Number of simulator ticks in one of the paper's "time units".
pub const TICKS_PER_TIME_UNIT: u64 = 1_000;

/// A point in simulated time, measured in ticks since simulation start.
///
/// `SimTime` is also used for durations (the difference of two points);
/// the arithmetic operators keep both readable: `point + duration`,
/// `point - point`.
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    Serialize,
    Deserialize,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Simulation origin.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable time; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds a time from whole paper time-units.
    pub fn from_time_units(units: f64) -> Self {
        SimTime((units * TICKS_PER_TIME_UNIT as f64).round().max(0.0) as u64)
    }

    /// This time expressed in paper time-units.
    pub fn as_time_units(self) -> f64 {
        self.0 as f64 / TICKS_PER_TIME_UNIT as f64
    }

    /// Raw tick count.
    #[inline]
    pub fn ticks(self) -> u64 {
        self.0
    }

    /// Saturating subtraction: `self - other`, floored at zero.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Saturating addition: `self + other`, capped at [`SimTime::MAX`].
    #[inline]
    pub fn saturating_add(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;

    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}tu", self.as_time_units())
    }
}

/// The tick ↔ PMF-bin mapping used by every probabilistic computation.
///
/// A bin covers `width` ticks; the value stored in bin `b` represents
/// times in `[b·width, (b+1)·width)`. Deadline queries round *down*
/// (conservative: a completion in the deadline's bin but possibly past the
/// instant itself counts as success only if its bin wholly precedes the
/// deadline's bin — see [`BinSpec::deadline_bin`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinSpec {
    width: u64,
}

impl BinSpec {
    /// Creates a bin spec with the given width in ticks (must be > 0).
    pub fn new(width: u64) -> Self {
        assert!(width > 0, "bin width must be positive");
        Self { width }
    }

    /// The default resolution: ¼ of a time unit.
    pub fn default_resolution() -> Self {
        Self::new(TICKS_PER_TIME_UNIT / 4)
    }

    /// Bin width in ticks.
    #[inline]
    pub fn width(self) -> u64 {
        self.width
    }

    /// The bin containing `time`.
    #[inline]
    pub fn bin_of(self, time: SimTime) -> u64 {
        time.0 / self.width
    }

    /// The most conservative bin to compare a completion-time PMF against
    /// for a deadline at `deadline`: the last bin that ends at or before
    /// the deadline instant. A completion landing in that bin is
    /// guaranteed to be on time.
    #[inline]
    pub fn deadline_bin(self, deadline: SimTime) -> u64 {
        // Bin b is safe iff (b+1)·width ≤ deadline ⇔ b ≤ ⌊d/width⌋ − 1,
        // for boundary and interior deadlines alike.
        (deadline.0 / self.width).saturating_sub(1)
    }

    /// Inclusive start tick of a bin.
    #[inline]
    pub fn bin_start(self, bin: u64) -> SimTime {
        SimTime(bin * self.width)
    }

    /// The midpoint tick of a bin: the representative instant when a
    /// single time must stand for the whole bin.
    #[inline]
    pub fn bin_mid(self, bin: u64) -> SimTime {
        SimTime(bin * self.width + self.width / 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_unit_conversions_roundtrip() {
        let t = SimTime::from_time_units(2.5);
        assert_eq!(t.ticks(), 2_500);
        assert!((t.as_time_units() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn negative_units_clamp_to_zero() {
        assert_eq!(SimTime::from_time_units(-3.0), SimTime::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime(100);
        let b = SimTime(40);
        assert_eq!(a + b, SimTime(140));
        assert_eq!(a - b, SimTime(60));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime(140));
    }

    #[test]
    fn bin_of_floors() {
        let spec = BinSpec::new(250);
        assert_eq!(spec.bin_of(SimTime(0)), 0);
        assert_eq!(spec.bin_of(SimTime(249)), 0);
        assert_eq!(spec.bin_of(SimTime(250)), 1);
        assert_eq!(spec.bin_of(SimTime(999)), 3);
    }

    #[test]
    fn deadline_bin_is_conservative() {
        let spec = BinSpec::new(250);
        // Deadline exactly at a bin boundary: the previous bin is the last
        // safe one.
        assert_eq!(spec.deadline_bin(SimTime(500)), 1);
        // Deadline inside bin 2 (ticks 500..750): bin 1 is still the last
        // whose *end* precedes the deadline.
        assert_eq!(spec.deadline_bin(SimTime(600)), 1);
        assert_eq!(spec.deadline_bin(SimTime(749)), 1);
        assert_eq!(spec.deadline_bin(SimTime(750)), 2);
    }

    #[test]
    fn deadline_bin_at_origin_saturates() {
        let spec = BinSpec::new(250);
        assert_eq!(spec.deadline_bin(SimTime(0)), 0);
        assert_eq!(spec.deadline_bin(SimTime(100)), 0);
    }

    #[test]
    fn bin_start_and_mid() {
        let spec = BinSpec::new(100);
        assert_eq!(spec.bin_start(3), SimTime(300));
        assert_eq!(spec.bin_mid(3), SimTime(350));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_rejected() {
        BinSpec::new(0);
    }

    #[test]
    fn display_formats_time_units() {
        assert_eq!(format!("{}", SimTime(1_500)), "1.500tu");
    }
}
