//! Virtual time: nanosecond-resolution instants, durations and a clock.
//!
//! All simulation latency math is carried out on [`Nanos`], a thin wrapper
//! around `u64` nanoseconds. Virtual time has no relation to wall-clock
//! time: a [`VirtualClock`] only moves when the simulation advances it,
//! which is what makes every experiment deterministic and replayable.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of virtual time in nanoseconds.
///
/// `Nanos` is used both as a duration and (relative to simulation start)
/// as an instant. Arithmetic saturates rather than wrapping so that a
/// pathological model parameter cannot silently corrupt a timeline.
///
/// # Examples
///
/// ```
/// use rb_simcore::time::Nanos;
///
/// let seek = Nanos::from_millis(8) + Nanos::from_micros(300);
/// assert_eq!(seek.as_nanos(), 8_300_000);
/// assert_eq!(format!("{seek}"), "8.300ms");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(u64);

impl Nanos {
    /// Zero duration.
    pub const ZERO: Nanos = Nanos(0);
    /// The largest representable duration.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us.saturating_mul(1_000))
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms.saturating_mul(1_000_000))
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s.saturating_mul(1_000_000_000))
    }

    /// Creates a duration from fractional seconds.
    ///
    /// Negative or non-finite inputs clamp to zero; values beyond the
    /// representable range clamp to [`Nanos::MAX`].
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return Nanos::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            Nanos::MAX
        } else {
            Nanos(ns as u64)
        }
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration in microseconds, truncating.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the duration in milliseconds, truncating.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the duration in whole seconds, truncating.
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns true if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating addition.
    pub const fn saturating_add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (clamps at zero).
    pub const fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction; `None` if `rhs > self`.
    pub const fn checked_sub(self, rhs: Nanos) -> Option<Nanos> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(Nanos(v)),
            None => None,
        }
    }

    /// Multiplies by a dimensionless float factor, clamping at the range
    /// boundaries.
    pub fn mul_f64(self, factor: f64) -> Nanos {
        Nanos::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Returns the log2 bucket index of this latency, i.e. `floor(log2(ns))`.
    ///
    /// This is the OSprof / paper Figure 3 convention: bucket `k` holds
    /// latencies in `[2^k, 2^(k+1))` ns. A zero duration maps to bucket 0.
    pub const fn log2_bucket(self) -> u32 {
        if self.0 <= 1 {
            0
        } else {
            63 - self.0.leading_zeros()
        }
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        self.saturating_add(rhs)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        *self = *self + rhs;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs.max(1))
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Nanos({})", self.0)
    }
}

impl fmt::Display for Nanos {
    /// Formats with an automatically chosen unit (`ns`, `us`, `ms`, `s`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{}.{:03}us", ns / 1_000, ns % 1_000)
        } else if ns < 1_000_000_000 {
            write!(f, "{}.{:03}ms", ns / 1_000_000, (ns / 1_000) % 1_000)
        } else {
            write!(f, "{}.{:03}s", ns / 1_000_000_000, (ns / 1_000_000) % 1_000)
        }
    }
}

/// A monotonically advancing virtual clock.
///
/// The clock is the single source of "now" for a simulation. Components
/// advance it explicitly; it never moves on its own.
///
/// # Examples
///
/// ```
/// use rb_simcore::time::{Nanos, VirtualClock};
///
/// let mut clock = VirtualClock::new();
/// clock.advance(Nanos::from_micros(4));
/// assert_eq!(clock.now().as_micros(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    now: Nanos,
}

impl VirtualClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        VirtualClock { now: Nanos::ZERO }
    }

    /// Returns the current virtual instant.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Advances the clock by `delta` and returns the new instant.
    pub fn advance(&mut self, delta: Nanos) -> Nanos {
        self.now += delta;
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Nanos::from_micros(1), Nanos::from_nanos(1_000));
        assert_eq!(Nanos::from_millis(1), Nanos::from_micros(1_000));
        assert_eq!(Nanos::from_secs(1), Nanos::from_millis(1_000));
        assert_eq!(Nanos::from_secs_f64(0.5), Nanos::from_millis(500));
    }

    #[test]
    fn from_secs_f64_clamps() {
        assert_eq!(Nanos::from_secs_f64(-1.0), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(f64::NAN), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(f64::INFINITY), Nanos::MAX);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(Nanos::MAX + Nanos::from_secs(1), Nanos::MAX);
        assert_eq!(Nanos::ZERO - Nanos::from_secs(1), Nanos::ZERO);
        assert_eq!(Nanos::from_secs(1).checked_sub(Nanos::from_secs(2)), None);
    }

    #[test]
    fn log2_bucket_matches_paper_convention() {
        // 4096 ns lands in bucket 12, the paper's "~4 us" in-memory peak.
        assert_eq!(Nanos::from_nanos(4096).log2_bucket(), 12);
        assert_eq!(Nanos::from_micros(4).log2_bucket(), 11);
        // 8.4 ms lands in bucket 23, the paper's disk peak.
        assert_eq!(Nanos::from_micros(8400).log2_bucket(), 23);
        assert_eq!(Nanos::from_nanos(0).log2_bucket(), 0);
        assert_eq!(Nanos::from_nanos(1).log2_bucket(), 0);
        assert_eq!(Nanos::from_nanos(2).log2_bucket(), 1);
        assert_eq!(Nanos::from_nanos(3).log2_bucket(), 1);
        assert_eq!(Nanos::from_nanos(4).log2_bucket(), 2);
        assert_eq!(Nanos::from_nanos(u64::MAX).log2_bucket(), 63);
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(format!("{}", Nanos::from_nanos(17)), "17ns");
        assert_eq!(format!("{}", Nanos::from_nanos(4_096)), "4.096us");
        assert_eq!(format!("{}", Nanos::from_millis(8)), "8.000ms");
        assert_eq!(format!("{}", Nanos::from_secs(3)), "3.000s");
    }

    #[test]
    fn clock_is_monotonic() {
        let mut c = VirtualClock::new();
        c.advance(Nanos::from_secs(5));
        assert_eq!(c.now(), Nanos::from_secs(5));
    }

    #[test]
    fn mul_div_behave() {
        assert_eq!(Nanos::from_micros(2) * 3, Nanos::from_micros(6));
        assert_eq!(Nanos::from_micros(6) / 3, Nanos::from_micros(2));
        assert_eq!(Nanos::from_micros(6) / 0, Nanos::from_micros(6));
        assert_eq!(Nanos::from_millis(10).mul_f64(0.5), Nanos::from_millis(5));
    }

    #[test]
    fn sum_works() {
        let total: Nanos = (1..=4).map(Nanos::from_micros).sum();
        assert_eq!(total, Nanos::from_micros(10));
    }
}
