//! Byte-quantity units and block/page address helpers.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A byte quantity (size or offset).
///
/// # Examples
///
/// ```
/// use rb_simcore::units::Bytes;
///
/// let file = Bytes::mib(410);
/// assert_eq!(file.as_u64(), 410 * 1024 * 1024);
/// assert_eq!(file.div_ceil(Bytes::kib(4)), 104_960);
/// assert_eq!(format!("{file}"), "410.0MiB");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a quantity from raw bytes.
    pub const fn new(b: u64) -> Self {
        Bytes(b)
    }

    /// Creates a quantity from KiB.
    pub const fn kib(k: u64) -> Self {
        Bytes(k.saturating_mul(1024))
    }

    /// Creates a quantity from MiB.
    pub const fn mib(m: u64) -> Self {
        Bytes(m.saturating_mul(1024 * 1024))
    }

    /// Creates a quantity from GiB.
    pub const fn gib(g: u64) -> Self {
        Bytes(g.saturating_mul(1024 * 1024 * 1024))
    }

    /// Returns the raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the quantity in whole MiB, truncating.
    pub const fn as_mib(self) -> u64 {
        self.0 / (1024 * 1024)
    }

    /// Returns the quantity in fractional MiB.
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// Returns true if zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Ceiling division by a unit size, e.g. bytes to pages.
    ///
    /// A zero `unit` returns 0 to avoid a panic path; callers validate
    /// configuration separately.
    pub const fn div_ceil(self, unit: Bytes) -> u64 {
        if unit.0 == 0 {
            0
        } else {
            self.0.div_ceil(unit.0)
        }
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// Returns the smaller of two quantities.
    pub fn min(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.min(rhs.0))
    }

    /// Returns the larger of two quantities.
    pub fn max(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.max(rhs.0))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        *self = *self + rhs;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for Bytes {
    fn sub_assign(&mut self, rhs: Bytes) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Bytes {
    type Output = Bytes;
    fn div(self, rhs: u64) -> Bytes {
        Bytes(self.0 / rhs.max(1))
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({})", self.0)
    }
}

impl fmt::Display for Bytes {
    /// Formats with an automatically chosen binary unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const KIB: u64 = 1024;
        const MIB: u64 = 1024 * KIB;
        const GIB: u64 = 1024 * MIB;
        let b = self.0;
        if b < KIB {
            write!(f, "{b}B")
        } else if b < MIB {
            write!(f, "{:.1}KiB", b as f64 / KIB as f64)
        } else if b < GIB {
            write!(f, "{:.1}MiB", b as f64 / MIB as f64)
        } else {
            write!(f, "{:.1}GiB", b as f64 / GIB as f64)
        }
    }
}

/// Logical block address on a simulated device (in device blocks).
pub type BlockNo = u64;

/// Page index within a cached file (in page-size units).
pub type PageNo = u64;

/// The ubiquitous 4 KiB page size used throughout the stack.
pub const PAGE_SIZE: Bytes = Bytes::kib(4);

/// Splits a byte range `[offset, offset + len)` into the pages it touches.
///
/// Returns the inclusive first and exclusive last page index for
/// `page_size`-sized pages. An empty range yields an empty page range.
///
/// # Examples
///
/// ```
/// use rb_simcore::units::{page_span, Bytes};
///
/// // 8 KiB read at offset 6 KiB touches pages 1, 2 and 3.
/// let (first, last) = page_span(Bytes::kib(6), Bytes::kib(8), Bytes::kib(4));
/// assert_eq!((first, last), (1, 4));
/// ```
pub fn page_span(offset: Bytes, len: Bytes, page_size: Bytes) -> (PageNo, PageNo) {
    if len.is_zero() || page_size.is_zero() {
        let p = if page_size.is_zero() {
            0
        } else {
            offset.as_u64() / page_size.as_u64()
        };
        return (p, p);
    }
    let first = offset.as_u64() / page_size.as_u64();
    let last = (offset.as_u64() + len.as_u64()).div_ceil(page_size.as_u64());
    (first, last)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors() {
        assert_eq!(Bytes::kib(1).as_u64(), 1024);
        assert_eq!(Bytes::gib(1).as_mib(), 1024);
    }

    #[test]
    fn div_ceil_rounds_up() {
        assert_eq!(Bytes::new(1).div_ceil(PAGE_SIZE), 1);
        assert_eq!(Bytes::kib(4).div_ceil(PAGE_SIZE), 1);
        assert_eq!(Bytes::new(4097).div_ceil(PAGE_SIZE), 2);
        assert_eq!(Bytes::ZERO.div_ceil(PAGE_SIZE), 0);
        assert_eq!(Bytes::kib(4).div_ceil(Bytes::ZERO), 0);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", Bytes::new(512)), "512B");
        assert_eq!(format!("{}", Bytes::kib(64)), "64.0KiB");
        assert_eq!(format!("{}", Bytes::mib(410)), "410.0MiB");
        assert_eq!(format!("{}", Bytes::gib(25)), "25.0GiB");
    }

    #[test]
    fn page_span_cases() {
        let p = Bytes::kib(4);
        // Aligned single page.
        assert_eq!(page_span(Bytes::ZERO, p, p), (0, 1));
        // Aligned two pages (the default 8 KiB I/O size).
        assert_eq!(page_span(Bytes::ZERO, Bytes::kib(8), p), (0, 2));
        // Unaligned spans three pages.
        assert_eq!(page_span(Bytes::kib(6), Bytes::kib(8), p), (1, 4));
        // Empty length is empty.
        let (a, b) = page_span(Bytes::kib(9), Bytes::ZERO, p);
        assert_eq!(a, b);
        // Sub-page read.
        assert_eq!(page_span(Bytes::new(100), Bytes::new(10), p), (0, 1));
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(Bytes::ZERO - Bytes::kib(1), Bytes::ZERO);
        assert_eq!(Bytes::new(u64::MAX) + Bytes::kib(1), Bytes::new(u64::MAX));
        assert_eq!(Bytes::kib(8) / 0, Bytes::kib(8));
    }
}
