//! # rb-simdisk — simulated block devices
//!
//! Deterministic models of the storage media under a file system: a
//! mechanical HDD (seek curve, rotational position, zoned bit recording,
//! track buffer, write cache) calibrated to the paper's Maxtor 7L250S0
//! testbed drive, a channel-parallel flash SSD, a DRAM disk, and a
//! tiered device (a flash read cache in front of a disk).
//!
//! The paper's case study needs exactly one property from this layer: a
//! *huge, variable* gap between media access (~8–16 ms) and memory access
//! (~4 µs). Everything else — the cliff, the fragile transition region,
//! the bimodal histograms — follows from that gap plus cache dynamics.
//!
//! ## Example
//!
//! ```
//! use rb_simdisk::prelude::*;
//! use rb_simcore::time::Nanos;
//!
//! let mut disk = Hdd::new(HddConfig::maxtor_7l250s0_like());
//! let lat = disk.service(&IoRequest::read(1_000_000, 2), Nanos::ZERO);
//! assert!(lat.as_millis() >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod geometry;
pub mod hdd;
pub mod ssd;
pub mod tiered;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::device::{BlockDevice, DeviceStats, IoKind, IoRequest};
    pub use crate::geometry::{Chs, Geometry, Zone};
    pub use crate::hdd::{Hdd, HddConfig};
    pub use crate::ssd::{RamDisk, Ssd, SsdConfig};
    pub use crate::tiered::{TierConfig, TieredDevice};
}
