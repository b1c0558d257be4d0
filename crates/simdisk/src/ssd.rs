//! Flash SSD model: channel-parallel page reads, programs and amortized
//! garbage collection.
//!
//! The paper predicts that "more modern file systems rely on multiple
//! cache levels (using Flash memory or network)", producing latency
//! curves with *multiple distinctive steps*. The SSD model supplies the
//! middle step (~100 µs) between DRAM (~µs) and disk (~ms) so the harness
//! can reproduce multi-tier behaviour.

use crate::device::{BlockDevice, DeviceStats, IoKind, IoRequest};
use rb_simcore::time::Nanos;
use rb_simcore::units::Bytes;

/// Configuration of the SSD model.
#[derive(Debug, Clone)]
pub struct SsdConfig {
    /// Device capacity in blocks (one block = one flash page here).
    pub capacity_blocks: u64,
    /// Block (flash page) size.
    pub block_size: Bytes,
    /// Flash page read latency.
    pub read_page: Nanos,
    /// Flash page program latency.
    pub program_page: Nanos,
    /// Flash block erase latency.
    pub erase_block: Nanos,
    /// Pages per flash erase block.
    pub pages_per_erase_block: u64,
    /// Independent channels that can transfer in parallel.
    pub channels: u64,
    /// Fixed controller overhead per request.
    pub controller_overhead: Nanos,
    /// Write amplification factor (extra GC work per user write), ≥ 1.
    pub write_amplification: f64,
}

impl SsdConfig {
    /// A SATA-era consumer SSD: 60 µs reads, 250 µs programs, 8 channels.
    pub fn consumer_sata() -> Self {
        SsdConfig {
            capacity_blocks: Bytes::gib(64).as_u64() / Bytes::kib(4).as_u64(),
            block_size: Bytes::kib(4),
            read_page: Nanos::from_micros(60),
            program_page: Nanos::from_micros(250),
            erase_block: Nanos::from_millis(2),
            pages_per_erase_block: 64,
            channels: 8,
            controller_overhead: Nanos::from_micros(20),
            write_amplification: 1.5,
        }
    }
}

/// A simulated flash SSD.
///
/// # Examples
///
/// ```
/// use rb_simdisk::device::{BlockDevice, IoRequest};
/// use rb_simdisk::ssd::{Ssd, SsdConfig};
/// use rb_simcore::time::Nanos;
///
/// let mut ssd = Ssd::new(SsdConfig::consumer_sata());
/// let lat = ssd.service(&IoRequest::read(12345, 2), Nanos::ZERO);
/// // Flash reads land in the ~100 us regime: slower than DRAM,
/// // far faster than a disk seek.
/// assert!(lat.as_micros() >= 50 && lat.as_micros() < 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct Ssd {
    config: SsdConfig,
    pages_written: u64,
    gc_debt: f64,
    stats: DeviceStats,
}

impl Ssd {
    /// Creates an SSD in the fresh (fully trimmed) state.
    pub fn new(config: SsdConfig) -> Self {
        Ssd {
            config,
            pages_written: 0,
            gc_debt: 0.0,
            stats: DeviceStats::default(),
        }
    }

    /// The configuration this SSD was built with.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// Total pages programmed so far (wear proxy).
    pub fn pages_written(&self) -> u64 {
        self.pages_written
    }

    /// Latency for `pages` flash operations of unit cost `per_page`,
    /// striped across channels.
    fn striped(&self, pages: u64, per_page: Nanos) -> Nanos {
        let waves = pages.div_ceil(self.config.channels.max(1));
        per_page * waves
    }
}

impl BlockDevice for Ssd {
    fn service(&mut self, req: &IoRequest, _now: Nanos) -> Nanos {
        let mut latency = self.config.controller_overhead;
        match req.kind {
            IoKind::Read => {
                latency += self.striped(req.count, self.config.read_page);
            }
            IoKind::Write => {
                latency += self.striped(req.count, self.config.program_page);
                self.pages_written += req.count;
                // Accumulate amortized GC: (WA - 1) extra page programs per
                // user page, plus an erase every pages_per_erase_block user
                // pages. Charged to the requests that cross the threshold,
                // modelling the bursty stalls real drives exhibit.
                self.gc_debt += (self.config.write_amplification - 1.0).max(0.0) * req.count as f64;
                while self.gc_debt >= self.config.pages_per_erase_block as f64 {
                    self.gc_debt -= self.config.pages_per_erase_block as f64;
                    latency += self.config.erase_block;
                    latency +=
                        self.striped(self.config.pages_per_erase_block, self.config.program_page);
                }
            }
        }
        self.stats.record(req, latency);
        latency
    }

    fn capacity_blocks(&self) -> u64 {
        self.config.capacity_blocks
    }

    fn block_size(&self) -> Bytes {
        self.config.block_size
    }

    fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    fn model_name(&self) -> &str {
        "ssd-sata"
    }
}

/// A DRAM-backed block device: constant microsecond-scale access.
///
/// Useful both as the fastest tier in multi-level experiments and as the
/// control device that isolates file-system CPU costs from media costs.
#[derive(Debug, Clone)]
pub struct RamDisk {
    capacity_blocks: u64,
    block_size: Bytes,
    per_block: Nanos,
    overhead: Nanos,
    stats: DeviceStats,
}

impl RamDisk {
    /// Creates a RAM disk.
    ///
    /// `per_block` is the copy cost per block (e.g. ~2 µs per 4 KiB at
    /// ~2 GiB/s); `overhead` is the fixed per-request cost.
    pub fn new(capacity_blocks: u64, block_size: Bytes, per_block: Nanos, overhead: Nanos) -> Self {
        RamDisk {
            capacity_blocks,
            block_size,
            per_block,
            overhead,
            stats: DeviceStats::default(),
        }
    }
}

impl BlockDevice for RamDisk {
    fn service(&mut self, req: &IoRequest, _now: Nanos) -> Nanos {
        let latency = self.overhead + self.per_block * req.count;
        self.stats.record(req, latency);
        latency
    }

    fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    fn block_size(&self) -> Bytes {
        self.block_size
    }

    fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    fn model_name(&self) -> &str {
        "ramdisk"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1 GiB RAM disk with DRAM-ish timing.
    fn ram_1gib() -> RamDisk {
        RamDisk::new(
            Bytes::gib(1).as_u64() / Bytes::kib(4).as_u64(),
            Bytes::kib(4),
            Nanos::from_micros(2),
            Nanos::from_nanos(500),
        )
    }

    #[test]
    fn reads_scale_with_channel_waves() {
        let mut ssd = Ssd::new(SsdConfig::consumer_sata());
        let one = ssd.service(&IoRequest::read(0, 1), Nanos::ZERO);
        let eight = ssd.service(&IoRequest::read(0, 8), Nanos::ZERO);
        let nine = ssd.service(&IoRequest::read(0, 9), Nanos::ZERO);
        // 8 pages fill one wave on 8 channels: same latency as 1 page.
        assert_eq!(one, eight);
        // The 9th page starts a second wave.
        assert!(nine > eight);
    }

    #[test]
    fn writes_slower_than_reads() {
        let mut ssd = Ssd::new(SsdConfig::consumer_sata());
        let r = ssd.service(&IoRequest::read(0, 4), Nanos::ZERO);
        let w = ssd.service(&IoRequest::write(0, 4), Nanos::ZERO);
        assert!(w > r);
    }

    #[test]
    fn gc_charges_periodic_stalls() {
        let mut ssd = Ssd::new(SsdConfig::consumer_sata());
        let mut latencies = Vec::new();
        for i in 0..300 {
            latencies.push(ssd.service(&IoRequest::write(i, 1), Nanos::ZERO));
        }
        let max = latencies.iter().max().unwrap();
        let min = latencies.iter().min().unwrap();
        // Some writes absorb an erase stall; most do not.
        assert!(max.as_nanos() > min.as_nanos() * 3, "max {max} min {min}");
        let stalls = latencies.iter().filter(|l| **l > *min * 3).count();
        assert!((1..60).contains(&stalls), "stalls {stalls}");
    }

    #[test]
    fn sits_between_ram_and_disk() {
        let mut ssd = Ssd::new(SsdConfig::consumer_sata());
        let mut ram = ram_1gib();
        let req = IoRequest::read(1000, 2);
        let ssd_lat = ssd.service(&req, Nanos::ZERO);
        let ram_lat = ram.service(&req, Nanos::ZERO);
        assert!(ram_lat < ssd_lat);
        assert!(ssd_lat < Nanos::from_millis(2));
    }

    #[test]
    fn ramdisk_is_constant_time() {
        let mut ram = ram_1gib();
        let a = ram.service(&IoRequest::read(0, 2), Nanos::ZERO);
        let b = ram.service(&IoRequest::read(ram.capacity_blocks() - 2, 2), Nanos::ZERO);
        assert_eq!(a, b);
    }

    #[test]
    fn wear_counter_advances() {
        let mut ssd = Ssd::new(SsdConfig::consumer_sata());
        ssd.service(&IoRequest::write(0, 16), Nanos::ZERO);
        assert_eq!(ssd.pages_written(), 16);
        ssd.service(&IoRequest::read(0, 16), Nanos::ZERO);
        assert_eq!(ssd.pages_written(), 16);
    }
}
