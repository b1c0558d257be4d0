//! Tiered device: a flash read cache in front of a mechanical disk.
//!
//! The paper predicts: "More modern file systems rely on multiple cache
//! levels (using Flash memory or network). In this case the performance
//! curve will have multiple distinctive steps." This device realizes
//! that scenario — DRAM (the page cache above), flash (this tier), disk
//! — so the harness can demonstrate tri-modal latency histograms and
//! multi-step working-set curves.

use crate::device::{BlockDevice, DeviceStats, IoKind, IoRequest};
use rb_simcore::fnv::FnvHashMap;
use rb_simcore::time::Nanos;
use rb_simcore::units::{BlockNo, Bytes};
use std::collections::BTreeMap;

/// Configuration for the flash tier.
#[derive(Debug, Clone)]
pub struct TierConfig {
    /// Flash-tier capacity in blocks.
    pub cache_blocks: u64,
    /// Whether a miss promotes the blocks into the flash tier
    /// (read-allocate), paying the flash program cost lazily.
    pub promote_on_read: bool,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            cache_blocks: Bytes::gib(1).as_u64() / Bytes::kib(4).as_u64(),
            promote_on_read: true,
        }
    }
}

/// A two-tier block device: `fast` (e.g. SSD) caching `slow` (e.g. HDD).
///
/// Block residency in the fast tier is tracked exactly with LRU
/// replacement. Reads hitting the tier are serviced by the fast device;
/// misses go to the slow device and (optionally) promote. Writes go to
/// both the slow device path and invalidate/refresh the tier
/// (write-through).
///
/// # Examples
///
/// ```
/// use rb_simdisk::prelude::*;
/// use rb_simdisk::tiered::{TierConfig, TieredDevice};
/// use rb_simcore::time::Nanos;
///
/// let mut dev = TieredDevice::new(
///     Box::new(Ssd::new(SsdConfig::consumer_sata())),
///     Box::new(Hdd::new(HddConfig::maxtor_7l250s0_like())),
///     TierConfig::default(),
/// );
/// let cold = dev.service(&IoRequest::read(123_456, 2), Nanos::ZERO);
/// let warm = dev.service(&IoRequest::read(123_456, 2), cold);
/// assert!(warm < cold, "flash hit must beat the disk");
/// ```
pub struct TieredDevice {
    fast: Box<dyn BlockDevice>,
    slow: Box<dyn BlockDevice>,
    config: TierConfig,
    /// LRU residency: block -> stamp, plus the stamp index.
    stamp_of: FnvHashMap<BlockNo, u64>,
    by_stamp: BTreeMap<u64, BlockNo>,
    next_stamp: u64,
    stats: DeviceStats,
    /// Tier-level accounting.
    tier_hits: u64,
    tier_misses: u64,
}

impl TieredDevice {
    /// Builds a tiered device.
    pub fn new(fast: Box<dyn BlockDevice>, slow: Box<dyn BlockDevice>, config: TierConfig) -> Self {
        TieredDevice {
            fast,
            slow,
            config,
            stamp_of: FnvHashMap::default(),
            by_stamp: BTreeMap::new(),
            next_stamp: 0,
            stats: DeviceStats::default(),
            tier_hits: 0,
            tier_misses: 0,
        }
    }

    /// Fraction of block accesses served by the fast tier.
    pub fn tier_hit_ratio(&self) -> f64 {
        let total = self.tier_hits + self.tier_misses;
        if total == 0 {
            0.0
        } else {
            self.tier_hits as f64 / total as f64
        }
    }

    /// Blocks currently resident in the fast tier.
    pub fn tier_resident(&self) -> u64 {
        self.stamp_of.len() as u64
    }

    fn touch(&mut self, block: BlockNo) {
        if let Some(old) = self.stamp_of.get(&block).copied() {
            self.by_stamp.remove(&old);
        }
        let s = self.next_stamp;
        self.next_stamp += 1;
        self.stamp_of.insert(block, s);
        self.by_stamp.insert(s, block);
        // `by_stamp` holds one stamp per block of `stamp_of`, so it is
        // non-empty whenever `stamp_of` is over the capacity.
        while self.stamp_of.len() as u64 > self.config.cache_blocks {
            let (&stamp, &victim) = self.by_stamp.iter().next().expect("non-empty");
            self.by_stamp.remove(&stamp);
            self.stamp_of.remove(&victim);
        }
    }

    fn resident(&self, block: BlockNo) -> bool {
        self.stamp_of.contains_key(&block)
    }
}

impl BlockDevice for TieredDevice {
    fn service(&mut self, req: &IoRequest, now: Nanos) -> Nanos {
        let mut latency = Nanos::ZERO;
        match req.kind {
            IoKind::Read => {
                // Split the request into tier-resident and missing spans.
                let mut b = req.block;
                let end = req.end();
                while b < end {
                    let hit = self.resident(b);
                    let mut run = 1;
                    while b + run < end && self.resident(b + run) == hit {
                        run += 1;
                    }
                    let part = IoRequest::read(b, run);
                    if hit {
                        self.tier_hits += run;
                        latency += self.fast.service(&part, now + latency);
                        for blk in b..b + run {
                            self.touch(blk);
                        }
                    } else {
                        self.tier_misses += run;
                        latency += self.slow.service(&part, now + latency);
                        if self.config.promote_on_read {
                            // Promotion happens in the background on real
                            // systems; charge only residency here.
                            for blk in b..b + run {
                                self.touch(blk);
                            }
                        }
                    }
                    b += run;
                }
            }
            IoKind::Write => {
                // Write-through: slow tier is authoritative; refresh the
                // fast copy for resident blocks.
                latency += self.slow.service(req, now);
                let resident_blocks: Vec<BlockNo> = (req.block..req.end())
                    .filter(|&b| self.resident(b))
                    .collect();
                if !resident_blocks.is_empty() {
                    latency += self.fast.service(
                        &IoRequest::write(req.block, resident_blocks.len() as u64),
                        now + latency,
                    );
                    for b in resident_blocks {
                        self.touch(b);
                    }
                }
            }
        }
        self.stats.record(req, latency);
        latency
    }

    fn capacity_blocks(&self) -> u64 {
        self.slow.capacity_blocks()
    }

    fn block_size(&self) -> Bytes {
        self.slow.block_size()
    }

    fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    fn model_name(&self) -> &str {
        "tiered-flash-hdd"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hdd::{Hdd, HddConfig};
    use crate::ssd::{Ssd, SsdConfig};

    fn dev(cache_blocks: u64) -> TieredDevice {
        TieredDevice::new(
            Box::new(Ssd::new(SsdConfig::consumer_sata())),
            Box::new(Hdd::new(HddConfig::maxtor_7l250s0_like())),
            TierConfig {
                cache_blocks,
                promote_on_read: true,
            },
        )
    }

    #[test]
    fn miss_then_hit() {
        let mut d = dev(1024);
        let cold = d.service(&IoRequest::read(500_000, 2), Nanos::ZERO);
        let warm = d.service(&IoRequest::read(500_000, 2), cold);
        assert!(cold.as_millis() >= 1, "cold read should hit the disk");
        assert!(
            warm.as_micros() < 1_000,
            "warm read should hit flash: {warm}"
        );
        assert_eq!(d.tier_resident(), 2);
        assert!(d.tier_hit_ratio() > 0.4);
    }

    #[test]
    fn tier_capacity_respected() {
        let mut d = dev(16);
        for i in 0..100 {
            d.service(&IoRequest::read(i * 10, 2), Nanos::ZERO);
        }
        assert!(d.tier_resident() <= 16);
    }

    #[test]
    fn lru_keeps_recent_blocks() {
        let mut d = dev(4);
        d.service(&IoRequest::read(0, 2), Nanos::ZERO); // blocks 0,1
        d.service(&IoRequest::read(10, 2), Nanos::ZERO); // blocks 10,11
                                                         // Touch 0,1 again so 10,11 are the LRU victims.
        d.service(&IoRequest::read(0, 2), Nanos::ZERO);
        d.service(&IoRequest::read(20, 2), Nanos::ZERO); // evicts 10,11
        let hit = d.service(&IoRequest::read(0, 2), Nanos::ZERO);
        let miss = d.service(&IoRequest::read(10, 2), Nanos::ZERO);
        assert!(hit < miss, "hit {hit} vs miss {miss}");
    }

    #[test]
    fn three_latency_tiers_visible() {
        // DRAM would sit above; here we check flash and disk separate.
        let mut d = dev(65_536);
        let mut rng = rb_simcore::rng::Rng::new(1);
        let mut hist = rb_stats::histogram::Log2Histogram::new();
        let mut now = Nanos::ZERO;
        // Warm a hot region into the flash tier.
        for b in (0..1_000u64).step_by(2) {
            now += d.service(&IoRequest::read(b, 2), now);
        }
        // Measure: half hot (flash), half cold (disk).
        for _ in 0..300 {
            let hot = rng.chance(0.5);
            let block = if hot {
                rng.below(499) * 2
            } else {
                1_000_000 + rng.below(10_000_000)
            };
            let lat = d.service(&IoRequest::read(block, 2), now);
            now += lat;
            hist.record(lat);
        }
        // Flash peak (~100 us) and disk peak (~4-16 ms) both present.
        let flash_mass: f64 = (14..20).map(|k| hist.fraction(k)).sum();
        let disk_mass: f64 = (20..27).map(|k| hist.fraction(k)).sum();
        assert!(flash_mass > 0.3, "flash peak missing: {flash_mass}");
        assert!(disk_mass > 0.3, "disk peak missing: {disk_mass}");
    }

    #[test]
    fn writes_are_write_through() {
        let mut d = dev(1024);
        d.service(&IoRequest::read(100, 4), Nanos::ZERO); // promote
        let w = d.service(&IoRequest::write(100, 4), Nanos::ZERO);
        // Write-through with cache update costs at least the slow path.
        assert!(w.as_micros() >= 100);
        // Blocks stay resident and fresh.
        let hit = d.service(&IoRequest::read(100, 4), Nanos::ZERO);
        assert!(hit.as_micros() < 1_000);
    }

    #[test]
    fn no_promote_mode_stays_cold() {
        let mut d = TieredDevice::new(
            Box::new(Ssd::new(SsdConfig::consumer_sata())),
            Box::new(Hdd::new(HddConfig::maxtor_7l250s0_like())),
            TierConfig {
                cache_blocks: 1024,
                promote_on_read: false,
            },
        );
        let a = d.service(&IoRequest::read(500, 2), Nanos::ZERO);
        // The HDD's own track buffer may serve the re-read quickly, but
        // the flash tier must stay empty and unconsulted.
        let _ = d.service(&IoRequest::read(500, 2), a);
        assert_eq!(d.tier_resident(), 0);
        assert_eq!(d.tier_hit_ratio(), 0.0);
    }
}
