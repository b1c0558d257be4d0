//! Mechanical hard-disk model: seek curve, rotation, zoned transfer and
//! track buffer.
//!
//! Calibrated to the paper's testbed drive class (Maxtor 7L250S0,
//! 7200 RPM SATA): random 8 KiB reads cost ~8–16 ms (seek + half a
//! rotation), sequential reads stream from the track buffer at interface
//! speed, and outer-zone transfers outpace inner-zone ones. The *spread*
//! of these latencies — three orders of magnitude above memory — is what
//! produces every phenomenon in the paper's case study.

use crate::device::{BlockDevice, DeviceStats, IoKind, IoRequest};
use crate::geometry::Geometry;
use rb_simcore::rng::Rng;
use rb_simcore::time::Nanos;
use rb_simcore::units::{BlockNo, Bytes};

/// Configuration of the HDD model.
#[derive(Debug, Clone)]
pub struct HddConfig {
    /// Platter and zone layout.
    pub geometry: Geometry,
    /// Spindle speed in revolutions per minute.
    pub rpm: u64,
    /// Single-cylinder seek time.
    pub min_seek: Nanos,
    /// Full-stroke seek time.
    pub max_seek: Nanos,
    /// Head-switch / track-switch settle time.
    pub head_switch: Nanos,
    /// Fixed per-request controller and interface overhead.
    pub controller_overhead: Nanos,
    /// Host interface throughput (track-buffer hits stream at this rate).
    pub interface_rate: Bytes,
    /// Whether the drive reads ahead the remainder of the track into its
    /// buffer after a media read.
    pub track_buffer: bool,
    /// Whether writes are acknowledged from the write cache (fast) rather
    /// than after media placement.
    pub write_cache: bool,
    /// Log-normal sigma applied to seek times (mechanical variability).
    /// Zero disables jitter entirely.
    pub seek_jitter_sigma: f64,
    /// Run-to-run mechanical variability: each drive instance draws a
    /// constant speed factor with this log-normal sigma, scaling every
    /// mechanical (non-cached) access. Models thermal state, ambient
    /// vibration and placement differences between nominally identical
    /// runs — the reason the paper's disk-bound RSD is ~5x its
    /// memory-bound RSD.
    pub run_variability: f64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl HddConfig {
    /// The paper-calibrated drive: Maxtor 7L250S0-like, 7200 RPM.
    pub fn maxtor_7l250s0_like() -> Self {
        HddConfig {
            geometry: Geometry::maxtor_7l250s0_like(),
            rpm: 7200,
            min_seek: Nanos::from_micros(800),
            max_seek: Nanos::from_micros(17_800),
            head_switch: Nanos::from_micros(800),
            controller_overhead: Nanos::from_micros(200),
            interface_rate: Bytes::mib(150),
            track_buffer: true,
            write_cache: true,
            seek_jitter_sigma: 0.06,
            run_variability: 0.02,
            seed: 0x4D61_7874_6F72, // "Maxtor"
        }
    }

    /// A small, fast-to-simulate disk for unit tests.
    pub fn tiny_for_tests() -> Self {
        HddConfig {
            geometry: Geometry::tiny_for_tests(),
            rpm: 7200,
            min_seek: Nanos::from_micros(500),
            max_seek: Nanos::from_micros(10_000),
            head_switch: Nanos::from_micros(400),
            controller_overhead: Nanos::from_micros(100),
            interface_rate: Bytes::mib(150),
            track_buffer: true,
            write_cache: true,
            seek_jitter_sigma: 0.0,
            run_variability: 0.0,
            seed: 7,
        }
    }
}

/// The range of blocks currently held in the drive's track buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BufferedRange {
    start: BlockNo,
    end: BlockNo,
}

/// A simulated mechanical disk.
///
/// # Examples
///
/// ```
/// use rb_simdisk::device::{BlockDevice, IoRequest};
/// use rb_simdisk::hdd::{Hdd, HddConfig};
/// use rb_simcore::time::Nanos;
///
/// let mut disk = Hdd::new(HddConfig::maxtor_7l250s0_like());
/// let far = disk.capacity_blocks() / 2;
/// let lat = disk.service(&IoRequest::read(far, 2), Nanos::ZERO);
/// // A random 8 KiB read costs milliseconds, not microseconds.
/// assert!(lat.as_millis() >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct Hdd {
    config: HddConfig,
    rotation: Nanos,
    current_cylinder: u64,
    buffer: Option<BufferedRange>,
    rng: Rng,
    /// This instance's mechanical speed factor (1.0 = nominal).
    speed: f64,
    stats: DeviceStats,
}

impl Hdd {
    /// Creates a disk with heads parked at cylinder 0 and an empty buffer.
    pub fn new(config: HddConfig) -> Self {
        let rotation = Nanos::from_nanos(60_000_000_000 / config.rpm.max(1));
        let mut unit = Rng::new(config.seed).fork("hdd-unit-speed");
        let speed = if config.run_variability > 0.0 {
            unit.lognormal(1.0, config.run_variability).clamp(0.9, 1.12)
        } else {
            1.0
        };
        let rng = Rng::new(config.seed).fork("hdd-seek-jitter");
        Hdd {
            config,
            rotation,
            current_cylinder: 0,
            buffer: None,
            rng,
            speed,
            stats: DeviceStats::default(),
        }
    }

    /// The configuration this disk was built with.
    pub fn config(&self) -> &HddConfig {
        &self.config
    }

    /// Seek time for a cylinder distance, before jitter.
    ///
    /// Uses the standard square-root acceleration model: settle-dominated
    /// short seeks grow as sqrt(distance), saturating at the full-stroke
    /// time. Distance 0 is free.
    pub fn seek_time(&self, distance: u64) -> Nanos {
        if distance == 0 {
            return Nanos::ZERO;
        }
        let c = self.config.geometry.cylinders().saturating_sub(1).max(1);
        let frac = (distance as f64 / c as f64).min(1.0).sqrt();
        let min = self.config.min_seek.as_nanos() as f64;
        let max = self.config.max_seek.as_nanos() as f64;
        Nanos::from_nanos((min + (max - min) * frac) as u64)
    }

    /// Rotational angle of the platter at instant `t`, in `[0, 1)`.
    fn angle_at(&self, t: Nanos) -> f64 {
        (t.as_nanos() % self.rotation.as_nanos()) as f64 / self.rotation.as_nanos() as f64
    }

    /// Time spent transferring `count` blocks from media starting at
    /// `block`, including track and cylinder switches.
    fn media_transfer(&self, block: BlockNo, count: u64) -> Nanos {
        let mut t = Nanos::ZERO;
        let mut pos = block;
        let mut left = count;
        while left > 0 {
            let chs = self.config.geometry.locate(pos);
            let this_track = (chs.sectors_per_track - chs.sector).min(left);
            // One sector passes under the head every rotation/spt.
            t += self.rotation * this_track / chs.sectors_per_track;
            pos += this_track;
            left -= this_track;
            if left > 0 {
                t += self.config.head_switch;
            }
        }
        t
    }

    /// Interface-speed transfer (buffer hit or cached write).
    fn interface_transfer(&self, count: u64) -> Nanos {
        let bytes = self.config.geometry.block_size().as_u64() * count;
        let rate = self.config.interface_rate.as_u64().max(1);
        Nanos::from_secs_f64(bytes as f64 / rate as f64)
    }

    fn buffer_holds(&self, req: &IoRequest) -> bool {
        matches!(self.buffer, Some(b) if req.block >= b.start && req.end() <= b.end)
    }

    /// After a media read ending at `end_block`, the drive keeps reading
    /// the rest of the track into its buffer.
    fn refill_buffer(&mut self, start: BlockNo, end_block: BlockNo) {
        if !self.config.track_buffer {
            return;
        }
        let chs = self
            .config
            .geometry
            .locate(end_block.saturating_sub(1).max(start));
        let to_track_end = chs.sectors_per_track - chs.sector - 1;
        self.buffer = Some(BufferedRange {
            start,
            end: end_block + to_track_end,
        });
    }
}

impl BlockDevice for Hdd {
    fn service(&mut self, req: &IoRequest, now: Nanos) -> Nanos {
        let mut latency = self.config.controller_overhead;

        let fast_path = match req.kind {
            IoKind::Read => self.buffer_holds(req),
            IoKind::Write => self.config.write_cache,
        };

        if fast_path {
            latency += self.interface_transfer(req.count);
        } else {
            let chs = self.config.geometry.locate(req.block);
            // Seek.
            let distance = self.current_cylinder.abs_diff(chs.cylinder);
            if distance != 0 {
                self.stats.seeks += 1;
                self.stats.seek_distance += distance;
            }
            let mut seek = self.seek_time(distance);
            if self.config.seek_jitter_sigma > 0.0 && !seek.is_zero() {
                let factor = self
                    .rng
                    .lognormal(1.0, self.config.seek_jitter_sigma)
                    .clamp(0.5, 2.0);
                seek = seek.mul_f64(factor);
            }
            if distance == 0 && !seek.is_zero() {
                // Same cylinder: no arm movement, settle only.
            }
            latency += seek;
            // Head switch onto a different surface.
            latency += if distance == 0 {
                Nanos::ZERO
            } else {
                self.config.head_switch
            };
            // Rotational delay to the target sector.
            let arrive = now + latency;
            let target_angle = chs.sector as f64 / chs.sectors_per_track as f64;
            let head_angle = self.angle_at(arrive);
            let mut wait = target_angle - head_angle;
            if wait < 0.0 {
                wait += 1.0;
            }
            latency += self.rotation.mul_f64(wait);
            // Media transfer.
            latency += self.media_transfer(req.block, req.count);
            // Mechanical path scales with this unit's speed factor.
            latency = self.config.controller_overhead
                + (latency - self.config.controller_overhead).mul_f64(self.speed);
            // Mechanical state update.
            let end_chs = self.config.geometry.locate(req.end().saturating_sub(1));
            self.current_cylinder = end_chs.cylinder;
            if req.kind == IoKind::Read {
                self.refill_buffer(req.block, req.end());
            } else {
                // A media write invalidates any overlapping buffered range.
                self.buffer = None;
            }
        }

        self.stats.record(req, latency);
        latency
    }

    fn capacity_blocks(&self) -> u64 {
        self.config.geometry.capacity_blocks()
    }

    fn block_size(&self) -> Bytes {
        self.config.geometry.block_size()
    }

    fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    fn model_name(&self) -> &str {
        "hdd-7200"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> Hdd {
        Hdd::new(HddConfig::maxtor_7l250s0_like())
    }

    #[test]
    fn seek_time_monotone_in_distance() {
        let d = disk();
        let mut last = Nanos::ZERO;
        for dist in [0u64, 1, 10, 100, 1_000, 10_000, 50_000] {
            let t = d.seek_time(dist);
            assert!(t >= last, "seek({dist}) = {t} < previous {last}");
            last = t;
        }
        assert_eq!(d.seek_time(0), Nanos::ZERO);
        assert!(d.seek_time(1) >= d.config().min_seek);
        assert!(d.seek_time(u64::MAX / 2) <= d.config().max_seek + Nanos::from_micros(1));
    }

    #[test]
    fn random_read_costs_milliseconds() {
        let mut d = disk();
        let cap = d.capacity_blocks();
        let mut rng = Rng::new(1);
        let mut now = Nanos::ZERO;
        let mut total = Nanos::ZERO;
        let n = 200;
        for _ in 0..n {
            let b = rng.below(cap - 2);
            let lat = d.service(&IoRequest::read(b, 2), now);
            now += lat;
            total += lat;
        }
        let mean_ms = (total / n).as_secs_f64() * 1e3;
        assert!(
            (5.0..20.0).contains(&mean_ms),
            "mean random read {mean_ms} ms out of Maxtor-class range"
        );
    }

    #[test]
    fn sequential_reads_hit_track_buffer() {
        let mut d = disk();
        let mut now = Nanos::ZERO;
        // Move the arm far away so the priming read includes a real seek.
        now += d.service(&IoRequest::read(d.capacity_blocks() / 2, 2), now);
        // Prime: first read at the target is a media access.
        let first = d.service(&IoRequest::read(1000, 2), now);
        now += first;
        // Following blocks stream from the buffer.
        let mut buffered = Vec::new();
        for i in 1..20 {
            let lat = d.service(&IoRequest::read(1000 + i * 2, 2), now);
            now += lat;
            buffered.push(lat);
        }
        let max_buffered = buffered.iter().copied().max().unwrap();
        assert!(
            max_buffered.as_nanos() * 10 < first.as_nanos(),
            "buffer hit {max_buffered} not ≫ faster than media read {first}"
        );
    }

    #[test]
    fn outer_zone_transfers_faster() {
        let d = disk();
        let cap = d.capacity_blocks();
        // Large transfers dominated by media rate, not seek.
        let outer = d.media_transfer(0, 4096);
        let inner = d.media_transfer(cap - 5000, 4096);
        assert!(
            inner.as_nanos() as f64 / outer.as_nanos() as f64 > 1.5,
            "inner {inner} not slower than outer {outer}"
        );
    }

    #[test]
    fn cached_writes_are_fast_uncached_slow() {
        let mut fast = disk();
        let mut cfg = HddConfig::maxtor_7l250s0_like();
        cfg.write_cache = false;
        let mut slow = Hdd::new(cfg);
        let w = IoRequest::write(123_456, 8);
        let lf = fast.service(&w, Nanos::ZERO);
        let ls = slow.service(&w, Nanos::ZERO);
        assert!(lf.as_micros() < 1000, "cached write {lf}");
        assert!(ls.as_millis() >= 1, "uncached write {ls}");
    }

    #[test]
    fn write_invalidates_buffer() {
        let mut cfg = HddConfig::maxtor_7l250s0_like();
        cfg.write_cache = false;
        let mut d = Hdd::new(cfg);
        let mut now = Nanos::ZERO;
        now += d.service(&IoRequest::read(5000, 2), now);
        // Buffered re-read is fast.
        let hit = d.service(&IoRequest::read(5002, 2), now);
        assert!(hit.as_micros() < 1000);
        now += hit;
        now += d.service(&IoRequest::write(5002, 2), now);
        let after = d.service(&IoRequest::read(5004, 2), now);
        assert!(after.as_millis() >= 1, "buffer should be invalid: {after}");
    }

    #[test]
    fn determinism_same_seed_same_latencies() {
        let run = || {
            let mut d = disk();
            let mut rng = Rng::new(42);
            let mut now = Nanos::ZERO;
            let mut out = Vec::new();
            for _ in 0..50 {
                let b = rng.below(d.capacity_blocks() - 2);
                let lat = d.service(&IoRequest::read(b, 2), now);
                now += lat;
                out.push(lat);
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rotation_time_from_rpm() {
        let d = disk();
        // 7200 RPM = 8.333 ms per revolution.
        assert_eq!(d.rotation.as_micros(), 8_333);
    }

    #[test]
    fn stats_track_requests() {
        let mut d = disk();
        d.service(&IoRequest::read(0, 4), Nanos::ZERO);
        d.service(&IoRequest::write(100, 4), Nanos::ZERO);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().blocks_read, 4);
        assert!(d.stats().busy > Nanos::ZERO);
    }
}
