//! The block-device abstraction every disk model implements.
//!
//! Devices are *latency oracles with state*: a request is presented
//! together with the current virtual instant, and the device returns how
//! long servicing it takes, updating its internal mechanical/electronic
//! state (head position, buffer contents) as a side effect. The caller —
//! page cache, file system or harness — owns the clock and advances it.

use rb_simcore::error::SimResult;
use rb_simcore::time::Nanos;
use rb_simcore::units::{BlockNo, Bytes};
use rb_stats::histogram::Log2Histogram;

/// Direction of an I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// Read blocks from the device.
    Read,
    /// Write blocks to the device.
    Write,
}

/// A contiguous block-level I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoRequest {
    /// Read or write.
    pub kind: IoKind,
    /// First device block.
    pub block: BlockNo,
    /// Number of contiguous blocks.
    pub count: u64,
}

impl IoRequest {
    /// Convenience constructor for a read.
    pub fn read(block: BlockNo, count: u64) -> Self {
        IoRequest {
            kind: IoKind::Read,
            block,
            count,
        }
    }

    /// Convenience constructor for a write.
    pub fn write(block: BlockNo, count: u64) -> Self {
        IoRequest {
            kind: IoKind::Write,
            block,
            count,
        }
    }

    /// Exclusive end block of the request.
    pub fn end(&self) -> BlockNo {
        self.block + self.count
    }
}

/// Cumulative per-device accounting.
#[derive(Debug, Clone, Default)]
pub struct DeviceStats {
    /// Completed read requests.
    pub reads: u64,
    /// Completed write requests.
    pub writes: u64,
    /// Blocks transferred by reads.
    pub blocks_read: u64,
    /// Blocks transferred by writes.
    pub blocks_written: u64,
    /// Total time the device spent servicing requests.
    pub busy: Nanos,
    /// Requests that required a head seek (non-zero cylinder move).
    pub seeks: u64,
    /// Cylinders traversed, summed over all seeking requests.
    pub seek_distance: u64,
    /// Latency histogram over all requests.
    pub latency: Log2Histogram,
}

impl DeviceStats {
    /// Records one serviced request.
    pub fn record(&mut self, req: &IoRequest, latency: Nanos) {
        match req.kind {
            IoKind::Read => {
                self.reads += 1;
                self.blocks_read += req.count;
            }
            IoKind::Write => {
                self.writes += 1;
                self.blocks_written += req.count;
            }
        }
        self.busy += latency;
        self.latency.record(latency);
    }

    /// Total requests serviced.
    pub fn requests(&self) -> u64 {
        self.reads + self.writes
    }
}

/// A simulated block device.
///
/// Implementations must be deterministic: the same request sequence with
/// the same timestamps and seeds yields the same latencies.
pub trait BlockDevice {
    /// Services `req`, which is presented at virtual instant `now`.
    ///
    /// Returns the request's service latency. Implementations update
    /// internal state (head position, caches, statistics) as if the
    /// request completed at `now + latency`.
    fn service(&mut self, req: &IoRequest, now: Nanos) -> Nanos;

    /// Fallible variant of [`BlockDevice::service`].
    ///
    /// Plain devices never fail, so the default simply wraps
    /// [`BlockDevice::service`]; fault-injecting wrappers override this
    /// to surface `SimError::Io` and latency degradation while leaving
    /// every healthy call path byte-identical.
    fn service_checked(&mut self, req: &IoRequest, now: Nanos) -> SimResult<Nanos> {
        Ok(self.service(req, now))
    }

    /// Device capacity in blocks.
    fn capacity_blocks(&self) -> u64;

    /// Device block size.
    fn block_size(&self) -> Bytes;

    /// Read-only view of cumulative statistics.
    fn stats(&self) -> &DeviceStats;

    /// A short human-readable model name, e.g. `"hdd-7200"`.
    fn model_name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_constructors() {
        let r = IoRequest::read(10, 4);
        assert_eq!(r.kind, IoKind::Read);
        assert_eq!(r.end(), 14);
        let w = IoRequest::write(0, 1);
        assert_eq!(w.kind, IoKind::Write);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = DeviceStats::default();
        s.record(&IoRequest::read(0, 8), Nanos::from_millis(8));
        s.record(&IoRequest::write(8, 2), Nanos::from_millis(2));
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.blocks_read, 8);
        assert_eq!(s.blocks_written, 2);
        assert_eq!(s.requests(), 2);
        assert_eq!(s.latency.total(), 2);
    }
}
