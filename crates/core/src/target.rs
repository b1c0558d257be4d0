//! Benchmark targets: the systems under test.
//!
//! A [`Target`] is anything the workload engine can drive: the simulated
//! storage stack (deterministic, virtual-time — used for every paper
//! reproduction) or a real directory on the host file system (wall-clock
//! — the harness as an actual tool). Both implement the same `*_at` op
//! surface, so a workload definition runs unchanged against either.
//!
//! The trait itself lives in [`rb_replay::target`] (traces are only
//! portable artifacts if any target can execute them); this module
//! re-exports it alongside the two canonical implementations.

use rb_simcore::error::{SimError, SimResult};
use rb_simcore::time::{Nanos, VirtualClock};
use rb_simcore::units::Bytes;
use rb_simfs::intern::PathId;
use rb_simfs::stack::{Fd, OpCost, StorageStack};

pub use rb_replay::target::Target;

/// The simulated storage stack as a target, with the virtual clock a
/// serial driver runs on.
pub struct SimTarget {
    stack: StorageStack,
    clock: VirtualClock,
    label: String,
}

impl SimTarget {
    /// Wraps a stack; the clock starts at zero.
    pub fn new(stack: StorageStack) -> Self {
        let label = format!("sim:{}", stack.fs().name());
        SimTarget {
            stack,
            clock: VirtualClock::new(),
            label,
        }
    }

    /// The underlying stack.
    pub fn stack(&self) -> &StorageStack {
        &self.stack
    }

    /// The stack-level [`PathId`] for an op: the driver's pre-resolved
    /// id when present, a fresh resolution otherwise.
    fn resolve(&mut self, id: Option<PathId>, path: &str) -> SimResult<PathId> {
        match id {
            Some(id) => Ok(id),
            None => self.stack.resolve_path(path),
        }
    }
}

/// The stack executes every op at the caller's instant. The clock moves
/// through [`Target::advance`] and by the writeback a cache resize
/// forces, nothing else.
impl Target for SimTarget {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn now(&self) -> Nanos {
        self.clock.now()
    }

    fn advance(&mut self, d: Nanos) {
        self.clock.advance(d);
    }

    fn supports_timed(&self) -> bool {
        true
    }

    fn create_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<OpCost> {
        let id = self.resolve(id, path)?;
        self.stack.create_id_at(id, issue)
    }

    fn mkdir_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<OpCost> {
        let id = self.resolve(id, path)?;
        self.stack.mkdir_id_at(id, issue)
    }

    fn unlink_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<OpCost> {
        let id = self.resolve(id, path)?;
        self.stack.unlink_id_at(id, issue)
    }

    fn stat_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<OpCost> {
        let id = self.resolve(id, path)?;
        self.stack.stat_id_at(id, issue)
    }

    fn open_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<(Fd, OpCost)> {
        let id = self.resolve(id, path)?;
        self.stack.open_id_at(id, issue)
    }

    fn set_size_at(&mut self, fd: Fd, size: Bytes, issue: Nanos) -> SimResult<OpCost> {
        self.stack.set_size_fd_at(fd, size, issue)
    }

    fn read_at(&mut self, fd: Fd, offset: Bytes, len: Bytes, issue: Nanos) -> SimResult<OpCost> {
        self.stack.read_at(fd, offset, len, issue)
    }

    fn write_at(&mut self, fd: Fd, offset: Bytes, len: Bytes, issue: Nanos) -> SimResult<OpCost> {
        self.stack.write_at(fd, offset, len, issue)
    }

    fn fsync_at(&mut self, fd: Fd, issue: Nanos) -> SimResult<OpCost> {
        self.stack.fsync_at(fd, issue)
    }

    fn tick_at(&mut self, issue: Nanos) -> Nanos {
        self.stack.writeback_tick_at(issue)
    }

    fn close(&mut self, fd: Fd) -> SimResult<()> {
        self.stack.close(fd)
    }

    fn drop_caches(&mut self) -> bool {
        self.stack.drop_caches();
        true
    }

    fn prepare_path(&mut self, path: &str) -> Option<PathId> {
        self.stack.resolve_path(path).ok()
    }

    fn set_cache_capacity_pages(&mut self, pages: u64) {
        let spent = self
            .stack
            .set_cache_capacity_pages_at(pages, self.clock.now());
        self.clock.advance(spent);
    }

    fn cache_hit_ratio(&self) -> Option<f64> {
        Some(self.stack.cache().stats().hit_ratio())
    }

    fn cache_stats(&self) -> Option<rb_simcache::page::CacheStats> {
        Some(self.stack.cache().stats())
    }

    fn cache_policy(&self) -> Option<&'static str> {
        Some(self.stack.cache().policy_name())
    }

    fn stack_stats(&self) -> Option<rb_simfs::stack::StackStats> {
        Some(self.stack.stats())
    }

    fn disk_stats(&self) -> Option<rb_simdisk::device::DeviceStats> {
        Some(self.stack.disk_stats().clone())
    }

    fn install_faults(&mut self, spec: rb_faults::FaultSpec, seed: u64) -> SimResult<()> {
        self.stack.install_faults(spec, seed);
        Ok(())
    }

    fn fault_stats(&self) -> Option<rb_faults::FaultStats> {
        self.stack.fault_stats().copied()
    }

    fn crash_recover(&mut self, issue: Nanos) -> SimResult<rb_faults::CrashReport> {
        self.stack.crash_recover_at(issue)
    }

    fn set_device_floor(&mut self, floor: Nanos) {
        self.stack.set_media_floor(floor);
    }
}

/// A real directory on the host file system as a target (wall-clock
/// timing via `std::time::Instant`).
///
/// Useful for sanity-checking the simulator against reality and for
/// using rocketbench as an actual measurement tool. Note everything the
/// paper warns about applies: results depend on the host's cache state,
/// scheduler and storage.
///
/// Every op runs when it is called: `issue` is ignored, and the cost is
/// the op's measured wall-clock time.
pub struct RealFsTarget {
    root: std::path::PathBuf,
    start: std::time::Instant,
    files: std::collections::HashMap<Fd, std::fs::File>,
    next_fd: Fd,
    /// Scratch buffer for data I/O; larger requests loop over it.
    buffer: Vec<u8>,
}

impl RealFsTarget {
    /// Creates a target rooted at an existing host directory.
    pub fn new(root: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(RealFsTarget {
            root,
            start: std::time::Instant::now(),
            files: Default::default(),
            next_fd: 3,
            buffer: vec![0u8; 1 << 20],
        })
    }

    fn host_path(&self, path: &str) -> std::path::PathBuf {
        self.root.join(path.trim_start_matches('/'))
    }

    fn io_err(e: std::io::Error) -> SimError {
        SimError::InvalidOperation(format!("host i/o error: {e}"))
    }

    fn bad_fd(fd: Fd) -> SimError {
        SimError::InvalidOperation(format!("bad fd {fd}"))
    }

    /// The wall-clock time since `t0` as an op cost. The host cannot
    /// split it into CPU and device time, so all of it counts as CPU.
    fn elapsed(t0: std::time::Instant) -> OpCost {
        OpCost::cpu_only(Nanos::from_nanos(t0.elapsed().as_nanos() as u64))
    }
}

impl Target for RealFsTarget {
    fn name(&self) -> String {
        format!("real:{}", self.root.display())
    }

    fn now(&self) -> Nanos {
        Nanos::from_nanos(self.start.elapsed().as_nanos() as u64)
    }

    fn advance(&mut self, _d: Nanos) {
        // Real time passes on its own.
    }

    fn create_at(&mut self, _id: Option<PathId>, path: &str, _issue: Nanos) -> SimResult<OpCost> {
        let t0 = std::time::Instant::now();
        std::fs::File::create(self.host_path(path)).map_err(Self::io_err)?;
        Ok(Self::elapsed(t0))
    }

    fn mkdir_at(&mut self, _id: Option<PathId>, path: &str, _issue: Nanos) -> SimResult<OpCost> {
        let t0 = std::time::Instant::now();
        std::fs::create_dir_all(self.host_path(path)).map_err(Self::io_err)?;
        Ok(Self::elapsed(t0))
    }

    fn unlink_at(&mut self, _id: Option<PathId>, path: &str, _issue: Nanos) -> SimResult<OpCost> {
        let t0 = std::time::Instant::now();
        std::fs::remove_file(self.host_path(path)).map_err(Self::io_err)?;
        Ok(Self::elapsed(t0))
    }

    fn stat_at(&mut self, _id: Option<PathId>, path: &str, _issue: Nanos) -> SimResult<OpCost> {
        let t0 = std::time::Instant::now();
        std::fs::metadata(self.host_path(path)).map_err(Self::io_err)?;
        Ok(Self::elapsed(t0))
    }

    fn open_at(
        &mut self,
        _id: Option<PathId>,
        path: &str,
        _issue: Nanos,
    ) -> SimResult<(Fd, OpCost)> {
        let t0 = std::time::Instant::now();
        let f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(self.host_path(path))
            .map_err(Self::io_err)?;
        let fd = self.next_fd;
        self.next_fd += 1;
        self.files.insert(fd, f);
        Ok((fd, Self::elapsed(t0)))
    }

    fn set_size_at(&mut self, fd: Fd, size: Bytes, _issue: Nanos) -> SimResult<OpCost> {
        let t0 = std::time::Instant::now();
        let f = self.files.get(&fd).ok_or_else(|| Self::bad_fd(fd))?;
        f.set_len(size.as_u64()).map_err(Self::io_err)?;
        Ok(Self::elapsed(t0))
    }

    fn read_at(&mut self, fd: Fd, offset: Bytes, len: Bytes, _issue: Nanos) -> SimResult<OpCost> {
        use std::io::{Read, Seek, SeekFrom};
        let f = self.files.get_mut(&fd).ok_or_else(|| Self::bad_fd(fd))?;
        let t0 = std::time::Instant::now();
        f.seek(SeekFrom::Start(offset.as_u64()))
            .map_err(Self::io_err)?;
        // Reads larger than the scratch buffer reuse it chunk by chunk,
        // until `len` bytes are in or the file ends.
        let mut left = len.as_u64();
        while left > 0 {
            let n = left.min(self.buffer.len() as u64) as usize;
            match f.read(&mut self.buffer[..n]) {
                Ok(0) => break,
                Ok(k) => left -= k as u64,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(Self::io_err(e)),
            }
        }
        Ok(Self::elapsed(t0))
    }

    fn write_at(&mut self, fd: Fd, offset: Bytes, len: Bytes, _issue: Nanos) -> SimResult<OpCost> {
        use std::io::{Seek, SeekFrom, Write};
        let f = self.files.get_mut(&fd).ok_or_else(|| Self::bad_fd(fd))?;
        let t0 = std::time::Instant::now();
        f.seek(SeekFrom::Start(offset.as_u64()))
            .map_err(Self::io_err)?;
        let mut left = len.as_u64();
        while left > 0 {
            let n = left.min(self.buffer.len() as u64) as usize;
            f.write_all(&self.buffer[..n]).map_err(Self::io_err)?;
            left -= n as u64;
        }
        Ok(Self::elapsed(t0))
    }

    fn fsync_at(&mut self, fd: Fd, _issue: Nanos) -> SimResult<OpCost> {
        let f = self.files.get(&fd).ok_or_else(|| Self::bad_fd(fd))?;
        let t0 = std::time::Instant::now();
        f.sync_all().map_err(Self::io_err)?;
        Ok(Self::elapsed(t0))
    }

    fn close(&mut self, fd: Fd) -> SimResult<()> {
        self.files
            .remove(&fd)
            .map(|_| ())
            .ok_or_else(|| Self::bad_fd(fd))
    }

    fn drop_caches(&mut self) -> bool {
        // Requires root on Linux; not attempted.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed;
    use crate::workload::{personalities, Engine, EngineConfig};
    use rb_replay::{replay, replay_with, Recorder, ReplayConfig, Timing, Trace, TraceVersion};

    #[test]
    fn sim_target_basic_ops() {
        let mut t = testbed::paper_ext2(Bytes::gib(1), 0);
        assert_eq!(t.name(), "sim:ext2");
        t.create("/f").unwrap();
        let fd = t.open("/f").unwrap();
        t.set_size(fd, Bytes::mib(1)).unwrap();
        let lat = t.read(fd, Bytes::ZERO, Bytes::kib(8)).unwrap();
        assert!(lat > Nanos::ZERO);
        assert!(t.cache_hit_ratio().is_some());
        assert!(t.drop_caches());
        t.close(fd).unwrap();
        t.unlink("/f").unwrap();
    }

    #[test]
    fn sim_target_advance_moves_clock() {
        let mut t = testbed::paper_ext2(Bytes::gib(1), 0);
        let t0 = t.now();
        t.advance(Nanos::from_micros(99));
        assert_eq!(t.now() - t0, Nanos::from_micros(99));
    }

    /// Shrinking a cache that holds dirty pages writes the evicted ones
    /// back, and the target clock moves by exactly the device time that
    /// took; a clean shrink costs nothing.
    #[test]
    fn dirty_shrink_charges_its_writeback_to_the_clock() {
        use rb_simcache::cache::CacheConfig;
        use rb_simcache::policy::PolicyKind;
        use rb_simcache::readahead::ReadaheadConfig;
        use rb_simcache::writeback::WritebackConfig;
        use rb_simdisk::hdd::{Hdd, HddConfig};
        use rb_simfs::ext2::{Ext2Config, Ext2Fs};
        use rb_simfs::stack::StackConfig;
        let mut t = SimTarget::new(StorageStack::new(
            Box::new(Ext2Fs::new(Ext2Config::for_blocks(262_144))),
            CacheConfig {
                capacity_pages: 64,
                policy: PolicyKind::Lru,
                readahead: ReadaheadConfig::disabled(),
                writeback: WritebackConfig::default(),
            },
            Box::new(Hdd::new(HddConfig::maxtor_7l250s0_like())),
            StackConfig::default(),
        ));
        t.create("/f").unwrap();
        let fd = t.open("/f").unwrap();
        t.set_size(fd, Bytes::mib(1)).unwrap();
        t.write(fd, Bytes::ZERO, Bytes::kib(256)).unwrap();
        assert_eq!(t.stack().cache().dirty_pages(), 64);

        let (t0, busy0) = (t.now(), t.stack().disk_stats().busy);
        t.set_cache_capacity_pages(16);
        let spent = t.stack().disk_stats().busy - busy0;
        assert!(
            spent > Nanos::ZERO,
            "the evicted dirty pages never reached media"
        );
        assert_eq!(t.now() - t0, spent);

        let t1 = t.now();
        t.set_cache_capacity_pages(16);
        assert_eq!(t.now(), t1, "a clean shrink moved the clock");
    }

    #[test]
    fn real_target_round_trip() {
        let dir = std::env::temp_dir().join(format!("rb-target-test-{}", std::process::id()));
        let mut t = RealFsTarget::new(&dir).unwrap();
        t.mkdir("/d").unwrap();
        t.create("/d/f").unwrap();
        let fd = t.open("/d/f").unwrap();
        t.set_size(fd, Bytes::kib(64)).unwrap();
        t.write(fd, Bytes::ZERO, Bytes::kib(8)).unwrap();
        let lat = t.read(fd, Bytes::ZERO, Bytes::kib(8)).unwrap();
        assert!(lat > Nanos::ZERO);
        t.fsync(fd).unwrap();
        t.stat("/d/f").unwrap();
        t.close(fd).unwrap();
        t.unlink("/d/f").unwrap();
        assert!(!t.drop_caches());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A write larger than the 1 MiB scratch buffer lands in full: the
    /// host file ends up `len` bytes long, not one buffer's worth.
    #[test]
    fn real_target_writes_past_its_scratch_buffer() {
        let dir = std::env::temp_dir().join(format!("rb-target-big-{}", std::process::id()));
        let mut t = RealFsTarget::new(&dir).unwrap();
        t.create("/big").unwrap();
        let fd = t.open("/big").unwrap();
        t.write(fd, Bytes::ZERO, Bytes::mib(3)).unwrap();
        t.read(fd, Bytes::ZERO, Bytes::mib(3)).unwrap();
        t.close(fd).unwrap();
        let len = std::fs::metadata(dir.join("big")).unwrap().len();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(len, Bytes::mib(3).as_u64());
    }

    #[test]
    fn real_target_errors_are_reported() {
        let dir = std::env::temp_dir().join(format!("rb-target-err-{}", std::process::id()));
        let mut t = RealFsTarget::new(&dir).unwrap();
        assert!(t.open("/missing").is_err());
        assert!(t.unlink("/missing").is_err());
        assert!(t.read(42, Bytes::ZERO, Bytes::kib(4)).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A short varmail run with the given seed, recorded through a
    /// [`Recorder`] on a fresh ext2 testbed.
    fn record_varmail(seed: u64) -> (u64, Trace) {
        let mut target = testbed::paper_ext2(Bytes::gib(1), seed);
        let mut recorder = Recorder::new(&mut target);
        let w = personalities::varmail(10);
        let cfg = EngineConfig {
            duration: Nanos::from_secs(2),
            window: Nanos::from_secs(1),
            seed,
            cold_start: false,
            prewarm: false,
            ..Default::default()
        };
        let rec = Engine::run(&mut recorder, &w, &cfg).unwrap();
        (rec.ops, recorder.finish())
    }

    #[test]
    fn record_then_replay_reproduces_behaviour() {
        let (ops, trace) = record_varmail(1);
        assert!(trace.len() as u64 >= ops, "trace missed operations");
        // The recorder emits v2: timestamps are monotone and nontrivial.
        assert_eq!(trace.version, TraceVersion::V2);
        assert!(trace.span() > Nanos::ZERO);
        assert!(trace.entries.windows(2).all(|w| w[0].at <= w[1].at));

        // Replay on a fresh identical target: every op should succeed.
        let mut fresh = testbed::paper_ext2(Bytes::gib(1), 1);
        let result = replay(&mut fresh, &trace);
        assert_eq!(result.errors, 0, "replay diverged");
        assert_eq!(result.ops, trace.len() as u64);
        assert!(result.duration > Nanos::ZERO);
    }

    #[test]
    fn replay_is_deterministic() {
        let trace = Trace::from_text(
            "mkdir /t\ncreate /t/a\nopen /t/a\nsetsize /t/a 1048576\n\
             read /t/a 0 8192\nread /t/a 524288 8192\nfsync /t/a\nclose /t/a\n",
        )
        .unwrap();
        let run = || {
            let mut t = testbed::paper_ext2(Bytes::gib(1), 9);
            let r = replay(&mut t, &trace);
            (r.ops, r.errors, r.duration)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn replay_tolerates_missing_files() {
        let trace =
            Trace::from_text("stat /missing\nread /also-missing 0 4096\ncreate /ok\n").unwrap();
        let mut t = testbed::paper_ext2(Bytes::gib(1), 2);
        let r = replay(&mut t, &trace);
        assert_eq!(r.errors, 2);
        assert_eq!(r.ops, 1);
        let first = r.first_error.expect("first error reported");
        assert_eq!(first.op, "stat /missing");
    }

    #[test]
    fn timing_policies_diverge_on_the_simulated_stack() {
        // Record with real inter-arrival gaps (the engine's op overhead
        // spaces operations out), then replay the same v2 trace under
        // all three policies on identical fresh targets: afap must be
        // fastest, faithful must take at least the recorded span, and
        // scaled=1.5 must land in between.
        let (_, trace) = record_varmail(3);
        let span = trace.span();
        assert!(
            span > Nanos::from_millis(100),
            "trace has no gaps to honour"
        );

        let run = |timing: Timing| {
            let mut t = testbed::paper_ext2(Bytes::gib(1), 3);
            let r = replay_with(&mut t, &trace, &ReplayConfig { timing, seed: 1 });
            assert_eq!(r.errors, 0, "{timing}: replay diverged");
            r.duration
        };
        let afap = run(Timing::Afap);
        let faithful = run(Timing::Faithful);
        // A gentle acceleration still leaves gaps to honour, so the
        // three policies order strictly; a huge factor would compress
        // the timeline below pure service time and (correctly) converge
        // to afap — the capacity-bound regime.
        let scaled = run(Timing::Scaled { factor: 1.5 });
        assert!(faithful >= span);
        assert!(
            afap < scaled && scaled < faithful,
            "{afap} {scaled} {faithful}"
        );
        let saturated = run(Timing::Scaled { factor: 1000.0 });
        assert_eq!(saturated, afap, "saturated replay is capacity-bound");
        // Deterministic: the same policy reproduces its duration.
        assert_eq!(run(Timing::Faithful), faithful);
    }
}
