//! The system-under-test interface: what a recorder can observe and a
//! replayer can drive.
//!
//! [`Target`] is the contract between every workload driver in the
//! stack — the flowop engine, the trace [`Recorder`](crate::Recorder)
//! and the [replay driver](crate::replay_with) — and whatever is being
//! measured. `rb_core` provides the two canonical implementations: the
//! deterministic simulated storage stack (`SimTarget`) and a real host
//! directory (`RealFsTarget`). The trait lives here, in the replay
//! crate, because replay is the most demanding consumer: a trace is
//! only a portable artifact if *any* target can execute it.

use rb_simcore::error::{SimError, SimResult};
use rb_simcore::time::Nanos;
use rb_simcore::units::Bytes;
use rb_simfs::intern::PathId;
use rb_simfs::stack::{Fd, OpCost};

/// A system under test.
///
/// An implementor writes one op surface: the `*_at` family. Each form
/// executes an operation at an explicit `issue` instant, mutates target
/// state, and returns the cost split into CPU and device time
/// ([`OpCost`]) without advancing the target clock. Every driver runs
/// on it: the serial engine issues at [`Target::now`] and then advances
/// the clock by the returned cost; the discrete-event scheduler issues
/// at its own instants and charges the cost to cores and the shared
/// device.
///
/// The untimed forms (`create`, `read`, …) and the `*_id` forms are
/// derived: each is one `*_at` call at `now()` followed by
/// `advance(cost.total())`. A target that caches path resolutions
/// overrides [`Target::prepare_path`] and receives the id through the
/// `*_at` forms' `id` argument.
pub trait Target {
    /// Short name for reports, e.g. `"sim:ext2"`.
    fn name(&self) -> String;

    /// Monotonic time since target creation (virtual or wall).
    fn now(&self) -> Nanos;

    /// Passes time without doing I/O (per-op framework overhead, think
    /// time, recorded inter-arrival gaps). Real targets treat this as a
    /// no-op: their overhead is already real.
    fn advance(&mut self, d: Nanos);

    // ------------------------------------------------------------------
    // The op surface: operations at an explicit instant.
    //
    // Each form executes at `issue`, mutates target state, and returns
    // what the operation cost without touching the target clock. `id`
    // is the path pre-resolved by [`Target::prepare_path`] when the
    // driver has one; `path` is always the same path.
    // ------------------------------------------------------------------

    /// Whether operations may be issued at an instant other than
    /// [`Target::now`]. A discrete-event driver (scheduled processes,
    /// overlapped replay) decides *when* each op lands and needs the
    /// target to honour `issue`. Virtual-clock targets can; a
    /// wall-clock target runs every op when it is called and ignores
    /// `issue`, so it keeps the default `false` and those drivers
    /// refuse it.
    fn supports_timed(&self) -> bool {
        false
    }

    /// Creates a regular file at instant `issue`.
    fn create_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<OpCost>;

    /// Creates a directory at instant `issue`.
    fn mkdir_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<OpCost>;

    /// Removes a file at instant `issue`.
    fn unlink_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<OpCost>;

    /// Stats a path at instant `issue`.
    fn stat_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<OpCost>;

    /// Opens a file at instant `issue`.
    fn open_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<(Fd, OpCost)>;

    /// Sets a file's size (pre-allocation) at instant `issue`.
    fn set_size_at(&mut self, fd: Fd, size: Bytes, issue: Nanos) -> SimResult<OpCost>;

    /// Reads `len` bytes at `offset`, at instant `issue`.
    fn read_at(&mut self, fd: Fd, offset: Bytes, len: Bytes, issue: Nanos) -> SimResult<OpCost>;

    /// Writes `len` bytes at `offset`, at instant `issue`.
    fn write_at(&mut self, fd: Fd, offset: Bytes, len: Bytes, issue: Nanos) -> SimResult<OpCost>;

    /// Flushes a file to stable storage at instant `issue`.
    fn fsync_at(&mut self, fd: Fd, issue: Nanos) -> SimResult<OpCost>;

    /// Runs the background flusher pass (the kernel flusher thread) as
    /// of `issue` and returns the device time it consumed. Targets
    /// without a flusher of their own (a real host relies on its
    /// kernel) keep the default, which does nothing.
    fn tick_at(&mut self, issue: Nanos) -> Nanos {
        let _ = issue;
        Nanos::ZERO
    }

    /// Closes a handle.
    fn close(&mut self, fd: Fd) -> SimResult<()>;

    /// Empties the page cache if the target can; returns whether it did.
    fn drop_caches(&mut self) -> bool;

    // ------------------------------------------------------------------
    // Derived forms: one `*_at` call at `now()`, then the clock advances
    // by the whole cost.
    // ------------------------------------------------------------------

    /// Pre-resolves a path for repeated use, if the target caches path
    /// resolutions. Pure bookkeeping (no simulated cost, no namespace
    /// effect): drivers call it at workload-build or trace-load time so
    /// per-op path work drops to an index. Targets without a resolution
    /// cache return `None`, and drivers pass `None` as the `id`.
    fn prepare_path(&mut self, path: &str) -> Option<PathId> {
        let _ = path;
        None
    }

    /// Creates a regular file now; returns its latency.
    fn create(&mut self, path: &str) -> SimResult<Nanos> {
        at_now(self, |t, now| t.create_at(None, path, now))
    }

    /// Creates a directory now.
    fn mkdir(&mut self, path: &str) -> SimResult<Nanos> {
        at_now(self, |t, now| t.mkdir_at(None, path, now))
    }

    /// Removes a file now.
    fn unlink(&mut self, path: &str) -> SimResult<Nanos> {
        at_now(self, |t, now| t.unlink_at(None, path, now))
    }

    /// Stats a path now.
    fn stat(&mut self, path: &str) -> SimResult<Nanos> {
        at_now(self, |t, now| t.stat_at(None, path, now))
    }

    /// Opens a file now.
    fn open(&mut self, path: &str) -> SimResult<Fd> {
        open_now(self, None, path)
    }

    /// [`Target::create`] for a path pre-resolved by
    /// [`Target::prepare_path`].
    fn create_id(&mut self, id: PathId, path: &str) -> SimResult<Nanos> {
        at_now(self, |t, now| t.create_at(Some(id), path, now))
    }

    /// [`Target::mkdir`] for a pre-resolved path.
    fn mkdir_id(&mut self, id: PathId, path: &str) -> SimResult<Nanos> {
        at_now(self, |t, now| t.mkdir_at(Some(id), path, now))
    }

    /// [`Target::unlink`] for a pre-resolved path.
    fn unlink_id(&mut self, id: PathId, path: &str) -> SimResult<Nanos> {
        at_now(self, |t, now| t.unlink_at(Some(id), path, now))
    }

    /// [`Target::stat`] for a pre-resolved path.
    fn stat_id(&mut self, id: PathId, path: &str) -> SimResult<Nanos> {
        at_now(self, |t, now| t.stat_at(Some(id), path, now))
    }

    /// [`Target::open`] for a pre-resolved path.
    fn open_id(&mut self, id: PathId, path: &str) -> SimResult<Fd> {
        open_now(self, Some(id), path)
    }

    /// Sets a file's size now.
    fn set_size(&mut self, fd: Fd, size: Bytes) -> SimResult<Nanos> {
        at_now(self, |t, now| t.set_size_at(fd, size, now))
    }

    /// Reads `len` bytes at `offset` now; returns the latency.
    fn read(&mut self, fd: Fd, offset: Bytes, len: Bytes) -> SimResult<Nanos> {
        at_now(self, |t, now| t.read_at(fd, offset, len, now))
    }

    /// Writes `len` bytes at `offset` now; returns the latency.
    fn write(&mut self, fd: Fd, offset: Bytes, len: Bytes) -> SimResult<Nanos> {
        at_now(self, |t, now| t.write_at(fd, offset, len, now))
    }

    /// Flushes a file to stable storage now.
    fn fsync(&mut self, fd: Fd) -> SimResult<Nanos> {
        at_now(self, |t, now| t.fsync_at(fd, now))
    }

    /// Runs the background flusher now and charges its device time to
    /// the clock: the serial engine and timed replay call it on the
    /// 5 s flusher cadence.
    fn background_tick(&mut self) {
        let spent = self.tick_at(self.now());
        self.advance(spent);
    }

    // ------------------------------------------------------------------
    // Cache control and observation.
    // ------------------------------------------------------------------

    /// Adjusts cache capacity in pages (memory-pressure modelling).
    /// Targets without a controllable cache ignore this.
    fn set_cache_capacity_pages(&mut self, _pages: u64) {}

    /// Cache hit ratio so far, if the target can report one.
    fn cache_hit_ratio(&self) -> Option<f64> {
        None
    }

    /// Cumulative cache statistics snapshot, if the target has a
    /// controllable cache. Used by the engine to compute per-phase hit
    /// ratios as deltas.
    fn cache_stats(&self) -> Option<rb_simcache::page::CacheStats> {
        None
    }

    /// Name of the cache eviction policy, if the target has one (for
    /// attribution in flight-recorder reports).
    fn cache_policy(&self) -> Option<&'static str> {
        None
    }

    /// Cumulative storage-stack counters, if the target is simulated.
    /// The flight recorder snapshots these before and after a run.
    fn stack_stats(&self) -> Option<rb_simfs::stack::StackStats> {
        None
    }

    /// Cumulative device counters, if the target is simulated.
    fn disk_stats(&self) -> Option<rb_simdisk::device::DeviceStats> {
        None
    }

    // ------------------------------------------------------------------
    // Fault injection (the robustness interface).
    //
    // Only deterministic simulated targets can inject faults — a plan
    // is a pure function of (spec, forked RNG stream, virtual clock) and
    // makes no sense against a real host disk. Real targets keep the
    // default "unsupported" behaviour and drivers gate on the error.
    // ------------------------------------------------------------------

    /// Arms a deterministic fault plan on the target's device path.
    /// Targets that cannot inject faults return `InvalidOperation`.
    fn install_faults(&mut self, spec: rb_faults::FaultSpec, seed: u64) -> SimResult<()> {
        let _ = (spec, seed);
        Err(SimError::InvalidOperation(
            "target cannot inject deterministic faults".into(),
        ))
    }

    /// Cumulative fault-injection counters, if faults are armed.
    fn fault_stats(&self) -> Option<rb_faults::FaultStats> {
        None
    }

    /// Simulates a crash at instant `issue`: drops the page cache (dirty
    /// data is lost), replays the file system's recovery plan against
    /// the device, and reports what recovery cost and whether the
    /// metadata survived consistent.
    fn crash_recover(&mut self, issue: Nanos) -> SimResult<rb_faults::CrashReport> {
        let _ = issue;
        Err(SimError::InvalidOperation(
            "target cannot simulate a crash".into(),
        ))
    }

    /// Informs the target of the device-queue horizon chosen by an
    /// external scheduler: media requests issued after this call are
    /// serviced no earlier than `floor` (the instant the device actually
    /// frees up), so seek distances are evaluated at true service start
    /// rather than at issue. Targets without a device queue ignore it.
    fn set_device_floor(&mut self, _floor: Nanos) {}
}

/// The body of every derived form: issues a `*_at` op at the target's
/// `now()`, advances the clock by its cost, and returns that latency.
fn at_now<T: Target + ?Sized>(
    target: &mut T,
    op: impl FnOnce(&mut T, Nanos) -> SimResult<OpCost>,
) -> SimResult<Nanos> {
    let now = target.now();
    let latency = op(target, now)?.total();
    target.advance(latency);
    Ok(latency)
}

/// [`at_now`] for `open`, which returns the handle instead.
fn open_now<T: Target + ?Sized>(target: &mut T, id: Option<PathId>, path: &str) -> SimResult<Fd> {
    let (fd, cost) = target.open_at(id, path, target.now())?;
    target.advance(cost.total());
    Ok(fd)
}
