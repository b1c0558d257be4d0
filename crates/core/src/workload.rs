//! Workload model: file sets, flowops and personalities.
//!
//! A mini-Filebench: workloads are declarative combinations of *file
//! sets* (populations of files) and weighted *flowops* (read/write/
//! create/delete/stat/fsync primitives), executed by [`Engine::run`]
//! against any [`Target`]. The paper's case-study workload — "one thread
//! randomly reading from a single file" — is [`personalities::random_read`];
//! the other classic personalities (web server, file server, varmail,
//! postmark) are provided for the broader suite.

use crate::sched::{Arrival, Completion, OpenLoad, OpenOutcome, SchedConfig, SchedDriver};
use crate::target::Target;
use rb_simcore::dist::{Dist, Zipf};
use rb_simcore::error::{SimError, SimResult};
use rb_simcore::events::TICK_EVERY;
use rb_simcore::rng::Rng;
use rb_simcore::time::Nanos;
use rb_simcore::units::Bytes;
use rb_simfs::intern::PathId;
use rb_simfs::stack::{Fd, OpCost};
use rb_stats::histogram::Log2Histogram;
use rb_stats::timeseries::{GaugeSeries, Window, WindowedSeries};
use std::collections::HashMap;

/// A population of files used by a workload.
#[derive(Debug, Clone)]
pub struct FileSet {
    /// Directory holding the set (e.g. `/set0`).
    pub dir: String,
    /// Files created at setup.
    pub count: u64,
    /// File size distribution (bytes).
    pub size: Dist,
    /// Whether files are preallocated to their size at setup.
    pub prealloc: bool,
}

impl FileSet {
    /// Path of the `i`-th file.
    pub fn path(&self, i: u64) -> String {
        format!("{}/f{:06}", self.dir, i)
    }
}

/// A workload primitive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowOp {
    /// Read `iosize` bytes at a random aligned offset of a random file.
    ReadRandom {
        /// File set index.
        set: usize,
        /// I/O size.
        iosize: Bytes,
    },
    /// Read the next `iosize` bytes of a random file (per-file cursor,
    /// wrapping at end of file).
    ReadSequential {
        /// File set index.
        set: usize,
        /// I/O size.
        iosize: Bytes,
    },
    /// Read an entire random file in `iosize` chunks.
    ReadWholeFile {
        /// File set index.
        set: usize,
        /// I/O size.
        iosize: Bytes,
    },
    /// Write `iosize` bytes at a random aligned offset.
    WriteRandom {
        /// File set index.
        set: usize,
        /// I/O size.
        iosize: Bytes,
    },
    /// Append `iosize` bytes to a random file.
    Append {
        /// File set index.
        set: usize,
        /// I/O size.
        iosize: Bytes,
    },
    /// Create (and open) a new file in the set.
    CreateFile {
        /// File set index.
        set: usize,
    },
    /// Delete a random file from the set.
    DeleteFile {
        /// File set index.
        set: usize,
    },
    /// Stat a random file.
    StatFile {
        /// File set index.
        set: usize,
    },
    /// Open and close a random file.
    OpenClose {
        /// File set index.
        set: usize,
    },
    /// fsync a random file.
    Fsync {
        /// File set index.
        set: usize,
    },
}

impl FlowOp {
    /// Short label for per-op statistics.
    pub fn label(&self) -> &'static str {
        match self {
            FlowOp::ReadRandom { .. } => "read-rand",
            FlowOp::ReadSequential { .. } => "read-seq",
            FlowOp::ReadWholeFile { .. } => "read-file",
            FlowOp::WriteRandom { .. } => "write-rand",
            FlowOp::Append { .. } => "append",
            FlowOp::CreateFile { .. } => "create",
            FlowOp::DeleteFile { .. } => "delete",
            FlowOp::StatFile { .. } => "stat",
            FlowOp::OpenClose { .. } => "open-close",
            FlowOp::Fsync { .. } => "fsync",
        }
    }
}

/// A complete workload definition.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name for reports.
    pub name: String,
    /// File sets, indexed by the flowops.
    pub filesets: Vec<FileSet>,
    /// Weighted operation mix.
    pub ops: Vec<(FlowOp, u32)>,
    /// Per-operation framework overhead (syscall dispatch, flowop
    /// accounting — what makes Filebench report ~9.7 kops/s rather than
    /// 250 kops/s for in-memory reads).
    pub op_overhead: Nanos,
    /// File-popularity skew: 0 = uniform, ~1 = web-like.
    pub zipf_theta: f64,
}

/// Engine (single-run) configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Virtual/wall duration of the measured phase.
    pub duration: Nanos,
    /// Throughput sampling window (the paper's Figure 2 uses 10 s).
    pub window: Nanos,
    /// Seed for all workload randomness.
    pub seed: u64,
    /// Drop caches after setup so the run starts cold.
    pub cold_start: bool,
    /// Sequentially sweep every file once before measuring. This reaches
    /// the same steady state as the paper's 20-minute cold runs in a
    /// fraction of the (virtual and host) time; leave it off when the
    /// warm-up itself is the experiment (Figure 2).
    pub prewarm: bool,
    /// Per-run CPU-speed wobble: the op overhead is scaled by a
    /// log-normal factor with this sigma, drawn once per run. Models the
    /// host noise (thermal state, background load) that gives even
    /// memory-bound benchmarks their ~0.5 % run-to-run variance.
    pub cpu_jitter_sigma: f64,
    /// Abort after this many consecutive operation errors.
    pub max_errors: u64,
    /// Concurrent closed-loop worker processes. `1` runs the classic
    /// serial loop (byte-identical to the pre-concurrency engine);
    /// `N > 1` drives N workers through the [`crate::sched`]
    /// discrete-event scheduler, contending for [`EngineConfig::cores`]
    /// and the shared device. Requires a target whose ops may be issued
    /// at instants other than its clock's now
    /// ([`Target::supports_timed`]; the simulated stack's can).
    pub processes: u32,
    /// CPU cores the scheduler hands out to processes (ignored when
    /// `processes == 1`).
    pub cores: u32,
    /// How requests arrive. [`Arrival::Closed`] (the default) is the
    /// classic issue-on-completion loop; any open mode generates
    /// offered load on its own seed-deterministic schedule, feeds a
    /// bounded queue in front of [`EngineConfig::processes`] service
    /// workers, and reports tail latency, queue depth and drops in
    /// [`Recording::open_loop`]. Open modes require a
    /// time-parameterized target, like `processes > 1`.
    pub arrival: Arrival,
    /// Flight-recorder configuration: metrics capture and span tracing.
    /// Fully off by default; the disabled path is a single `Option`
    /// check per run, so recordings (and everything derived from them)
    /// stay byte-identical to an engine without the recorder.
    pub obs: rb_obs::ObsConfig,
    /// Deterministic fault plan armed for the measured phase (`None` =
    /// healthy device). Faults install *after* setup/prewarm, so file
    /// preallocation is never error-gated; the plan is a pure function
    /// of (spec, forked seed stream, virtual clock), and the disabled
    /// path leaves every recording byte-identical to a fault-free
    /// engine.
    pub faults: Option<rb_faults::FaultSpec>,
    /// How the engine responds to injected I/O failures.
    /// [`rb_faults::RetryPolicy::None`] keeps the legacy behaviour
    /// (errors count toward [`EngineConfig::max_errors`]); the bounded
    /// and continue policies treat fault-class errors as survivable and
    /// account every op in [`Recording::ledger`].
    pub retry: rb_faults::RetryPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            duration: Nanos::from_secs(60),
            window: Nanos::from_secs(10),
            seed: 0,
            cold_start: true,
            prewarm: false,
            cpu_jitter_sigma: 0.005,
            max_errors: 100,
            processes: 1,
            cores: 4,
            arrival: Arrival::Closed,
            obs: rb_obs::ObsConfig::default(),
            faults: None,
            retry: rb_faults::RetryPolicy::None,
        }
    }
}

/// Everything recorded during one run.
#[derive(Debug, Clone)]
pub struct Recording {
    /// Throughput/histogram windows over the run, from t = 0.
    pub windows: Vec<Window>,
    /// Latency histogram over all operations.
    pub histogram: Log2Histogram,
    /// Latency histograms per flowop label.
    pub per_op: HashMap<&'static str, Log2Histogram>,
    /// Operations completed.
    pub ops: u64,
    /// Operations that failed (and were skipped).
    pub errors: u64,
    /// Total measured duration.
    pub duration: Nanos,
    /// Cache hit ratio over the run, when the target reports one.
    pub hit_ratio: Option<f64>,
    /// Open-loop accounting (offered load, drops, tail percentiles,
    /// queue depth), present only when the run used an open
    /// [`EngineConfig::arrival`] mode.
    pub open_loop: Option<OpenLoopReport>,
    /// Flight-recorder snapshot (per-layer counter deltas, latency
    /// decomposition, gauge timeline), present when
    /// [`rb_obs::ObsConfig::metrics`] was enabled.
    pub metrics: Option<rb_obs::MetricsSnapshot>,
    /// Virtual-time span trace of sampled op lifecycles, present when
    /// [`rb_obs::ObsConfig::trace`] was configured.
    pub trace: Option<rb_obs::SpanTrace>,
    /// Fault-outcome ledger (`attempted = succeeded + retried_ok +
    /// gave_up + dropped`, degraded-mode time, crash verdict), present
    /// only when [`EngineConfig::faults`] armed a plan.
    pub ledger: Option<rb_faults::OutcomeLedger>,
}

/// What an open-loop run measures beyond the closed-loop recording:
/// the offered-vs-served ledger and the tail of the latency
/// distribution *including queue wait*.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopReport {
    /// The arrival mode the run used.
    pub arrival: Arrival,
    /// Requests the arrival process generated within the horizon.
    pub offered: u64,
    /// Requests served to completion (including past-deadline drain).
    pub completed: u64,
    /// Requests that reached the target but failed.
    pub failed: u64,
    /// Requests rejected at the full admission queue.
    pub dropped: u64,
    /// Median end-to-end latency (arrival to completion), from the
    /// run's log2 histogram. `None` when nothing was recorded.
    pub p50: Option<Nanos>,
    /// 99th-percentile end-to-end latency.
    pub p99: Option<Nanos>,
    /// 99.9th-percentile end-to-end latency.
    pub p999: Option<Nanos>,
    /// Deepest the admission queue ever got.
    pub max_queue_depth: u32,
    /// `(instant since start, queue depth)` sampled once per
    /// [`EngineConfig::window`].
    pub depth_timeline: Vec<(Nanos, u32)>,
}

impl OpenLoopReport {
    /// Fraction of offered requests that were dropped at the queue.
    pub fn drop_ratio(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.dropped as f64 / self.offered as f64
        }
    }
}

impl Recording {
    /// Overall mean throughput.
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.ops as f64 / secs
        }
    }

    /// Mean throughput over the final `n` windows ("last minute only").
    pub fn tail_ops_per_sec(&self, n: usize) -> Option<f64> {
        rb_stats::timeseries::tail_mean_ops_per_sec(&self.windows, n)
    }

    /// Throughput points `(seconds, ops/s)` for plotting.
    pub fn throughput_series(&self) -> Vec<(f64, f64)> {
        self.windows
            .iter()
            .map(|w| (w.start.as_secs_f64(), w.ops_per_sec))
            .collect()
    }
}

/// Live state of one file during a run.
#[derive(Debug)]
pub struct LiveFile {
    /// Target path.
    pub path: String,
    /// The path pre-resolved on the target (when the target caches
    /// resolutions), so per-op path operations skip the string walk.
    pub pid: Option<PathId>,
    /// Open handle.
    pub fd: Fd,
    /// Current logical size.
    pub size: Bytes,
    /// Sequential-read cursor.
    pub cursor: Bytes,
}

/// The workload executor.
pub struct Engine;

impl Engine {
    /// Creates the file sets (directories, files, preallocation).
    ///
    /// Returns per-set live-file tables. Separated from [`Engine::run`]
    /// so callers can interpose (age the file system, warm the cache)
    /// between setup and measurement.
    pub fn setup(
        target: &mut dyn Target,
        workload: &Workload,
        seed: u64,
    ) -> SimResult<Vec<Vec<LiveFile>>> {
        let mut rng = Rng::new(seed).fork("setup");
        let mut sets = Vec::with_capacity(workload.filesets.len());
        for fs in &workload.filesets {
            target.mkdir(&fs.dir)?;
            let mut live = Vec::with_capacity(fs.count as usize);
            for i in 0..fs.count {
                let path = fs.path(i);
                // Split/intern the path once here; every later op on
                // this file resolves by id.
                let pid = target.prepare_path(&path);
                match pid {
                    Some(id) => target.create_id(id, &path)?,
                    None => target.create(&path)?,
                };
                let fd = match pid {
                    Some(id) => target.open_id(id, &path)?,
                    None => target.open(&path)?,
                };
                let size = Bytes::new(fs.size.sample(&mut rng).max(0.0) as u64);
                if fs.prealloc && !size.is_zero() {
                    target.set_size(fd, size)?;
                }
                live.push(LiveFile {
                    path,
                    pid,
                    fd,
                    size,
                    cursor: Bytes::ZERO,
                });
            }
            sets.push(live);
        }
        Ok(sets)
    }

    /// Runs `workload` against `target` for the configured duration.
    pub fn run(
        target: &mut dyn Target,
        workload: &Workload,
        config: &EngineConfig,
    ) -> SimResult<Recording> {
        let mut sets = Self::setup(target, workload, config.seed)?;
        if config.cold_start {
            target.drop_caches();
        }
        Self::run_prepared(target, workload, config, &mut sets)
    }

    /// Sequentially sweeps every live file once (64 KiB chunks), filling
    /// the cache the way a linear scan would. Not recorded.
    pub fn prewarm(target: &mut dyn Target, sets: &[Vec<LiveFile>]) -> SimResult<()> {
        let chunk = Bytes::kib(64);
        for set in sets {
            for f in set {
                let mut off = Bytes::ZERO;
                while off < f.size {
                    target.read(f.fd, off, chunk)?;
                    off += chunk;
                }
            }
        }
        Ok(())
    }

    /// Runs the measured phase against already-set-up file sets.
    ///
    /// One run core serves both pacings. With
    /// [`EngineConfig::processes`] `== 1` and closed arrivals, the one
    /// worker issues on the target's own clock, byte-identical to the
    /// pre-concurrency engine. Otherwise the same flowop mix drives N
    /// workers through [`crate::sched::run`], contending for cores and
    /// the shared device: closed-loop workers, or the service workers
    /// of an open [`EngineConfig::arrival`] process.
    pub fn run_prepared(
        target: &mut dyn Target,
        workload: &Workload,
        config: &EngineConfig,
        sets: &mut [Vec<LiveFile>],
    ) -> SimResult<Recording> {
        if workload.ops.is_empty() {
            return Err(SimError::BadConfig("workload has no ops".into()));
        }
        let pacing = Pacing::of(config);
        if pacing == Pacing::Scheduled && !target.supports_timed() {
            let (who, fix) = if config.arrival.is_open() {
                ("open-loop arrivals".to_string(), "--arrival closed")
            } else {
                (format!("{} processes", config.processes), "processes=1")
            };
            return Err(SimError::BadConfig(format!(
                "{who} need a time-parameterized target, and {} cannot \
                 decouple execution from its clock; run with {fix}",
                target.name()
            )));
        }
        let run = Run::begin(target, workload, config, sets, pacing)?;
        match pacing {
            Pacing::Serial => run.serial(),
            Pacing::Scheduled => run.scheduled(),
        }
    }

    /// Whether an error is fault-class — injected (or mechanical)
    /// device failure rather than a workload/config mistake. Only these
    /// are retried, and only these are survivable under a tolerant
    /// [`rb_faults::RetryPolicy`].
    fn is_fault_error(e: &SimError) -> bool {
        matches!(e, SimError::Io { .. } | SimError::NoSpace)
    }

    /// The run's per-op framework overhead: one CPU-speed factor drawn
    /// per run (within-run jitter would average out over millions of
    /// operations, but run-to-run wobble does not).
    fn effective_op_overhead(workload: &Workload, config: &EngineConfig) -> Nanos {
        if config.cpu_jitter_sigma > 0.0 {
            let factor = Rng::new(config.seed)
                .fork("cpu-jitter")
                .lognormal(1.0, config.cpu_jitter_sigma)
                .clamp(0.8, 1.25);
            workload.op_overhead.mul_f64(factor)
        } else {
            workload.op_overhead
        }
    }

    /// Total flowop weight, rejecting all-zero mixes.
    fn total_weight(workload: &Workload) -> SimResult<u64> {
        let total: u64 = workload.ops.iter().map(|&(_, w)| w as u64).sum();
        if total == 0 {
            return Err(SimError::BadConfig("all op weights are zero".into()));
        }
        Ok(total)
    }

    /// Popularity sampler per set (rebuilt when a set's size changes a
    /// lot; Zipf over the max index, clamped to live count).
    fn build_zipfs(sets: &[Vec<LiveFile>], workload: &Workload) -> Vec<Zipf> {
        sets.iter()
            .map(|s| Zipf::new(s.len().max(1), workload.zipf_theta))
            .collect()
    }

    /// Folds dense per-slot histograms back into the by-label map the
    /// [`Recording`] reports (slots with no recorded ops are dropped,
    /// matching the old insert-on-first-record HashMap behavior).
    fn fold_per_op(
        program: &OpProgram,
        slots: Vec<Log2Histogram>,
    ) -> HashMap<&'static str, Log2Histogram> {
        let mut map = HashMap::new();
        for (slot, h) in slots.into_iter().enumerate() {
            if h.total() > 0 {
                map.insert(program.labels[slot], h);
            }
        }
        map
    }

    /// Folds the engine-side retry/give-up counts from the outcome
    /// ledger into the snapshot's fault section — the fault layer only
    /// sees injections, not what the retry policy did about them.
    fn patch_fault_metrics(
        metrics: &mut Option<rb_obs::MetricsSnapshot>,
        ledger: &Option<rb_faults::OutcomeLedger>,
    ) {
        if let (Some(m), Some(l)) = (metrics.as_mut(), ledger) {
            if let Some(f) = &mut m.faults {
                f.retries = l.retries;
                f.gave_up = l.gave_up;
            }
        }
    }

    /// Per-phase hit ratio from the cache-stats delta when available.
    fn hit_ratio_delta(
        before: Option<rb_simcache::page::CacheStats>,
        target: &dyn Target,
    ) -> Option<f64> {
        match (before, target.cache_stats()) {
            (Some(b), Some(a)) => {
                let hits = a.hits - b.hits;
                let misses = a.misses - b.misses;
                if hits + misses == 0 {
                    None
                } else {
                    Some(hits as f64 / (hits + misses) as f64)
                }
            }
            _ => target.cache_hit_ratio(),
        }
    }

    /// Path for the `serial`-th created file in `dir` — byte-identical
    /// to `format!("{dir}/c{serial:08}")`, built by hand so the create
    /// hot path stays off the formatting machinery.
    fn create_path(dir: &str, serial: u64) -> String {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        let mut v = serial;
        loop {
            i -= 1;
            digits[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        let ndigits = digits.len() - i;
        let mut path = String::with_capacity(dir.len() + 2 + ndigits.max(8));
        path.push_str(dir);
        path.push_str("/c");
        for _ in ndigits..8 {
            path.push('0');
        }
        path.extend(digits[i..].iter().map(|&d| char::from(d)));
        path
    }

    fn pick_file<'s>(
        sets: &'s mut [Vec<LiveFile>],
        zipfs: &mut [Zipf],
        set: usize,
        theta: f64,
        rng: &mut Rng,
    ) -> SimResult<&'s mut LiveFile> {
        let live = sets
            .get_mut(set)
            .ok_or_else(|| SimError::BadConfig(format!("no file set {set}")))?;
        if live.is_empty() {
            return Err(SimError::NotFound(format!("file set {set} is empty")));
        }
        if zipfs[set].len() != live.len() {
            zipfs[set] = Zipf::new(live.len(), theta);
        }
        let idx = zipfs[set].sample(rng).min(live.len() - 1);
        Ok(&mut live[idx])
    }
}

/// Live flight-recorder state for one run: before-captures of every
/// layer's counters, the scheduler accumulators, the gauge timeline and
/// the optional span recorder. Only constructed when
/// [`rb_obs::ObsConfig::enabled`], so the disabled path costs exactly
/// one `Option` check at each hook site.
struct ObsState {
    metrics: bool,
    cache_before: Option<rb_simcache::page::CacheStats>,
    fs_before: Option<rb_simfs::stack::StackStats>,
    disk_before: Option<rb_simdisk::device::DeviceStats>,
    policy: Option<&'static str>,
    sched: rb_obs::SchedMetrics,
    timeline: GaugeSeries,
    spans: Option<rb_obs::SpanRecorder>,
    /// Effective per-op think time, for splitting core wait out of the
    /// pre-issue delay.
    think: Nanos,
}

impl ObsState {
    /// Gauges sampled once per window into the timeline.
    const GAUGES: [&'static str; 2] = ["hit_ratio", "device_busy"];

    /// Captures the before-counters and opens the recorders; `None`
    /// when the flight recorder is fully off.
    fn begin(
        config: &EngineConfig,
        target: &dyn Target,
        think: Nanos,
        processes: u32,
        cores: u32,
    ) -> Option<ObsState> {
        if !config.obs.enabled() {
            return None;
        }
        let sched = rb_obs::SchedMetrics {
            processes,
            cores,
            core_busy: vec![Nanos::ZERO; cores as usize],
            ..rb_obs::SchedMetrics::default()
        };
        Some(ObsState {
            metrics: config.obs.metrics,
            cache_before: target.cache_stats(),
            fs_before: target.stack_stats(),
            disk_before: target.disk_stats(),
            policy: target.cache_policy(),
            sched,
            timeline: GaugeSeries::new(config.window, &Self::GAUGES),
            spans: config.obs.trace.as_ref().map(rb_obs::SpanRecorder::new),
            think,
        })
    }

    /// Samples the gauge timeline if `when` (time since run start)
    /// crossed a window boundary: cumulative hit ratio and device busy
    /// fraction, both as deltas from the run's start.
    fn maybe_sample(&mut self, when: Nanos, target: &dyn Target) {
        if !self.metrics || !self.timeline.due(when) {
            return;
        }
        let hit_ratio = match (self.cache_before, target.cache_stats()) {
            (Some(b), Some(a)) => {
                let hits = a.hits - b.hits;
                let lookups = hits + (a.misses - b.misses);
                if lookups == 0 {
                    0.0
                } else {
                    hits as f64 / lookups as f64
                }
            }
            _ => 0.0,
        };
        let device_busy = match (&self.disk_before, target.disk_stats()) {
            (Some(b), Some(a)) => (a.busy - b.busy).as_secs_f64() / when.as_secs_f64().max(1e-9),
            _ => 0.0,
        };
        self.timeline.sample(when, &[hit_ratio, device_busy]);
    }

    /// Records one serial-loop completion: a flat span (the serial
    /// engine has no contention phases to decompose) plus the run
    /// totals.
    fn on_serial_op(&mut self, label: &'static str, end: Nanos, latency: Nanos) {
        if let Some(spans) = &mut self.spans {
            spans.record_flat(0, 0, label, end - latency, end);
        }
        if self.metrics {
            self.sched.completed += 1;
            self.sched.latency += latency;
        }
    }

    /// Records one scheduled-engine completion: the exact latency
    /// decomposition (`core_wait + think + cpu + queue_wait + device ==
    /// latency` by pump construction) and the op's span tree.
    fn on_sched_op(&mut self, completion: &Completion, label: &'static str) {
        let cpu_end = completion.issued + completion.cost.cpu;
        let device_start = completion.completed - completion.cost.device;
        if let Some(spans) = &mut self.spans {
            spans.record_op(
                completion.process,
                completion.core,
                label,
                completion.arrived,
                completion.issued,
                cpu_end,
                device_start,
                completion.completed,
            );
        }
        if self.metrics {
            let s = &mut self.sched;
            s.completed += 1;
            s.latency += completion.completed - completion.arrived;
            s.core_wait += completion.issued - completion.arrived - self.think;
            s.think += self.think;
            s.cpu += completion.cost.cpu;
            s.device += completion.cost.device;
            s.queue_wait += device_start - cpu_end;
            s.core_busy[completion.core as usize] += self.think;
        }
    }

    /// Closes the recorders into the recording's optional payloads.
    fn finish(
        self,
        target: &dyn Target,
        duration: Nanos,
    ) -> (Option<rb_obs::MetricsSnapshot>, Option<rb_obs::SpanTrace>) {
        let trace = self.spans.map(rb_obs::SpanRecorder::finish);
        if !self.metrics {
            return (None, trace);
        }
        let cache = match (self.cache_before, target.cache_stats()) {
            (Some(b), Some(a)) => Some(rb_obs::metrics::cache_delta(&b, &a)),
            _ => None,
        };
        let fs = match (self.fs_before, target.stack_stats()) {
            (Some(b), Some(a)) => Some(rb_obs::metrics::stack_delta(&b, &a)),
            _ => None,
        };
        let disk = match (&self.disk_before, target.disk_stats()) {
            (Some(b), Some(a)) => Some(rb_obs::DiskDelta::between(b, &a)),
            _ => None,
        };
        // Fault counters come straight from the target's fault layer;
        // retries/gave_up are engine-side and patched in from the
        // ledger by the caller (see `patch_fault_metrics`).
        let faults = target.fault_stats().map(|s| rb_obs::FaultDelta {
            injected_errors: s.injected_errors(),
            bad_blocks: s.bad_blocks,
            stall_hits: s.stall_hits,
            enospc_rejections: s.enospc_rejections,
            absorbed_errors: s.absorbed_errors,
            degraded_us: s.degraded().as_micros(),
            retries: 0,
            gave_up: 0,
        });
        let metrics = rb_obs::MetricsSnapshot {
            duration,
            policy: self.policy,
            cache,
            fs,
            disk,
            faults,
            sched: self.sched,
            timeline: self.timeline,
        };
        (Some(metrics), trace)
    }
}

/// Precomputed flat dispatch for a workload's weighted op mix.
///
/// Built once per run, used once per operation: a single
/// `rng.below(total_weight)` draw (the *same* single draw the old
/// cumulative-weight scan consumed, so RNG streams are untouched) maps
/// straight to the chosen flowop through an expanded lookup table, and
/// every distinct op label gets a dense slot index so per-op latency
/// histograms are array-indexed on the hot path instead of paying a
/// SipHash probe per completion.
struct OpProgram {
    total_weight: u64,
    /// Draw value → op index. Present when the total weight is small
    /// enough to expand (always, for the built-in personalities);
    /// otherwise [`OpProgram::pick`] falls back to the scan.
    table: Option<Vec<u16>>,
    /// Op index → histogram slot. Ops sharing a label share a slot,
    /// exactly like the by-label HashMap bookkeeping this replaces.
    slot_of_op: Vec<u32>,
    /// Histogram slot → label.
    labels: Vec<&'static str>,
}

impl OpProgram {
    /// Largest total weight worth expanding into a dispatch table.
    const MAX_TABLE: u64 = 4096;

    fn new(workload: &Workload) -> SimResult<OpProgram> {
        let total_weight = Engine::total_weight(workload)?;
        let table = if total_weight <= Self::MAX_TABLE && workload.ops.len() <= u16::MAX as usize {
            let mut t = Vec::with_capacity(total_weight as usize);
            for (i, &(_, w)) in workload.ops.iter().enumerate() {
                t.extend(std::iter::repeat_n(i as u16, w as usize));
            }
            Some(t)
        } else {
            None
        };
        let mut labels: Vec<&'static str> = Vec::new();
        let slot_of_op = workload
            .ops
            .iter()
            .map(|&(op, _)| {
                let label = op.label();
                match labels.iter().position(|&l| l == label) {
                    Some(s) => s as u32,
                    None => {
                        labels.push(label);
                        (labels.len() - 1) as u32
                    }
                }
            })
            .collect();
        Ok(OpProgram {
            total_weight,
            table,
            slot_of_op,
            labels,
        })
    }

    /// Picks the next flowop: one weighted draw, O(1) dispatch.
    fn pick(&self, workload: &Workload, rng: &mut Rng) -> (usize, FlowOp) {
        let mut pick = rng.below(self.total_weight);
        if let Some(t) = &self.table {
            let i = t[pick as usize] as usize;
            return (i, workload.ops[i].0);
        }
        for (i, &(op, w)) in workload.ops.iter().enumerate() {
            if pick < w as u64 {
                return (i, op);
            }
            pick -= w as u64;
        }
        (0, workload.ops[0].0)
    }
}

/// How a run issues its ops and where it charges their time. One run
/// core ([`Run`]) serves both pacings:
///
/// * `Serial` — one worker on the target's own clock: each op issues at
///   `now()`, and the clock advances by what the op spent and then by
///   the per-op framework overhead.
/// * `Scheduled` — [`EngineConfig::processes`] workers through
///   [`crate::sched::run`], contending for cores and the shared device:
///   closed-loop workers, or the service workers of an open
///   [`EngineConfig::arrival`] process, which feeds them through a
///   bounded queue.
///
/// Beyond the clock, the serial pacing keeps five conventions of the
/// engine that predates the scheduler. Each is written once, at the
/// site that names it:
///
/// 1. a `create` records only the create's latency, not the open that
///    follows it;
/// 2. retry backoff moves the clock but stays out of the recorded
///    latency, where a scheduled worker folds it into the op's CPU time;
/// 3. a failed attempt keeps the clock time of the steps it finished (a
///    whole-file read failing mid-file keeps its chunks), where a
///    scheduled worker charges a failed attempt nothing;
/// 4. the one worker draws from `fork("run")`; scheduled workers draw
///    from `fork("run").fork("proc<i>")`;
/// 5. crash recovery advances the clock, where in a scheduled run it
///    rides on the next op's device time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pacing {
    Serial,
    Scheduled,
}

impl Pacing {
    fn of(config: &EngineConfig) -> Pacing {
        if config.arrival.is_open() || config.processes > 1 {
            Pacing::Scheduled
        } else {
            Pacing::Serial
        }
    }
}

/// What one flowop attempt spent, accumulated step by step so that a
/// failed attempt still reports the time it took before failing.
#[derive(Debug, Default, Clone, Copy)]
struct Spent {
    /// CPU and device time of every completed step.
    cost: OpCost,
    /// The part of `cost` the serial pacing leaves out of the recorded
    /// latency: the open that follows a `create`.
    unrecorded: Nanos,
}

/// The run core: everything one measured phase owns, whatever its
/// [`Pacing`] — set-up (prewarm, fault plan, RNG streams, op program,
/// flight recorder), the per-op attempt (pick, retry and backoff,
/// ledger), the crash check, completion and error bookkeeping, and the
/// [`Recording`]. As the scheduler's [`SchedDriver`] it serves the
/// scheduled pacing, whose workers, closed-loop or fed by an open load,
/// share the file sets, Zipf samplers and created-file serial in
/// deterministic event order.
struct Run<'a> {
    target: &'a mut dyn Target,
    workload: &'a Workload,
    config: &'a EngineConfig,
    pacing: Pacing,
    sets: &'a mut [Vec<LiveFile>],
    zipfs: Vec<Zipf>,
    /// One RNG stream per worker, indexed by process id: adding draws
    /// in one worker never perturbs another.
    rngs: Vec<Rng>,
    program: OpProgram,
    created_serial: u64,
    /// The histogram slot of each worker's in-flight op (at most one
    /// per worker), for per-op stats at completion.
    current_slot: Vec<u32>,
    /// Per-op framework overhead, CPU-jittered once per run.
    think: Nanos,
    start: Nanos,
    cache_before: Option<rb_simcache::page::CacheStats>,
    series: WindowedSeries,
    histogram: Log2Histogram,
    per_op_slots: Vec<Log2Histogram>,
    ops: u64,
    errors: u64,
    consecutive_errors: u64,
    /// Flight-recorder state, present only when observability is on.
    obs: Option<ObsState>,
    /// Fault-outcome ledger, present only when faults are armed.
    ledger: Option<rb_faults::OutcomeLedger>,
    /// Pending crash instant; taken (set to `None`) when it fires.
    crash_at: Option<Nanos>,
}

impl<'a> Run<'a> {
    /// Set-up shared by every pacing. The fault plan installs after the
    /// prewarm, so preallocation and warming are never error-gated.
    fn begin(
        target: &'a mut dyn Target,
        workload: &'a Workload,
        config: &'a EngineConfig,
        sets: &'a mut [Vec<LiveFile>],
        pacing: Pacing,
    ) -> SimResult<Run<'a>> {
        if config.prewarm {
            Engine::prewarm(target, sets)?;
        }
        if let Some(spec) = config.faults {
            target.install_faults(spec, config.seed)?;
        }
        let cache_before = target.cache_stats();
        let think = Engine::effective_op_overhead(workload, config);
        let program = OpProgram::new(workload)?;
        let zipfs = Engine::build_zipfs(sets, workload);
        let run_rng = Rng::new(config.seed).fork("run");
        let (rngs, cores): (Vec<Rng>, u32) = if pacing == Pacing::Serial {
            // Pacing convention 4: the one worker draws from the run
            // stream itself.
            (vec![run_rng], 1)
        } else {
            let rngs = (0..config.processes.max(1))
                .map(|p| run_rng.fork(&format!("proc{p}")))
                .collect();
            // At least one core, as the scheduler's `CoreSet` has.
            (rngs, config.cores.max(1))
        };
        let workers = rngs.len() as u32;
        let start = target.now();
        let obs = ObsState::begin(config, target, think, workers, cores);
        Ok(Run {
            per_op_slots: vec![Log2Histogram::new(); program.labels.len()],
            current_slot: vec![0; workers as usize],
            series: WindowedSeries::new(config.window),
            histogram: Log2Histogram::new(),
            ledger: config.faults.map(|_| rb_faults::OutcomeLedger::default()),
            crash_at: config.faults.and_then(|s| s.crash_at()).map(|d| start + d),
            target,
            workload,
            config,
            pacing,
            sets,
            zipfs,
            rngs,
            program,
            created_serial: 1_000_000,
            think,
            start,
            cache_before,
            ops: 0,
            errors: 0,
            consecutive_errors: 0,
            obs,
        })
    }

    /// The serial pacing: one worker issuing on the target's own clock.
    fn serial(mut self) -> SimResult<Recording> {
        let end = self.start + self.config.duration;
        let mut next_tick = self.start + TICK_EVERY;
        loop {
            let mut now = self.target.now();
            if now >= end {
                break;
            }
            // Catch up on missed cadences: an op longer than the tick
            // interval (a disk-bound whole-file read, say) must not slip
            // the flusher by one period per op.
            while now >= next_tick {
                self.target.background_tick();
                next_tick += TICK_EVERY;
                now = self.target.now();
            }
            if let Some(recovery) = self.crash_due(now)? {
                // Pacing convention 5: the run waits out the recovery.
                self.target.advance(recovery);
                now = self.target.now();
            }
            match self.attempt(0, now) {
                Ok(spent) => {
                    // Pacing convention 1: `unrecorded` is a create's open.
                    let latency = spent.cost.total() - spent.unrecorded;
                    let done = self.target.now();
                    self.complete(0, done, latency, None);
                }
                Err(e) => self.fail(e)?,
            }
            // Every op costs framework time, a failed one too (no spin).
            self.target.advance(self.think);
        }
        let end = self.target.now();
        Ok(self.finish(end, None))
    }

    /// The scheduled pacing: N workers through the scheduler, closed-loop
    /// or serving an open load.
    fn scheduled(mut self) -> SimResult<Recording> {
        let sched = SchedConfig {
            processes: self.rngs.len() as u32,
            cores: self.config.cores,
            start: self.start,
            duration: self.config.duration,
            think: self.think,
        };
        let open = self.config.arrival.is_open().then(|| OpenLoad {
            arrival: self.config.arrival,
            // The arrival stream is its own fork: adding workers never
            // perturbs when requests arrive, and vice versa.
            rng: Rng::new(self.config.seed).fork("arrivals"),
            sample_every: self.config.window,
        });
        let outcome = crate::sched::run(&sched, open, &mut self)?;
        // Hand the target back. The queue-aware service floor is
        // released (post-run surgery issues at the target's own clock),
        // and the clock, which timed ops never move, walks to the final
        // completion — so `duration` matches the serial convention of
        // "first instant at or past the deadline".
        self.target.set_device_floor(Nanos::ZERO);
        self.target.advance(outcome.finished - self.start);
        Ok(self.finish(outcome.finished, outcome.open))
    }

    /// Fires the pending crash once `now` reaches it: the target loses
    /// its dirty pages and replays its recovery plan, and the ledger
    /// records the verdict. Returns the recovery time for the pacing to
    /// charge.
    fn crash_due(&mut self, now: Nanos) -> SimResult<Option<Nanos>> {
        match self.crash_at {
            Some(at) if now >= at => self.crash_at = None,
            _ => return Ok(None),
        }
        let report = self.target.crash_recover(now)?;
        if let Some(l) = &mut self.ledger {
            l.crash = Some(report);
            l.degraded += report.recovery;
        }
        Ok(Some(report.recovery))
    }

    /// One op of `process`, issued at `now`: the weighted pick from the
    /// worker's stream, the execution retried under the policy, and the
    /// ledger's accounting.
    fn attempt(&mut self, process: u32, now: Nanos) -> SimResult<Spent> {
        let (op_idx, op) = self
            .program
            .pick(self.workload, &mut self.rngs[process as usize]);
        self.current_slot[process as usize] = self.program.slot_of_op[op_idx];
        if let Some(l) = &mut self.ledger {
            l.attempted += 1;
        }
        let serial = self.pacing == Pacing::Serial;
        let mut retries = 0u32;
        let mut issue = now;
        loop {
            let mut spent = Spent::default();
            let result = self.execute_timed(process, op, issue, &mut spent);
            if serial {
                // Pacing convention 3: the clock keeps what the attempt
                // spent, whether or not it failed.
                self.target.advance(spent.cost.total());
            }
            match result {
                Ok(()) => {
                    if let Some(l) = &mut self.ledger {
                        if retries > 0 {
                            l.retried_ok += 1;
                            l.retries += retries as u64;
                        } else {
                            l.succeeded += 1;
                        }
                    }
                    if !serial {
                        // Pacing convention 2: a scheduled worker holds
                        // its core through the retry storm, like a thread
                        // spinning in the kernel's resubmit path, so the
                        // scheduler sees one longer op.
                        spent.cost.cpu += issue - now;
                    }
                    return Ok(spent);
                }
                Err(e) if Engine::is_fault_error(&e) && retries < self.config.retry.retries() => {
                    // Deterministic virtual-time backoff, then the op
                    // re-executes in full (fresh draws, same stream — a
                    // redrive, not a replay).
                    retries += 1;
                    let backoff = rb_faults::RetryPolicy::backoff(retries);
                    if let Some(l) = &mut self.ledger {
                        l.degraded += backoff;
                    }
                    if serial {
                        // Pacing convention 2: the backoff moves the clock
                        // and nothing else.
                        self.target.advance(backoff);
                        issue = self.target.now();
                    } else {
                        issue += backoff;
                    }
                }
                Err(e) => {
                    if let Some(l) = &mut self.ledger {
                        l.gave_up += 1;
                        l.retries += retries as u64;
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Executes one flowop at instant `issue` through the target's
    /// `*_at` surface. Multi-step flowops (whole-file reads,
    /// create-then-open) issue each step once the previous step's cost
    /// has elapsed, and every completed step adds its cost to `spent`,
    /// on failure too.
    fn execute_timed(
        &mut self,
        process: u32,
        op: FlowOp,
        issue: Nanos,
        spent: &mut Spent,
    ) -> SimResult<()> {
        let Run {
            target,
            workload,
            sets,
            zipfs,
            rngs,
            created_serial,
            ..
        } = self;
        let rng = &mut rngs[process as usize];
        let theta = workload.zipf_theta;
        let cost = match op {
            FlowOp::ReadRandom { set, iosize } => {
                let f = Engine::pick_file(sets, zipfs, set, theta, rng)?;
                let slots = (f.size.as_u64() / iosize.as_u64().max(1)).max(1);
                let offset = Bytes::new(rng.below(slots) * iosize.as_u64());
                target.read_at(f.fd, offset, iosize, issue)?
            }
            FlowOp::ReadSequential { set, iosize } => {
                let f = Engine::pick_file(sets, zipfs, set, theta, rng)?;
                if f.cursor >= f.size {
                    f.cursor = Bytes::ZERO;
                }
                let off = f.cursor;
                f.cursor += iosize;
                target.read_at(f.fd, off, iosize, issue)?
            }
            FlowOp::ReadWholeFile { set, iosize } => {
                let f = Engine::pick_file(sets, zipfs, set, theta, rng)?;
                let (fd, size) = (f.fd, f.size);
                let mut off = Bytes::ZERO;
                while off < size {
                    spent.cost += target.read_at(fd, off, iosize, issue + spent.cost.total())?;
                    off += iosize;
                }
                return Ok(());
            }
            FlowOp::WriteRandom { set, iosize } => {
                let f = Engine::pick_file(sets, zipfs, set, theta, rng)?;
                let slots = (f.size.as_u64() / iosize.as_u64().max(1)).max(1);
                let offset = Bytes::new(rng.below(slots) * iosize.as_u64());
                target.write_at(f.fd, offset, iosize, issue)?
            }
            FlowOp::Append { set, iosize } => {
                let f = Engine::pick_file(sets, zipfs, set, theta, rng)?;
                let off = f.size;
                f.size += iosize;
                target.write_at(f.fd, off, iosize, issue)?
            }
            FlowOp::CreateFile { set } => {
                let dir = &workload
                    .filesets
                    .get(set)
                    .ok_or_else(|| SimError::BadConfig(format!("no file set {set}")))?
                    .dir;
                let path = Engine::create_path(dir, *created_serial);
                *created_serial += 1;
                let pid = target.prepare_path(&path);
                spent.cost += target.create_at(pid, &path, issue)?;
                let (fd, opened) = target.open_at(pid, &path, issue + spent.cost.total())?;
                spent.cost += opened;
                // Pacing convention 1: the serial pacing leaves the open
                // out of the create's recorded latency.
                spent.unrecorded = opened.total();
                sets[set].push(LiveFile {
                    path,
                    pid,
                    fd,
                    size: Bytes::ZERO,
                    cursor: Bytes::ZERO,
                });
                return Ok(());
            }
            FlowOp::DeleteFile { set } => {
                let live = sets
                    .get_mut(set)
                    .ok_or_else(|| SimError::BadConfig(format!("no file set {set}")))?;
                if live.len() <= 1 {
                    return Err(SimError::NotFound("set nearly empty".into()));
                }
                let idx = rng.below(live.len() as u64) as usize;
                let f = live.swap_remove(idx);
                let _ = target.close(f.fd);
                target.unlink_at(f.pid, &f.path, issue)?
            }
            FlowOp::StatFile { set } => {
                let f = Engine::pick_file(sets, zipfs, set, theta, rng)?;
                target.stat_at(f.pid, &f.path, issue)?
            }
            FlowOp::OpenClose { set } => {
                let f = Engine::pick_file(sets, zipfs, set, theta, rng)?;
                let (fd, opened) = target.open_at(f.pid, &f.path, issue)?;
                spent.cost += opened;
                target.close(fd)?;
                return Ok(());
            }
            FlowOp::Fsync { set } => {
                let fd = Engine::pick_file(sets, zipfs, set, theta, rng)?.fd;
                target.fsync_at(fd, issue)?
            }
        };
        spent.cost += cost;
        Ok(())
    }

    /// Books one op of `process` that completed at `done` after
    /// `latency`. An op completing past the deadline belongs to the next
    /// (unreported) window; recording it would fabricate a nearly-empty
    /// trailing sample. `sched` is a scheduled op's lifecycle, for the
    /// flight recorder's latency decomposition.
    fn complete(&mut self, process: u32, done: Nanos, latency: Nanos, sched: Option<&Completion>) {
        self.consecutive_errors = 0;
        let when = done - self.start;
        if when > self.config.duration {
            return;
        }
        let slot = self.current_slot[process as usize] as usize;
        self.ops += 1;
        self.series.record(when, latency);
        self.histogram.record(latency);
        self.per_op_slots[slot].record(latency);
        if let Some(obs) = &mut self.obs {
            let label = self.program.labels[slot];
            match sched {
                Some(c) => obs.on_sched_op(c, label),
                None => obs.on_serial_op(label, done, latency),
            }
            obs.maybe_sample(when, self.target);
        }
    }

    /// Books one failed op. Fault-class errors under a tolerant retry
    /// policy are accounted outcomes (the ledger's `gave_up`), not steps
    /// toward the consecutive-failure abort.
    fn fail(&mut self, error: SimError) -> SimResult<()> {
        self.errors += 1;
        if self.config.retry != rb_faults::RetryPolicy::None && Engine::is_fault_error(&error) {
            self.consecutive_errors = 0;
            return Ok(());
        }
        self.consecutive_errors += 1;
        if self.consecutive_errors >= self.config.max_errors {
            return Err(SimError::InvalidOperation(format!(
                "aborting: {} consecutive op failures",
                self.consecutive_errors
            )));
        }
        Ok(())
    }

    /// Assembles the [`Recording`] of a run whose clock stands at `end`;
    /// `open` is the scheduler's open-load outcome, when the run had one.
    fn finish(self, end: Nanos, open: Option<OpenOutcome>) -> Recording {
        let Run {
            target,
            config,
            program,
            start,
            cache_before,
            series,
            histogram,
            per_op_slots,
            ops,
            errors,
            obs,
            mut ledger,
            ..
        } = self;
        let open_loop = open.map(|o| OpenLoopReport {
            arrival: config.arrival,
            offered: o.offered,
            completed: o.completed,
            failed: o.failed,
            dropped: o.dropped,
            p50: histogram.quantile(0.5),
            p99: histogram.quantile(0.99),
            p999: histogram.quantile(0.999),
            max_queue_depth: o.max_queue_depth,
            depth_timeline: o.depth_timeline,
        });
        if let Some(l) = &mut ledger {
            if let Some(o) = &open_loop {
                // Queue-rejected requests never reached the target: they
                // enter the ledger as attempted-and-dropped, keeping the
                // conservation identity over the *offered* load.
                l.attempted += o.dropped;
                l.dropped += o.dropped;
            }
            if let Some(fs) = target.fault_stats() {
                l.degraded += fs.slow_extra + fs.stall_extra;
            }
        }
        let hit_ratio = Engine::hit_ratio_delta(cache_before, target);
        let (mut metrics, trace) = match obs {
            Some(o) => o.finish(target, end - start),
            None => (None, None),
        };
        Engine::patch_fault_metrics(&mut metrics, &ledger);
        Recording {
            windows: series.finish(),
            histogram,
            per_op: Engine::fold_per_op(&program, per_op_slots),
            ops,
            errors,
            duration: end - start,
            hit_ratio,
            open_loop,
            metrics,
            trace,
            ledger,
        }
    }
}

impl SchedDriver for Run<'_> {
    fn exec(&mut self, process: u32, now: Nanos) -> SimResult<OpCost> {
        let recovery = self.crash_due(now)?;
        let mut cost = self.attempt(process, now)?.cost;
        if let Some(recovery) = recovery {
            // Pacing convention 5: the first issue past the crash
            // instant pays for recovery. Its device charge carries the
            // replay I/O, so every later op queues behind the recovering
            // device, as processes stall behind a remounting file system.
            cost.device += recovery;
        }
        Ok(cost)
    }

    fn tick(&mut self, start: Nanos) -> Nanos {
        self.target.tick_at(start)
    }

    fn on_complete(&mut self, completion: &Completion) -> SimResult<()> {
        let latency = completion.completed - completion.arrived;
        self.complete(
            completion.process,
            completion.completed,
            latency,
            Some(completion),
        );
        Ok(())
    }

    fn on_error(&mut self, _process: u32, _now: Nanos, error: SimError) -> SimResult<()> {
        self.fail(error)
    }

    fn set_device_floor(&mut self, floor: Nanos) {
        self.target.set_device_floor(floor);
    }
}

/// Ready-made workload personalities.
pub mod personalities {
    use super::*;

    /// The paper's Section 3 workload: one thread randomly reading from a
    /// single file of the given size, 8 KiB at a time.
    pub fn random_read(file_size: Bytes) -> Workload {
        Workload {
            name: format!("randomread-{file_size}"),
            filesets: vec![FileSet {
                dir: "/set0".into(),
                count: 1,
                size: Dist::Constant(file_size.as_u64() as f64),
                prealloc: true,
            }],
            ops: vec![(
                FlowOp::ReadRandom {
                    set: 0,
                    iosize: Bytes::kib(8),
                },
                1,
            )],
            op_overhead: Nanos::from_micros(99),
            zipf_theta: 0.0,
        }
    }

    /// Sequential whole-file streaming of a single file.
    pub fn sequential_read(file_size: Bytes) -> Workload {
        Workload {
            name: format!("seqread-{file_size}"),
            filesets: vec![FileSet {
                dir: "/set0".into(),
                count: 1,
                size: Dist::Constant(file_size.as_u64() as f64),
                prealloc: true,
            }],
            ops: vec![(
                FlowOp::ReadSequential {
                    set: 0,
                    iosize: Bytes::kib(64),
                },
                1,
            )],
            op_overhead: Nanos::from_micros(99),
            zipf_theta: 0.0,
        }
    }

    /// Random 8 KiB overwrites of a single preallocated file.
    pub fn random_write(file_size: Bytes) -> Workload {
        Workload {
            name: format!("randomwrite-{file_size}"),
            filesets: vec![FileSet {
                dir: "/set0".into(),
                count: 1,
                size: Dist::Constant(file_size.as_u64() as f64),
                prealloc: true,
            }],
            ops: vec![(
                FlowOp::WriteRandom {
                    set: 0,
                    iosize: Bytes::kib(8),
                },
                1,
            )],
            op_overhead: Nanos::from_micros(99),
            zipf_theta: 0.0,
        }
    }

    /// Web server: Zipf-popular whole-file reads of many small files plus
    /// a log append (Filebench webserver shape).
    pub fn webserver(nfiles: u64) -> Workload {
        Workload {
            name: "webserver".into(),
            filesets: vec![
                FileSet {
                    dir: "/htdocs".into(),
                    count: nfiles,
                    size: Dist::Pareto {
                        lo: 2048.0,
                        hi: 262_144.0,
                        alpha: 1.2,
                    },
                    prealloc: true,
                },
                FileSet {
                    dir: "/logs".into(),
                    count: 1,
                    size: Dist::Constant(0.0),
                    prealloc: false,
                },
            ],
            ops: vec![
                (
                    FlowOp::ReadWholeFile {
                        set: 0,
                        iosize: Bytes::kib(16),
                    },
                    10,
                ),
                (
                    FlowOp::Append {
                        set: 1,
                        iosize: Bytes::kib(8),
                    },
                    1,
                ),
            ],
            op_overhead: Nanos::from_micros(50),
            zipf_theta: 0.99,
        }
    }

    /// File server: create/write/read/delete/stat mix over a directory
    /// tree (Filebench fileserver shape).
    pub fn fileserver(nfiles: u64) -> Workload {
        Workload {
            name: "fileserver".into(),
            filesets: vec![FileSet {
                dir: "/share".into(),
                count: nfiles,
                size: Dist::LogNormal {
                    median: 65_536.0,
                    sigma: 1.0,
                },
                prealloc: true,
            }],
            ops: vec![
                (FlowOp::CreateFile { set: 0 }, 1),
                (
                    FlowOp::Append {
                        set: 0,
                        iosize: Bytes::kib(16),
                    },
                    2,
                ),
                (
                    FlowOp::ReadWholeFile {
                        set: 0,
                        iosize: Bytes::kib(64),
                    },
                    3,
                ),
                (FlowOp::StatFile { set: 0 }, 2),
                (FlowOp::DeleteFile { set: 0 }, 1),
                (FlowOp::OpenClose { set: 0 }, 1),
            ],
            op_overhead: Nanos::from_micros(60),
            zipf_theta: 0.0,
        }
    }

    /// Varmail: create, append, fsync, read, delete — the mail-spool
    /// pattern whose fsyncs expose journaling costs.
    pub fn varmail(nfiles: u64) -> Workload {
        Workload {
            name: "varmail".into(),
            filesets: vec![FileSet {
                dir: "/mail".into(),
                count: nfiles,
                size: Dist::LogNormal {
                    median: 8_192.0,
                    sigma: 0.7,
                },
                prealloc: true,
            }],
            ops: vec![
                (FlowOp::CreateFile { set: 0 }, 2),
                (
                    FlowOp::Append {
                        set: 0,
                        iosize: Bytes::kib(8),
                    },
                    3,
                ),
                (FlowOp::Fsync { set: 0 }, 3),
                (
                    FlowOp::ReadWholeFile {
                        set: 0,
                        iosize: Bytes::kib(8),
                    },
                    3,
                ),
                (FlowOp::DeleteFile { set: 0 }, 2),
            ],
            op_overhead: Nanos::from_micros(60),
            zipf_theta: 0.0,
        }
    }

    /// Postmark-like small-file churn: the 1997 benchmark's transaction
    /// mix of creates, deletes, reads and appends.
    pub fn postmark(nfiles: u64) -> Workload {
        Workload {
            name: "postmark".into(),
            filesets: vec![FileSet {
                dir: "/pm".into(),
                count: nfiles,
                size: Dist::Uniform {
                    lo: 512.0,
                    hi: 16_384.0,
                },
                prealloc: true,
            }],
            ops: vec![
                (FlowOp::CreateFile { set: 0 }, 1),
                (FlowOp::DeleteFile { set: 0 }, 1),
                (
                    FlowOp::ReadWholeFile {
                        set: 0,
                        iosize: Bytes::kib(8),
                    },
                    2,
                ),
                (
                    FlowOp::Append {
                        set: 0,
                        iosize: Bytes::kib(8),
                    },
                    2,
                ),
            ],
            op_overhead: Nanos::from_micros(40),
            zipf_theta: 0.0,
        }
    }

    /// Pure metadata churn: create/stat/delete, no data I/O — the
    /// isolation workload for the meta-data dimension.
    pub fn metadata_only(nfiles: u64) -> Workload {
        Workload {
            name: "metadata".into(),
            filesets: vec![FileSet {
                dir: "/meta".into(),
                count: nfiles,
                size: Dist::Constant(0.0),
                prealloc: false,
            }],
            ops: vec![
                (FlowOp::CreateFile { set: 0 }, 2),
                (FlowOp::StatFile { set: 0 }, 3),
                (FlowOp::OpenClose { set: 0 }, 2),
                (FlowOp::DeleteFile { set: 0 }, 2),
            ],
            op_overhead: Nanos::from_micros(30),
            zipf_theta: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed;

    fn quick_cfg(secs: u64, seed: u64) -> EngineConfig {
        EngineConfig {
            duration: Nanos::from_secs(secs),
            window: Nanos::from_secs(1),
            seed,
            cold_start: true,
            prewarm: false,
            cpu_jitter_sigma: 0.0,
            max_errors: 50,
            processes: 1,
            cores: 4,
            arrival: Arrival::Closed,
            obs: rb_obs::ObsConfig::default(),
            faults: None,
            retry: rb_faults::RetryPolicy::None,
        }
    }

    #[test]
    fn open_loop_run_reports_the_ledger() {
        let mut t = testbed::paper_ext2(Bytes::gib(1), 0);
        let w = personalities::random_read(Bytes::mib(16));
        let mut cfg = quick_cfg(3, 1);
        cfg.prewarm = true;
        cfg.arrival = Arrival::Poisson { rate: 2_000 };
        let rec = Engine::run(&mut t, &w, &cfg).unwrap();
        let open = rec.open_loop.expect("open-loop report");
        assert!(open.offered > 0);
        assert_eq!(
            open.offered,
            open.completed + open.failed + open.dropped,
            "ledger does not sum"
        );
        assert!(open.p50.is_some() && open.p99.is_some() && open.p999.is_some());
        assert!(open.p50 <= open.p99 && open.p99 <= open.p999);
        assert!(!open.depth_timeline.is_empty());
    }

    #[test]
    fn closed_loop_recording_has_no_open_report() {
        let mut t = testbed::paper_ext2(Bytes::gib(1), 0);
        let w = personalities::random_read(Bytes::mib(8));
        let rec = Engine::run(&mut t, &w, &quick_cfg(2, 0)).unwrap();
        assert!(rec.open_loop.is_none());
    }

    #[test]
    fn random_read_runs_and_records() {
        let mut t = testbed::paper_ext2(Bytes::gib(1), 0);
        let w = personalities::random_read(Bytes::mib(16));
        let rec = Engine::run(&mut t, &w, &quick_cfg(5, 1)).unwrap();
        assert!(rec.ops > 1000, "only {} ops", rec.ops);
        assert_eq!(rec.errors, 0);
        assert_eq!(rec.histogram.total(), rec.ops);
        assert!(!rec.windows.is_empty());
        assert!(rec.ops_per_sec() > 100.0);
        assert!(rec.per_op.contains_key("read-rand"));
    }

    #[test]
    fn engine_is_deterministic() {
        let run = || {
            let mut t = testbed::paper_ext2(Bytes::gib(1), 7);
            let w = personalities::random_read(Bytes::mib(8));
            let rec = Engine::run(&mut t, &w, &quick_cfg(3, 7)).unwrap();
            (rec.ops, rec.histogram.clone())
        };
        let (a_ops, a_hist) = run();
        let (b_ops, b_hist) = run();
        assert_eq!(a_ops, b_ops);
        assert_eq!(a_hist, b_hist);
    }

    #[test]
    fn in_memory_throughput_near_plateau() {
        // A 16 MiB file fits the cache: throughput is governed by the
        // 99 us op overhead + ~4.3 us read: ~9.7 kops/s.
        let mut t = testbed::paper_ext2(Bytes::gib(1), 0);
        let w = personalities::random_read(Bytes::mib(16));
        let mut cfg = quick_cfg(30, 2);
        cfg.prewarm = true;
        let rec = Engine::run(&mut t, &w, &cfg).unwrap();
        let tail = rec.tail_ops_per_sec(5).unwrap();
        assert!(
            (9_000.0..10_500.0).contains(&tail),
            "plateau {tail} ops/s out of range"
        );
    }

    #[test]
    fn sequential_read_engages_readahead() {
        let mut t = testbed::paper_ext2(Bytes::gib(1), 0);
        let w = personalities::sequential_read(Bytes::mib(64));
        let rec = Engine::run(&mut t, &w, &quick_cfg(10, 3)).unwrap();
        assert!(rec.ops > 500);
        let stats = t.stack().cache().stats();
        assert!(stats.prefetched > 0, "readahead never fired");
        assert!(stats.prefetch_accuracy() > 0.5);
    }

    #[test]
    fn churn_personalities_survive() {
        for w in [
            personalities::fileserver(50),
            personalities::varmail(50),
            personalities::postmark(50),
            personalities::metadata_only(50),
        ] {
            let mut t = testbed::paper_ext2(Bytes::gib(1), 0);
            let rec = Engine::run(&mut t, &w, &quick_cfg(5, 4)).unwrap();
            assert!(rec.ops > 100, "{}: only {} ops", w.name, rec.ops);
            // Occasional errors (empty set moments) are fine; collapse is not.
            assert!(
                rec.errors < rec.ops / 10,
                "{}: {} errors vs {} ops",
                w.name,
                rec.errors,
                rec.ops
            );
        }
    }

    #[test]
    fn webserver_zipf_skews_popularity() {
        let mut t = testbed::paper_ext2(Bytes::gib(1), 0);
        let w = personalities::webserver(200);
        let rec = Engine::run(&mut t, &w, &quick_cfg(5, 5)).unwrap();
        assert!(rec.ops > 50);
        // Zipf + cache: popular files hit, so hit ratio is high despite
        // the set being larger than a cold scan would keep.
        assert!(rec.hit_ratio.unwrap() > 0.5);
    }

    #[test]
    fn background_writeback_bounds_dirty_pages() {
        // A pure-write workload, no fsync: only the 5 s background tick
        // (plus eviction pressure) cleans pages. Dirty pages must stay
        // bounded near the writeback ratio rather than growing without
        // limit until eviction.
        let mut t = testbed::paper_ext2(Bytes::gib(1), 0);
        let w = personalities::random_write(Bytes::mib(128));
        let mut cfg = quick_cfg(40, 6);
        cfg.window = Nanos::from_secs(5);
        let rec = Engine::run(&mut t, &w, &cfg).unwrap();
        assert!(rec.ops > 10_000);
        // Writeback reached the media *during* the run (not only at the
        // end): the periodic ticks really fired.
        assert!(t.stack().disk_stats().writes > 1000);
        // Right after a tick, dirty pages sit at/under the dirty ratio
        // (20 % of capacity). In between ticks the workload re-dirties
        // freely, exactly like a real system between flusher wakeups.
        t.background_tick();
        let dirty = t.stack().cache().dirty_pages();
        let capacity = t.stack().cache().capacity_pages();
        assert!(
            dirty <= capacity / 5,
            "flusher missed its goal: {dirty} dirty of {capacity}"
        );
    }

    #[test]
    fn flight_recorder_off_by_default() {
        let mut t = testbed::paper_ext2(Bytes::gib(1), 0);
        let w = personalities::random_read(Bytes::mib(8));
        let rec = Engine::run(&mut t, &w, &quick_cfg(2, 0)).unwrap();
        assert!(rec.metrics.is_none());
        assert!(rec.trace.is_none());
    }

    #[test]
    fn flight_recorder_explains_scheduled_runs() {
        let mut t = testbed::paper_ext2(Bytes::gib(1), 0);
        let w = personalities::fileserver(50);
        let mut cfg = quick_cfg(3, 9);
        cfg.processes = 4;
        cfg.obs.metrics = true;
        cfg.obs.trace = Some(rb_obs::TraceConfig { sample_every: 1 });
        let rec = Engine::run(&mut t, &w, &cfg).unwrap();
        let m = rec.metrics.expect("metrics snapshot");
        assert_eq!(m.sched.completed, rec.ops);
        assert!(m.sched.decomposed());
        assert_eq!(
            m.sched.parts_total(),
            m.sched.latency,
            "decomposition must partition latency exactly"
        );
        assert!(m.hit_ratio().is_some());
        assert!(m.device_busy_frac().is_some());
        assert_eq!(m.sched.core_busy.len(), cfg.cores as usize);
        let report = m.render_explain();
        assert!(report.contains("exact match"), "{report}");
        let trace = rec.trace.expect("span trace");
        assert_eq!(trace.seen, rec.ops);
        trace.validate_nesting().expect("well-nested trace");
    }

    /// `cores: 0` runs on one core, as the scheduler clamps it, with the
    /// flight recorder on or off: both record the same ops and windows,
    /// and the snapshot reports the one core.
    #[test]
    fn zero_cores_run_on_one_with_metrics_on() {
        let w = personalities::fileserver(50);
        let mut cfg = quick_cfg(2, 9);
        cfg.processes = 2;
        cfg.cores = 0;
        let blind = Engine::run(&mut testbed::paper_ext2(Bytes::gib(1), 0), &w, &cfg).unwrap();
        cfg.obs.metrics = true;
        let rec = Engine::run(&mut testbed::paper_ext2(Bytes::gib(1), 0), &w, &cfg).unwrap();
        assert!(rec.ops > 0);
        assert_eq!(rec.ops, blind.ops);
        assert_eq!(rec.windows, blind.windows);
        let m = rec.metrics.expect("metrics snapshot");
        assert_eq!(m.sched.cores, 1);
        assert_eq!(m.sched.core_busy.len(), 1);
        assert_eq!(m.sched.completed, rec.ops);
    }

    #[test]
    fn flight_recorder_serial_runs_record_flat_spans() {
        let mut t = testbed::paper_ext2(Bytes::gib(1), 0);
        let w = personalities::random_read(Bytes::mib(8));
        let mut cfg = quick_cfg(2, 3);
        cfg.obs.metrics = true;
        cfg.obs.trace = Some(rb_obs::TraceConfig { sample_every: 4 });
        let rec = Engine::run(&mut t, &w, &cfg).unwrap();
        let m = rec.metrics.expect("metrics snapshot");
        assert!(!m.sched.decomposed(), "serial runs have no decomposition");
        assert_eq!(m.sched.completed, rec.ops);
        assert!(m.render_explain().contains("serial engine"));
        assert!(!m.timeline.points().is_empty(), "gauge timeline sampled");
        let trace = rec.trace.expect("span trace");
        assert_eq!(trace.seen, rec.ops);
        assert_eq!(trace.sampled, rec.ops.div_ceil(4));
        trace.validate_nesting().expect("well-nested trace");
    }

    #[test]
    fn flight_recorder_does_not_perturb_the_run() {
        let run = |obs: rb_obs::ObsConfig| {
            let mut t = testbed::paper_ext2(Bytes::gib(1), 7);
            let w = personalities::fileserver(50);
            let mut cfg = quick_cfg(3, 7);
            cfg.processes = 2;
            cfg.obs = obs;
            let rec = Engine::run(&mut t, &w, &cfg).unwrap();
            (rec.ops, rec.errors, rec.histogram.clone())
        };
        let off = run(rb_obs::ObsConfig::default());
        let on = run(rb_obs::ObsConfig {
            metrics: true,
            trace: Some(rb_obs::TraceConfig { sample_every: 1 }),
        });
        assert_eq!(off, on, "observer effect: recorder changed the run");
    }

    #[test]
    fn empty_ops_rejected() {
        let mut t = testbed::paper_ext2(Bytes::gib(1), 0);
        let w = Workload {
            name: "empty".into(),
            filesets: vec![],
            ops: vec![],
            op_overhead: Nanos::ZERO,
            zipf_theta: 0.0,
        };
        assert!(Engine::run(&mut t, &w, &quick_cfg(1, 0)).is_err());
    }
}
