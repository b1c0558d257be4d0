//! Saturation curves over the process-count axis (the paper's fifth
//! dimension), measured on the real engine.
//!
//! "Finally, we may be interested in studying a file system's ability to
//! scale with increasing load." Until the concurrency refactor this
//! module *simulated the simulation*: a hardcoded sidecar with one
//! file, uniform 8 KiB reads and its own private cache-and-disk
//! plumbing. It now drives the actual pipeline — any
//! [`Personality`], any
//! [`FsKind`], any cache capacity and replacement policy — through
//! [`Engine::run`] with [`EngineConfig::processes`] swept along the
//! curve, so the contention it reports is the same contention every
//! other experiment in the harness sees:
//!
//! * CPU phases (framework overhead, syscall entry, memory copies) run
//!   in parallel up to the core count, then queue;
//! * media phases serialize on the shared device, behind demand I/O
//!   *and* background writeback.
//!
//! A memory-bound workload therefore scales to the core count and then
//! flattens; a disk-bound workload barely scales at all — the
//! saturation curve *is* the scaling dimension's result, and no single
//! number summarizes it.

use crate::campaign::{working_set, Personality};
use crate::testbed::{FsKind, Testbed};
use crate::workload::{Engine, EngineConfig};
use rb_simcache::policy::PolicyKind;
use rb_simcore::error::SimResult;
use rb_simcore::time::Nanos;
use rb_simcore::units::Bytes;
use rb_stats::histogram::Log2Histogram;

/// Scaling experiment configuration.
#[derive(Debug, Clone)]
pub struct ScalingConfig {
    /// Process counts to sweep, in curve order.
    pub processes: Vec<u32>,
    /// CPU cores available to them.
    pub cores: u32,
    /// Workload personality each point runs.
    pub personality: Personality,
    /// File size (size-driven personalities).
    pub file_size: Bytes,
    /// File count (fileset personalities).
    pub files: u64,
    /// Page-cache capacity.
    pub cache: Bytes,
    /// Cache replacement policy.
    pub policy: PolicyKind,
    /// Virtual duration per point.
    pub duration: Nanos,
    /// Seed.
    pub seed: u64,
}

impl ScalingConfig {
    /// Memory-bound preset: random 8 KiB reads of a file the cache
    /// holds entirely.
    pub fn memory_bound() -> Self {
        ScalingConfig {
            processes: vec![1, 2, 4, 8, 16],
            cores: 4,
            personality: Personality::RandomRead,
            file_size: Bytes::mib(64),
            files: 0,
            cache: Bytes::mib(410),
            policy: PolicyKind::Lru,
            duration: Nanos::from_secs(20),
            seed: 0,
        }
    }

    /// Disk-bound preset: the cache is crushed, every read queues on
    /// the spindle.
    pub fn disk_bound() -> Self {
        ScalingConfig {
            processes: vec![1, 2, 4, 8, 16],
            cores: 4,
            personality: Personality::RandomRead,
            file_size: Bytes::mib(256),
            files: 0,
            cache: Bytes::mib(8),
            policy: PolicyKind::Lru,
            duration: Nanos::from_secs(60),
            seed: 0,
        }
    }

    /// The same configuration under a different personality, with a
    /// fileset size for the fileset-driven ones.
    pub fn with_personality(mut self, personality: Personality, files: u64) -> Self {
        self.personality = personality;
        self.files = files;
        self
    }
}

/// One point of the saturation curve.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// Concurrent processes.
    pub processes: u32,
    /// Aggregate throughput.
    pub ops_per_sec: f64,
    /// Speedup relative to one process.
    pub speedup: f64,
}

/// The full curve plus per-point latency histograms.
#[derive(Debug, Clone)]
pub struct ScalingCurve {
    /// Points in process order.
    pub points: Vec<ScalingPoint>,
    /// Latency histogram per point (queueing delays included).
    pub histograms: Vec<Log2Histogram>,
}

impl ScalingCurve {
    /// The knee: the smallest process count achieving ≥ 90 % of the
    /// maximum throughput.
    pub fn knee(&self) -> Option<u32> {
        let max = self
            .points
            .iter()
            .map(|p| p.ops_per_sec)
            .fold(0.0f64, f64::max);
        self.points
            .iter()
            .find(|p| p.ops_per_sec >= 0.9 * max)
            .map(|p| p.processes)
    }
}

/// Runs the process-scaling sweep on the given file system kind: one
/// engine run per point, each on a fresh identically-formatted testbed
/// with a cold cache and a sequential prewarm, all sharing the
/// configured personality, cache capacity and policy.
///
/// Every point is a pure function of (kind, config): per-point targets
/// are rebuilt from the same seed, and the multi-process interleaving
/// is the scheduler's deterministic merge — so curves are byte-stable
/// across hosts and repetitions.
pub fn thread_scaling(kind: FsKind, config: &ScalingConfig) -> SimResult<ScalingCurve> {
    let workload = config.personality.workload(config.file_size, config.files);
    let footprint = working_set(&workload, config.file_size);
    let device = Bytes::new(footprint.as_u64().saturating_mul(4)).max(Bytes::gib(1));
    let mut points = Vec::new();
    let mut histograms = Vec::new();
    let mut base: Option<f64> = None;
    for &n in &config.processes {
        // Fresh substrates per point: identical layout, cold cache.
        let mut testbed = Testbed::paper(kind, device, config.seed);
        testbed.cache = config.cache;
        testbed.policy = config.policy;
        let mut target = testbed.build();
        let engine_cfg = EngineConfig {
            duration: config.duration,
            window: Nanos::from_secs(5),
            seed: config.seed,
            prewarm: true,
            cpu_jitter_sigma: 0.0,
            processes: n,
            cores: config.cores,
            ..EngineConfig::default()
        };
        let rec = Engine::run(&mut target, &workload, &engine_cfg)?;
        let ops_per_sec = rec.ops_per_sec();
        let speedup = match base {
            Some(b) if b > 0.0 => ops_per_sec / b,
            _ => {
                base = Some(ops_per_sec);
                1.0
            }
        };
        points.push(ScalingPoint {
            processes: n,
            ops_per_sec,
            speedup,
        });
        histograms.push(rec.histogram);
    }
    Ok(ScalingCurve { points, histograms })
}

/// Renders the saturation curve.
pub fn render_curve(label: &str, curve: &ScalingCurve) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "Process scaling: {label}");
    let _ = writeln!(out, "{:>8} {:>12} {:>9}", "procs", "ops/sec", "speedup");
    for p in &curve.points {
        let _ = writeln!(
            out,
            "{:>8} {:>12.0} {:>8.2}x",
            p.processes, p.ops_per_sec, p.speedup
        );
    }
    if let Some(knee) = curve.knee() {
        let _ = writeln!(out, "saturates at ~{knee} processes");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(mut c: ScalingConfig) -> ScalingConfig {
        c.duration = Nanos::from_secs(5);
        c.processes = vec![1, 2, 4, 8];
        c
    }

    #[test]
    fn memory_bound_scales_to_cores() {
        let cfg = quick(ScalingConfig::memory_bound());
        let curve = thread_scaling(FsKind::Ext2, &cfg).unwrap();
        let by_procs: std::collections::HashMap<u32, f64> = curve
            .points
            .iter()
            .map(|p| (p.processes, p.speedup))
            .collect();
        // Near-linear to the core count...
        assert!(by_procs[&2] > 1.7, "2 procs: {}", by_procs[&2]);
        assert!(by_procs[&4] > 3.2, "4 procs: {}", by_procs[&4]);
        // ...then flat: 8 processes on 4 cores buy little.
        assert!(
            by_procs[&8] < by_procs[&4] * 1.2,
            "8 procs kept scaling past the cores: {} vs {}",
            by_procs[&8],
            by_procs[&4]
        );
    }

    #[test]
    fn disk_bound_does_not_scale() {
        let cfg = quick(ScalingConfig::disk_bound());
        let curve = thread_scaling(FsKind::Ext2, &cfg).unwrap();
        let last = curve.points.last().unwrap();
        assert!(
            last.speedup < 1.5,
            "disk-bound workload scaled {}x with processes?!",
            last.speedup
        );
    }

    #[test]
    fn queueing_shows_in_latency() {
        // Disk-bound with more processes: same throughput, worse latency.
        let cfg = quick(ScalingConfig::disk_bound());
        let curve = thread_scaling(FsKind::Ext2, &cfg).unwrap();
        let p1 = curve.histograms.first().unwrap().quantile(0.5).unwrap();
        let p8 = curve.histograms.last().unwrap().quantile(0.5).unwrap();
        assert!(
            p8 > p1 * 2,
            "queueing delay invisible: median {p1} at 1 process vs {p8} at 8"
        );
    }

    #[test]
    fn knee_detection() {
        let cfg = quick(ScalingConfig::memory_bound());
        let curve = thread_scaling(FsKind::Ext2, &cfg).unwrap();
        let knee = curve.knee().unwrap();
        assert!(
            (4..=8).contains(&knee),
            "knee at {knee}, expected near the 4-core limit"
        );
    }

    #[test]
    fn curves_are_deterministic() {
        let mut cfg = quick(ScalingConfig::memory_bound());
        cfg.duration = Nanos::from_secs(2);
        cfg.processes = vec![1, 4];
        let run = || {
            thread_scaling(FsKind::Xfs, &cfg)
                .unwrap()
                .points
                .iter()
                .map(|p| (p.processes, p.ops_per_sec.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn personalities_and_policies_sweep() {
        // The curve machinery accepts any personality, fs and cache
        // policy — a churn workload under CLOCK on xfs completes and
        // produces positive throughput at every point.
        let mut cfg =
            quick(ScalingConfig::memory_bound()).with_personality(Personality::Fileserver, 30);
        cfg.duration = Nanos::from_secs(2);
        cfg.processes = vec![1, 4];
        cfg.policy = PolicyKind::Clock;
        let curve = thread_scaling(FsKind::Xfs, &cfg).unwrap();
        assert_eq!(curve.points.len(), 2);
        assert!(curve.points.iter().all(|p| p.ops_per_sec > 0.0));
    }

    #[test]
    fn render_lists_all_points() {
        let cfg = quick(ScalingConfig::memory_bound());
        let curve = thread_scaling(FsKind::Ext2, &cfg).unwrap();
        let s = render_curve("test", &curve);
        assert!(s.contains("procs"));
        assert!(s.lines().count() >= curve.points.len() + 2);
    }
}
