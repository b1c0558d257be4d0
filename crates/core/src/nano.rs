//! The nano-benchmark suite (paper Section 4's proposal).
//!
//! "We believe that a file system benchmark should be a suite of
//! nano-benchmarks where each individual test measures a particular
//! aspect of file system performance and measures it well … at a
//! minimum, an encompassing benchmark should include in-memory, disk
//! layout, cache warm-up/eviction, and meta-data operations performance
//! evaluation components."
//!
//! This module is that suite. Each component pins down one dimension by
//! construction (cache forced tiny to expose the disk, cache pre-warmed
//! to expose memory, zero-byte files to expose metadata), and the report
//! presents the results side by side — a multi-dimensional answer
//! instead of a single number.

use crate::analysis::WarmupReport;
use crate::dimensions::Dimension;
use crate::runner::{repeat, Protocol, Verdict};
use crate::target::{SimTarget, Target};
use crate::testbed::{self, FsKind};
use crate::workload::{personalities, Engine, EngineConfig};
use rb_simcore::error::SimResult;
use rb_simcore::rng::Rng;
use rb_simcore::time::Nanos;
use rb_simcore::units::{Bytes, PAGE_SIZE};
use rb_stats::bootstrap::{bootstrap_mean_ci, Interval};
use rb_stats::summary::Summary;
use std::fmt::Write as _;

/// Suite configuration.
#[derive(Debug, Clone)]
pub struct NanoConfig {
    /// Device size for the testbed.
    pub device: Bytes,
    /// Seed.
    pub seed: u64,
    /// Per-component measured duration.
    pub duration: Nanos,
    /// Working file size for layout/caching components.
    pub working_file: Bytes,
}

impl Default for NanoConfig {
    fn default() -> Self {
        NanoConfig {
            device: Bytes::gib(2),
            seed: 0,
            duration: Nanos::from_secs(60),
            working_file: Bytes::mib(256),
        }
    }
}

impl NanoConfig {
    /// Fast variant for tests.
    pub fn quick() -> Self {
        NanoConfig {
            device: Bytes::gib(1),
            seed: 0,
            duration: Nanos::from_secs(15),
            working_file: Bytes::mib(96),
        }
    }
}

/// One metric produced by a component.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, e.g. `"throughput"`.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit, e.g. `"ops/s"`.
    pub unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// One nano-benchmark's result.
#[derive(Debug, Clone)]
pub struct NanoResult {
    /// Component name.
    pub component: &'static str,
    /// The dimension this component isolates.
    pub dimension: Dimension,
    /// Measured metrics.
    pub metrics: Vec<Metric>,
}

impl NanoResult {
    /// Looks up a metric value by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The full suite's report for one file system.
#[derive(Debug, Clone)]
pub struct NanoReport {
    /// System under test.
    pub target: String,
    /// Component results, in suite order.
    pub results: Vec<NanoResult>,
}

impl NanoReport {
    /// Looks up a component result.
    pub fn component(&self, name: &str) -> Option<&NanoResult> {
        self.results.iter().find(|r| r.component == name)
    }
}

fn fresh(fs: FsKind, config: &NanoConfig) -> SimTarget {
    testbed::paper_fs(fs, config.device, config.seed)
}

/// In-memory read path: file warmed into cache, then random reads.
/// Isolates the memory/CPU dimension (the paper's in-memory component).
fn in_memory_read(fs: FsKind, config: &NanoConfig) -> SimResult<NanoResult> {
    let mut t = fresh(fs, config);
    let size = Bytes::mib(32).min(config.working_file);
    let w = personalities::random_read(size);
    let cfg = EngineConfig {
        duration: config.duration,
        window: Nanos::from_secs(5),
        seed: config.seed,
        cold_start: false,
        prewarm: true,
        ..EngineConfig::default()
    };
    let rec = Engine::run(&mut t, &w, &cfg)?;
    let p50 = rec
        .histogram
        .quantile(0.5)
        .map(|n| n.as_nanos() as f64)
        .unwrap_or(0.0);
    Ok(NanoResult {
        component: "in-memory-read",
        dimension: Dimension::Caching,
        metrics: vec![
            Metric::new("throughput", rec.ops_per_sec(), "ops/s"),
            Metric::new("latency-p50", p50, "ns"),
            Metric::new("hit-ratio", rec.hit_ratio.unwrap_or(0.0), ""),
        ],
    })
}

/// Sequential layout: cache crushed to 8 MiB so every byte comes off
/// the media in layout order. Isolates the on-disk dimension.
fn disk_layout_sequential(fs: FsKind, config: &NanoConfig) -> SimResult<NanoResult> {
    let mut t = fresh(fs, config);
    t.set_cache_capacity_pages(Bytes::mib(8).div_ceil(PAGE_SIZE));
    let w = personalities::sequential_read(config.working_file);
    let cfg = EngineConfig {
        duration: config.duration,
        window: Nanos::from_secs(5),
        seed: config.seed,
        ..EngineConfig::default()
    };
    let rec = Engine::run(&mut t, &w, &cfg)?;
    let mib_per_sec = rec.ops_per_sec() * 64.0 / 1024.0; // 64 KiB per op
    let extents = t.stack().fs().avg_file_extents();
    Ok(NanoResult {
        component: "disk-layout-sequential",
        dimension: Dimension::OnDisk,
        metrics: vec![
            Metric::new("bandwidth", mib_per_sec, "MiB/s"),
            Metric::new("file-extents", extents, "extents"),
        ],
    })
}

/// Random layout: same crushed cache, 8 KiB random reads. Isolates raw
/// positioning cost over the file system's block placement.
fn disk_layout_random(fs: FsKind, config: &NanoConfig) -> SimResult<NanoResult> {
    let mut t = fresh(fs, config);
    t.set_cache_capacity_pages(Bytes::mib(8).div_ceil(PAGE_SIZE));
    let w = personalities::random_read(config.working_file);
    let cfg = EngineConfig {
        duration: config.duration,
        window: Nanos::from_secs(5),
        seed: config.seed,
        ..EngineConfig::default()
    };
    let rec = Engine::run(&mut t, &w, &cfg)?;
    let p50 = rec
        .histogram
        .quantile(0.5)
        .map(|n| n.as_nanos() as f64)
        .unwrap_or(0.0);
    Ok(NanoResult {
        component: "disk-layout-random",
        dimension: Dimension::Io,
        metrics: vec![
            Metric::new("throughput", rec.ops_per_sec(), "ops/s"),
            Metric::new("latency-p50", p50, "ns"),
        ],
    })
}

/// Cache warm-up: cold start on a cache-sized file; reports how long
/// the system takes to reach steady state (the Figure 2 measurement).
fn cache_warmup(fs: FsKind, config: &NanoConfig) -> SimResult<NanoResult> {
    let mut t = fresh(fs, config);
    let w = personalities::random_read(config.working_file);
    let cfg = EngineConfig {
        // Warm-up needs more room than the steady components.
        duration: config.duration * 4,
        seed: config.seed,
        ..EngineConfig::default()
    };
    let rec = Engine::run(&mut t, &w, &cfg)?;
    let report = WarmupReport::from_windows(&rec.windows, 5.0);
    Ok(NanoResult {
        component: "cache-warmup",
        dimension: Dimension::Caching,
        metrics: vec![
            Metric::new(
                "warmup-time",
                report.warmup_seconds.unwrap_or(f64::NAN),
                "s",
            ),
            Metric::new("rise-factor", report.rise_factor, "x"),
            Metric::new(
                "steady-throughput",
                rec.tail_ops_per_sec(3).unwrap_or(0.0),
                "ops/s",
            ),
        ],
    })
}

/// Cache eviction: working set at 150 % of cache; steady-state hit
/// ratio exposes the replacement policy's quality (theory for LRU under
/// uniform random: capacity / working set ≈ 0.67).
fn cache_eviction(fs: FsKind, config: &NanoConfig) -> SimResult<NanoResult> {
    let mut t = fresh(fs, config);
    let cache_pages = t.stack().cache().capacity_pages();
    // 150 % of the cache, clamped to 80 % of the device so small
    // testbeds degrade instead of failing with NoSpace.
    let file = Bytes::new(PAGE_SIZE.as_u64() * cache_pages * 3 / 2)
        .min(Bytes::new(config.device.as_u64() * 4 / 5));
    let w = personalities::random_read(file);
    let cfg = EngineConfig {
        duration: config.duration * 2,
        seed: config.seed,
        prewarm: true,
        ..EngineConfig::default()
    };
    let rec = Engine::run(&mut t, &w, &cfg)?;
    let stats = t.stack().cache().stats();
    Ok(NanoResult {
        component: "cache-eviction",
        dimension: Dimension::Caching,
        metrics: vec![
            Metric::new("hit-ratio", rec.hit_ratio.unwrap_or(0.0), ""),
            Metric::new("theoretical-lru", 2.0 / 3.0, ""),
            Metric::new(
                "evictions",
                (stats.evicted_clean + stats.evicted_dirty) as f64,
                "pages",
            ),
        ],
    })
}

/// Metadata operations: create/stat/open/delete on empty files — no
/// data path at all. Isolates the meta-data dimension.
fn metadata_ops(fs: FsKind, config: &NanoConfig) -> SimResult<NanoResult> {
    let mut t = fresh(fs, config);
    let w = personalities::metadata_only(200);
    let cfg = EngineConfig {
        duration: config.duration,
        window: Nanos::from_secs(5),
        seed: config.seed,
        max_errors: 200,
        ..EngineConfig::default()
    };
    let rec = Engine::run(&mut t, &w, &cfg)?;
    let mut metrics = vec![Metric::new("throughput", rec.ops_per_sec(), "ops/s")];
    for (label, name) in [
        ("create", "create-p50"),
        ("stat", "stat-p50"),
        ("delete", "delete-p50"),
    ] {
        if let Some(h) = rec.per_op.get(label) {
            if let Some(q) = h.quantile(0.5) {
                metrics.push(Metric {
                    name,
                    value: q.as_nanos() as f64,
                    unit: "ns",
                });
            }
        }
    }
    Ok(NanoResult {
        component: "metadata-ops",
        dimension: Dimension::Metadata,
        metrics,
    })
}

/// Scaling: a true closed-loop process sweep (shared cache, shared
/// spindle, bounded cores) on a disk-bound working set, run through the
/// real engine. Load beyond the knee queues rather than scales.
fn scaling(fs: FsKind, config: &NanoConfig) -> SimResult<NanoResult> {
    let scaling_cfg = crate::scaling::ScalingConfig {
        processes: vec![1, 2, 4, 8],
        cores: 4,
        personality: crate::campaign::Personality::RandomRead,
        file_size: config.working_file,
        files: 0,
        cache: Bytes::mib(8),
        policy: rb_simcache::policy::PolicyKind::Lru,
        duration: config.duration,
        seed: config.seed,
    };
    let curve = crate::scaling::thread_scaling(fs, &scaling_cfg)?;
    let saturation = curve
        .points
        .iter()
        .map(|p| p.ops_per_sec)
        .fold(0.0f64, f64::max);
    let last = curve.points.last().map(|p| p.speedup).unwrap_or(1.0);
    Ok(NanoResult {
        component: "scaling",
        dimension: Dimension::Scaling,
        metrics: vec![
            Metric::new("saturation", saturation, "ops/s"),
            Metric::new("speedup-8-procs", last, "x"),
            Metric::new("knee", curve.knee().unwrap_or(0) as f64, "procs"),
        ],
    })
}

/// Runs the complete suite against a simulated file system.
pub fn run_suite(fs: FsKind, config: &NanoConfig) -> SimResult<NanoReport> {
    Ok(NanoReport {
        target: format!("sim:{}", fs.name()),
        results: vec![
            in_memory_read(fs, config)?,
            disk_layout_sequential(fs, config)?,
            disk_layout_random(fs, config)?,
            cache_warmup(fs, config)?,
            cache_eviction(fs, config)?,
            metadata_ops(fs, config)?,
            scaling(fs, config)?,
        ],
    })
}

/// One metric aggregated across repeated suite runs.
#[derive(Debug, Clone)]
pub struct NanoMetricSummary {
    /// Component the metric belongs to.
    pub component: &'static str,
    /// Dimension the component isolates.
    pub dimension: Dimension,
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Cross-run summary (mean, RSD, extremes).
    pub summary: Summary,
    /// Bootstrap CI on the mean, when computable.
    pub ci: Option<Interval>,
}

/// The nano suite executed under a repetition [`Protocol`]: every
/// metric reported as a distribution (mean ± CI), never a single
/// number — with an explicit verdict on whether the headline metric
/// converged.
#[derive(Debug, Clone)]
pub struct NanoProtocolReport {
    /// System under test.
    pub target: String,
    /// Protocol the suite ran under.
    pub protocol: Protocol,
    /// Individual suite runs, in run order.
    pub runs: Vec<NanoReport>,
    /// Per-metric cross-run aggregates, in suite order.
    pub metrics: Vec<NanoMetricSummary>,
    /// Verdict from the stopping rule applied to the headline metric.
    pub verdict: Verdict,
}

/// The metric the adaptive stopping rule watches: the in-memory read
/// path's throughput (the suite's most repeatable headline figure).
const HEADLINE: (&str, &str) = ("in-memory-read", "throughput");

/// Runs the suite repeatedly under `protocol` (run `i` uses
/// `config.seed + i`), aggregating every metric across runs. Under
/// [`Protocol::Adaptive`] the stopping rule watches the headline
/// in-memory throughput metric and stops as soon as its bootstrap CI
/// meets the target.
pub fn run_suite_protocol(
    fs: FsKind,
    config: &NanoConfig,
    protocol: &Protocol,
) -> SimResult<NanoProtocolReport> {
    let mut runs: Vec<NanoReport> = Vec::new();
    let (_, verdict) = repeat(protocol, config.seed, "nano-sequential", |_, seed| {
        let report = run_suite(
            fs,
            &NanoConfig {
                seed,
                ..config.clone()
            },
        )?;
        let headline = report
            .component(HEADLINE.0)
            .and_then(|r| r.metric(HEADLINE.1))
            .unwrap_or(0.0);
        runs.push(report);
        Ok((headline, None))
    })?;
    // `repeat` returned its samples, never empty, and each sample
    // pushed one report.
    let first = runs.first().expect("protocol guarantees at least one run");
    let mut metrics = Vec::new();
    for r in &first.results {
        for m in &r.metrics {
            let samples: Vec<f64> = runs
                .iter()
                .filter_map(|run| run.component(r.component).and_then(|c| c.metric(m.name)))
                .collect();
            let Some(summary) = Summary::from_sample(&samples) else {
                continue;
            };
            let mut rng =
                Rng::new(config.seed).fork(&format!("nano-ci/{}/{}", r.component, m.name));
            let ci = bootstrap_mean_ci(&samples, 1000, 1.0 - protocol.confidence(), &mut rng);
            metrics.push(NanoMetricSummary {
                component: r.component,
                dimension: r.dimension,
                name: m.name,
                unit: m.unit,
                summary,
                ci,
            });
        }
    }
    Ok(NanoProtocolReport {
        target: first.target.clone(),
        protocol: *protocol,
        runs,
        metrics,
        verdict,
    })
}

/// Renders the protocol-aggregated report: one line per metric with
/// mean ± CI and cross-run RSD.
pub fn render_protocol_report(report: &NanoProtocolReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Nano-benchmark suite: {} [{} -> {} run{}, {}]",
        report.target,
        report.protocol,
        report.runs.len(),
        if report.runs.len() == 1 { "" } else { "s" },
        report.verdict
    );
    let _ = writeln!(
        out,
        "(one component per dimension; distributions, not single numbers)"
    );
    let mut current = "";
    for m in &report.metrics {
        if m.component != current {
            current = m.component;
            let _ = writeln!(out, "  [{}] {}", m.dimension.label(), m.component);
        }
        let ci =
            m.ci.map(|ci| format!("±{:.2}", ci.half_width()))
                .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "      {:<20} {:>14.2} {:>10} ({:>5.1}% rsd) {}",
            m.name, m.summary.mean, ci, m.summary.rsd_percent, m.unit
        );
    }
    out
}

/// Renders the multi-dimensional report.
pub fn render_report(report: &NanoReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Nano-benchmark suite: {}", report.target);
    let _ = writeln!(
        out,
        "(one component per dimension; no single number reported)"
    );
    for r in &report.results {
        let _ = writeln!(out, "  [{}] {}", r.dimension.label(), r.component);
        for m in &r.metrics {
            let _ = writeln!(out, "      {:<20} {:>14.2} {}", m.name, m.value, m.unit);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_runs_on_ext2() {
        let report = run_suite(FsKind::Ext2, &NanoConfig::quick()).unwrap();
        assert_eq!(report.results.len(), 7);
        // In-memory component really is in-memory.
        let mem = report.component("in-memory-read").unwrap();
        assert!(mem.metric("hit-ratio").unwrap() > 0.95);
        assert!(mem.metric("throughput").unwrap() > 5000.0);
        // Disk components really hit the disk.
        let rnd = report.component("disk-layout-random").unwrap();
        assert!(rnd.metric("throughput").unwrap() < 1000.0);
        assert!(
            rnd.metric("latency-p50").unwrap() > 1e6,
            "p50 should be ms-scale"
        );
        // Eviction hit ratio lands near LRU theory.
        let ev = report.component("cache-eviction").unwrap();
        let hit = ev.metric("hit-ratio").unwrap();
        assert!((hit - 2.0 / 3.0).abs() < 0.12, "hit ratio {hit}");
        let render = render_report(&report);
        assert!(render.contains("Meta-data"));
        assert!(render.contains("in-memory-read"));
    }

    #[test]
    fn sequential_beats_random_layout() {
        let cfg = NanoConfig::quick();
        let report = run_suite(FsKind::Ext2, &cfg).unwrap();
        let seq_mibs = report
            .component("disk-layout-sequential")
            .unwrap()
            .metric("bandwidth")
            .unwrap();
        let rnd_ops = report
            .component("disk-layout-random")
            .unwrap()
            .metric("throughput")
            .unwrap();
        let rnd_mibs = rnd_ops * 8.0 / 1024.0;
        assert!(
            seq_mibs > 5.0 * rnd_mibs,
            "sequential {seq_mibs} MiB/s not ≫ random {rnd_mibs} MiB/s"
        );
    }

    #[test]
    fn protocol_suite_aggregates_metrics() {
        let mut cfg = NanoConfig::quick();
        cfg.duration = Nanos::from_secs(5);
        cfg.working_file = Bytes::mib(32);
        let rep = run_suite_protocol(FsKind::Ext2, &cfg, &Protocol::FixedRuns(2)).unwrap();
        assert_eq!(rep.runs.len(), 2);
        assert_eq!(rep.verdict, Verdict::Fixed);
        let m = rep
            .metrics
            .iter()
            .find(|m| m.component == "in-memory-read" && m.name == "throughput")
            .expect("headline metric aggregated");
        assert_eq!(m.summary.n, 2);
        let ci = m.ci.expect("bootstrap ci");
        assert!(ci.lo <= m.summary.mean && m.summary.mean <= ci.hi);
        let render = render_protocol_report(&rep);
        assert!(render.contains("fixed(2)"));
        assert!(render.contains("rsd"));
        // Zero-run protocols are rejected, not looped forever.
        assert!(run_suite_protocol(FsKind::Ext2, &cfg, &Protocol::FixedRuns(0)).is_err());
    }

    #[test]
    fn scaling_saturates() {
        let report = run_suite(FsKind::Ext2, &NanoConfig::quick()).unwrap();
        let s = report.component("scaling").unwrap();
        // Disk-bound: 8 processes yield nowhere near 8x.
        assert!(s.metric("speedup-8-procs").unwrap() < 2.0);
    }
}
