//! Paper-artifact reproduction drivers (Figures 1–4).
//!
//! Each `figN` function reruns the corresponding Section 3 experiment on
//! the simulated testbed and returns structured data plus a renderer
//! that prints the same rows/series the paper reports. Every function
//! has a `paper()` configuration (full protocol) and a `quick()` one
//! (minutes of virtual time, for tests and smoke runs); both produce the
//! same *shape*, which is what the reproduction is judged on.

use crate::analysis::{FragilityReport, WarmupReport};
use crate::runner::{Protocol, RunPlan};
use crate::testbed::{self, FsKind};
use crate::workload::{personalities, Engine, EngineConfig};
use rb_simcore::error::SimResult;
use rb_simcore::time::Nanos;
use rb_simcore::units::Bytes;
use rb_stats::histogram::Log2Histogram;
use rb_stats::peaks::{classify_modality, Modality};
use rb_stats::timeseries::Window;
use std::fmt::Write as _;

// ---------------------------------------------------------------------
// Figure 1: throughput and RSD vs file size
// ---------------------------------------------------------------------

/// Configuration for the Figure 1 sweep.
#[derive(Debug, Clone)]
pub struct Fig1Config {
    /// File sizes to sweep.
    pub sizes: Vec<Bytes>,
    /// Repetition protocol.
    pub plan: RunPlan,
    /// Formatted device size (must exceed the largest file).
    pub device: Bytes,
}

impl Fig1Config {
    /// The paper's protocol: 64 MB → 1024 MB in 64 MB steps, 10 runs.
    pub fn paper() -> Self {
        Fig1Config {
            sizes: (1..=16).map(|i| Bytes::mib(64 * i)).collect(),
            plan: RunPlan::paper_fig1(0),
            device: Bytes::gib(3),
        }
    }

    /// A minutes-scale variant for tests: fewer sizes, shorter runs.
    pub fn quick() -> Self {
        let mut plan = RunPlan::paper_fig1(0);
        plan.protocol = Protocol::FixedRuns(3);
        plan.duration = Nanos::from_secs(60);
        plan.tail_windows = 2;
        Fig1Config {
            sizes: vec![
                Bytes::mib(128),
                Bytes::mib(384),
                Bytes::mib(448),
                Bytes::mib(768),
            ],
            plan,
            device: Bytes::gib(2),
        }
    }
}

/// One sweep point of Figure 1.
#[derive(Debug, Clone)]
pub struct Fig1Point {
    /// File size.
    pub size: Bytes,
    /// Steady-state throughput per run.
    pub samples: Vec<f64>,
    /// Mean across runs.
    pub mean: f64,
    /// Relative standard deviation (%).
    pub rsd: f64,
}

/// Figure 1 dataset.
#[derive(Debug, Clone)]
pub struct Fig1Data {
    /// Sweep points in size order.
    pub points: Vec<Fig1Point>,
    /// Cliff/transition/RSD analysis.
    pub fragility: FragilityReport,
}

/// Reruns the Figure 1 experiment as a sweep campaign sharded across
/// `jobs` worker threads.
///
/// The sweep is random read × the configured file sizes on the paper's
/// ext2 testbed, honouring the plan's cache-capacity control (or its
/// absence). Each cell derives its seed from its identity, so the
/// result is deterministic for a given config at any job count.
pub fn fig1_campaign(config: &Fig1Config, jobs: usize) -> SimResult<Fig1Data> {
    let spec = crate::campaign::SweepSpec {
        name: "fig1".into(),
        file_sizes: config.sizes.clone(),
        file_counts: vec![0],
        // `Bytes::ZERO` is the campaign encoding of "cache uncontrolled".
        cache_capacities: vec![config.plan.cache_capacity.unwrap_or(Bytes::ZERO)],
        arrivals: Vec::new(),
        plan: config.plan.clone(),
        device: config.device,
        ..crate::campaign::SweepSpec::default()
    };
    let report = crate::campaign::run_campaign(&spec, jobs)?;
    let points: Vec<Fig1Point> = report
        .cells
        .iter()
        .map(|c| Fig1Point {
            size: c.cell.file_size,
            samples: c.samples.clone(),
            mean: c.summary.mean,
            rsd: c.summary.rsd_percent,
        })
        .collect();
    let sweep: Vec<(f64, Vec<f64>)> = points
        .iter()
        .map(|p| (p.size.as_mib_f64(), p.samples.clone()))
        .collect();
    let fragility = FragilityReport::from_sweep(&sweep);
    Ok(Fig1Data { points, fragility })
}

/// Renders the Figure 1 table (sizes, means, RSD) plus the analysis.
pub fn render_fig1(data: &Fig1Data) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 1: Ext2 random-read throughput vs file size (mean of N runs)"
    );
    let _ = writeln!(out, "{:>10} {:>12} {:>8}", "size", "ops/sec", "RSD%");
    for p in &data.points {
        let _ = writeln!(
            out,
            "{:>10} {:>12.0} {:>8.1}",
            format!("{}", p.size),
            p.mean,
            p.rsd
        );
    }
    if let Some(c) = &data.fragility.cliff {
        let _ = writeln!(
            out,
            "cliff: {:.0} MiB -> {:.0} MiB drops {:.0}x ({:.0} -> {:.0} ops/s)",
            c.x_before,
            c.x_after,
            c.drop_factor(),
            c.y_before,
            c.y_after
        );
    }
    if let Some((lo, hi)) = data.fragility.transition {
        let _ = writeln!(out, "transition window: {lo:.0}..{hi:.0} MiB");
    }
    if let Some((x, rsd)) = data.fragility.max_rsd_at {
        let _ = writeln!(out, "max RSD: {rsd:.1}% at {x:.0} MiB");
    }
    out
}

// ---------------------------------------------------------------------
// Figure 1 zoom: the < 6 MB drop region
// ---------------------------------------------------------------------

/// Configuration for the Section 3.1 zoom experiment.
#[derive(Debug, Clone)]
pub struct Fig1ZoomConfig {
    /// Lower end of the zoom range.
    pub lo: Bytes,
    /// Upper end of the zoom range.
    pub hi: Bytes,
    /// Step between sizes.
    pub step: Bytes,
    /// Repetition protocol.
    pub plan: RunPlan,
    /// Device size.
    pub device: Bytes,
}

impl Fig1ZoomConfig {
    /// The paper's zoom: 384 MB → 448 MB, fine steps.
    pub fn paper() -> Self {
        let mut plan = RunPlan::paper_fig1(50_000);
        plan.protocol = Protocol::FixedRuns(5);
        Fig1ZoomConfig {
            lo: Bytes::mib(384),
            hi: Bytes::mib(448),
            step: Bytes::mib(4),
            plan,
            device: Bytes::gib(2),
        }
    }

    /// Coarser, faster variant.
    pub fn quick() -> Self {
        let mut cfg = Self::paper();
        cfg.step = Bytes::mib(8);
        cfg.plan.protocol = Protocol::FixedRuns(2);
        cfg.plan.duration = Nanos::from_secs(60);
        cfg.plan.tail_windows = 2;
        cfg
    }
}

/// Reruns the zoom sweep as a campaign sharded across `jobs` worker
/// threads; reuses [`Fig1Data`].
pub fn fig1_zoom_campaign(config: &Fig1ZoomConfig, jobs: usize) -> SimResult<Fig1Data> {
    fig1_campaign(&config.as_fig1_config(), jobs)
}

impl Fig1ZoomConfig {
    /// Materializes the zoom range into an explicit size list.
    fn as_fig1_config(&self) -> Fig1Config {
        let mut sizes = Vec::new();
        let mut s = self.lo;
        while s <= self.hi {
            sizes.push(s);
            s += self.step;
        }
        Fig1Config {
            sizes,
            plan: self.plan.clone(),
            device: self.device,
        }
    }
}

// ---------------------------------------------------------------------
// Figure 2: throughput over time for ext2/ext3/xfs
// ---------------------------------------------------------------------

/// Configuration for the Figure 2 warm-up race.
#[derive(Debug, Clone)]
pub struct Fig2Config {
    /// File size (the paper: 410 MB, the largest that fits in cache).
    pub file_size: Bytes,
    /// Run length.
    pub duration: Nanos,
    /// Sampling window (paper: 10 s).
    pub window: Nanos,
    /// Seed.
    pub seed: u64,
    /// Device size.
    pub device: Bytes,
    /// File systems to race.
    pub systems: Vec<FsKind>,
}

impl Fig2Config {
    /// The paper's protocol: 410 MB file, 20 minutes, 10 s sampling.
    pub fn paper() -> Self {
        Fig2Config {
            file_size: Bytes::mib(410),
            duration: Nanos::from_secs(1200),
            window: Nanos::from_secs(10),
            seed: 0,
            device: Bytes::gib(2),
            systems: FsKind::ALL.to_vec(),
        }
    }

    /// Shorter variant for tests.
    pub fn quick() -> Self {
        Fig2Config {
            file_size: Bytes::mib(128),
            duration: Nanos::from_secs(400),
            window: Nanos::from_secs(10),
            seed: 0,
            device: Bytes::gib(1),
            systems: FsKind::ALL.to_vec(),
        }
    }
}

/// One system's Figure 2 curve.
#[derive(Debug, Clone)]
pub struct Fig2Series {
    /// File-system name.
    pub fs: &'static str,
    /// `(seconds, ops/s)` samples.
    pub series: Vec<(f64, f64)>,
    /// Warm-up characterization.
    pub warmup: WarmupReport,
}

/// Figure 2 dataset.
#[derive(Debug, Clone)]
pub struct Fig2Data {
    /// One curve per file system.
    pub curves: Vec<Fig2Series>,
}

impl Fig2Data {
    /// Largest between-system throughput ratio at each sample instant.
    pub fn divergence_series(&self) -> Vec<(f64, f64)> {
        if self.curves.is_empty() {
            return Vec::new();
        }
        let n = self
            .curves
            .iter()
            .map(|c| c.series.len())
            .min()
            .unwrap_or(0);
        (0..n)
            .map(|i| {
                let t = self.curves[0].series[i].0;
                let ys: Vec<f64> = self.curves.iter().map(|c| c.series[i].1).collect();
                let hi = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let lo = ys.iter().copied().fold(f64::INFINITY, f64::min).max(1e-9);
                (t, hi / lo)
            })
            .collect()
    }
}

/// Reruns the Figure 2 experiment.
pub fn fig2(config: &Fig2Config) -> SimResult<Fig2Data> {
    let mut curves = Vec::new();
    for &kind in &config.systems {
        let mut target = testbed::paper_fs(kind, config.device, config.seed);
        let workload = personalities::random_read(config.file_size);
        let engine_cfg = EngineConfig {
            duration: config.duration,
            window: config.window,
            seed: config.seed,
            ..EngineConfig::default()
        };
        let rec = Engine::run(&mut target, &workload, &engine_cfg)?;
        let warmup = WarmupReport::from_windows(&rec.windows, 5.0);
        curves.push(Fig2Series {
            fs: kind.name(),
            series: rec.throughput_series(),
            warmup,
        });
    }
    Ok(Fig2Data { curves })
}

/// Renders Figure 2 as an ASCII chart plus warm-up facts.
pub fn render_fig2(data: &Fig2Data) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 2: throughput by time (cold cache, random read)"
    );
    let series: Vec<(&str, &[(f64, f64)])> = data
        .curves
        .iter()
        .map(|c| (c.fs, c.series.as_slice()))
        .collect();
    out.push_str(&crate::report::ascii_chart(&series, 72, 16));
    for c in &data.curves {
        let _ = writeln!(
            out,
            "{:>6}: warm-up {}s, rise {:.0}x",
            c.fs,
            c.warmup
                .warmup_seconds
                .map(|s| format!("{s:.0}"))
                .unwrap_or_else(|| "n/a".into()),
            c.warmup.rise_factor
        );
    }
    out
}

// ---------------------------------------------------------------------
// Figure 3: latency histograms for three working-set sizes
// ---------------------------------------------------------------------

/// Configuration for the Figure 3 histograms.
#[derive(Debug, Clone)]
pub struct Fig3Config {
    /// File sizes (paper: 64 MB, 1024 MB, 25 GB).
    pub sizes: Vec<Bytes>,
    /// Warm-up phase excluded from the histograms.
    pub warmup: Nanos,
    /// Measured phase.
    pub measure: Nanos,
    /// Seed.
    pub seed: u64,
}

impl Fig3Config {
    /// The paper's three working-set sizes.
    pub fn paper() -> Self {
        Fig3Config {
            sizes: vec![Bytes::mib(64), Bytes::mib(1024), Bytes::gib(25)],
            warmup: Nanos::from_secs(120),
            measure: Nanos::from_secs(120),
            seed: 0,
        }
    }

    /// Smaller variant for tests (same regimes, smaller sizes).
    pub fn quick() -> Self {
        Fig3Config {
            sizes: vec![Bytes::mib(64), Bytes::mib(820), Bytes::gib(8)],
            warmup: Nanos::from_secs(20),
            measure: Nanos::from_secs(60),
            seed: 0,
        }
    }
}

/// One Figure 3 histogram.
#[derive(Debug, Clone)]
pub struct Fig3Histogram {
    /// File size.
    pub size: Bytes,
    /// Steady-state latency histogram.
    pub histogram: Log2Histogram,
    /// Modality classification.
    pub modality: Modality,
}

/// Figure 3 dataset.
#[derive(Debug, Clone)]
pub struct Fig3Data {
    /// One histogram per size.
    pub histograms: Vec<Fig3Histogram>,
}

/// Reruns the Figure 3 experiment.
pub fn fig3(config: &Fig3Config) -> SimResult<Fig3Data> {
    let mut histograms = Vec::new();
    for &size in &config.sizes {
        // Device comfortably larger than the file.
        let device = Bytes::new((size.as_u64() as f64 * 1.3) as u64).max(Bytes::gib(1));
        let mut target = testbed::paper_ext2(device, config.seed);
        let workload = personalities::random_read(size);
        let mut sets = Engine::setup(&mut target, &workload, config.seed)?;
        crate::target::Target::drop_caches(&mut target);
        // Settle phase: prewarm sequentially, then run briefly so the
        // random-access steady state establishes; discarded.
        let warm_cfg = EngineConfig {
            duration: config.warmup,
            seed: config.seed,
            cold_start: false,
            prewarm: true,
            ..EngineConfig::default()
        };
        let _ = Engine::run_prepared(&mut target, &workload, &warm_cfg, &mut sets)?;
        // Measured phase.
        let measure_cfg = EngineConfig {
            duration: config.measure,
            seed: config.seed + 1,
            cold_start: false,
            ..EngineConfig::default()
        };
        let rec = Engine::run_prepared(&mut target, &workload, &measure_cfg, &mut sets)?;
        let modality = classify_modality(&rec.histogram);
        histograms.push(Fig3Histogram {
            size,
            histogram: rec.histogram,
            modality,
        });
    }
    Ok(Fig3Data { histograms })
}

/// Renders the Figure 3 histograms in the paper's layout.
pub fn render_fig3(data: &Fig3Data) -> String {
    let mut out = String::new();
    for h in &data.histograms {
        let _ = writeln!(
            out,
            "Figure 3: read latency histogram, {} file ({:?})",
            h.size, h.modality
        );
        let lo = h.histogram.min_bucket().unwrap_or(0).saturating_sub(1);
        let hi = (h.histogram.max_bucket().unwrap_or(31) + 2).min(64);
        out.push_str(&h.histogram.render_ascii(lo, hi, 50));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------
// Figure 4: latency histograms over time
// ---------------------------------------------------------------------

/// Configuration for the Figure 4 histogram timeline.
#[derive(Debug, Clone)]
pub struct Fig4Config {
    /// File size (paper: 256 MB).
    pub file_size: Bytes,
    /// Run length (paper plot: 280 s).
    pub duration: Nanos,
    /// Histogram window (paper: ~20 s slices).
    pub window: Nanos,
    /// Seed.
    pub seed: u64,
}

impl Fig4Config {
    /// The paper's protocol.
    pub fn paper() -> Self {
        Fig4Config {
            file_size: Bytes::mib(256),
            duration: Nanos::from_secs(280),
            window: Nanos::from_secs(20),
            seed: 0,
        }
    }

    /// Shorter variant.
    pub fn quick() -> Self {
        Fig4Config {
            file_size: Bytes::mib(96),
            duration: Nanos::from_secs(120),
            window: Nanos::from_secs(10),
            seed: 0,
        }
    }
}

/// Figure 4 dataset: histogram per time window.
#[derive(Debug, Clone)]
pub struct Fig4Data {
    /// Windows with their histograms.
    pub windows: Vec<Window>,
}

/// Latency-bucket boundary between "memory peak" and "disk peak"
/// territory: 2^16 ns = 65.5 µs.
pub const REGIME_BUCKET: usize = 16;

impl Fig4Data {
    /// Fraction of each window's operations faster than
    /// [`REGIME_BUCKET`] (the cache-hit peak mass).
    pub fn hit_mass_series(&self) -> Vec<(f64, f64)> {
        self.windows
            .iter()
            .map(|w| {
                let frac: f64 = (0..REGIME_BUCKET).map(|k| w.histogram.fraction(k)).sum();
                (w.start.as_secs_f64(), frac)
            })
            .collect()
    }

    /// Number of windows whose histogram is bimodal.
    pub fn bimodal_windows(&self) -> usize {
        self.windows
            .iter()
            .filter(|w| classify_modality(&w.histogram) == Modality::Bimodal)
            .count()
    }
}

/// Reruns the Figure 4 experiment.
pub fn fig4(config: &Fig4Config) -> SimResult<Fig4Data> {
    let device = Bytes::gib(1).max(config.file_size * 3);
    let mut target = testbed::paper_ext2(device, config.seed);
    let workload = personalities::random_read(config.file_size);
    let engine_cfg = EngineConfig {
        duration: config.duration,
        window: config.window,
        seed: config.seed,
        ..EngineConfig::default()
    };
    let rec = Engine::run(&mut target, &workload, &engine_cfg)?;
    Ok(Fig4Data {
        windows: rec.windows,
    })
}

/// Renders Figure 4 as one histogram row per window (time down the
/// page, as in the paper's 3-D plot flattened).
pub fn render_fig4(data: &Fig4Data) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 4: latency histograms by time (miss peak fades, hit peak grows)"
    );
    for w in &data.windows {
        let pct: Vec<f64> = (4..28).map(|k| w.histogram.fraction(k) * 100.0).collect();
        let _ = writeln!(
            out,
            "t={:>4}s |{}| hits {:>5.1}%",
            w.start.as_secs(),
            crate::report::sparkline(&pct),
            (0..REGIME_BUCKET)
                .map(|k| w.histogram.fraction(k))
                .sum::<f64>()
                * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Full-shape assertions live in the integration tests and the bench
    // binaries; these tests exercise the drivers end-to-end at small
    // scale.

    #[test]
    fn fig1_quick_has_cliff_shape() {
        let data = fig1_campaign(&Fig1Config::quick(), 1).unwrap();
        assert_eq!(data.points.len(), 4);
        let first = data.points.first().unwrap();
        let last = data.points.last().unwrap();
        assert!(
            first.mean > 8.0 * last.mean,
            "no cliff: {} vs {}",
            first.mean,
            last.mean
        );
        assert!(data.fragility.cliff.is_some());
        let render = render_fig1(&data);
        assert!(render.contains("cliff"));
    }

    #[test]
    fn fig1_campaign_matches_across_job_counts() {
        let mut plan = RunPlan::paper_fig1(0);
        plan.protocol = Protocol::FixedRuns(2);
        plan.duration = Nanos::from_secs(20);
        plan.tail_windows = 2;
        let config = Fig1Config {
            sizes: vec![Bytes::mib(64), Bytes::mib(768)],
            plan,
            device: Bytes::gib(2),
        };
        let serial = fig1_campaign(&config, 1).unwrap();
        let sharded = fig1_campaign(&config, 2).unwrap();
        assert_eq!(serial.points.len(), 2);
        for (a, b) in serial.points.iter().zip(&sharded.points) {
            assert_eq!(a.size, b.size);
            assert_eq!(a.samples, b.samples);
        }
        // The two regimes still differ by orders of magnitude.
        assert!(serial.points[0].mean > 8.0 * serial.points[1].mean);
    }

    #[test]
    fn fig2_quick_curves_rise_and_converge() {
        let data = fig2(&Fig2Config::quick()).unwrap();
        assert_eq!(data.curves.len(), 3);
        for c in &data.curves {
            assert!(c.series.len() >= 20, "{} too few windows", c.fs);
            let first = c.series.iter().find(|&&(_, y)| y > 0.0).unwrap().1;
            let last = c.series.last().unwrap().1;
            assert!(
                last > 5.0 * first,
                "{} did not warm up: {first} -> {last}",
                c.fs
            );
        }
        let render = render_fig2(&data);
        assert!(render.contains("ext2"));
    }

    #[test]
    fn fig4_quick_shows_regime_shift() {
        let data = fig4(&Fig4Config::quick()).unwrap();
        let hits = data.hit_mass_series();
        assert!(hits.first().unwrap().1 < 0.35, "started warm: {hits:?}");
        assert!(hits.last().unwrap().1 > 0.9, "never warmed: {hits:?}");
        assert!(data.bimodal_windows() >= 2);
        assert!(!render_fig4(&data).is_empty());
    }
}
