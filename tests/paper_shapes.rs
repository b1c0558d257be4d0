//! Integration tests asserting the paper's experimental *shapes* hold on
//! the full stack — the acceptance criteria from DESIGN.md's experiment
//! index (E1, E1z, E2, E3, E4).

use rocketbench::core::figures::{
    fig1, fig1_zoom_campaign, fig2, fig3, fig4, Fig1Config, Fig1ZoomConfig, Fig2Config, Fig3Config,
    Fig4Config,
};
use rocketbench::core::runner::{Protocol, RunPlan};
use rocketbench::simcore::time::Nanos;
use rocketbench::simcore::units::Bytes;
use rocketbench::stats::peaks::{bimodal_balance, Modality};

/// E1: the Figure 1 cliff — order-of-magnitude drop at the cache
/// boundary, RSD spiking in the transition region.
#[test]
fn e1_fig1_cliff_and_rsd_spike() {
    let mut plan = RunPlan::paper_fig1(0);
    plan.protocol = Protocol::FixedRuns(4);
    plan.duration = Nanos::from_secs(70);
    plan.tail_windows = 6;
    let config = Fig1Config {
        sizes: vec![
            Bytes::mib(128),
            Bytes::mib(384),
            Bytes::mib(448),
            Bytes::mib(896),
        ],
        plan,
        device: Bytes::gib(2),
    };
    let data = fig1(&config).unwrap();

    // Plateau / tail ratio: an order of magnitude and then some. (The
    // paper's 896 MB point gives ~50x; our disk model's short-seek cost
    // lands nearer 35x. Same story: memory vs disk.)
    let plateau = data.points[0].mean;
    let tail = data.points.last().unwrap().mean;
    assert!(
        plateau > 25.0 * tail,
        "plateau {plateau:.0} vs tail {tail:.0}: ratio too small"
    );
    // Plateau near the paper's 9.7 kops/s.
    assert!((9_000.0..10_500.0).contains(&plateau), "plateau {plateau}");
    // Cliff located between 384 and 448 MiB.
    let cliff = data.fragility.cliff.expect("cliff");
    assert_eq!(cliff.x_before, 384.0);
    assert_eq!(cliff.x_after, 448.0);
    assert!(cliff.drop_factor() >= 5.0);
    // RSD maximum sits at the transition point of the coarse sweep.
    let (rsd_x, _) = data.fragility.max_rsd_at.unwrap();
    assert_eq!(rsd_x, 448.0, "max RSD not in transition region");
    // Disk-range RSD >= 3x memory-range RSD ("up to 5 times greater").
    let mem_rsd = data.points[0].rsd.max(0.01);
    let disk_rsd = data.points.last().unwrap().rsd;
    assert!(
        disk_rsd >= 3.0 * mem_rsd,
        "disk RSD {disk_rsd:.2} not ≫ memory RSD {mem_rsd:.2}"
    );
}

/// E1 (boundary probe): "in the transition region ... the relative
/// standard deviation skyrockets by up to 35 % (not visible on the
/// figure because it only depicts data points with a 64 MB step)". A few
/// megabytes of cache-capacity wobble flip runs between regimes.
#[test]
fn e1_boundary_rsd_skyrockets() {
    let mut plan = RunPlan::paper_fig1(9_000);
    plan.protocol = Protocol::FixedRuns(8);
    plan.duration = Nanos::from_secs(70);
    plan.tail_windows = 6;
    let config = Fig1Config {
        sizes: vec![Bytes::mib(412)],
        plan,
        device: Bytes::gib(2),
    };
    let data = fig1(&config).unwrap();
    let rsd = data.points[0].rsd;
    assert!(
        rsd >= 15.0,
        "boundary RSD only {rsd:.1}%; the fragile region should exceed 15%"
    );
    // And the samples really span regimes: max/min well separated.
    let samples = &data.points[0].samples;
    let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(hi / lo >= 1.4, "runs too consistent: {lo:.0}..{hi:.0}");
}

/// E1z: the zoom — throughput halves within a few MiB of the boundary.
#[test]
fn e1z_zoom_drop_is_narrow() {
    let mut plan = RunPlan::paper_fig1(500);
    plan.protocol = Protocol::FixedRuns(3);
    plan.duration = Nanos::from_secs(70);
    plan.tail_windows = 6;
    plan.cache_jitter = Bytes::ZERO; // isolate the boundary itself
    let config = Fig1ZoomConfig {
        lo: Bytes::mib(406),
        hi: Bytes::mib(420),
        step: Bytes::mib(1),
        plan,
        device: Bytes::gib(2),
    };
    // The 15 zoom points are independent cells: shard them over the
    // host's cores (the campaign's per-cell seeds make the data the
    // same at any job count).
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let data = fig1_zoom_campaign(&config, jobs).unwrap();
    let halving = data
        .fragility
        .halving_distance()
        .expect("no halving found in zoom range");
    assert!(
        halving <= 8.0,
        "drop takes {halving:.0} MiB; paper observed a < 6 MB region"
    );
}

/// E2: warm-up race — systems agree at both extremes and differ by >= 2x
/// somewhere in the middle.
#[test]
fn e2_fig2_systems_differ_only_in_transition() {
    let data = fig2(&Fig2Config::quick()).unwrap();
    assert_eq!(data.curves.len(), 3);
    let div = data.divergence_series();
    // Converged at the end (warm): within 10 %.
    let end = div.last().unwrap().1;
    assert!(end < 1.10, "end divergence {end:.2}x");
    // Somewhere in the middle: >= 2x apart.
    let max = div.iter().map(|&(_, r)| r).fold(0.0f64, f64::max);
    assert!(max >= 2.0, "max divergence only {max:.2}x");
    // Warm-up ordering: xfs (64 KiB clusters) warms fastest, ext2 (8 KiB)
    // slowest.
    let warmup = |name: &str| {
        data.curves
            .iter()
            .find(|c| c.fs == name)
            .unwrap()
            .warmup
            .warmup_seconds
            .unwrap_or(f64::MAX)
    };
    assert!(
        warmup("xfs") < warmup("ext2"),
        "xfs should warm before ext2"
    );
}

/// E3: histogram modality sequence — unimodal, balanced bimodal,
/// disk-dominant — spanning >= 3 orders of magnitude.
#[test]
fn e3_fig3_modality_progression() {
    let config = Fig3Config {
        sizes: vec![Bytes::mib(64), Bytes::mib(820), Bytes::gib(25)],
        warmup: Nanos::from_secs(20),
        measure: Nanos::from_secs(60),
        seed: 0,
    };
    let data = fig3(&config).unwrap();
    let h = &data.histograms;
    assert_eq!(h.len(), 3);

    // (a) 64 MiB: in-memory, unimodal, microsecond peak.
    assert_eq!(h[0].modality, Modality::Unimodal);
    let mode_a = h[0].histogram.mode_bucket().unwrap();
    assert!(
        (10..=13).contains(&mode_a),
        "memory peak at bucket {mode_a}"
    );

    // (b) 2x cache: bimodal with roughly equal peaks.
    assert_eq!(h[1].modality, Modality::Bimodal);
    let balance = bimodal_balance(&h[1].histogram).unwrap();
    assert!(balance > 0.7, "peaks not balanced: {balance:.2}");
    assert!(h[1].histogram.span_orders_of_magnitude() >= 3.0);

    // (c) 25 GiB: the memory peak is invisibly small; disk-scale mode.
    let mode_c = h[2].histogram.mode_bucket().unwrap();
    assert!((21..=25).contains(&mode_c), "disk peak at bucket {mode_c}");
    let hit_mass: f64 = (0..16).map(|k| h[2].histogram.fraction(k)).sum();
    assert!(
        hit_mass < 0.05,
        "memory peak should be negligible: {hit_mass:.3}"
    );
}

/// E4: the histogram timeline — hit mass monotonically (mod noise)
/// replaces miss mass; bimodal for most of the run.
#[test]
fn e4_fig4_regime_shift_over_time() {
    let data = fig4(&Fig4Config::quick()).unwrap();
    let hits = data.hit_mass_series();
    assert!(hits.len() >= 8);
    assert!(hits.first().unwrap().1 < 0.3, "run started warm");
    assert!(hits.last().unwrap().1 > 0.95, "run never warmed");
    // Roughly monotone: each point at least 90 % of the running max.
    let mut running_max: f64 = 0.0;
    for &(t, h) in &hits {
        assert!(
            h >= running_max * 0.9 - 0.02,
            "hit mass regressed at t={t}: {h:.3} after max {running_max:.3}"
        );
        running_max = running_max.max(h);
    }
    // Bimodal for a substantial part of the run.
    assert!(
        data.bimodal_windows() * 3 >= data.windows.len(),
        "bimodal in only {}/{} windows",
        data.bimodal_windows(),
        data.windows.len()
    );
}
