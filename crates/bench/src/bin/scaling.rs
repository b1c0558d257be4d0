//! Regenerates the scaling-dimension saturation curves on the *real*
//! engine: personality × file system × process count, every point a
//! full multi-process discrete-event run over the shared page cache
//! and the shared spindle. Not a paper figure — the measurement the
//! paper's fifth dimension calls for, now expressible for any workload
//! the harness knows.
//!
//! Also prints the classic memory-bound vs disk-bound pair (the same
//! workload family under two cache regimes) because that contrast *is*
//! the scaling story: one personality, two completely different
//! saturation answers.
//!
//! Usage: `cargo run -p rb-bench --release --bin scaling [-- --quick]`
//!
//! `--quick` shortens the virtual duration and doubles as the CI smoke
//! mode: it validates every curve (positive throughput, unit speedup
//! at one process, a detectable knee, and a monotone-sane shape) and
//! exits non-zero on violation.

use rb_bench::{quick_requested, write_results};
use rb_core::campaign::Personality;
use rb_core::report::to_csv;
use rb_core::scaling::{render_curve, thread_scaling, ScalingConfig, ScalingCurve};
use rb_core::testbed::FsKind;
use rb_simcore::time::Nanos;

/// The personality grid: at least three personalities spanning the
/// in-memory, mixed and metadata regimes.
const PERSONALITIES: [(Personality, u64); 3] = [
    (Personality::RandomRead, 0),
    (Personality::Fileserver, 60),
    (Personality::Varmail, 60),
];

/// Sanity-checks one curve; returns a violation description if any.
fn validate(label: &str, curve: &ScalingCurve) -> Option<String> {
    if curve.points.is_empty() {
        return Some(format!("{label}: empty curve"));
    }
    if curve.points[0].speedup != 1.0 {
        return Some(format!(
            "{label}: first point speedup {} != 1.0",
            curve.points[0].speedup
        ));
    }
    // A NaN throughput fails this check too.
    let positive = |x: f64| x.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
    if let Some(p) = curve.points.iter().find(|p| !positive(p.ops_per_sec)) {
        return Some(format!(
            "{label}: {} processes produced {} ops/s",
            p.processes, p.ops_per_sec
        ));
    }
    let Some(knee) = curve.knee() else {
        return Some(format!("{label}: no knee detected"));
    };
    // Monotone-sane: up to the knee the curve never *drops* by more
    // than 10 % point-to-point (contention can flatten a curve early,
    // but a collapse before saturation means the model broke).
    for w in curve.points.windows(2) {
        if w[0].processes < knee && w[1].ops_per_sec < w[0].ops_per_sec * 0.9 {
            return Some(format!(
                "{label}: throughput collapsed before the knee ({} -> {} ops/s at {} -> {} procs)",
                w[0].ops_per_sec, w[1].ops_per_sec, w[0].processes, w[1].processes
            ));
        }
    }
    None
}

fn main() {
    rb_bench::refuse_unknown_flags(&["quick"]);
    let quick = quick_requested();
    let duration = if quick {
        Nanos::from_secs(3)
    } else {
        Nanos::from_secs(20)
    };
    let mut rows = Vec::new();
    let mut violations = Vec::new();

    // The classic contrast first: one workload, two cache regimes.
    for (label, mut cfg) in [
        ("memory-bound", ScalingConfig::memory_bound()),
        ("disk-bound", ScalingConfig::disk_bound()),
    ] {
        cfg.duration = duration;
        if quick {
            cfg.processes = vec![1, 2, 4, 8];
        }
        let curve = thread_scaling(FsKind::Ext2, &cfg).expect("scaling sweep");
        print!("{}", render_curve(label, &curve));
        println!();
        if let Some(v) = validate(label, &curve) {
            violations.push(v);
        }
        for p in &curve.points {
            rows.push(vec![
                label.to_string(),
                "randomread".to_string(),
                "ext2".to_string(),
                p.processes.to_string(),
                format!("{:.1}", p.ops_per_sec),
                format!("{:.3}", p.speedup),
            ]);
        }
    }

    // The full grid: every personality × every file system, saturation
    // curves from the real engine.
    for (personality, files) in PERSONALITIES {
        for fs in FsKind::ALL {
            let mut cfg = ScalingConfig::memory_bound().with_personality(personality, files);
            cfg.duration = duration;
            cfg.processes = vec![1, 2, 4, 8];
            let label = format!("{}/{}", personality.name(), fs.name());
            let curve = thread_scaling(fs, &cfg).expect("scaling sweep");
            print!("{}", render_curve(&label, &curve));
            println!();
            if let Some(v) = validate(&label, &curve) {
                violations.push(v);
            }
            for p in &curve.points {
                rows.push(vec![
                    "grid".to_string(),
                    personality.name().to_string(),
                    fs.name().to_string(),
                    p.processes.to_string(),
                    format!("{:.1}", p.ops_per_sec),
                    format!("{:.3}", p.speedup),
                ]);
            }
        }
    }

    write_results(
        "scaling.csv",
        &to_csv(
            &[
                "regime",
                "personality",
                "fs",
                "processes",
                "ops_per_sec",
                "speedup",
            ],
            &rows,
        ),
    );
    println!("Memory-bound work scales to the core count; disk-bound work");
    println!("queues on the spindle. One workload, two completely different");
    println!("scaling answers — dimension five of five, now measured on the");
    println!("same engine, cache and device as every other dimension.");

    if !violations.is_empty() {
        eprintln!("scaling smoke FAILED:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
}
