//! Renders the latency-vs-offered-load hockey stick on the *real*
//! engine: a closed-loop run measures the testbed's capacity, then a
//! ladder of open-loop Poisson rates — from well below the knee to
//! well past it — records tail latency *including queue wait* at each
//! rung. Closed loops flatten this curve into a single point; the
//! open-loop dimension is what makes the knee visible at all.
//!
//! Usage: `cargo run -p rb-bench --release --bin latency [-- --quick]`
//!
//! `--quick` shortens the virtual duration and doubles as the CI smoke
//! mode: it validates the curve (a balanced request ledger at every
//! rung, ordered percentiles, no drops below the knee, and a p99 that
//! genuinely explodes past it) and exits non-zero on violation.

use rb_bench::{quick_requested, write_results};
use rb_core::prelude::*;
use rb_core::report::{to_csv, Json};
use rb_core::testbed;
use rb_simcore::time::Nanos;
use rb_simcore::units::Bytes;

/// Offered load as a percentage of measured closed-loop capacity.
const RUNGS: [u64; 6] = [25, 50, 75, 100, 125, 150];

fn config(duration: Nanos, arrival: Arrival) -> EngineConfig {
    EngineConfig {
        duration,
        window: Nanos::from_secs(1),
        seed: 42,
        cold_start: true,
        prewarm: true,
        cpu_jitter_sigma: 0.0,
        max_errors: 100,
        processes: 1,
        cores: 4,
        arrival,
        obs: ObsConfig::default(),
        faults: None,
        retry: RetryPolicy::None,
    }
}

fn run(duration: Nanos, arrival: Arrival) -> Recording {
    let mut t = testbed::paper_ext2(Bytes::gib(1), 42);
    let w = personalities::random_read(Bytes::mib(16));
    Engine::run(&mut t, &w, &config(duration, arrival)).expect("engine run")
}

fn ms(v: Option<Nanos>) -> f64 {
    v.map(|n| n.as_secs_f64() * 1e3).unwrap_or(f64::NAN)
}

/// Sanity-checks one rung; returns a violation description if any.
fn validate(pct: u64, open: &OpenLoopReport) -> Option<String> {
    if open.offered != open.completed + open.failed + open.dropped {
        return Some(format!(
            "{pct}%: ledger does not sum ({} offered vs {} + {} + {})",
            open.offered, open.completed, open.failed, open.dropped
        ));
    }
    if !(open.p50 <= open.p99 && open.p99 <= open.p999) {
        return Some(format!(
            "{pct}%: percentiles out of order ({:?} / {:?} / {:?})",
            open.p50, open.p99, open.p999
        ));
    }
    if pct <= 50 && open.dropped > 0 {
        return Some(format!("{pct}%: {} drops below the knee", open.dropped));
    }
    None
}

fn main() {
    let quick = quick_requested();
    let duration = if quick {
        Nanos::from_secs(3)
    } else {
        Nanos::from_secs(10)
    };
    let mut violations = Vec::new();

    let closed = run(duration, Arrival::Closed);
    let capacity = closed.ops_per_sec() as u64;
    println!("closed-loop capacity: {capacity} ops/s\n");
    if capacity < 100 {
        violations.push(format!("implausible capacity {capacity} ops/s"));
    }

    let mut rows = Vec::new();
    let mut cells = Vec::new();
    let mut p99_curve = Vec::new();
    println!(
        "{:>9} {:>12} {:>10} {:>8} {:>9} {:>9} {:>9} {:>7}",
        "offered", "rate(ops/s)", "completed", "dropped", "p50(ms)", "p99(ms)", "p999(ms)", "queue"
    );
    for pct in RUNGS {
        let rate = (capacity * pct / 100).max(1);
        let rec = run(duration, Arrival::Poisson { rate });
        let open = rec.open_loop.expect("open-loop report");
        if let Some(v) = validate(pct, &open) {
            violations.push(v);
        }
        println!(
            "{:>8}% {:>12} {:>10} {:>8} {:>9.3} {:>9.3} {:>9.3} {:>7}",
            pct,
            rate,
            open.completed,
            open.dropped,
            ms(open.p50),
            ms(open.p99),
            ms(open.p999),
            open.max_queue_depth
        );
        p99_curve.push((pct as f64, ms(open.p99)));
        rows.push(vec![
            pct.to_string(),
            rate.to_string(),
            open.offered.to_string(),
            open.completed.to_string(),
            open.failed.to_string(),
            open.dropped.to_string(),
            format!("{:.3}", ms(open.p50)),
            format!("{:.3}", ms(open.p99)),
            format!("{:.3}", ms(open.p999)),
            open.max_queue_depth.to_string(),
        ]);
        cells.push(Json::obj(vec![
            ("offered_pct", Json::Num(pct as f64)),
            ("rate_ops_per_sec", Json::Num(rate as f64)),
            ("offered", Json::Num(open.offered as f64)),
            ("completed", Json::Num(open.completed as f64)),
            ("failed", Json::Num(open.failed as f64)),
            ("dropped", Json::Num(open.dropped as f64)),
            ("p50_ms", Json::Num(ms(open.p50))),
            ("p99_ms", Json::Num(ms(open.p99))),
            ("p999_ms", Json::Num(ms(open.p999))),
            ("max_queue_depth", Json::Num(open.max_queue_depth as f64)),
        ]));
    }

    // The hockey stick itself: p99 against offered load.
    println!();
    print!(
        "{}",
        rb_core::report::ascii_chart(&[("p99 ms", &p99_curve)], 60, 12)
    );
    println!();

    // The shape that justifies the whole dimension: flat below the
    // knee, explosive past it. A NaN on either side is a violation too.
    let below = p99_curve[1].1; // 50 %
    let above = p99_curve[5].1; // 150 %
    if above.partial_cmp(&(below * 5.0)) != Some(std::cmp::Ordering::Greater) {
        violations.push(format!(
            "no hockey stick: p99 {below:.3} ms at 50% vs {above:.3} ms at 150% of capacity"
        ));
    }

    write_results(
        "latency.csv",
        &to_csv(
            &[
                "offered_pct",
                "rate_ops_per_sec",
                "offered",
                "completed",
                "failed",
                "dropped",
                "p50_ms",
                "p99_ms",
                "p999_ms",
                "max_queue_depth",
            ],
            &rows,
        ),
    );
    write_results(
        "latency.json",
        &Json::obj(vec![
            ("capacity_ops_per_sec", Json::Num(capacity as f64)),
            ("duration_secs", Json::Num(duration.as_secs_f64())),
            ("rungs", Json::Arr(cells)),
        ])
        .to_string(),
    );
    println!("Below the knee the queue is invisible; past it every");
    println!("microsecond of deficit compounds into milliseconds of wait.");
    println!("A closed loop would have reported one flat throughput number");
    println!("for every rung of this ladder.");

    if !violations.is_empty() {
        eprintln!("latency smoke FAILED:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
}
