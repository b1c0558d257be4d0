//! End-to-end tests for the open-loop load dimension: arrival
//! processes, the bounded admission queue, tail-latency percentiles,
//! and the campaign's `arrival` axis.
//!
//! The load-bearing properties, in the repo's usual order of
//! importance: (1) closed-loop cells are untouched by the new axis —
//! byte-identical to the committed pre-axis goldens; (2) every
//! open-loop run is a pure function of (workload, config, seed),
//! independent of `--jobs`; (3) the physics is right: latency is flat
//! below the knee and explodes past it, exactly the hockey stick a
//! closed loop can never show.

use rocketbench::core::campaign::{run_campaign, Personality, SweepSpec};
use rocketbench::core::prelude::*;
use rocketbench::core::testbed;
use rocketbench::simcore::rng::Rng;
use rocketbench::simcore::time::Nanos;
use rocketbench::simcore::units::Bytes;

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn open_cfg(secs: u64, seed: u64, arrival: Arrival) -> EngineConfig {
    EngineConfig {
        duration: Nanos::from_secs(secs),
        window: Nanos::from_secs(1),
        seed,
        cold_start: true,
        prewarm: true,
        cpu_jitter_sigma: 0.0,
        max_errors: 100,
        processes: 1,
        cores: 4,
        arrival,
        obs: ObsConfig::default(),
        faults: None,
        retry: rb_faults::RetryPolicy::None,
    }
}

/// One closed-loop run on the standard memory-bound testbed.
fn closed_run(seed: u64) -> Recording {
    let mut t = testbed::paper_ext2(Bytes::gib(1), seed);
    let w = personalities::random_read(Bytes::mib(16));
    Engine::run(&mut t, &w, &open_cfg(3, seed, Arrival::Closed)).unwrap()
}

/// Closed-loop capacity of the standard memory-bound testbed, in
/// ops/sec — the denominator for the hockey-stick fractions below.
fn closed_loop_capacity(seed: u64) -> u64 {
    closed_run(seed).ops_per_sec() as u64
}

fn open_run(seed: u64, arrival: Arrival) -> OpenLoopReport {
    let mut t = testbed::paper_ext2(Bytes::gib(1), seed);
    let w = personalities::random_read(Bytes::mib(16));
    let rec = Engine::run(&mut t, &w, &open_cfg(3, seed, arrival)).unwrap();
    rec.open_loop.expect("open-loop report")
}

/// The figure a closed loop cannot draw: p99 latency is benign well
/// below the knee and explodes once offered load exceeds capacity,
/// with the overflow showing up as admission-queue drops.
#[test]
fn latency_hockey_sticks_past_the_knee() {
    let capacity = closed_loop_capacity(7);
    assert!(capacity > 100, "testbed capacity only {capacity} ops/s");
    let cool = open_run(7, Arrival::Poisson { rate: capacity / 2 });
    let hot = open_run(
        7,
        Arrival::Poisson {
            rate: capacity + capacity / 2,
        },
    );
    let cool_p99 = cool.p99.expect("cool p99");
    let hot_p99 = hot.p99.expect("hot p99");
    assert!(
        hot_p99.as_secs_f64() > cool_p99.as_secs_f64() * 5.0,
        "no hockey stick: p99 {cool_p99} at 0.5x vs {hot_p99} at 1.5x capacity"
    );
    // Below the knee the queue admits everything; past it the bounded
    // queue must shed load rather than pretend to absorb it.
    assert_eq!(cool.dropped, 0, "drops below the knee");
    assert!(hot.dropped > 0, "overload never hit the admission bound");
    assert!(hot.max_queue_depth > cool.max_queue_depth);
    // And the closed loop is structurally blind to all of it: its p99
    // is pure service time — in the same neighbourhood as the
    // underloaded open run, nowhere near the overloaded one's queue
    // wait. The "flat closed-loop curve" is exactly this number, which
    // never moves because issue-on-completion cannot overload itself.
    let closed_p99 = closed_run(7).histogram.quantile(0.99).expect("closed p99");
    assert!(
        hot_p99.as_secs_f64() > closed_p99.as_secs_f64() * 5.0,
        "closed-loop p99 {closed_p99} should sit far below overloaded open-loop {hot_p99}"
    );
}

/// The Poisson generator is calibrated: over many inter-arrival gaps
/// the sample mean lands within a few percent of 1/rate.
#[test]
fn poisson_interarrival_mean_matches_rate() {
    let rate = 10_000u64;
    let mut gen = ArrivalGen::new(
        Arrival::Poisson { rate },
        Rng::new(42).fork("arrivals"),
        Nanos::ZERO,
        Nanos::from_secs(3600),
    )
    .unwrap();
    let n = 100_000u64;
    let mut t = Nanos::ZERO;
    let mut prev = Nanos::ZERO;
    let mut total = 0u64;
    for _ in 0..n {
        t = gen.next_after(t);
        total += t.as_nanos() - prev.as_nanos();
        prev = t;
    }
    let mean_ns = total as f64 / n as f64;
    let expect_ns = 1e9 / rate as f64;
    let err = (mean_ns - expect_ns).abs() / expect_ns;
    assert!(
        err < 0.02,
        "mean inter-arrival {mean_ns:.1} ns vs expected {expect_ns:.1} ns ({:.1}% off)",
        err * 100.0
    );
}

/// The request ledger balances: every request the arrival process
/// offered is accounted for as completed, failed, or dropped — even
/// deep into overload.
#[test]
fn drop_accounting_sums_to_offered() {
    let capacity = closed_loop_capacity(3);
    for mult in [1u64, 3] {
        let open = open_run(
            3,
            Arrival::Poisson {
                rate: capacity * mult,
            },
        );
        assert!(open.offered > 0);
        assert_eq!(
            open.offered,
            open.completed + open.failed + open.dropped,
            "ledger does not sum at {mult}x capacity"
        );
    }
    // The bursty and diurnal processes keep the same books.
    for arrival in [
        Arrival::Bursty { rate: capacity },
        Arrival::Diurnal { rate: capacity },
    ] {
        let open = open_run(5, arrival);
        assert_eq!(open.offered, open.completed + open.failed + open.dropped);
    }
}

/// The golden small-sweep spec plus an arrival axis.
fn sweep_with_arrivals(arrivals: Vec<Arrival>) -> SweepSpec {
    let mut plan = RunPlan::quick(0);
    plan.protocol = Protocol::FixedRuns(2);
    plan.duration = Nanos::from_secs(2);
    SweepSpec {
        name: "sweep".into(),
        personalities: vec![
            Personality::parse("randomread").unwrap(),
            Personality::parse("varmail").unwrap(),
        ],
        traces: Vec::new(),
        file_sizes: vec![Bytes::mib(16)],
        file_counts: vec![25],
        filesystems: vec![FsKind::Ext2, FsKind::Xfs],
        cache_capacities: vec![Bytes::mib(32)],
        processes: Vec::new(),
        arrivals,
        faults: Vec::new(),
        retry: rocketbench::faults::RetryPolicy::None,
        slo_p99: None,
        plan,
        device: Bytes::gib(2),
        run_budget: None,
    }
}

/// Sweeping the arrival axis must not perturb the closed-loop cells:
/// every `closed` row of the widened CSV, with the inserted `arrival`
/// column and the trailing open-loop columns removed, is
/// byte-identical to the committed pre-axis golden rows.
#[test]
fn closed_cells_survive_the_axis_unchanged() {
    let spec = sweep_with_arrivals(vec![Arrival::Closed, Arrival::Poisson { rate: 500 }]);
    let report = run_campaign(&spec, 2).expect("sweep");
    let csv = report.to_csv();
    // Column 5 is `arrival`; the last five are offered..p999_ms.
    let strip_arrival_columns = |line: &str| -> String {
        let mut fields: Vec<&str> = line.split(',').collect();
        fields.remove(5);
        fields.truncate(fields.len() - 5);
        fields.join(",")
    };
    let mut lines = csv.lines();
    let header = strip_arrival_columns(lines.next().expect("header"));
    let closed_rows: Vec<String> = lines
        .filter(|l| l.split(',').nth(5) == Some("closed"))
        .map(strip_arrival_columns)
        .collect();
    let golden_csv = golden("sweep_small.csv");
    let mut golden_lines = golden_csv.lines();
    assert_eq!(header, golden_lines.next().expect("golden header"));
    let golden_rows: Vec<String> = golden_lines.map(str::to_string).collect();
    assert_eq!(
        closed_rows, golden_rows,
        "closed-loop cells drifted once the arrival axis was swept"
    );
}

/// A spec whose axis is explicitly `[closed]` keeps the exact
/// pre-axis report bytes: no `arrival` column, identical CSV.
#[test]
fn explicit_closed_axis_is_byte_identical_to_golden() {
    let report = run_campaign(&sweep_with_arrivals(vec![Arrival::Closed]), 3).expect("sweep");
    assert!(!report.sweeps_arrival());
    assert_eq!(report.to_csv(), golden("sweep_small.csv"));
}

/// Open-loop campaigns are byte-identical at any worker count and
/// across repetitions: the percentile rows are the simulation's, never
/// the host's.
#[test]
fn arrival_axis_is_jobs_deterministic() {
    let spec = sweep_with_arrivals(vec![
        Arrival::Closed,
        Arrival::Poisson { rate: 800 },
        Arrival::Bursty { rate: 800 },
    ]);
    let serial = run_campaign(&spec, 1).expect("jobs=1");
    let sharded = run_campaign(&spec, 4).expect("jobs=4");
    assert_eq!(serial.cells.len(), 12); // 2 personalities x 2 fs x 3 arrivals
    assert_eq!(serial.to_csv(), sharded.to_csv());
    assert_eq!(serial.to_json().to_string(), sharded.to_json().to_string());
    let again = run_campaign(&spec, 4).expect("repeat");
    assert_eq!(sharded.to_csv(), again.to_csv());

    // Seeded cases: a random seed, a Poisson rate of 100-4,999/s and
    // 1-4 jobs. One varmail run accounts for every offered request and
    // repeats its ledger and tail exactly, and a closed-plus-open
    // campaign is byte-identical at one worker and at `jobs`. A failure
    // names its case; `Rng::new(case)` replays it.
    for case in 0..8 {
        let mut rng = Rng::new(case);
        let rate = 100 + rng.below(4_900);
        let seed = rng.next_u64();
        let jobs = 1 + rng.below(4) as usize;
        let run = || {
            let mut t = testbed::paper_ext2(Bytes::mib(256), seed);
            let w = personalities::varmail(10);
            let cfg = EngineConfig {
                prewarm: false,
                cores: 2,
                ..open_cfg(1, seed, Arrival::Poisson { rate })
            };
            Engine::run(&mut t, &w, &cfg).unwrap().open_loop.unwrap()
        };
        let first = run();
        assert_eq!(
            first.offered,
            first.completed + first.failed + first.dropped,
            "case {case}"
        );
        assert_eq!(first, run(), "case {case}");
        let mut plan = RunPlan::quick(seed);
        plan.protocol = Protocol::FixedRuns(1);
        plan.duration = Nanos::from_secs(1);
        let spec = SweepSpec {
            name: "prop".into(),
            personalities: vec![Personality::Varmail],
            file_counts: vec![10],
            filesystems: vec![FsKind::Ext2],
            cache_capacities: vec![Bytes::mib(32)],
            arrivals: vec![Arrival::Closed, Arrival::Poisson { rate }],
            plan,
            device: Bytes::mib(256),
            ..SweepSpec::default()
        };
        let serial = run_campaign(&spec, 1).expect("jobs=1");
        let sharded = run_campaign(&spec, jobs).expect("jobs=N");
        assert_eq!(serial.to_csv(), sharded.to_csv(), "case {case}");
        assert_eq!(
            serial.to_json().to_string(),
            sharded.to_json().to_string(),
            "case {case}"
        );
    }
}

/// Seed-determinism and seed-sensitivity of a single open-loop run:
/// same seed, same ledger and percentiles; different seed, different
/// arrival stream.
#[test]
fn open_runs_are_seed_deterministic() {
    let run = |seed: u64| open_run(seed, Arrival::Poisson { rate: 2_000 });
    assert_eq!(run(11), run(11));
    let a = run(11);
    let b = run(12);
    assert_ne!(
        (a.offered, a.p50, a.p99),
        (b.offered, b.p50, b.p99),
        "seed had no effect on the arrival stream"
    );
}
