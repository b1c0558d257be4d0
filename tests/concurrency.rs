//! End-to-end tests for the concurrency dimension: the discrete-event
//! process scheduler, the campaign `processes` axis, and overlapped
//! multi-stream replay.
//!
//! The load-bearing properties, in the repo's usual order of
//! importance: (1) `processes = 1` is the classic serial engine and
//! perturbs nothing — not even when the axis is swept alongside
//! concurrent cells; (2) every multi-process schedule is a pure
//! function of (workload, config, seed), independent of `--jobs`;
//! (3) the contention model produces the physics the paper's fifth
//! dimension describes.

use rocketbench::core::campaign::{run_campaign, Personality, SweepSpec};
use rocketbench::core::prelude::*;
use rocketbench::core::testbed;
use rocketbench::replay::{replay_with, ReplayConfig};
use rocketbench::simcore::rng::Rng;
use rocketbench::simcore::time::Nanos;
use rocketbench::simcore::units::Bytes;

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn quick_cfg(secs: u64, seed: u64, processes: u32) -> EngineConfig {
    EngineConfig {
        duration: Nanos::from_secs(secs),
        window: Nanos::from_secs(1),
        seed,
        cold_start: true,
        prewarm: true,
        cpu_jitter_sigma: 0.0,
        max_errors: 100,
        processes,
        cores: 4,
        arrival: Arrival::Closed,
        obs: ObsConfig::default(),
        faults: None,
        retry: rb_faults::RetryPolicy::None,
    }
}

/// The golden small-sweep spec plus a concurrency axis.
fn sweep_with_processes(processes: Vec<u32>) -> SweepSpec {
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
        processes,
        arrivals: Vec::new(),
        faults: Vec::new(),
        retry: rocketbench::faults::RetryPolicy::None,
        slo_p99: None,
        plan,
        device: Bytes::gib(2),
        run_budget: None,
    }
}

/// Sweeping the concurrency axis must not perturb the serial cells:
/// every `processes = 1` row of the widened CSV, with the inserted
/// `processes` column removed, is byte-identical to the committed
/// pre-axis golden rows (same seeds, same samples, same spreads).
#[test]
fn serial_cells_survive_the_axis_unchanged() {
    let report = run_campaign(&sweep_with_processes(vec![1, 4]), 2).expect("sweep");
    let csv = report.to_csv();
    let strip_processes_column = |line: &str| -> String {
        let mut fields: Vec<&str> = line.split(',').collect();
        fields.remove(5);
        fields.join(",")
    };
    let mut lines = csv.lines();
    let header = strip_processes_column(lines.next().expect("header"));
    let serial_rows: Vec<String> = lines
        .filter(|l| l.split(',').nth(5) == Some("1"))
        .map(strip_processes_column)
        .collect();
    let golden_csv = golden("sweep_small.csv");
    let mut golden_lines = golden_csv.lines();
    assert_eq!(header, golden_lines.next().expect("golden header"));
    let golden_rows: Vec<String> = golden_lines.map(str::to_string).collect();
    assert_eq!(
        serial_rows, golden_rows,
        "processes=1 cells drifted once the axis was swept"
    );
}

/// A spec whose axis is explicitly `[1]` keeps the exact pre-axis
/// report bytes: no `processes` column, identical CSV.
#[test]
fn explicit_serial_axis_is_byte_identical_to_golden() {
    let report = run_campaign(&sweep_with_processes(vec![1]), 3).expect("sweep");
    assert!(!report.sweeps_processes());
    assert_eq!(report.to_csv(), golden("sweep_small.csv"));
}

/// Multi-process campaigns are byte-identical at any worker count and
/// across repetitions: the interleaving is the scheduler's, never the
/// host's.
#[test]
fn process_axis_is_jobs_deterministic() {
    let spec = sweep_with_processes(vec![1, 2, 8]);
    let serial = run_campaign(&spec, 1).expect("jobs=1");
    let sharded = run_campaign(&spec, 4).expect("jobs=4");
    assert_eq!(serial.cells.len(), 12); // 2 personalities x 2 fs x 3 procs
    assert_eq!(serial.to_csv(), sharded.to_csv());
    assert_eq!(serial.to_json().to_string(), sharded.to_json().to_string());
    let again = run_campaign(&spec, 4).expect("repeat");
    assert_eq!(sharded.to_csv(), again.to_csv());

    // Seeded cases: a random seed, 1-5 processes and 1-4 jobs. One
    // varmail run repeats bit for bit, and a one-cell-per-axis-value
    // campaign is byte-identical at one worker and at `jobs`. A failure
    // names its case; `Rng::new(case)` replays it.
    for case in 0..8 {
        let mut rng = Rng::new(case);
        let processes = 1 + rng.below(5) as u32;
        let seed = rng.next_u64();
        let jobs = 1 + rng.below(4) as usize;
        let run = || {
            let mut t = testbed::paper_ext2(Bytes::mib(256), seed);
            let w = personalities::varmail(10);
            let rec = Engine::run(&mut t, &w, &quick_cfg(1, seed, processes)).unwrap();
            (rec.ops, rec.errors, rec.duration, rec.histogram.clone())
        };
        assert_eq!(run(), run(), "case {case}");
        let mut plan = RunPlan::quick(seed);
        plan.protocol = Protocol::FixedRuns(1);
        plan.duration = Nanos::from_secs(1);
        let spec = SweepSpec {
            name: "prop".into(),
            personalities: vec![Personality::Varmail],
            file_counts: vec![10],
            filesystems: vec![FsKind::Ext2],
            cache_capacities: vec![Bytes::mib(32)],
            processes: vec![1, processes],
            plan,
            device: Bytes::mib(256),
            ..SweepSpec::default()
        };
        let serial = run_campaign(&spec, 1).expect("jobs=1");
        let sharded = run_campaign(&spec, jobs).expect("jobs=N");
        assert_eq!(serial.to_csv(), sharded.to_csv(), "case {case}");
    }
}

/// Seed-determinism and seed-sensitivity of a single multi-process run.
#[test]
fn scheduled_runs_are_seed_deterministic() {
    let run = |seed: u64| {
        let mut t = testbed::paper_ext2(Bytes::gib(1), seed);
        let w = personalities::fileserver(30);
        let rec = Engine::run(&mut t, &w, &quick_cfg(3, seed, 4)).unwrap();
        (rec.ops, rec.errors, rec.duration, rec.histogram.clone())
    };
    assert_eq!(run(11), run(11));
    let a = run(11);
    let b = run(12);
    assert_ne!((a.0, a.3), (b.0, b.3), "seed had no effect");
}

/// The contention physics: a memory-bound workload gains real
/// throughput from more processes (cores parallelize), while the same
/// workload under a crushed cache gains almost nothing (the spindle
/// serializes).
#[test]
fn cores_parallelize_and_the_device_serializes() {
    let throughput = |cache_mib: u64, processes: u32| {
        let mut t = testbed::paper_ext2(Bytes::gib(1), 0);
        t.set_cache_capacity_pages(Bytes::mib(cache_mib).as_u64() / 4096);
        let w = personalities::random_read(Bytes::mib(32));
        let rec = Engine::run(&mut t, &w, &quick_cfg(3, 7, processes)).unwrap();
        rec.ops_per_sec()
    };
    // In memory: 4 processes on 4 cores approach 4x.
    let mem1 = throughput(410, 1);
    let mem4 = throughput(410, 4);
    assert!(
        mem4 > mem1 * 3.0,
        "memory-bound 4p speedup only {:.2}x",
        mem4 / mem1
    );
    // On disk: the shared device refuses to scale.
    let disk1 = throughput(4, 1);
    let disk4 = throughput(4, 4);
    assert!(
        disk4 < disk1 * 1.6,
        "disk-bound 4p speedup {:.2}x?!",
        disk4 / disk1
    );
}

/// Multi-process runs demand a time-parameterized target; targets that
/// cannot decouple execution from their clock fail with a clear error
/// instead of producing bogus timings.
#[test]
fn untimed_targets_refuse_multi_process_runs() {
    let dir = std::env::temp_dir().join(format!("rb-conc-{}", std::process::id()));
    let mut t = RealFsTarget::new(&dir).unwrap();
    let w = personalities::random_read(Bytes::kib(64));
    let err = Engine::run(&mut t, &w, &quick_cfg(1, 0, 2)).unwrap_err();
    assert!(
        err.to_string().contains("time-parameterized"),
        "unexpected error: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A two-stream trace with recorded gaps, safe on a fresh target.
fn two_stream_trace() -> Trace {
    Trace::from_text(
        "# rocketbench-trace v2\n\
         0 0 mkdir /t\n\
         0 1000000 create /t/a\n\
         1 2000000 create /t/b\n\
         0 3000000 setsize /t/a 1048576\n\
         1 4000000 setsize /t/b 1048576\n\
         0 5000000 write /t/a 0 65536\n\
         1 6000000 write /t/b 0 65536\n\
         0 7000000 read /t/a 0 65536\n\
         1 8000000 read /t/b 0 65536\n\
         0 9000000 fsync /t/a\n\
         1 10000000 fsync /t/b\n\
         0 11000000 close /t/a\n\
         1 12000000 close /t/b\n",
    )
    .unwrap()
}

/// Timed multi-stream replay on the simulated stack runs through the
/// overlapped engine: clean, deterministic, and never faster than the
/// recorded span.
#[test]
fn overlapped_faithful_replay_is_deterministic_and_honours_the_span() {
    let trace = two_stream_trace();
    let span = trace.span();
    let run = |seed: u64| {
        let mut t = testbed::paper_ext2(Bytes::gib(1), 3);
        let r = replay_with(
            &mut t,
            &trace,
            &ReplayConfig {
                timing: Timing::Faithful,
                seed,
            },
        );
        assert_eq!(r.errors, 0, "{:?}", r.first_error);
        assert_eq!(r.ops, trace.len() as u64);
        assert!(r.duration >= span, "{} < recorded span {span}", r.duration);
        (r.duration, r.histogram)
    };
    assert_eq!(run(1), run(1));
}

/// Overlap is real: two heavy *independent* streams replayed
/// faithfully finish sooner than the same operations serialized into
/// one stream, because their in-memory phases genuinely interleave.
#[test]
fn independent_streams_overlap_under_faithful_timing() {
    // Build the one-stream serialization of the two-stream trace:
    // identical entries, all on stream 0, same timestamps.
    let two = two_stream_trace();
    let mut one = two.clone();
    for e in &mut one.entries {
        e.stream = 0;
    }
    one.normalize_version();
    let replay_duration = |trace: &Trace| {
        let mut t = testbed::paper_ext2(Bytes::gib(1), 3);
        let r = replay_with(
            &mut t,
            trace,
            &ReplayConfig {
                timing: Timing::Faithful,
                seed: 0,
            },
        );
        assert_eq!(r.errors, 0, "{:?}", r.first_error);
        r.duration
    };
    let overlapped = replay_duration(&two);
    let serialized = replay_duration(&one);
    assert!(
        overlapped <= serialized,
        "overlap slower than serialization: {overlapped} > {serialized}"
    );
}

/// As-fast-as-possible replay never routes through the overlap engine,
/// even for multi-stream traces — the classic seeded merge stays in
/// charge (pinned against the committed snapshot in
/// tests/golden_outputs.rs; this checks the dispatch itself).
#[test]
fn afap_replay_keeps_the_serialized_merge() {
    let trace = two_stream_trace();
    // The same trace with every timestamp stretched 1000x (span 12 s).
    let mut stretched = trace.clone();
    for e in &mut stretched.entries {
        e.at = e.at * 1000;
    }
    let afap = |trace: &Trace| {
        let mut t = testbed::paper_ext2(Bytes::gib(1), 3);
        let r = replay_with(&mut t, trace, &ReplayConfig::default());
        assert_eq!(r.errors, 0);
        r.duration
    };
    // Afap ignores timestamps entirely, so the stretched trace replays
    // in exactly the same virtual time; the overlapped engine never
    // would (its issue times respect the 12 s of due times).
    let d = afap(&trace);
    assert_eq!(d, afap(&stretched));
    assert!(d < stretched.span());
}
