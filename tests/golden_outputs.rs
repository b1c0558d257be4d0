//! Byte-identity regression tests for the zero-alloc op pipeline.
//!
//! The interned-path + FNV-hashing refactor (PR 4) must not change a
//! single output byte: these tests regenerate the quick Figure 1
//! campaign, the figreplay table, a small sweep campaign, a wide one
//! with every optional report column, and afap replays of the golden
//! v2 trace at x32 and x1024 (with the x1024 merge order), and diff
//! them against snapshots captured from the pre-refactor binaries
//! (committed under `tests/golden/`). Any change
//! to simulated timing, scheduling, seeding or rendering shows up here
//! as a diff — the same discipline PRs 2 and 3 used for their
//! refactors. Timed replays of the golden v2 trace, x1 to x256, pin the
//! overlapped multi-stream engine: their digests cover the instant at
//! which every op reached the target.

use rocketbench::core::campaign::{run_campaign, Personality, SweepSpec};
use rocketbench::core::figures::{fig1_campaign, render_fig1, Fig1Config};
use rocketbench::core::prelude::*;
use rocketbench::core::testbed;
use rocketbench::replay::{apply, replay_with, schedule, ReplayConfig, Transform};
use rocketbench::simcore::error::SimResult;
use rocketbench::simcore::fnv::{fnv1a, FNV_OFFSET};
use rocketbench::simcore::time::Nanos;
use rocketbench::simcore::units::Bytes;
use rocketbench::simfs::intern::PathId;
use rocketbench::simfs::stack::{Fd, OpCost};
use std::collections::HashMap;
use std::fmt::Write as _;

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn repo_file(name: &str) -> String {
    let path = format!("{}/examples/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

#[test]
fn fig1_quick_is_byte_identical_at_any_jobs() {
    let expected = golden("fig1_quick.txt");
    for jobs in [1, 2] {
        let data = fig1_campaign(&Fig1Config::quick(), jobs).expect("fig1 quick");
        assert_eq!(
            render_fig1(&data),
            expected,
            "fig1 --quick output drifted at jobs={jobs}; the refactor \
             changed simulated behaviour"
        );
    }
}

#[test]
fn figreplay_quick_is_byte_identical() {
    // Reproduces crates/bench/src/bin/figreplay.rs with --quick, minus
    // the results-file line.
    let duration = Nanos::from_secs(2);
    let mut origin = testbed::paper_ext2(Bytes::gib(1), 7);
    let mut recorder = Recorder::new(&mut origin);
    let workload = personalities::varmail(25);
    let config = EngineConfig {
        duration,
        window: Nanos::from_secs(1),
        seed: 7,
        cold_start: false,
        prewarm: false,
        ..Default::default()
    };
    Engine::run(&mut recorder, &workload, &config).expect("record");
    let trace = recorder.finish();
    let profile = rocketbench::replay::characterize(&trace);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "recorded {} ops, span {}, working set {}:",
        trace.len(),
        trace.span(),
        profile.working_set
    );
    out.push_str(&profile.render());
    out.push('\n');

    let policies = [
        Timing::Afap,
        Timing::Faithful,
        Timing::Scaled { factor: 4.0 },
    ];
    let mut rows = Vec::new();
    let mut throughputs: Vec<Vec<f64>> = Vec::new();
    for timing in policies {
        let mut policy_tp = Vec::new();
        for fs in FsKind::ALL {
            let mut target = testbed::paper_fs(fs, Bytes::gib(1), 7);
            let result = replay_with(&mut target, &trace, &ReplayConfig { timing, seed: 7 });
            let hit = target.cache_hit_ratio().unwrap_or(0.0);
            policy_tp.push(result.ops_per_sec());
            rows.push(vec![
                timing.label(),
                fs.name().to_string(),
                format!("{}", result.duration),
                format!("{:.0}", result.ops_per_sec()),
                format!("{hit:.3}"),
                format!("{}", result.errors),
            ]);
        }
        throughputs.push(policy_tp);
    }
    let _ = writeln!(out, "one trace, three timing policies, three file systems:");
    out.push_str(&rocketbench::core::report::text_table(
        &["timing", "fs", "duration", "ops/s", "hits", "errors"],
        &rows,
    ));
    out.push('\n');
    for (timing, tp) in policies.iter().zip(&throughputs) {
        let max = tp.iter().cloned().fold(f64::MIN, f64::max);
        let min = tp.iter().cloned().fold(f64::MAX, f64::min);
        let _ = writeln!(
            out,
            "{:>10}: between-fs throughput spread {:.2}x",
            timing.label(),
            max / min.max(1e-9)
        );
    }
    assert_eq!(
        out,
        golden("figreplay_quick.txt"),
        "figreplay --quick output drifted"
    );
}

/// The small sweep the snapshot was captured from:
/// `rocketbench sweep --workloads randomread,varmail --sizes 16M
///  --files 25 --fs ext2,xfs --cache 32M --duration 2s --runs 2`.
fn small_sweep_spec() -> SweepSpec {
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
        processes: vec![1],
        arrivals: Vec::new(),
        faults: Vec::new(),
        retry: rocketbench::faults::RetryPolicy::None,
        slo_p99: None,
        plan,
        device: Bytes::gib(2),
        run_budget: None,
    }
}

#[test]
fn sweep_csv_is_byte_identical_at_any_jobs() {
    let expected = golden("sweep_small.csv");
    for jobs in [1, 3] {
        let report = run_campaign(&small_sweep_spec(), jobs).expect("sweep");
        assert_eq!(
            report.to_csv(),
            expected,
            "sweep CSV drifted at jobs={jobs}"
        );
    }
}

/// A small campaign that grows every optional report group: a size-
/// and a count-axis personality, the golden v2 trace at afap, 1 and 2
/// processes, a closed and a Poisson arrival, a healthy cell and one
/// whose crash lands inside the run (under `bounded:2`), an SLO, and
/// the flight recorder on.
fn wide_sweep_spec() -> SweepSpec {
    let mut plan = RunPlan::quick(5);
    plan.protocol = Protocol::FixedRuns(2);
    plan.duration = Nanos::from_millis(600);
    plan.window = Nanos::from_millis(200);
    plan.obs.metrics = true;
    let trace = Trace::from_text(&repo_file("golden_v2.trace")).expect("parses");
    let mut arrivals = vec![Arrival::Closed];
    arrivals.extend(Arrival::parse_axis("poisson:400").expect("arrival"));
    SweepSpec {
        name: "wide".into(),
        personalities: vec![Personality::RandomRead, Personality::Varmail],
        traces: vec![TraceSource::new("golden_v2", trace, Timing::Afap)],
        file_sizes: vec![Bytes::mib(8)],
        file_counts: vec![20],
        filesystems: vec![FsKind::Ext3],
        cache_capacities: vec![Bytes::mib(16)],
        processes: vec![1, 2],
        arrivals,
        faults: vec![
            None,
            Some(FaultSpec::parse("crash:300ms").expect("fault plan")),
        ],
        retry: RetryPolicy::parse("bounded:2").expect("retry policy"),
        slo_p99: Some(Nanos::from_millis(20)),
        plan,
        device: Bytes::mib(256),
        run_budget: None,
    }
}

/// Every optional column group of the CSV, the JSON and the table, at
/// two job counts. `UPDATE_GOLDEN=1` rewrites the snapshots.
#[test]
fn wide_sweep_reports_are_byte_identical_at_any_jobs() {
    for jobs in [1, 3] {
        let report = run_campaign(&wide_sweep_spec(), jobs).expect("wide sweep");
        for (name, text) in [
            ("sweep_wide.csv", report.to_csv()),
            ("sweep_wide.json", format!("{}\n", report.to_json())),
            ("sweep_wide.txt", report.render()),
        ] {
            if std::env::var_os("UPDATE_GOLDEN").is_some() && jobs == 1 {
                let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
                std::fs::write(&path, &text).expect("write golden");
            }
            let mut expected = golden(name);
            if jobs > 1 {
                // The table's title names the worker count.
                expected = expected.replacen("(1 worker)", &format!("({jobs} workers)"), 1);
            }
            assert_eq!(text, expected, "{name} drifted at jobs={jobs}");
        }
    }
}

#[test]
fn afap_replay_of_scaled_golden_trace_is_byte_identical() {
    // `rocketbench trace transform --scale 32` + `trace replay --timing
    // afap` on the golden v2 trace, as one summary line.
    let trace = Trace::from_text(&repo_file("golden_v2.trace")).expect("parses");
    let scaled = apply(&trace, &[Transform::Scale { clones: 32 }]).expect("scale");
    let mut target = testbed::paper_fs(FsKind::Ext2, Bytes::gib(1), 0);
    let result = replay_with(
        &mut target,
        &scaled,
        &ReplayConfig {
            timing: Timing::Afap,
            seed: 0,
        },
    );
    let line = format!(
        "replayed {} ops ({} errors) in {} on {}\n",
        result.ops,
        result.errors,
        result.duration,
        target.name()
    );
    assert_eq!(line, golden("replay_x32.txt"), "replay outcome drifted");
}

/// FNV-1a over a schedule's entry indices, as little-endian u64 words.
fn order_digest(order: &[usize]) -> u64 {
    order
        .iter()
        .fold(FNV_OFFSET, |h, &i| fnv1a(h, &(i as u64).to_le_bytes()))
}

#[test]
fn wide_replay_merge_of_golden_trace_x1024_is_byte_identical() {
    // The same replay as above at x1024: 21,503 entries on 2,048
    // streams, where the seeded merge picks among thousands of runnable
    // streams per entry. The summary line pins the afap replay; the
    // digests pin the merge order itself under afap and faithful.
    let trace = Trace::from_text(&repo_file("golden_v2.trace")).expect("parses");
    let scaled = apply(&trace, &[Transform::Scale { clones: 1024 }]).expect("scale");
    let mut target = testbed::paper_fs(FsKind::Ext2, Bytes::gib(1), 0);
    let result = replay_with(
        &mut target,
        &scaled,
        &ReplayConfig {
            timing: Timing::Afap,
            seed: 0,
        },
    );
    let mut out = format!(
        "replayed {} ops ({} errors) in {} on {}\n",
        result.ops,
        result.errors,
        result.duration,
        target.name()
    );
    for timing in [Timing::Afap, Timing::Faithful] {
        let order = schedule(&scaled, timing, 0);
        let _ = writeln!(
            out,
            "schedule {timing} seed 0: {} entries, fnv {:#018x}",
            order.len(),
            order_digest(&order)
        );
    }
    assert_eq!(out, golden("replay_x1024.txt"), "wide replay merge drifted");
}

/// A pass-through target that digests what a replay asks of the target:
/// FNV-1a over every call's (verb, path, issue instant), in call order.
/// It forwards every method the replay driver calls, `supports_timed`
/// and `prepare_path` included, so a timed multi-stream replay through
/// it takes the overlapped engine exactly as it would on the bare target
/// (`Recorder` forwards neither, and would quietly serialize it).
struct Witness<T: Target> {
    inner: T,
    /// Open handles' paths, so fd-addressed calls digest their path.
    paths: HashMap<Fd, String>,
    calls: u64,
    digest: u64,
}

impl<T: Target> Witness<T> {
    fn new(inner: T) -> Self {
        Witness {
            inner,
            paths: HashMap::new(),
            calls: 0,
            digest: FNV_OFFSET,
        }
    }

    fn see(&mut self, verb: &str, path: &str, issue: Nanos) {
        self.calls += 1;
        let h = fnv1a(self.digest, verb.as_bytes());
        let h = fnv1a(h, &[0]);
        let h = fnv1a(h, path.as_bytes());
        let h = fnv1a(h, &[0]);
        self.digest = fnv1a(h, &issue.as_nanos().to_le_bytes());
    }

    fn see_fd(&mut self, verb: &str, fd: Fd, issue: Nanos) {
        let path = self.paths.get(&fd).cloned().unwrap_or_default();
        self.see(verb, &path, issue);
    }
}

impl<T: Target> Target for Witness<T> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn now(&self) -> Nanos {
        self.inner.now()
    }
    fn advance(&mut self, d: Nanos) {
        self.inner.advance(d)
    }
    fn supports_timed(&self) -> bool {
        self.inner.supports_timed()
    }
    fn prepare_path(&mut self, path: &str) -> Option<PathId> {
        self.inner.prepare_path(path)
    }
    fn create_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<OpCost> {
        self.see("create", path, issue);
        self.inner.create_at(id, path, issue)
    }
    fn mkdir_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<OpCost> {
        self.see("mkdir", path, issue);
        self.inner.mkdir_at(id, path, issue)
    }
    fn unlink_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<OpCost> {
        self.see("unlink", path, issue);
        self.inner.unlink_at(id, path, issue)
    }
    fn stat_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<OpCost> {
        self.see("stat", path, issue);
        self.inner.stat_at(id, path, issue)
    }
    fn open_at(&mut self, id: Option<PathId>, path: &str, issue: Nanos) -> SimResult<(Fd, OpCost)> {
        self.see("open", path, issue);
        let (fd, cost) = self.inner.open_at(id, path, issue)?;
        self.paths.insert(fd, path.to_string());
        Ok((fd, cost))
    }
    fn set_size_at(&mut self, fd: Fd, size: Bytes, issue: Nanos) -> SimResult<OpCost> {
        self.see_fd("setsize", fd, issue);
        self.inner.set_size_at(fd, size, issue)
    }
    fn read_at(&mut self, fd: Fd, offset: Bytes, len: Bytes, issue: Nanos) -> SimResult<OpCost> {
        self.see_fd("read", fd, issue);
        self.inner.read_at(fd, offset, len, issue)
    }
    fn write_at(&mut self, fd: Fd, offset: Bytes, len: Bytes, issue: Nanos) -> SimResult<OpCost> {
        self.see_fd("write", fd, issue);
        self.inner.write_at(fd, offset, len, issue)
    }
    fn fsync_at(&mut self, fd: Fd, issue: Nanos) -> SimResult<OpCost> {
        self.see_fd("fsync", fd, issue);
        self.inner.fsync_at(fd, issue)
    }
    fn tick_at(&mut self, issue: Nanos) -> Nanos {
        self.see("tick", "", issue);
        self.inner.tick_at(issue)
    }
    fn close(&mut self, fd: Fd) -> SimResult<()> {
        let now = self.inner.now();
        self.see_fd("close", fd, now);
        self.paths.remove(&fd);
        self.inner.close(fd)
    }
    fn drop_caches(&mut self) -> bool {
        self.inner.drop_caches()
    }
}

/// Replays `trace` under `timing` with merge seed 0 on a fresh 1 GiB
/// ext2 target, as one summary line with the digest of what the target
/// saw.
fn witnessed_replay(label: &str, trace: &Trace, timing: Timing) -> String {
    let mut target = Witness::new(testbed::paper_fs(FsKind::Ext2, Bytes::gib(1), 0));
    let result = replay_with(&mut target, trace, &ReplayConfig { timing, seed: 0 });
    format!(
        "{label} {timing}: {} ops ({} errors) in {}, {} calls, fnv {:#018x}\n",
        result.ops, result.errors, result.duration, target.calls, target.digest
    )
}

/// Two streams whose zero-cost entries (`close`, and `open` of a path
/// that is already open) land at the same instant, crossing over each
/// other's paths.
const SAME_INSTANT_TRACE: &str = "# rocketbench-trace v2
0 0 create /za
1 0 create /zb
0 0 open /za
1 0 open /zb
0 1000000 open /za
1 1000000 open /zb
0 1000000 close /za
1 1000000 close /zb
0 1000000 open /zb
1 1000000 open /za
0 1000000 open /zb
1 1000000 open /za
0 1000000 write /zb 0 4096
1 1000000 write /za 0 4096
0 1000000 close /zb
1 1000000 close /za
";

#[test]
fn timed_multi_stream_replays_are_byte_identical() {
    // Timed replays of the golden v2 trace take the overlapped engine
    // (two or more streams on a time-parameterized target); the digest
    // pins the instant at which every op reached the target.
    let trace = Trace::from_text(&repo_file("golden_v2.trace")).expect("parses");
    let timings = [Timing::Faithful, Timing::Scaled { factor: 4.0 }];
    let mut out = String::new();
    for clones in [1, 4, 32, 256] {
        let scaled = apply(&trace, &[Transform::Scale { clones }]).expect("scale");
        for timing in timings {
            out.push_str(&witnessed_replay(&format!("x{clones}"), &scaled, timing));
        }
    }
    let same_instant = Trace::from_text(SAME_INSTANT_TRACE).expect("parses");
    for timing in timings {
        out.push_str(&witnessed_replay("same-instant", &same_instant, timing));
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = format!(
            "{}/tests/golden/replay_timed.txt",
            env!("CARGO_MANIFEST_DIR")
        );
        std::fs::write(&path, &out).expect("write golden");
    }
    assert_eq!(out, golden("replay_timed.txt"), "timed replay drifted");
}
