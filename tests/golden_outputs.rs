//! Byte-identity regression tests for the zero-alloc op pipeline.
//!
//! The interned-path + FNV-hashing refactor (PR 4) must not change a
//! single output byte: these tests regenerate the quick Figure 1
//! campaign, the figreplay table, a small sweep campaign and an afap
//! replay, and diff them against snapshots captured from the
//! pre-refactor binaries (committed under `tests/golden/`). Any change
//! to simulated timing, scheduling, seeding or rendering shows up here
//! as a diff — the same discipline PRs 2 and 3 used for their
//! refactors.

use rocketbench::core::campaign::{run_campaign, Personality, SweepSpec};
use rocketbench::core::figures::{fig1_campaign, render_fig1, Fig1Config};
use rocketbench::core::prelude::*;
use rocketbench::core::testbed;
use rocketbench::replay::{apply, replay_with, ReplayConfig, Transform};
use rocketbench::simcore::time::Nanos;
use rocketbench::simcore::units::Bytes;
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
