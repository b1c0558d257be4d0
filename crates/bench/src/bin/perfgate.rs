//! perfgate: times the harness itself and records the bench trajectory.
//!
//! The paper's complaint is that benchmarks report unqualified numbers;
//! the harness should hold itself to the same bar. `perfgate` times
//! nine canonical scenarios — the quick Figure 1 campaign, a 4×4
//! sweep-cell grid, an as-fast-as-possible replay of the golden v2
//! trace spatially scaled ×32, an 8-process fileserver run through
//! the discrete-event scheduler, the same run under an open-loop
//! Poisson arrival stream, a raw event-queue pump over the arena
//! heap, a flight-recorder overhead probe (the scheduler run with
//! every recorder off, gated at ≤2% against the pre-recorder
//! trajectory), and a fault-layer overhead probe (the same run with
//! no fault plan armed, under the same ≤2% budget) — over N
//! repetitions, and writes `BENCH_PR<n>.json` with
//! median + IQR wall time, throughput in scenario work units per
//! second, and peak RSS (from `/proc/self/status` where available).
//! One such file per PR is the performance trajectory of the harness.
//! The first three scenarios run the serial engine, so their
//! trajectory records that single-process hot-path speed survives the
//! concurrency refactor.
//!
//! By default each scenario runs in its own child process (`--only`
//! re-invocation), so a heavyweight scenario cannot pollute the heap or
//! allocator state of the ones after it; the parent merges the
//! children's JSON.
//!
//! Usage:
//!   cargo run -p rb-bench --release --bin perfgate [-- --quick]
//!       [--reps N] [--out FILE] [--baseline FILE] [--only NAME]
//!       [--gate RATIO]
//!
//! `--quick` runs fewer repetitions (a CI smoke that still writes valid
//! JSON). `--baseline FILE` reads a previous perfgate JSON and reports
//! per-scenario speedups against it (embedded in the output under
//! `"speedup_vs_baseline"`; scenarios with no baseline entry are
//! reported as `"new"`). `--gate RATIO` turns the comparison into a
//! regression gate: if any baselined scenario's speedup falls below
//! RATIO (e.g. `0.90` = allow up to a 10% slowdown), perfgate still
//! writes the JSON but exits non-zero.

use rb_core::campaign::{
    run_campaign, run_campaign_with, CampaignOptions, Personality, StoreOptions, SweepSpec,
};
use rb_core::figures::{fig1_campaign, Fig1Config};
use rb_core::report::Json;
use rb_core::runner::RunPlan;
use rb_core::sched::Arrival;
use rb_core::testbed;
use rb_core::workload::{personalities, Engine, EngineConfig};
use rb_obs::ObsConfig;
use rb_replay::{apply, replay_with, ReplayConfig, Timing, Trace, Transform};
use rb_simcore::events::EventQueue;
use rb_simcore::time::Nanos;
use rb_simcore::units::Bytes;
use std::time::Instant;

/// One timed scenario: a name, a unit label, and a closure running the
/// scenario once, returning how many work units it performed.
struct Scenario {
    name: &'static str,
    unit: &'static str,
    run: Box<dyn FnMut() -> u64>,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = p * (sorted.len() - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    let frac = idx - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Peak resident set size in bytes, if the kernel exposes it.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

fn flag(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let long = format!("--{name}");
    let prefixed = format!("--{name}=");
    args.iter()
        .position(|a| *a == long)
        .map(|i| args.get(i + 1).cloned().unwrap_or_default())
        .or_else(|| {
            args.iter()
                .find_map(|a| a.strip_prefix(&prefixed).map(str::to_string))
        })
}

/// The golden v2 trace scaled ×32 (the replay scenario's input).
fn scaled_golden() -> Trace {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/golden_v2.trace"
    );
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} (run from the repo)"));
    let trace = Trace::from_text(&text).expect("golden trace parses");
    apply(&trace, &[Transform::Scale { clones: 32 }]).expect("scale x32")
}

/// Scenario names, in run order (the parent dispatches children by
/// name without constructing the scenarios themselves).
const SCENARIO_NAMES: [&str; 9] = [
    "fig1-quick",
    "sweep-4x4",
    "replay-x32",
    "scaling-8p",
    "open-loop-8p",
    "events-pump",
    "obs-overhead",
    "faults-off",
    "sweep-warm",
];

/// The warm pass of `sweep-warm` must be at least this many times
/// faster than its cold pass: loading 16 verified records has to beat
/// executing 16 cells by an order of magnitude, or the store is not
/// pulling its weight.
const SWEEP_WARM_MIN_SPEEDUP: f64 = 10.0;

/// The flight-recorder overhead probe may cost at most this fraction
/// of its pre-recorder baseline: 0.98x = a 2% slowdown budget for the
/// disabled path's branch checks.
const OBS_OVERHEAD_FLOOR: f64 = 0.98;

/// Same budget for the fault layer: with no plan armed, the engine's
/// fault checks are `Option::None` branches and may cost at most 2%
/// against the pre-faults scaling-8p trajectory.
const FAULTS_OFF_FLOOR: f64 = 0.98;

/// The nine canonical scenarios.
fn scenarios(quick: bool) -> Vec<Scenario> {
    // Scenario 1: the quick Figure 1 campaign (single worker so the
    // measurement is a plain single-thread workload).
    let fig1_cells = Fig1Config::quick().sizes.len() as u64;
    let fig1_runs: u64 = match Fig1Config::quick().plan.protocol {
        rb_core::runner::Protocol::FixedRuns(n) => u64::from(n),
        ref p => panic!("fig1-quick work accounting expects a fixed protocol, got {p}"),
    };
    let fig1 = Scenario {
        name: "fig1-quick",
        unit: "cell-runs",
        run: Box::new(move || {
            let data = fig1_campaign(&Fig1Config::quick(), 1).expect("fig1 quick");
            assert_eq!(data.points.len() as u64, fig1_cells);
            fig1_cells * fig1_runs
        }),
    };

    // Scenario 2: a 4×4 sweep-cell grid (4 file sizes × 4 cache
    // capacities, random read on ext2), one fixed run per cell.
    let sweep = Scenario {
        name: "sweep-4x4",
        unit: "cells",
        run: Box::new(|| {
            let mut plan = RunPlan::quick(0);
            plan.duration = Nanos::from_secs(2);
            plan.window = Nanos::from_secs(1);
            let spec = SweepSpec {
                name: "perfgate-4x4".into(),
                personalities: vec![Personality::RandomRead],
                traces: Vec::new(),
                file_sizes: [16u64, 32, 48, 64].iter().map(|&m| Bytes::mib(m)).collect(),
                file_counts: vec![0],
                filesystems: vec![rb_core::testbed::FsKind::Ext2],
                cache_capacities: [8u64, 16, 32, 64].iter().map(|&m| Bytes::mib(m)).collect(),
                processes: vec![1],
                arrivals: Vec::new(),
                faults: Vec::new(),
                retry: rb_faults::RetryPolicy::None,
                slo_p99: None,
                plan,
                device: Bytes::mib(512),
                run_budget: None,
            };
            let report = run_campaign(&spec, 1).expect("sweep 4x4");
            report.cells.len() as u64
        }),
    };

    // Scenario 3: afap replay of golden_v2 ×32, repeated onto fresh
    // targets within one timed repetition so the sample is long enough
    // to measure.
    let trace = scaled_golden();
    let trace_ops = trace.len() as u64;
    let inner: u64 = if quick { 8 } else { 64 };
    let replay = Scenario {
        name: "replay-x32",
        unit: "ops",
        run: Box::new(move || {
            let mut total = 0u64;
            for i in 0..inner {
                let mut target = testbed::paper_ext2(Bytes::mib(256), i);
                let result = replay_with(
                    &mut target,
                    &trace,
                    &ReplayConfig {
                        timing: Timing::Afap,
                        seed: 0,
                    },
                );
                assert_eq!(result.errors, 0, "replay failed: {:?}", result.first_error);
                total += result.ops;
            }
            assert_eq!(total, trace_ops * inner);
            total
        }),
    };

    // Scenario 4: an 8-process fileserver on ext2 through the
    // discrete-event scheduler — times the concurrency substrate itself
    // (event queue, core tokens, device queue, timed stack ops) on a
    // fixed virtual duration.
    let scaling_secs: u64 = if quick { 2 } else { 5 };
    let scaling = Scenario {
        name: "scaling-8p",
        unit: "ops",
        run: Box::new(move || {
            let mut target = testbed::paper_fs(testbed::FsKind::Ext2, Bytes::gib(1), 5);
            let workload = personalities::fileserver(50);
            let config = EngineConfig {
                duration: Nanos::from_secs(scaling_secs),
                window: Nanos::from_secs(1),
                seed: 5,
                cold_start: false,
                prewarm: false,
                cpu_jitter_sigma: 0.005,
                max_errors: 100,
                processes: 8,
                cores: 4,
                arrival: Arrival::Closed,
                obs: ObsConfig::default(),
                faults: None,
                retry: rb_faults::RetryPolicy::None,
            };
            let rec = Engine::run(&mut target, &workload, &config).expect("scaling-8p");
            assert!(rec.ops > 0);
            rec.ops
        }),
    };

    // Scenario 5: the same 8-process fileserver under an open-loop
    // Poisson arrival stream — times the admission queue, the arrival
    // event stream, and the latency bookkeeping on top of the
    // scheduler substrate scenario 4 measures.
    let open_secs: u64 = if quick { 2 } else { 5 };
    let open = Scenario {
        name: "open-loop-8p",
        unit: "ops",
        run: Box::new(move || {
            let mut target = testbed::paper_fs(testbed::FsKind::Ext2, Bytes::gib(1), 5);
            let workload = personalities::fileserver(50);
            let config = EngineConfig {
                duration: Nanos::from_secs(open_secs),
                window: Nanos::from_secs(1),
                seed: 5,
                cold_start: false,
                prewarm: false,
                cpu_jitter_sigma: 0.005,
                max_errors: 100,
                processes: 8,
                cores: 4,
                arrival: Arrival::Poisson { rate: 20_000 },
                obs: ObsConfig::default(),
                faults: None,
                retry: rb_faults::RetryPolicy::None,
            };
            let rec = Engine::run(&mut target, &workload, &config).expect("open-loop-8p");
            let report = rec.open_loop.expect("open-loop report");
            assert_eq!(
                report.offered,
                report.completed + report.failed + report.dropped
            );
            assert!(rec.ops > 0);
            rec.ops
        }),
    };
    // Scenario 6: a raw event-queue pump — steady-state schedule/pop
    // pairs at depth 1024 over the arena-backed 4-ary heap, the
    // substrate every scheduled run drives. Times the queue alone, with
    // a data-dependent interval so the heap shape stays irregular.
    let pump_events: u64 = if quick { 2_000_000 } else { 8_000_000 };
    let pump = Scenario {
        name: "events-pump",
        unit: "events",
        run: Box::new(move || {
            let mut q: EventQueue<u64> = EventQueue::with_capacity(1024);
            for i in 0..1024u64 {
                q.schedule(Nanos::from_nanos(i), i);
            }
            let mut acc = 0u64;
            for i in 1024..pump_events {
                let (t, s) = q.pop().expect("steady-state queue is non-empty");
                acc = acc.wrapping_add(s);
                q.schedule(t + Nanos::from_nanos(acc % 97 + 1), i);
            }
            while q.pop().is_some() {}
            std::hint::black_box(acc);
            pump_events
        }),
    };
    // Scenario 7: the flight-recorder overhead probe — the identical
    // 8-process run as scaling-8p, with every recorder explicitly off
    // (the default). The engine still passes through the flight
    // recorder's branch checks, and that disabled path is what this
    // scenario prices. Its baseline aliases to the pre-recorder
    // scaling-8p entry in BENCH_PR7.json, with a tighter ≤2% gate.
    let obs_secs: u64 = if quick { 2 } else { 5 };
    let obs_probe = Scenario {
        name: "obs-overhead",
        unit: "ops",
        run: Box::new(move || {
            let mut target = testbed::paper_fs(testbed::FsKind::Ext2, Bytes::gib(1), 5);
            let workload = personalities::fileserver(50);
            let config = EngineConfig {
                duration: Nanos::from_secs(obs_secs),
                window: Nanos::from_secs(1),
                seed: 5,
                cold_start: false,
                prewarm: false,
                cpu_jitter_sigma: 0.005,
                max_errors: 100,
                processes: 8,
                cores: 4,
                arrival: Arrival::Closed,
                obs: ObsConfig::default(),
                faults: None,
                retry: rb_faults::RetryPolicy::None,
            };
            let rec = Engine::run(&mut target, &workload, &config).expect("obs-overhead");
            assert!(
                rec.metrics.is_none() && rec.trace.is_none(),
                "recorder must stay off in the overhead probe"
            );
            assert!(rec.ops > 0);
            rec.ops
        }),
    };
    // Scenario 8: the fault-layer overhead probe — the identical
    // 8-process run as scaling-8p with no fault plan armed. Every op
    // still crosses the injection hooks (device service, allocation,
    // crash check) as disabled branches, and that path is what this
    // scenario prices. Its baseline aliases to the pre-faults
    // scaling-8p entry, with the same ≤2% budget as obs-overhead.
    let faults_secs: u64 = if quick { 2 } else { 5 };
    let faults_off = Scenario {
        name: "faults-off",
        unit: "ops",
        run: Box::new(move || {
            let mut target = testbed::paper_fs(testbed::FsKind::Ext2, Bytes::gib(1), 5);
            let workload = personalities::fileserver(50);
            let config = EngineConfig {
                duration: Nanos::from_secs(faults_secs),
                window: Nanos::from_secs(1),
                seed: 5,
                cold_start: false,
                prewarm: false,
                cpu_jitter_sigma: 0.005,
                max_errors: 100,
                processes: 8,
                cores: 4,
                arrival: Arrival::Closed,
                obs: ObsConfig::default(),
                faults: None,
                retry: rb_faults::RetryPolicy::None,
            };
            let rec = Engine::run(&mut target, &workload, &config).expect("faults-off");
            assert!(
                rec.ledger.is_none(),
                "no ledger may materialize when faults are off"
            );
            assert!(rec.ops > 0);
            rec.ops
        }),
    };
    // Scenario 9: the result-store scale proof — a 4-axis sweep (size ×
    // cache × fs × processes, 16 cells) run twice in one process-tree
    // against a fresh content-addressed store: cold (every cell
    // executes and streams to disk) then warm (every cell loads and
    // verifies from disk). The scenario self-validates the store's
    // contract — warm executes 0 cells, both reports are byte-identical,
    // and warm is at least 10x faster — and reports the *pair*, so the
    // trajectory prices cold streaming overhead and warm win together.
    let sweep_warm = Scenario {
        name: "sweep-warm",
        unit: "cells",
        run: Box::new(move || {
            let mut plan = RunPlan::quick(0);
            plan.duration = Nanos::from_secs(2);
            plan.window = Nanos::from_secs(1);
            let spec = SweepSpec {
                name: "perfgate-sweep-warm".into(),
                personalities: vec![Personality::RandomRead],
                file_sizes: vec![Bytes::mib(16), Bytes::mib(32)],
                file_counts: vec![0],
                filesystems: vec![testbed::FsKind::Ext2, testbed::FsKind::Xfs],
                cache_capacities: vec![Bytes::mib(8), Bytes::mib(16)],
                processes: vec![1, 2],
                plan,
                device: Bytes::mib(512),
                ..SweepSpec::default()
            };
            let dir =
                std::env::temp_dir().join(format!("perfgate-sweep-warm-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let opts = CampaignOptions {
                store: Some(StoreOptions::at(&dir)),
            };
            let t0 = Instant::now();
            let cold = run_campaign_with(&spec, 1, &opts).expect("cold sweep");
            let cold_wall = t0.elapsed();
            let t1 = Instant::now();
            let warm = run_campaign_with(&spec, 1, &opts).expect("warm sweep");
            let warm_wall = t1.elapsed();
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(cold.stats.executed, cold.stats.expanded);
            assert_eq!(
                warm.stats.executed, 0,
                "warm rerun of an unchanged sweep must execute 0 cells"
            );
            assert_eq!(
                cold.report.to_csv(),
                warm.report.to_csv(),
                "cached report must be byte-identical to the live one"
            );
            let speedup = cold_wall.as_secs_f64() / warm_wall.as_secs_f64().max(1e-9);
            assert!(
                speedup >= SWEEP_WARM_MIN_SPEEDUP,
                "store warm pass only {speedup:.1}x over cold (cold {:.1} ms, warm {:.1} ms); \
                 need >= {SWEEP_WARM_MIN_SPEEDUP}x",
                cold_wall.as_secs_f64() * 1e3,
                warm_wall.as_secs_f64() * 1e3,
            );
            (cold.stats.expanded + warm.stats.expanded) as u64
        }),
    };
    vec![
        fig1, sweep, replay, scaling, open, pump, obs_probe, faults_off, sweep_warm,
    ]
}

/// Extracts `(name, wall_ms_median)` pairs from a perfgate JSON (a
/// targeted scan, not a general JSON parser — enough for files perfgate
/// itself wrote).
fn medians_of(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find("\"name\":\"") {
        rest = &rest[pos + 8..];
        let Some(end) = rest.find('"') else { break };
        let name = rest[..end].to_string();
        let Some(mpos) = rest.find("\"wall_ms_median\":") else {
            break;
        };
        let tail = &rest[mpos + 17..];
        let num: String = tail
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            out.push((name, v));
        }
    }
    out
}

/// Extracts the contents of the `"scenarios":[...]` array from a child
/// run's JSON via a bracket-balance scan.
fn scenario_fragment(text: &str) -> Option<String> {
    let start = text.find("\"scenarios\":[")? + "\"scenarios\":[".len();
    let mut depth = 1usize;
    for (i, c) in text[start..].char_indices() {
        match c {
            '[' | '{' => depth += 1,
            ']' | '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(text[start..start + i].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// Runs every scenario in its own child process (`--only NAME`),
/// returning the merged scenario-array fragments and the max child
/// RSS. `None` means spawning itself failed and the caller should fall
/// back to in-process measurement; a child that *ran* and failed is a
/// real scenario failure and exits with its name on stderr instead of
/// being silently re-run.
fn run_isolated(names: &[&'static str], reps: usize, quick: bool) -> Option<(String, Option<u64>)> {
    let exe = std::env::current_exe().ok()?;
    let mut fragments = Vec::new();
    let mut rss: Option<u64> = None;
    for name in names {
        let tmp =
            std::env::temp_dir().join(format!("perfgate-{}-{}.json", std::process::id(), name));
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("--only")
            .arg(name)
            .arg("--reps")
            .arg(reps.to_string())
            .arg("--out")
            .arg(&tmp);
        if quick {
            cmd.arg("--quick");
        }
        let status = cmd.status().ok()?;
        if !status.success() {
            eprintln!("error: scenario {name} failed ({status}); see its output above");
            std::process::exit(1);
        }
        let text = std::fs::read_to_string(&tmp).ok()?;
        let _ = std::fs::remove_file(&tmp);
        fragments.push(scenario_fragment(&text)?);
        if let Some(pos) = text.find("\"peak_rss_bytes\":") {
            let tail = &text[pos + 17..];
            let num: String = tail.chars().take_while(|c| c.is_ascii_digit()).collect();
            if let Ok(v) = num.parse::<u64>() {
                rss = Some(rss.unwrap_or(0).max(v));
            }
        }
    }
    Some((fragments.join(","), rss))
}

/// Assembles and writes the final JSON, with the optional baseline
/// comparison, from an already-rendered scenario-array body.
fn finish(scenario_body: String, rss: Option<u64>, quick: bool, reps: usize, out_path: &str) {
    let gate: Option<f64> = flag("gate").map(|g| {
        g.parse().unwrap_or_else(|_| {
            eprintln!("error: --gate needs a ratio like 0.90, got {g:?}");
            std::process::exit(2);
        })
    });
    let mut speedup = String::new();
    let mut below_gate: Vec<(String, f64)> = Vec::new();
    if let Some(base_path) = flag("baseline") {
        match std::fs::read_to_string(&base_path) {
            Ok(base_text) => {
                let base = medians_of(&base_text);
                let mut parts = Vec::new();
                for (name, ms) in medians_of(&scenario_body) {
                    // The overhead probe measures a path the old binary
                    // also had (the blind scheduled run): when the
                    // baseline predates the probe, alias it to the
                    // identical scaling-8p entry and hold it to the
                    // tighter disabled-path budget.
                    let mut entry = base.iter().find(|(n, _)| *n == name);
                    let mut floor = gate;
                    if name == "obs-overhead" {
                        if entry.is_none() {
                            entry = base.iter().find(|(n, _)| n == "scaling-8p");
                        }
                        floor = gate.map(|g| g.max(OBS_OVERHEAD_FLOOR));
                    }
                    if name == "faults-off" {
                        if entry.is_none() {
                            entry = base.iter().find(|(n, _)| n == "scaling-8p");
                        }
                        floor = gate.map(|g| g.max(FAULTS_OFF_FLOOR));
                    }
                    match entry {
                        Some((_, base_ms)) if ms > 0.0 => {
                            let ratio = (base_ms / ms * 100.0).round() / 100.0;
                            eprintln!("{name}: {ratio}x vs {base_path}");
                            if floor.is_some_and(|g| ratio < g) {
                                below_gate.push((name.clone(), ratio));
                            }
                            parts.push(format!("{}:{ratio}", Json::Str(name.clone())));
                        }
                        Some(_) => {}
                        // A scenario the baseline has no record of: mark
                        // it, with its absolute time, rather than
                        // silently dropping it, so the trajectory shows
                        // where the suite grew and at what cost.
                        None => {
                            eprintln!(
                                "{name}: new at {ms:.1} ms (no baseline entry in {base_path})"
                            );
                            parts.push(format!("{}:\"new\"", Json::Str(name.clone())));
                        }
                    }
                }
                if !parts.is_empty() {
                    speedup = format!(",\"speedup_vs_baseline\":{{{}}}", parts.join(","));
                }
            }
            Err(e) => {
                eprintln!("error: cannot read --baseline {base_path}: {e}");
                std::process::exit(2);
            }
        }
    } else if gate.is_some() {
        eprintln!("error: --gate requires --baseline");
        std::process::exit(2);
    }
    let rss_field = match rss {
        Some(v) => format!(",\"peak_rss_bytes\":{v}"),
        None => String::new(),
    };
    let json = format!(
        "{{\"bench\":\"perfgate\",\"pr\":10,\"schema\":1,\"quick\":{quick},\
         \"reps\":{reps},\"scenarios\":[{scenario_body}]{rss_field}{speedup}}}\n"
    );
    // `--out results/perfgate.json` must work on a fresh checkout: the
    // directory is created, not required.
    if let Some(parent) = std::path::Path::new(out_path).parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("error: cannot create {}: {e}", parent.display());
                std::process::exit(1);
            }
        }
    }
    match std::fs::write(out_path, &json) {
        Ok(()) => eprintln!("wrote {out_path}"),
        Err(e) => {
            eprintln!("error: cannot write {out_path}: {e}");
            std::process::exit(1);
        }
    }
    // Gate verdict comes after the write so the JSON artifact always
    // exists for the run that failed.
    if let Some(g) = gate {
        if below_gate.is_empty() {
            eprintln!("gate: all baselined scenarios >= {g}x");
        } else {
            for (name, ratio) in &below_gate {
                eprintln!("gate FAIL: {name} at {ratio}x < {g}x");
            }
            std::process::exit(1);
        }
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "-q");
    let reps: usize = match flag("reps") {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("error: --reps needs a positive integer, got {v:?}");
            std::process::exit(2);
        }),
        None if quick => 3,
        None => 7,
    };
    let out_path = flag("out").unwrap_or_else(|| "BENCH_PR10.json".to_string());
    let only = flag("only");

    // The parent dispatches children by name; only a child (--only) or
    // the in-process fallback pays for scenario construction.
    match &only {
        Some(only) => {
            if !SCENARIO_NAMES.contains(&only.as_str()) {
                eprintln!("error: --only {only:?} matches no scenario");
                std::process::exit(2);
            }
        }
        None => {
            eprintln!("perfgate: {reps} repetition(s) per scenario, one process each...");
            if let Some((body, rss)) = run_isolated(&SCENARIO_NAMES, reps, quick) {
                finish(body, rss, quick, reps, &out_path);
                return;
            }
            eprintln!("perfgate: child spawn failed; measuring in-process");
        }
    }

    let mut scenarios = scenarios(quick);
    if let Some(only) = &only {
        scenarios.retain(|s| s.name == only.as_str());
    }
    println!(
        "{:<12} {:>6} {:>12} {:>10} {:>14}",
        "scenario", "reps", "median ms", "iqr ms", "work/s"
    );
    let mut rendered: Vec<String> = Vec::new();
    for s in &mut scenarios {
        let mut walls_ms = Vec::with_capacity(reps);
        let mut units = 0u64;
        for _ in 0..reps {
            let t0 = Instant::now();
            units = (s.run)();
            walls_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let mut sorted = walls_ms.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median = percentile(&sorted, 0.5);
        let iqr = percentile(&sorted, 0.75) - percentile(&sorted, 0.25);
        let per_sec = if median > 0.0 {
            units as f64 / (median / 1e3)
        } else {
            0.0
        };
        println!(
            "{:<12} {:>6} {:>12.1} {:>10.1} {:>14.0}",
            s.name, reps, median, iqr, per_sec
        );
        rendered.push(
            Json::obj(vec![
                ("name", Json::Str(s.name.to_string())),
                ("unit", Json::Str(s.unit.to_string())),
                ("work_units", Json::Num(units as f64)),
                ("wall_ms_median", Json::Num((median * 10.0).round() / 10.0)),
                ("wall_ms_iqr", Json::Num((iqr * 10.0).round() / 10.0)),
                ("units_per_sec", Json::Num(per_sec.round())),
                (
                    "wall_ms_samples",
                    Json::Arr(
                        walls_ms
                            .iter()
                            .map(|w| Json::Num((*w * 10.0).round() / 10.0))
                            .collect(),
                    ),
                ),
            ])
            .to_string(),
        );
    }
    finish(rendered.join(","), peak_rss_bytes(), quick, reps, &out_path);
}
