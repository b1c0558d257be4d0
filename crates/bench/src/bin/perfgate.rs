//! perfgate: times the harness itself and records the bench trajectory.
//!
//! The paper's complaint is that benchmarks report unqualified numbers;
//! the harness should hold itself to the same bar. `perfgate` times
//! ten canonical scenarios — the quick Figure 1 campaign, a 4×4
//! sweep-cell grid, as-fast-as-possible replays of the golden v2
//! trace spatially scaled ×32 and ×1024, an 8-process fileserver run
//! through the discrete-event scheduler, the same run under an
//! open-loop Poisson arrival stream, a raw event-queue pump over the
//! arena heap, a flight-recorder overhead probe (the scheduler run
//! with every recorder off, gated at ≤2% against the pre-recorder
//! trajectory), a fault-layer overhead probe (the same run with no
//! fault plan armed, under the same ≤2% budget), and a cold-then-warm
//! sweep through the result store — over N repetitions, and writes
//! one JSON record (`--out`, by default `results/perfgate.json`) with
//! median + IQR wall time, throughput in scenario work units per
//! second, and peak RSS (from `/proc/self/status` where available).
//! One such record per PR, committed as `BENCH_PR<n>.json`, is the
//! performance trajectory of the harness. The first four scenarios run
//! the serial engine or the serialized replay, so their trajectory
//! records that single-process hot-path speed survives the concurrency
//! refactor.
//!
//! After them come the `layer/*` rows: one simulator layer called in a
//! tight loop (the RNG, the HDD service model, a page-cache read under
//! each replacement policy, a histogram record, a page-cache hit at
//! Figure 1's cliff size, ext3 namespace ops in a 1,000-entry
//! directory, 2-block allocations on a fragmented 1 GiB ext2 bitmap,
//! the replay's seeded merge of a 21,503-entry trace, the scheduler's
//! event queue holding 10 events, and a Zipf draw), in unit
//! `calls`, so each row also records ns/call as median and IQR. They
//! price the layers an end-to-end run folds into its callers: the page
//! cache is a concrete type inside the storage stack, so no outside
//! wrapper can time it.
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
//! writes the JSON but exits non-zero. `--reps` must be a positive
//! count and `--gate` a finite ratio above zero, and `--gate` needs
//! `--baseline`; anything else exits 2 before a scenario runs, since
//! such a run would measure nothing and pass.

use rb_bench::{exit_on_error, flag_value, peak_rss_bytes, positive_count, quick_requested};
use rb_core::campaign::{
    run_campaign, run_campaign_with, CampaignOptions, StoreOptions, SweepSpec,
};
use rb_core::figures::{fig1_campaign, Fig1Config};
use rb_core::report::Json;
use rb_core::runner::RunPlan;
use rb_core::sched::Arrival;
use rb_core::testbed;
use rb_core::workload::{personalities, Engine, EngineConfig, Recording};
use rb_replay::{apply, replay_with, schedule, ReplayConfig, Timing, Trace, Transform};
use rb_simcache::cache::{CacheConfig, PageCache};
use rb_simcache::policy::PolicyKind;
use rb_simcache::readahead::ReadaheadConfig;
use rb_simcache::writeback::WritebackConfig;
use rb_simcore::dist::Zipf;
use rb_simcore::events::EventQueue;
use rb_simcore::rng::Rng;
use rb_simcore::time::Nanos;
use rb_simcore::units::Bytes;
use rb_simdisk::device::{BlockDevice, IoRequest};
use rb_simdisk::hdd::{Hdd, HddConfig};
use rb_simfs::alloc::{BitmapAllocator, Run};
use rb_simfs::ext2::{Ext2Config, Ext2Fs};
use rb_simfs::intern::PathSpec;
use rb_simfs::vfs::FileSystem;
use rb_stats::histogram::Log2Histogram;
use rb_stats::summary::percentile_sorted;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// One timed scenario: a name, a unit label, and a closure running the
/// scenario once, returning how many work units it performed.
struct Scenario {
    name: &'static str,
    unit: &'static str,
    run: Box<dyn FnMut() -> u64>,
}

/// The golden v2 trace spatially scaled to `clones` copies (the replay
/// scenarios' input).
fn scaled_golden(clones: u32) -> Trace {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/golden_v2.trace"
    );
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} (run from the repo)"));
    let trace = Trace::from_text(&text).expect("golden trace parses");
    apply(&trace, &[Transform::Scale { clones }]).expect("scale golden trace")
}

/// The scheduler scenarios' run: an 8-process fileserver on a fresh
/// 1 GiB ext2 target through the discrete-event scheduler, for
/// `duration` under `arrival`. `scenario` names the run in a failure.
fn fileserver_8p(duration: Nanos, arrival: Arrival, scenario: &str) -> Recording {
    let mut target = testbed::paper_fs(testbed::FsKind::Ext2, Bytes::gib(1), 5);
    let workload = personalities::fileserver(50);
    let config = EngineConfig {
        duration,
        window: Nanos::from_secs(1),
        seed: 5,
        cold_start: false,
        processes: 8,
        arrival,
        ..EngineConfig::default()
    };
    Engine::run(&mut target, &workload, &config).expect(scenario)
}

/// An afap replay of the golden v2 trace scaled to `clones` copies,
/// repeated `inner` times onto fresh ext2 targets of `device` within
/// one timed repetition so the sample is long enough to measure.
fn replay_scenario(name: &'static str, clones: u32, inner: u64, device: Bytes) -> Scenario {
    let trace = scaled_golden(clones);
    let trace_ops = trace.len() as u64;
    Scenario {
        name,
        unit: "ops",
        run: Box::new(move || {
            let mut total = 0u64;
            for i in 0..inner {
                let mut target = testbed::paper_ext2(device, i);
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
    }
}

/// A layer row: `calls` calls of one simulator layer per repetition,
/// each result passed through `black_box`. State the calls share lives
/// in `call`'s captures and carries over between repetitions.
fn layer(name: &'static str, calls: u64, mut call: impl FnMut() -> u64 + 'static) -> Scenario {
    Scenario {
        name,
        unit: "calls",
        run: Box::new(move || {
            for _ in 0..calls {
                black_box(call());
            }
            calls
        }),
    }
}

/// Pages of the file the cliff-sized row holds: Figure 1's 384 MiB
/// cell, under the paper testbed's 104,960-page (410 MiB) cache.
const CLIFF_FILE_PAGES: u64 = 384 * 256;

/// An LRU paper-testbed cache holding every page of one
/// `CLIFF_FILE_PAGES` file.
fn cliff_cache() -> PageCache {
    let mut cache = PageCache::new(CacheConfig::paper_testbed());
    for first in (0..CLIFF_FILE_PAGES).step_by(32) {
        cache.read(1, first, 32, CLIFF_FILE_PAGES, Nanos::ZERO);
    }
    assert_eq!(cache.resident_pages(), CLIFF_FILE_PAGES);
    cache
}

/// Files in the namespace row's directory.
const NAMESPACE_FILES: usize = 1000;

/// A fresh 1 GiB ext3 holding `/d` with `NAMESPACE_FILES` files, the
/// files' interned paths, and one more interned name in `/d` that does
/// not exist yet.
fn namespace_fs() -> (Ext2Fs, Vec<PathSpec>, PathSpec) {
    let mut fs = Ext2Fs::new(Ext2Config::ext3_for_blocks(262_144));
    fs.mkdir("/d").expect("mkdir /d");
    let files: Vec<PathSpec> = (0..NAMESPACE_FILES)
        .map(|i| fs.intern_path(&format!("/d/f{i}")).expect("intern"))
        .collect();
    for spec in &files {
        fs.create_spec(spec).expect("create");
    }
    let spare = fs.intern_path("/d/spare").expect("intern");
    (fs, files, spare)
}

/// Events the event-queue row keeps pending.
const QUEUE_PENDING: usize = 10;

/// Live 2-block allocations the bitmap row keeps before it frees the
/// oldest.
const BITMAP_LIVE: usize = 4096;

/// A 1 GiB ext2 bitmap (262,144 blocks in 8,192-block groups),
/// fragmented: filled front to back in runs of 1-4 blocks, then every
/// other run freed, so half the device is free in holes of 1-4 blocks.
fn fragmented_bitmap() -> BitmapAllocator {
    let mut alloc = BitmapAllocator::new(262_144, 8192);
    let mut rng = Rng::new(6);
    let mut runs = Vec::new();
    while alloc.free_blocks() > 0 {
        let len = (1 + rng.below(4)).min(alloc.free_blocks());
        runs.extend(alloc.alloc(len, 0).expect("fill"));
    }
    for run in runs.into_iter().step_by(2) {
        alloc.free(run).expect("fragment");
    }
    alloc
}

/// Scenario names, in run order (the parent dispatches children by
/// name without constructing the scenarios themselves).
const SCENARIO_NAMES: [&str; 25] = [
    "fig1-quick",
    "sweep-4x4",
    "replay-x32",
    "replay-x1024",
    "scaling-8p",
    "open-loop-8p",
    "events-pump",
    "obs-overhead",
    "faults-off",
    "sweep-warm",
    "layer/rng-next-u64",
    "layer/rng-lognormal",
    "layer/hdd-random-read-8k",
    "layer/hdd-sequential-read-64k",
    "layer/cache-read-mixed-lru",
    "layer/cache-read-mixed-clock",
    "layer/cache-read-mixed-2q",
    "layer/cache-read-mixed-arc",
    "layer/histogram-record",
    "layer/cache-cliff-hit",
    "layer/fs-namespace",
    "layer/bitmap-alloc",
    "layer/replay-merge",
    "layer/event-queue",
    "layer/zipf",
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

/// The ten canonical scenarios, then the layer rows.
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
                file_sizes: [16u64, 32, 48, 64].iter().map(|&m| Bytes::mib(m)).collect(),
                file_counts: vec![0],
                cache_capacities: [8u64, 16, 32, 64].iter().map(|&m| Bytes::mib(m)).collect(),
                arrivals: Vec::new(),
                plan,
                device: Bytes::mib(512),
                ..SweepSpec::default()
            };
            let report = run_campaign(&spec, 1).expect("sweep 4x4");
            report.cells.len() as u64
        }),
    };

    // Scenarios 3 and 3b: afap replays of golden_v2 at ×32 and at
    // ×1024 (21,503 entries on 2,048 streams, where the seeded merge
    // picks among thousands of runnable streams per entry, so a merge
    // whose cost grows with the stream count shows). ×1024 fills a
    // 256 MiB device, so it replays onto 1 GiB.
    let replay = replay_scenario(
        "replay-x32",
        32,
        if quick { 8 } else { 64 },
        Bytes::mib(256),
    );
    let replay_wide = replay_scenario(
        "replay-x1024",
        1024,
        if quick { 1 } else { 4 },
        Bytes::gib(1),
    );

    // Scenario 4: an 8-process fileserver on ext2 through the
    // discrete-event scheduler — times the concurrency substrate itself
    // (event queue, core tokens, device queue, timed stack ops) on a
    // fixed virtual duration.
    let sched_duration = Nanos::from_secs(if quick { 2 } else { 5 });
    let scaling = Scenario {
        name: "scaling-8p",
        unit: "ops",
        run: Box::new(move || {
            let rec = fileserver_8p(sched_duration, Arrival::Closed, "scaling-8p");
            assert!(rec.ops > 0);
            rec.ops
        }),
    };

    // Scenario 5: the same 8-process fileserver under an open-loop
    // Poisson arrival stream — times the admission queue, the arrival
    // event stream, and the latency bookkeeping on top of the
    // scheduler substrate scenario 4 measures.
    let open = Scenario {
        name: "open-loop-8p",
        unit: "ops",
        run: Box::new(move || {
            let rec = fileserver_8p(
                sched_duration,
                Arrival::Poisson { rate: 20_000 },
                "open-loop-8p",
            );
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
    // 8-process run as scaling-8p, with every recorder off (the
    // default). The engine still passes through the flight
    // recorder's branch checks, and that disabled path is what this
    // scenario prices. Its baseline aliases to the pre-recorder
    // scaling-8p entry in BENCH_PR7.json, with a tighter ≤2% gate.
    let obs_probe = Scenario {
        name: "obs-overhead",
        unit: "ops",
        run: Box::new(move || {
            let rec = fileserver_8p(sched_duration, Arrival::Closed, "obs-overhead");
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
    let faults_off = Scenario {
        name: "faults-off",
        unit: "ops",
        run: Box::new(move || {
            let rec = fileserver_8p(sched_duration, Arrival::Closed, "faults-off");
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
    let mut all = vec![
        fig1,
        sweep,
        replay,
        replay_wide,
        scaling,
        open,
        pump,
        obs_probe,
        faults_off,
        sweep_warm,
    ];

    // The layer rows. Each repetition runs long enough (at least 50 ms
    // on a fast host) that timer and loop overhead vanish.
    let mut rng = Rng::new(1);
    all.push(layer("layer/rng-next-u64", 100_000_000, move || {
        rng.next_u64()
    }));
    let mut rng = Rng::new(1);
    all.push(layer("layer/rng-lognormal", 10_000_000, move || {
        rng.lognormal(4096.0, 0.3).to_bits()
    }));
    let (mut disk, mut rng, mut now) = (
        Hdd::new(HddConfig::maxtor_7l250s0_like()),
        Rng::new(2),
        Nanos::ZERO,
    );
    all.push(layer("layer/hdd-random-read-8k", 2_000_000, move || {
        let block = rng.below(disk.capacity_blocks() - 2);
        let lat = disk.service(&IoRequest::read(block, 2), now);
        now += lat;
        lat.as_nanos()
    }));
    let (mut disk, mut block, mut now) = (
        Hdd::new(HddConfig::maxtor_7l250s0_like()),
        0u64,
        Nanos::ZERO,
    );
    all.push(layer(
        "layer/hdd-sequential-read-64k",
        10_000_000,
        move || {
            let lat = disk.service(&IoRequest::read(block, 16), now);
            block = (block + 16) % (disk.capacity_blocks() - 16);
            now += lat;
            lat.as_nanos()
        },
    ));
    // Random 2-page reads of an 8,192-page file through a 4,096-page
    // cache: half hit, half miss and evict.
    for (name, policy, calls) in [
        ("layer/cache-read-mixed-lru", PolicyKind::Lru, 2_000_000),
        ("layer/cache-read-mixed-clock", PolicyKind::Clock, 1_000_000),
        ("layer/cache-read-mixed-2q", PolicyKind::TwoQ, 250_000),
        ("layer/cache-read-mixed-arc", PolicyKind::Arc, 250_000),
    ] {
        let mut cache = PageCache::new(CacheConfig {
            capacity_pages: 4096,
            policy,
            readahead: ReadaheadConfig::disabled(),
            writeback: WritebackConfig::default(),
        });
        let mut rng = Rng::new(3);
        all.push(layer(name, calls, move || {
            let page = rng.below(8192);
            cache.read(1, page, 2, 8192, Nanos::ZERO).hit_pages
        }));
    }
    let (mut hist, mut rng) = (Log2Histogram::new(), Rng::new(4));
    all.push(layer("layer/histogram-record", 100_000_000, move || {
        hist.record(Nanos::from_nanos(rng.below(100_000_000)));
        hist.total()
    }));
    // Random 2-page hits at the cliff: cliff-serial's in-cache 384 MiB
    // cell, whose hits dominate its host time. The cache fills on the
    // row's first (untimed) call.
    let (mut cache, mut rng) = (None, Rng::new(5));
    all.push(layer("layer/cache-cliff-hit", 5_000_000, move || {
        let cache = cache.get_or_insert_with(cliff_cache);
        let page = rng.below(CLIFF_FILE_PAGES - 1);
        let out = cache.read(1, page, 2, CLIFF_FILE_PAGES, Nanos::ZERO);
        assert_eq!(out.hit_pages, 2, "a cliff-sized cache must hold its file");
        out.hit_pages
    }));
    // ext3 namespace ops through the `*_spec` forms, as the storage
    // stack calls them: in turn a create, a lookup of one of the 1,000
    // files, and an unlink of what the create made, so the directory
    // holds 1,000 or 1,001 entries. The file system builds on the
    // row's first (untimed) call.
    let (mut ns, mut rng, mut turn) = (None, Rng::new(7), 0u64);
    all.push(layer("layer/fs-namespace", 300_000, move || {
        let (fs, files, spare) = ns.get_or_insert_with(namespace_fs);
        turn = (turn + 1) % 3;
        let meta = match turn {
            1 => fs.create_spec(spare).expect("create").1,
            2 => {
                let file = &files[rng.below(NAMESPACE_FILES as u64) as usize];
                fs.lookup_spec(file).expect("lookup").1
            }
            _ => fs.unlink_spec(spare).expect("unlink").1,
        };
        meta.total_blocks() as u64
    }));
    // One 2-block allocation at a random goal on the fragmented bitmap,
    // plus the free of the oldest live one once `BITMAP_LIVE` are held.
    let (mut bitmap, mut live, mut rng) = (None, VecDeque::<Run>::new(), Rng::new(8));
    all.push(layer("layer/bitmap-alloc", 1_000_000, move || {
        let alloc = bitmap.get_or_insert_with(fragmented_bitmap);
        let runs = alloc
            .alloc(2, rng.below(alloc.total()))
            .expect("a half-free bitmap has room");
        let first = runs[0].start;
        live.extend(runs);
        while live.len() > BITMAP_LIVE {
            let oldest = live.pop_front().expect("non-empty");
            alloc.free(oldest).expect("free a live run");
        }
        first
    }));
    // The replay's seeded merge alone: `schedule` of golden_v2 scaled
    // ×1024 (21,503 entries on 2,048 streams), afap, as replay-scaled
    // runs it before its first op.
    let trace = scaled_golden(1024);
    all.push(layer("layer/replay-merge", 20, move || {
        schedule(&trace, Timing::Afap, 0).len() as u64
    }));
    // The scheduler's event queue at a varmail-shaped depth: 10 events
    // pending (8 workers, a tick and a sample), each with a 48-byte
    // payload, the size of `sched`'s events. A call pops the earliest
    // event and schedules its successor up to 1 µs later.
    let mut queue = EventQueue::with_capacity(QUEUE_PENDING);
    for i in 0..QUEUE_PENDING as u64 {
        queue.schedule(Nanos::from_nanos(i), [i; 6]);
    }
    all.push(layer("layer/event-queue", 10_000_000, move || {
        let (at, mut event) = queue.pop().expect("the pump keeps its events pending");
        event[1] = event[1].wrapping_add(1);
        let gap = 1 + (event[1].wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54);
        queue.schedule(at + Nanos::from_nanos(gap), event);
        event[0]
    }));
    // A skewed sampler over 1,000 items at webserver's theta.
    let (zipf, mut rng) = (Zipf::new(1000, 0.99), Rng::new(10));
    all.push(layer("layer/zipf", 10_000_000, move || {
        zipf.sample(&mut rng) as u64
    }));
    all
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
        let tmp = std::env::temp_dir().join(format!(
            "perfgate-{}-{}.json",
            std::process::id(),
            name.replace('/', "-")
        ));
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

/// A `--gate` value: a finite ratio above zero, under which a scenario
/// slower than its baseline can fail.
fn gate_ratio(value: &str) -> Result<f64, String> {
    match value.parse::<f64>() {
        Ok(g) if g.is_finite() && g > 0.0 => Ok(g),
        _ => Err(format!(
            "--gate needs a ratio above 0 like 0.90, got {value:?}"
        )),
    }
}

/// Assembles and writes the final JSON, with the optional baseline
/// comparison and `gate`, from an already-rendered scenario-array body.
fn finish(body: String, rss: Option<u64>, quick: bool, reps: usize, out: &str, gate: Option<f64>) {
    let mut speedup = String::new();
    let mut below_gate: Vec<(String, f64)> = Vec::new();
    if let Some(base_path) = flag_value("baseline") {
        match std::fs::read_to_string(&base_path) {
            Ok(base_text) => {
                let base = medians_of(&base_text);
                let mut parts = Vec::new();
                for (name, ms) in medians_of(&body) {
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
    }
    let rss_field = match rss {
        Some(v) => format!(",\"peak_rss_bytes\":{v}"),
        None => String::new(),
    };
    let json = format!(
        "{{\"bench\":\"perfgate\",\"pr\":10,\"schema\":1,\"quick\":{quick},\
         \"reps\":{reps},\"scenarios\":[{body}]{rss_field}{speedup}}}\n"
    );
    // The default `results/perfgate.json` must work on a fresh
    // checkout: the directory is created, not required.
    if let Some(parent) = std::path::Path::new(out).parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("error: cannot create {}: {e}", parent.display());
                std::process::exit(1);
            }
        }
    }
    match std::fs::write(out, &json) {
        Ok(()) => eprintln!("wrote {out}"),
        Err(e) => {
            eprintln!("error: cannot write {out}: {e}");
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
    rb_bench::refuse_unknown_flags(&["quick", "reps", "out", "only", "baseline", "gate"]);
    let quick = quick_requested();
    // A run of no repetitions, or a gate no ratio can fall below,
    // would measure nothing and pass: both are refused before any
    // scenario runs.
    let reps = flag_value("reps").map_or(if quick { 3 } else { 7 }, |v| {
        exit_on_error(positive_count("reps", &v))
    });
    let gate = flag_value("gate").map(|g| exit_on_error(gate_ratio(&g)));
    if gate.is_some() && flag_value("baseline").is_none() {
        eprintln!("error: --gate requires --baseline");
        std::process::exit(2);
    }
    let out_path = flag_value("out").unwrap_or_else(|| "results/perfgate.json".to_string());
    let only = flag_value("only");

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
                finish(body, rss, quick, reps, &out_path, gate);
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
        if s.unit == "calls" {
            // A layer row first runs once untimed: it builds any state
            // it keeps and brings caches to their steady state.
            (s.run)();
        }
        for _ in 0..reps {
            let t0 = Instant::now();
            units = (s.run)();
            walls_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let mut sorted = walls_ms.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median = percentile_sorted(&sorted, 0.5);
        let iqr = percentile_sorted(&sorted, 0.75) - percentile_sorted(&sorted, 0.25);
        let per_sec = if median > 0.0 {
            units as f64 / (median / 1e3)
        } else {
            0.0
        };
        println!(
            "{:<12} {:>6} {:>12.1} {:>10.1} {:>14.0}",
            s.name, reps, median, iqr, per_sec
        );
        let mut fields = vec![
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
        ];
        if s.unit == "calls" && units > 0 {
            let ns_per_call = |ms: f64| (ms * 1e6 / units as f64 * 100.0).round() / 100.0;
            fields.push(("ns_per_call_median", Json::Num(ns_per_call(median))));
            fields.push(("ns_per_call_iqr", Json::Num(ns_per_call(iqr))));
        }
        rendered.push(Json::obj(fields).to_string());
    }
    let (body, rss) = (rendered.join(","), peak_rss_bytes());
    finish(body, rss, quick, reps, &out_path, gate);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--reps` takes only a positive count and `--gate` only a finite
    /// ratio above zero: zero repetitions record 0 ms medians, which the
    /// baseline comparison skips, and a gate of 0, a negative one or
    /// NaN fails no scenario, so either would pass a run that measured
    /// nothing.
    #[test]
    fn runs_that_measure_nothing_are_refused() {
        assert_eq!(positive_count("reps", "5"), Ok(5));
        for reps in ["0", "-1", "", "2.5", "many"] {
            let error = positive_count("reps", reps).expect_err(reps);
            assert!(error.contains("--reps") && !error.contains('\n'), "{error}");
        }
        assert_eq!(gate_ratio("0.90"), Ok(0.9));
        assert_eq!(gate_ratio("1e-3"), Ok(0.001));
        for gate in ["0", "-0.9", "nan", "NaN", "inf", "", "ninety"] {
            let error = gate_ratio(gate).expect_err(gate);
            assert!(error.contains("--gate") && !error.contains('\n'), "{error}");
        }
    }
}
