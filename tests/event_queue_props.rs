//! Property-style tests for the arena-backed event queue, plus pinned
//! recordings of the serial and scheduled engine.
//!
//! The PR 7 queue swap (binary heap → arena 4-ary heap) must be
//! unobservable: pop order is a pure function of the `(at, seq)` keys,
//! equal instants pop FIFO, and a cleared-and-reused queue behaves
//! exactly like a fresh one. The properties here drive randomized
//! schedules from the repo's own deterministic [`Rng`] (the proptest
//! crate is unvendored), and the pinned tests freeze a digest of a
//! closed-loop and an open-loop recording so any future scheduler or
//! queue change that perturbs the simulated schedule fails loudly. Two
//! more pins freeze the serial engine, healthy and under a fault plan
//! with retries and a crash, so the serial side of every difference
//! between the serial and scheduled pacings stays as it is.

use rocketbench::core::sched::Arrival;
use rocketbench::core::testbed;
use rocketbench::core::workload::{personalities, Engine, EngineConfig, Recording};
use rocketbench::faults::{FaultSpec, RetryPolicy};
use rocketbench::obs::ObsConfig;
use rocketbench::simcore::events::EventQueue;
use rocketbench::simcore::rng::Rng;
use rocketbench::simcore::time::Nanos;
use rocketbench::simcore::units::Bytes;
use std::fmt::Write as _;

/// Drains the queue, returning `(at, payload)` in pop order.
fn drain(q: &mut EventQueue<u64>) -> Vec<(Nanos, u64)> {
    std::iter::from_fn(|| q.pop()).collect()
}

#[test]
fn pop_order_is_sorted_by_at_then_seq() {
    // Random schedules with heavy time collisions (small time range)
    // across many seeds: pops must come out exactly in stable-sorted
    // `(at, insertion index)` order, whatever shape the heap took.
    for seed in 0..50u64 {
        let mut rng = Rng::new(seed);
        let n = 1 + (rng.below(400) as usize);
        let mut q = EventQueue::new();
        let mut expected: Vec<(Nanos, u64)> = Vec::with_capacity(n);
        for i in 0..n as u64 {
            let at = Nanos::from_nanos(rng.below(32));
            q.schedule(at, i);
            expected.push((at, i));
        }
        // Stable sort by time preserves insertion order on ties — the
        // exact FIFO contract the queue documents.
        expected.sort_by_key(|&(at, _)| at);
        assert_eq!(drain(&mut q), expected, "seed {seed}");
    }
}

#[test]
fn equal_instants_pop_fifo_within_mixed_schedule() {
    // Batches scheduled at the same instant, interleaved with other
    // instants, keep their scheduling order among themselves.
    let mut q = EventQueue::new();
    let t = |us| Nanos::from_micros(us);
    for (i, at) in [5u64, 1, 5, 3, 5, 1, 3, 5, 1].iter().enumerate() {
        q.schedule(t(*at), i as u64);
    }
    let order: Vec<u64> = drain(&mut q).into_iter().map(|(_, p)| p).collect();
    assert_eq!(order, vec![1, 5, 8, 3, 6, 0, 2, 4, 7]);
}

#[test]
fn cleared_queue_is_equivalent_to_fresh() {
    // Run an arbitrary schedule through a queue, clear it, and replay a
    // second schedule: the pops must match a never-used queue fed the
    // same second schedule — including seq numbering for FIFO ties.
    for seed in 0..20u64 {
        let mut reused: EventQueue<u64> = EventQueue::new();
        let mut rng = Rng::new(0xC1EA4 ^ seed);
        for i in 0..(1 + rng.below(200)) {
            reused.schedule(Nanos::from_nanos(rng.below(64)), i);
        }
        // Leave it partially drained, then clear.
        for _ in 0..rng.below(100) {
            let _ = reused.pop();
        }
        reused.clear();
        assert!(reused.is_empty());

        let mut fresh: EventQueue<u64> = EventQueue::new();
        let mut schedule_rng = Rng::new(0xF4E54 ^ seed);
        for i in 0..(1 + schedule_rng.below(300)) {
            let at = Nanos::from_nanos(schedule_rng.below(16));
            reused.schedule(at, i);
            fresh.schedule(at, i);
        }
        assert_eq!(drain(&mut reused), drain(&mut fresh), "seed {seed}");
    }
}

#[test]
fn interleaved_push_pop_matches_reference_model() {
    // Adversarial steady-state interleave checked against a naive
    // stable-sorted reference queue.
    for seed in 0..10u64 {
        let mut rng = Rng::new(0xBEEF ^ seed);
        let mut q: EventQueue<u64> = EventQueue::with_capacity(8);
        let mut model: Vec<(Nanos, u64, u64)> = Vec::new(); // (at, seq, payload)
        let mut seq = 0u64;
        let mut out_q = Vec::new();
        let mut out_m = Vec::new();
        for step in 0..2000u64 {
            if rng.below(3) < 2 || model.is_empty() {
                let at = Nanos::from_nanos(step / 3 + rng.below(40));
                q.schedule(at, step);
                model.push((at, seq, step));
                seq += 1;
            } else {
                out_q.push(q.pop().expect("model says non-empty"));
                let min = model
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &(at, s, _))| (at, s))
                    .map(|(i, _)| i)
                    .expect("non-empty");
                let (at, _, payload) = model.swap_remove(min);
                out_m.push((at, payload));
            }
        }
        out_q.extend(drain(&mut q));
        while !model.is_empty() {
            let min = model
                .iter()
                .enumerate()
                .min_by_key(|(_, &(at, s, _))| (at, s))
                .map(|(i, _)| i)
                .expect("non-empty");
            let (at, _, payload) = model.swap_remove(min);
            out_m.push((at, payload));
        }
        assert_eq!(out_q, out_m, "seed {seed}");
    }
}

/// Renders every observable field of a recording into a stable text
/// digest, so the pinned tests fail on any behavioural drift.
fn digest(rec: &Recording) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ops={} errors={} duration={}ns hit_ratio={:?}",
        rec.ops,
        rec.errors,
        rec.duration.as_nanos(),
        rec.hit_ratio.map(|h| (h * 1e6).round() / 1e6),
    );
    let _ = write!(out, "hist total={}", rec.histogram.total());
    for k in 0..64 {
        if rec.histogram.count(k) > 0 {
            let _ = write!(out, " {k}:{}", rec.histogram.count(k));
        }
    }
    let _ = writeln!(out);
    let mut labels: Vec<_> = rec.per_op.keys().copied().collect();
    labels.sort_unstable();
    for label in labels {
        let h = &rec.per_op[label];
        let _ = writeln!(
            out,
            "per_op {label} total={} min_bucket={:?} max_bucket={:?}",
            h.total(),
            h.min_bucket(),
            h.max_bucket()
        );
    }
    for (i, w) in rec.windows.iter().enumerate() {
        let _ = writeln!(
            out,
            "window {i} start={}ns ops={} hist={}",
            w.start.as_nanos(),
            w.ops,
            w.histogram.total()
        );
    }
    if let Some(ol) = &rec.open_loop {
        let _ = writeln!(
            out,
            "open arrival={} offered={} completed={} failed={} dropped={} \
             p50={:?} p99={:?} p999={:?} max_depth={}",
            ol.arrival,
            ol.offered,
            ol.completed,
            ol.failed,
            ol.dropped,
            ol.p50.map(|n| n.as_nanos()),
            ol.p99.map(|n| n.as_nanos()),
            ol.p999.map(|n| n.as_nanos()),
            ol.max_queue_depth
        );
        for (at, depth) in &ol.depth_timeline {
            let _ = writeln!(out, "depth {}ns {depth}", at.as_nanos());
        }
    }
    if let Some(l) = &rec.ledger {
        let _ = writeln!(
            out,
            "ledger attempted={} succeeded={} retried_ok={} gave_up={} dropped={} \
             retries={} degraded={}ns",
            l.attempted,
            l.succeeded,
            l.retried_ok,
            l.gave_up,
            l.dropped,
            l.retries,
            l.degraded.as_nanos()
        );
        if let Some(c) = &l.crash {
            let _ = writeln!(
                out,
                "crash at={}ns mechanism={} recovery={}ns lost_dirty_pages={} consistent={}",
                c.at.as_nanos(),
                c.mechanism,
                c.recovery.as_nanos(),
                c.lost_dirty_pages,
                c.consistent
            );
        }
    }
    out
}

/// Compares `actual` against the committed snapshot, or rewrites the
/// snapshot when `UPDATE_GOLDEN` is set (for intentional behaviour
/// changes — the diff then shows up in review).
fn check_golden(name: &str, actual: &str, context: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        return;
    }
    let expected =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    assert_eq!(actual, expected, "{context}");
}

fn pinned_config(arrival: Arrival) -> EngineConfig {
    EngineConfig {
        duration: Nanos::from_secs(1),
        window: Nanos::from_millis(250),
        seed: 11,
        cold_start: false,
        prewarm: false,
        cpu_jitter_sigma: 0.005,
        max_errors: 100,
        processes: 4,
        cores: 2,
        arrival,
        obs: ObsConfig::default(),
        faults: None,
        retry: RetryPolicy::None,
    }
}

#[test]
fn closed_loop_recording_is_pinned() {
    let mut target = testbed::paper_fs(testbed::FsKind::Ext2, Bytes::mib(512), 11);
    let workload = personalities::fileserver(25);
    let rec = Engine::run(&mut target, &workload, &pinned_config(Arrival::Closed))
        .expect("closed-loop run");
    check_golden(
        "sched_closed_loop.txt",
        &digest(&rec),
        "closed-loop recording drifted; the scheduler or queue changed \
         simulated behaviour",
    );
}

#[test]
fn open_loop_recording_is_pinned() {
    let mut target = testbed::paper_fs(testbed::FsKind::Ext2, Bytes::mib(512), 11);
    let workload = personalities::fileserver(25);
    let rec = Engine::run(
        &mut target,
        &workload,
        &pinned_config(Arrival::Poisson { rate: 10_000 }),
    )
    .expect("open-loop run");
    check_golden(
        "sched_open_loop.txt",
        &digest(&rec),
        "open-loop recording drifted; the scheduler or queue changed \
         simulated behaviour",
    );
}

/// The serial engine on the same testbed and workload as the scheduled
/// pins. Its per-op histograms include `create`, whose serial latency
/// feeds the nano suite's `create-p50`.
#[test]
fn serial_recording_is_pinned() {
    let mut target = testbed::paper_fs(testbed::FsKind::Ext2, Bytes::mib(512), 11);
    let workload = personalities::fileserver(25);
    let config = EngineConfig {
        processes: 1,
        ..pinned_config(Arrival::Closed)
    };
    let rec = Engine::run(&mut target, &workload, &config).expect("serial run");
    check_golden(
        "serial_loop.txt",
        &digest(&rec),
        "serial recording drifted; the engine changed simulated behaviour",
    );
}

/// The serial engine under a fault plan: slow media, transient EIO
/// retried with backoff (some retries succeed, some give up, some
/// whole-file reads fail part-way) and a crash whose fsck-scan recovery
/// lands mid-run. The ledger is part of the digest.
#[test]
fn faulted_serial_recording_is_pinned() {
    let mut target = testbed::paper_fs(testbed::FsKind::Ext2, Bytes::mib(512), 11);
    let workload = personalities::fileserver(400);
    let config = EngineConfig {
        duration: Nanos::from_secs(2),
        cold_start: true,
        processes: 1,
        faults: Some(FaultSpec::parse("slow-disk:4x,eio:0.05,crash:1000ms").expect("fault spec")),
        retry: RetryPolicy::parse("bounded:3").expect("retry policy"),
        ..pinned_config(Arrival::Closed)
    };
    let rec = Engine::run(&mut target, &workload, &config).expect("faulted serial run");
    check_golden(
        "serial_faulted.txt",
        &digest(&rec),
        "faulted serial recording drifted; the engine changed retry, backoff \
         or crash accounting",
    );
}
