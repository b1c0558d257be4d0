//! The result store's contract: cached cells are indistinguishable
//! from live ones.
//!
//! Campaign results are pure functions of the spec, so a record served
//! from the content-addressed store must reproduce the live report
//! byte-for-byte — against the committed sweep golden, at any `--jobs`,
//! after an interrupted campaign resumes, under `--no-cache`, and in
//! the presence of stale or tampered records. These tests pin all of
//! that, plus the warm-rerun guarantee the whole feature exists for:
//! an unchanged sweep's second run executes zero cells.

use rocketbench::core::campaign::{
    run_campaign, run_campaign_with, CampaignOptions, Personality, StoreOptions, SweepSpec,
};
use rocketbench::core::prelude::*;
use rocketbench::core::store::{cell_identity, digest, ResultStore};
use rocketbench::simcore::time::Nanos;
use rocketbench::simcore::units::Bytes;
use std::path::PathBuf;

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// A fresh store directory per test, cleaned before use so reruns of
/// the test suite never see their own leftovers.
fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rb-campaign-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn with_store(dir: &std::path::Path) -> CampaignOptions {
    CampaignOptions {
        store: Some(StoreOptions::at(dir)),
    }
}

/// The exact spec behind `tests/golden/sweep_small.csv` (see
/// `golden_outputs.rs`): the committed reference the store must
/// reproduce from cache.
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
        file_sizes: vec![Bytes::mib(16)],
        file_counts: vec![25],
        filesystems: vec![FsKind::Ext2, FsKind::Xfs],
        cache_capacities: vec![Bytes::mib(32)],
        plan,
        device: Bytes::gib(2),
        ..SweepSpec::default()
    }
}

#[test]
fn cached_and_live_reports_match_the_committed_golden() {
    let expected = golden("sweep_small.csv");
    let dir = store_dir("golden");
    let spec = small_sweep_spec();
    // Cold: every cell executes live and streams to the store.
    let cold = run_campaign_with(&spec, 3, &with_store(&dir)).expect("cold sweep");
    assert_eq!(cold.stats.executed, cold.stats.expanded);
    assert_eq!(cold.stats.cached, 0);
    assert_eq!(cold.report.to_csv(), expected, "cold store run drifted");
    // Warm, at a different jobs count: zero cells execute, and the
    // report still matches the committed golden byte-for-byte.
    for jobs in [1, 4] {
        let warm = run_campaign_with(&spec, jobs, &with_store(&dir)).expect("warm sweep");
        assert_eq!(
            warm.stats.executed, 0,
            "warm rerun of an unchanged sweep must execute 0 cells"
        );
        assert_eq!(warm.stats.cached, warm.stats.expanded);
        assert_eq!(
            warm.report.to_csv(),
            expected,
            "cached report drifted at jobs={jobs}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_after_partial_campaign_converges() {
    // The uninterrupted reference, no store involved.
    let spec = small_sweep_spec();
    let reference = run_campaign(&spec, 2).expect("reference sweep");
    let (ref_csv, ref_json) = (reference.to_csv(), reference.to_json().to_string());

    let dir = store_dir("resume");
    // Simulate a mid-campaign kill: a narrower spec (one fs column of
    // the same grid) ran to completion, then the process died. Only
    // those cells' records exist — exactly the state an interrupted
    // 4-cell campaign leaves behind after finishing its first two.
    let mut partial = small_sweep_spec();
    partial.filesystems = vec![FsKind::Ext2];
    let killed = run_campaign_with(&partial, 2, &with_store(&dir)).expect("partial sweep");
    assert_eq!(killed.stats.executed, 2);

    // Resume the full campaign at both jobs counts: the surviving
    // cells load from the store, the missing column executes, and the
    // final report equals the uninterrupted run's bytes.
    for jobs in [1, 4] {
        let resumed = run_campaign_with(&spec, jobs, &with_store(&dir)).expect("resumed sweep");
        if jobs == 1 {
            assert_eq!(resumed.stats.cached, 2, "two cells survived the kill");
            assert_eq!(resumed.stats.executed, 2, "two cells still to run");
        } else {
            // Second resume pass: everything is cached now.
            assert_eq!(resumed.stats.executed, 0);
        }
        assert_eq!(resumed.report.to_csv(), ref_csv, "resume diverged (csv)");
        assert_eq!(
            resumed.report.to_json().to_string(),
            ref_json,
            "resume diverged (json)"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_cache_matches_cache_hit_output_and_refreshes_the_store() {
    let dir = store_dir("nocache");
    let spec = small_sweep_spec();
    let opts_cached = with_store(&dir);
    let opts_nocache = CampaignOptions {
        store: Some(StoreOptions {
            dir: dir.clone(),
            read_cache: false,
        }),
    };
    let cold = run_campaign_with(&spec, 2, &opts_cached).expect("cold sweep");
    // --no-cache ignores the warm store and executes everything...
    let forced = run_campaign_with(&spec, 2, &opts_nocache).expect("no-cache sweep");
    assert_eq!(forced.stats.executed, forced.stats.expanded);
    assert_eq!(forced.stats.cached, 0);
    // ...to the same bytes, and the refreshed records still hit after.
    assert_eq!(forced.report.to_csv(), cold.report.to_csv());
    let warm = run_campaign_with(&spec, 2, &opts_cached).expect("warm sweep");
    assert_eq!(warm.stats.executed, 0);
    assert_eq!(warm.report.to_csv(), cold.report.to_csv());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_salt_records_are_ignored_not_corrupted() {
    let dir = store_dir("stale");
    let spec = small_sweep_spec();
    let store = ResultStore::open(&dir).expect("open store");
    // Plant a record as a previous code version would have written it:
    // same cell, different salt — it hashes to a different address.
    let cells = spec.expand();
    let stale_identity = cell_identity(&spec, &cells[0], None).replace("salt=", "salt=old-");
    let stale_path = store.record_path(digest(&stale_identity));
    std::fs::write(&stale_path, "rocketbench-cell-record v0\nend\n").expect("plant stale record");
    // And a tampered record at an address the campaign *will* probe:
    // identity verification must reject it and re-execute the cell.
    let live_path = store.record_path(digest(&cell_identity(&spec, &cells[1], None)));
    std::fs::write(
        &live_path,
        "rocketbench-cell-record v1\nidentity forged\nend\n",
    )
    .expect("plant tampered record");
    drop(store);

    let run = run_campaign_with(&spec, 2, &with_store(&dir)).expect("sweep over stale store");
    assert_eq!(run.stats.cached, 0, "nothing loadable was cached");
    assert_eq!(run.stats.executed, run.stats.expanded);
    assert_eq!(run.report.to_csv(), golden("sweep_small.csv"));
    // The stale-salt record was ignored, not touched; the tampered one
    // was overwritten by the fresh execution of its cell.
    assert_eq!(
        std::fs::read_to_string(&stale_path).expect("stale record still present"),
        "rocketbench-cell-record v0\nend\n"
    );
    let refreshed = std::fs::read_to_string(&live_path).expect("refreshed record");
    assert!(refreshed.contains(&cells[1].key()));
    let warm = run_campaign_with(&spec, 2, &with_store(&dir)).expect("warm sweep");
    assert_eq!(warm.stats.executed, 0, "refreshed store is fully warm");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn editing_one_axis_value_re_executes_only_the_new_column() {
    let dir = store_dir("column");
    let spec = small_sweep_spec();
    let cold = run_campaign_with(&spec, 2, &with_store(&dir)).expect("cold sweep");
    assert_eq!(cold.stats.expanded, 4);
    // Add ext3 to the fs axis: 2 new cells, 4 cached.
    let mut wider = small_sweep_spec();
    wider.filesystems = vec![FsKind::Ext2, FsKind::Ext3, FsKind::Xfs];
    let widened = run_campaign_with(&wider, 2, &with_store(&dir)).expect("widened sweep");
    assert_eq!(widened.stats.expanded, 6);
    assert_eq!(widened.stats.cached, 4, "old grid columns come from cache");
    assert_eq!(widened.stats.executed, 2, "only the ext3 column executes");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_refuses_flight_recorder_campaigns() {
    let dir = store_dir("metrics");
    let mut spec = small_sweep_spec();
    spec.plan.obs.metrics = true;
    let err = run_campaign_with(&spec, 1, &with_store(&dir)).expect_err("metrics + store");
    assert!(err.to_string().contains("flight-recorder"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A record serves only the cell it was run as: a `bounded:N` retry
/// policy keys its count, and an adaptive protocol keys its CI width
/// and confidence at full precision (their reports round both).
#[test]
fn a_record_serves_only_its_own_retry_count_and_adaptive_targets() {
    let base = || {
        let mut plan = RunPlan::quick(0);
        plan.protocol = Protocol::FixedRuns(2);
        plan.duration = Nanos::from_secs(1);
        SweepSpec {
            name: "identity".into(),
            personalities: vec![Personality::parse("varmail").unwrap()],
            file_counts: vec![25],
            filesystems: vec![FsKind::Ext3],
            plan,
            ..SweepSpec::default()
        }
    };
    let retried = |retries| SweepSpec {
        faults: vec![Some(FaultSpec::parse("eio:1e-2").unwrap())],
        retry: RetryPolicy::Bounded { retries },
        ..base()
    };
    let adaptive = |ci_rel_width, confidence| {
        let mut spec = base();
        spec.plan.protocol = Protocol::Adaptive {
            min_runs: 3,
            max_runs: 6,
            ci_rel_width,
            confidence,
        };
        spec
    };
    for (tag, first, second) in [
        ("retry", retried(1), retried(5)),
        ("ci", adaptive(0.0204, 0.95), adaptive(0.0196, 0.95)),
        (
            "confidence",
            adaptive(0.0204, 0.95),
            adaptive(0.0204, 0.954),
        ),
    ] {
        let dir = store_dir(tag);
        run_campaign_with(&first, 1, &with_store(&dir)).expect("first pass");
        let second_pass = run_campaign_with(&second, 1, &with_store(&dir)).expect("second pass");
        assert_eq!(
            (second_pass.stats.cached, second_pass.stats.executed),
            (0, second_pass.stats.expanded),
            "{tag}: the second pass was served the first pass's records"
        );
        let live = run_campaign(&second, 1).expect("no-store pass");
        assert_eq!(second_pass.report.to_csv(), live.to_csv(), "{tag}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
