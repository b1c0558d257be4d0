//! campaign: the result-store scale proof on a ~2k-cell grid.
//!
//! The store's promise is that campaign scale is bounded by disk, not
//! memory, and that nothing is ever paid for twice. This bin drives a
//! five-axis grid (personality × fs × cache × processes × arrival,
//! ~1.8k cells at full size) through `run_campaign_with` streaming to
//! a content-addressed store, and self-validates the three claims that
//! make million-cell grids practical:
//!
//! 1. **Conservation** — every expanded cell is accounted for:
//!    `expanded = cached + executed` on each pass (a failed cell aborts
//!    the campaign with an error instead of vanishing), with
//!    `executed = all` on the cold pass and `cached = all` on the warm.
//! 2. **Peak-RSS flatness** — the process high-water mark after the
//!    full grid must sit within a budget of the mark after a small
//!    slice of the same grid (4 MiB plus 16 KiB per added cell):
//!    per-cell recordings end with their cell instead of accumulating,
//!    so memory is O(jobs) plus the report's compact rows, not O(cells)
//!    of recordings.
//! 3. **Byte-identity** — the warm report (all cells from cache)
//!    renders the same CSV bytes as the cold one (all cells live).
//!
//! Usage:
//!   cargo run -p rb-bench --release --bin campaign [-- --quick]
//!       [--jobs N] [--store DIR] [--keep true]
//!
//! `--quick` shrinks the grid (72 cells) for CI smoke. The store
//! defaults to a per-run temp directory, removed afterwards unless
//! `--keep true`.

use rb_bench::{flag_value, jobs_requested, peak_rss_bytes, quick_requested};
use rb_core::campaign::{
    run_campaign_with, CampaignOptions, CampaignRun, Personality, StoreOptions, SweepSpec,
};
use rb_core::runner::{Protocol, RunPlan};
use rb_core::sched::Arrival;
use rb_core::testbed::FsKind;
use rb_simcore::time::Nanos;
use rb_simcore::units::Bytes;
use std::path::PathBuf;
use std::time::Instant;

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Peak-RSS growth allowed between the small slice and the full grid:
/// a fixed slack, plus [`RSS_PER_CELL_BYTES`] for each cell the grid
/// adds over the slice. The report itself grows by a few hundred bytes
/// per cell; anything past the budget means per-cell state is
/// accumulating again. At `--quick` (16 cells, then 72) the budget is
/// about 4.9 MiB; on the full grid (16, then 1,800) about 32 MiB.
const RSS_SLACK_BYTES: u64 = 4 * 1024 * 1024;

/// The budget's allowance per cell the full grid adds.
const RSS_PER_CELL_BYTES: u64 = 16 * 1024;

/// The five-axis grid. `slice` shrinks every axis to a prefix, so the
/// small grid is a genuine subset of the full one.
fn grid(name: &str, quick: bool, slice: bool) -> SweepSpec {
    let mut plan = RunPlan::quick(0);
    plan.protocol = Protocol::FixedRuns(1);
    plan.duration = Nanos::from_millis(400);
    plan.window = Nanos::from_millis(200);
    let mut personalities = vec![
        Personality::RandomRead,
        Personality::SequentialRead,
        Personality::Varmail,
        Personality::Fileserver,
        Personality::MetadataOnly,
    ];
    let mut filesystems = vec![FsKind::Ext2, FsKind::Ext3, FsKind::Xfs];
    let mut cache_capacities: Vec<Bytes> = [4u64, 8, 16, 32, 64]
        .iter()
        .map(|&m| Bytes::mib(m))
        .collect();
    let mut processes = vec![1, 2, 4, 6];
    let mut arrivals = vec![Arrival::Closed];
    arrivals.extend(Arrival::parse_axis("poisson:250..4000x2").expect("ladder parses"));
    if quick {
        personalities.truncate(2);
        cache_capacities.truncate(2);
        processes.truncate(2);
        arrivals.truncate(3);
    }
    if slice {
        personalities.truncate(1);
        filesystems.truncate(2);
        cache_capacities.truncate(2);
        processes.truncate(2);
        arrivals.truncate(2);
    }
    SweepSpec {
        name: name.into(),
        personalities,
        file_sizes: vec![Bytes::mib(8)],
        file_counts: vec![25],
        filesystems,
        cache_capacities,
        processes,
        arrivals,
        plan,
        device: Bytes::mib(512),
        ..SweepSpec::default()
    }
}

/// Asserts the conservation identity on one pass and narrates it.
fn check_conservation(label: &str, run: &CampaignRun) {
    let s = run.stats;
    assert_eq!(
        s.expanded,
        s.cached + s.executed,
        "{label}: conservation broken"
    );
    println!(
        "conservation [{label}]: expanded({}) = cached({}) + executed({}) + failed(0)  OK",
        s.expanded, s.cached, s.executed
    );
}

fn main() {
    rb_bench::refuse_unknown_flags(&["quick", "jobs", "keep", "store"]);
    let quick = quick_requested();
    let jobs = jobs_requested();
    let keep = flag_value("keep").is_some_and(|v| v == "true");
    let dir: PathBuf = match flag_value("store") {
        Some(d) => d.into(),
        None => std::env::temp_dir().join(format!("rb-campaign-bench-{}", std::process::id())),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let opts = CampaignOptions {
        store: Some(StoreOptions::at(&dir)),
    };

    // Phase 1: a small slice of the grid, to set the RSS reference
    // point *after* the engine, allocator and store machinery have all
    // been touched once.
    let slice = grid("campaign-slice", quick, true);
    let t0 = Instant::now();
    let small = run_campaign_with(&slice, jobs, &opts).expect("slice campaign");
    let small_wall = t0.elapsed();
    let rss_small = peak_rss_bytes();
    check_conservation("slice-cold", &small);
    println!(
        "slice: {} cells in {:.1}s on {jobs} worker(s), peak rss {}",
        small.stats.expanded,
        small_wall.as_secs_f64(),
        rss_small.map_or("n/a".into(), |b| format!("{:.1} MiB", mib(b))),
    );

    // Phase 2: the full grid, cold (slice cells hit the shared store).
    let full = grid("campaign-full", quick, false);
    let t1 = Instant::now();
    let cold = run_campaign_with(&full, jobs, &opts).expect("cold campaign");
    let cold_wall = t1.elapsed();
    let rss_cold = peak_rss_bytes();
    check_conservation("full-cold", &cold);
    assert_eq!(
        cold.stats.cached, small.stats.expanded,
        "the slice is a subset of the full grid, so exactly its cells are warm"
    );
    println!(
        "cold:  {} cells ({} cached) in {:.1}s ({:.0} cells/s), peak rss {}",
        cold.stats.expanded,
        cold.stats.cached,
        cold_wall.as_secs_f64(),
        cold.stats.expanded as f64 / cold_wall.as_secs_f64(),
        rss_cold.map_or("n/a".into(), |b| format!("{:.1} MiB", mib(b))),
    );

    // Phase 3: the full grid, warm — zero executions.
    let t2 = Instant::now();
    let warm = run_campaign_with(&full, jobs, &opts).expect("warm campaign");
    let warm_wall = t2.elapsed();
    check_conservation("full-warm", &warm);
    assert_eq!(warm.stats.executed, 0, "warm rerun must execute 0 cells");
    println!(
        "warm:  {} cells in {:.1}s ({:.0} cells/s)",
        warm.stats.expanded,
        warm_wall.as_secs_f64(),
        warm.stats.expanded as f64 / warm_wall.as_secs_f64(),
    );

    // Byte-identity across sources.
    assert_eq!(
        cold.report.to_csv(),
        warm.report.to_csv(),
        "warm report must be byte-identical to the cold one"
    );
    println!("byte-identity: cold csv == warm csv  OK");

    // Peak-RSS flatness: the grid may grow the high-water mark only by
    // the slack and a small allowance per added cell.
    if let (Some(lo), Some(hi)) = (rss_small, rss_cold) {
        let delta = hi.saturating_sub(lo);
        let added = (cold.stats.expanded - small.stats.expanded) as u64;
        let budget = RSS_SLACK_BYTES + RSS_PER_CELL_BYTES * added;
        assert!(
            delta <= budget,
            "peak rss grew {:.1} MiB from the {}-cell slice to the {}-cell grid \
             (budget {:.1} MiB): per-cell state is accumulating",
            mib(delta),
            small.stats.expanded,
            cold.stats.expanded,
            mib(budget),
        );
        println!(
            "rss flatness: {:.1} MiB -> {:.1} MiB (delta {:.1} MiB <= {:.1} MiB)  OK",
            mib(lo),
            mib(hi),
            mib(delta),
            mib(budget),
        );
    } else {
        println!("rss flatness: /proc/self/status unavailable, skipped");
    }

    if keep {
        println!("store kept at {}", dir.display());
    } else {
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!("campaign bench: all validations passed");
}
