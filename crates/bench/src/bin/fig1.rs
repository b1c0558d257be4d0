//! Regenerates paper Figure 1: Ext2 random-read throughput and relative
//! standard deviation vs file size (64 MB → 1024 MB, 10 runs each).
//!
//! The sweep is expressed as a campaign spec, so the sizes run
//! concurrently (one experiment cell per size, sharded over `--jobs N`
//! workers, default: all cores) with deterministic per-cell seeds.
//!
//! Usage: `cargo run -p rb-bench --release --bin fig1 [-- --quick] [--jobs N]
//!         [--protocol fixed|adaptive] [--runs N] [--ci 2%] [--min-runs 5]
//!         [--max-runs 30]`

use rb_bench::{
    jobs_requested, protocol_requested, quick_requested, write_results, PROTOCOL_FLAGS,
};
use rb_core::figures::{fig1_campaign, render_fig1, Fig1Config};
use rb_core::report::{to_csv, to_gnuplot};

fn main() {
    rb_bench::refuse_unknown_flags(&[&["quick", "jobs"][..], &PROTOCOL_FLAGS].concat());
    let mut config = if quick_requested() {
        Fig1Config::quick()
    } else {
        Fig1Config::paper()
    };
    if let Some(protocol) = protocol_requested() {
        config.plan.protocol = protocol;
    }
    let jobs = jobs_requested();
    eprintln!(
        "fig1: {} sizes under {} at {}s virtual per run on {} worker(s)...",
        config.sizes.len(),
        config.plan.protocol,
        config.plan.duration.as_secs(),
        jobs
    );
    let data = fig1_campaign(&config, jobs).expect("fig1 experiment");
    print!("{}", render_fig1(&data));

    // Machine-readable outputs. Under an adaptive protocol the sample
    // count varies per point; rows are ragged-right and the header
    // covers the widest row.
    let rows: Vec<Vec<String>> = data
        .points
        .iter()
        .map(|p| {
            let mut row = vec![
                format!("{}", p.size.as_mib()),
                format!("{:.1}", p.mean),
                format!("{:.2}", p.rsd),
            ];
            row.extend(p.samples.iter().map(|s| format!("{s:.1}")));
            row
        })
        .collect();
    let widest = data
        .points
        .iter()
        .map(|p| p.samples.len())
        .max()
        .unwrap_or(0);
    let mut headers = vec!["size_mib", "mean_ops_per_sec", "rsd_percent"];
    let run_names: Vec<String> = (0..widest).map(|i| format!("run{i}")).collect();
    headers.extend(run_names.iter().map(|s| s.as_str()));
    write_results("fig1.csv", &to_csv(&headers, &rows));

    let throughput: Vec<(f64, f64)> = data.fragility.means.clone();
    let rsd: Vec<(f64, f64)> = data.fragility.rsds.clone();
    write_results(
        "fig1.dat",
        &to_gnuplot(
            "size_mib",
            &[("ops_per_sec", &throughput), ("rsd_percent", &rsd)],
        ),
    );
}
