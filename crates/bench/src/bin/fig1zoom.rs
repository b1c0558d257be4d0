//! Regenerates the paper's Section 3.1 zoom: the throughput drop between
//! 384 MB and 448 MB happens within a < 6 MB window.
//!
//! The fine-grained size ladder is expressed as a campaign spec and
//! sharded over `--jobs N` workers (default: all cores).
//!
//! Usage: `cargo run -p rb-bench --release --bin fig1zoom [-- --quick] [--jobs N]
//!         [--protocol fixed|adaptive] [--runs N] [--ci 2%] [--min-runs 5]
//!         [--max-runs 30]`

use rb_bench::{
    jobs_requested, protocol_requested, quick_requested, write_results, PROTOCOL_FLAGS,
};
use rb_core::figures::{fig1_zoom_campaign, render_fig1, Fig1ZoomConfig};
use rb_core::report::to_csv;

fn main() {
    rb_bench::refuse_unknown_flags(&[&["quick", "jobs"][..], &PROTOCOL_FLAGS].concat());
    let mut config = if quick_requested() {
        Fig1ZoomConfig::quick()
    } else {
        Fig1ZoomConfig::paper()
    };
    if let Some(protocol) = protocol_requested() {
        config.plan.protocol = protocol;
    }
    let jobs = jobs_requested();
    eprintln!(
        "fig1zoom: {}..{} step {} under {} on {} worker(s)...",
        config.lo, config.hi, config.step, config.plan.protocol, jobs
    );
    let data = fig1_zoom_campaign(&config, jobs).expect("fig1 zoom experiment");
    print!("{}", render_fig1(&data));
    match data.fragility.halving_distance() {
        Some(d) => println!("throughput halves within {d:.0} MiB (paper: < 6 MB region)"),
        None => println!("no halving found in the zoom range"),
    }
    let rows: Vec<Vec<String>> = data
        .points
        .iter()
        .map(|p| {
            vec![
                format!("{}", p.size.as_mib()),
                format!("{:.1}", p.mean),
                format!("{:.2}", p.rsd),
            ]
        })
        .collect();
    write_results(
        "fig1zoom.csv",
        &to_csv(&["size_mib", "mean_ops_per_sec", "rsd_percent"], &rows),
    );
}
