//! Regenerates paper Figure 2: Ext2/Ext3/XFS throughput over time while
//! a 410 MB file warms into the page cache (cold start, 10 s sampling).
//!
//! Usage: `cargo run -p rb-bench --release --bin fig2 [-- --quick]`

use rb_bench::{quick_requested, write_results};
use rb_core::figures::{fig2, render_fig2, Fig2Config};
use rb_core::report::to_gnuplot;

fn main() {
    rb_bench::refuse_unknown_flags(&["quick"]);
    let config = if quick_requested() {
        Fig2Config::quick()
    } else {
        Fig2Config::paper()
    };
    eprintln!(
        "fig2: {} file, {}s run per file system...",
        config.file_size,
        config.duration.as_secs()
    );
    let data = fig2(&config).expect("fig2 experiment");
    print!("{}", render_fig2(&data));

    // Divergence: the paper's point is that systems differ only in the
    // transition. Print where the max ratio lands.
    let div = data.divergence_series();
    if let Some((t, ratio)) = div
        .iter()
        .copied()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
    {
        println!("max between-system ratio {ratio:.1}x at t={t:.0}s");
    }
    if let (Some(first), Some(last)) = (div.first(), div.last()) {
        println!(
            "ratio at start {:.2}x, at end {:.2}x (systems converge at both extremes)",
            first.1, last.1
        );
    }

    let series: Vec<(&str, &[(f64, f64)])> = data
        .curves
        .iter()
        .map(|c| (c.fs, c.series.as_slice()))
        .collect();
    write_results("fig2.dat", &to_gnuplot("seconds", &series));
}
