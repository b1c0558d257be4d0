//! Regenerates paper Figure 4: latency histograms over time for a
//! 256 MB file on Ext2 — the disk peak (~2^23 ns) fades while the cache
//! peak (~2^11 ns) grows, and the distribution is bimodal for most of
//! the run.
//!
//! Usage: `cargo run -p rb-bench --release --bin fig4 [-- --quick]`

use rb_bench::{quick_requested, write_results};
use rb_core::figures::{fig4, render_fig4, Fig4Config};
use rb_core::report::to_csv;

fn main() {
    rb_bench::refuse_unknown_flags(&["quick"]);
    let config = if quick_requested() {
        Fig4Config::quick()
    } else {
        Fig4Config::paper()
    };
    eprintln!(
        "fig4: {} file over {}s, histogram per {}s window...",
        config.file_size,
        config.duration.as_secs(),
        config.window.as_secs()
    );
    let data = fig4(&config).expect("fig4 experiment");
    print!("{}", render_fig4(&data));
    println!(
        "bimodal windows: {}/{} (single-number reporting invalid for most of the run)",
        data.bimodal_windows(),
        data.windows.len()
    );

    let mut rows = Vec::new();
    for w in &data.windows {
        for k in 0..32 {
            rows.push(vec![
                format!("{}", w.start.as_secs()),
                format!("{k}"),
                format!("{:.4}", w.histogram.fraction(k) * 100.0),
            ]);
        }
    }
    write_results(
        "fig4.csv",
        &to_csv(&["seconds", "log2_bucket", "percent"], &rows),
    );
}
