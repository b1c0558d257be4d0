//! Regenerates paper Figure 3: read-latency histograms for 64 MB,
//! 1024 MB and 25 GB files (unimodal memory peak → balanced bimodal →
//! disk-only peak).
//!
//! Usage: `cargo run -p rb-bench --release --bin fig3 [-- --quick]`

use rb_bench::{quick_requested, write_results};
use rb_core::figures::{fig3, render_fig3, Fig3Config};
use rb_core::report::to_csv;
use rb_stats::peaks::bimodal_balance;

fn main() {
    rb_bench::refuse_unknown_flags(&["quick"]);
    let config = if quick_requested() {
        Fig3Config::quick()
    } else {
        Fig3Config::paper()
    };
    eprintln!(
        "fig3: sizes {:?}...",
        config
            .sizes
            .iter()
            .map(|s| format!("{s}"))
            .collect::<Vec<_>>()
    );
    let data = fig3(&config).expect("fig3 experiment");
    print!("{}", render_fig3(&data));
    for h in &data.histograms {
        let span = h.histogram.span_orders_of_magnitude();
        print!(
            "{}: {:?}, latency span {:.1} orders of magnitude",
            h.size, h.modality, span
        );
        if let Some(b) = bimodal_balance(&h.histogram) {
            print!(", peak balance {b:.2}");
        }
        println!();
    }

    let mut rows = Vec::new();
    for h in &data.histograms {
        for k in 0..40 {
            rows.push(vec![
                format!("{}", h.size.as_mib()),
                format!("{k}"),
                format!("{:.4}", h.histogram.fraction(k) * 100.0),
            ]);
        }
    }
    write_results(
        "fig3.csv",
        &to_csv(&["size_mib", "log2_bucket", "percent"], &rows),
    );
}
