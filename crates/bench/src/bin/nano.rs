//! Runs the Section 4 nano-benchmark suite against all three simulated
//! file systems and prints the multi-dimensional comparison the paper
//! asks for instead of single numbers.
//!
//! With a repetition protocol the suite runs repeatedly per file system
//! and every metric is reported as a distribution (mean ± bootstrap CI,
//! cross-run RSD) with a convergence verdict.
//!
//! Usage: `cargo run -p rb-bench --release --bin nano [-- --quick]
//!         [--protocol fixed|adaptive] [--runs N] [--ci 2%]
//!         [--min-runs 5] [--max-runs 30]`

use rb_bench::{protocol_requested, quick_requested, write_results, PROTOCOL_FLAGS};
use rb_core::nano::{
    render_protocol_report, render_report, run_suite, run_suite_protocol, NanoConfig,
};
use rb_core::report::to_csv;
use rb_core::testbed::FsKind;

fn main() {
    rb_bench::refuse_unknown_flags(&[&["quick"][..], &PROTOCOL_FLAGS].concat());
    let config = if quick_requested() {
        NanoConfig::quick()
    } else {
        NanoConfig::default()
    };
    let mut csv_rows = Vec::new();
    match protocol_requested() {
        // No protocol requested: the classic single-run suite.
        None => {
            for kind in FsKind::ALL {
                eprintln!("nano suite: {}...", kind.name());
                let report = run_suite(kind, &config).expect("nano suite");
                print!("{}", render_report(&report));
                println!();
                for r in &report.results {
                    for m in &r.metrics {
                        csv_rows.push(vec![
                            kind.name().to_string(),
                            r.component.to_string(),
                            r.dimension.label().to_string(),
                            m.name.to_string(),
                            format!("{:.3}", m.value),
                            String::new(),
                            String::new(),
                            "1".into(),
                            "fixed".into(),
                            m.unit.to_string(),
                        ]);
                    }
                }
            }
        }
        Some(protocol) => {
            for kind in FsKind::ALL {
                eprintln!("nano suite: {} under {}...", kind.name(), protocol);
                let report = run_suite_protocol(kind, &config, &protocol).expect("nano suite");
                print!("{}", render_protocol_report(&report));
                println!();
                for m in &report.metrics {
                    csv_rows.push(vec![
                        kind.name().to_string(),
                        m.component.to_string(),
                        m.dimension.label().to_string(),
                        m.name.to_string(),
                        format!("{:.3}", m.summary.mean),
                        m.ci.map(|ci| format!("{:.3}", ci.lo)).unwrap_or_default(),
                        m.ci.map(|ci| format!("{:.3}", ci.hi)).unwrap_or_default(),
                        report.runs.len().to_string(),
                        report.verdict.label().to_string(),
                        m.unit.to_string(),
                    ]);
                }
            }
        }
    }
    write_results(
        "nano.csv",
        &to_csv(
            &[
                "fs",
                "component",
                "dimension",
                "metric",
                "mean",
                "ci_lo",
                "ci_hi",
                "runs",
                "verdict",
                "unit",
            ],
            &csv_rows,
        ),
    );
}
