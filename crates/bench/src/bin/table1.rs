//! Regenerates paper Table 1: the benchmark-usage survey (1999–2007 vs
//! 2009–2010) with the dimension-coverage markers.
//!
//! Usage: `cargo run -p rb-bench --bin table1`

use rb_bench::write_results;
use rb_core::dimensions::{Coverage, CoverageProfile, Dimension};
use rb_core::report::to_csv;
use rb_core::survey::{adhoc_share_2009_2010, render_table1, table1, total_uses, SCOPE};

fn main() {
    rb_bench::refuse_unknown_flags(&[]);
    let rows = table1();
    print!("{}", render_table1(&rows));
    println!(
        "\nSurvey scope: {} papers ({} from 2010, {} from 2009), {} eliminated",
        SCOPE.papers_reviewed, SCOPE.from_2010, SCOPE.from_2009, SCOPE.eliminated
    );
    println!(
        "Total benchmark uses: {} (1999-2007), {} (2009-2010)",
        total_uses(&rows, false),
        total_uses(&rows, true)
    );
    println!(
        "Ad-hoc share of 2009-2010 uses: {:.0}% — \"by far, the most common choice\"",
        adhoc_share_2009_2010(&rows) * 100.0
    );

    // The campaign-style aggregate: combining every surveyed benchmark
    // still isolates almost nothing — the paper's argument for sweeps.
    let union = rows
        .iter()
        .fold(CoverageProfile::EMPTY, |acc, r| acc.union(&r.profile));
    let cov: Vec<String> = Dimension::ALL
        .iter()
        .map(|&d| format!("{}:{}", d.label(), union.get(d).glyph().trim()))
        .collect();
    println!(
        "Union coverage of all surveyed benchmarks: {}",
        cov.join("  ")
    );
    println!(
        "Dimensions isolated by at least one benchmark: {} of {}",
        Dimension::ALL
            .iter()
            .filter(|&&d| union.get(d) == Coverage::Isolates)
            .count(),
        Dimension::ALL.len()
    );

    let csv_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.name.to_string()];
            row.extend(
                Dimension::ALL
                    .iter()
                    .map(|&d| r.profile.get(d).glyph().trim().to_string()),
            );
            row.push(r.used_1999_2007.to_string());
            row.push(r.used_2009_2010.to_string());
            row
        })
        .collect();
    write_results(
        "table1.csv",
        &to_csv(
            &[
                "benchmark",
                "io",
                "ondisk",
                "caching",
                "metadata",
                "scaling",
                "1999-2007",
                "2009-2010",
            ],
            &csv_rows,
        ),
    );
}
