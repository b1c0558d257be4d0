//! figreplay: the same trace under different timing policies lands in
//! different regimes — the replay-taxonomy demonstration.
//!
//! Records one varmail session on the paper's ext2 testbed, then
//! replays the identical v2 trace on every simulated file system under
//! `afap`, `faithful` and `scaled=4`. The point the table makes is the
//! tentpole claim of the replay subsystem: *timing policy is part of
//! the experiment definition.* Afap measures peak service capacity
//! (throughput differs per fs, duration is service-bound), faithful
//! measures behaviour under the original load (duration pinned to the
//! recorded span wherever capacity suffices — and throughput converges
//! across file systems, hiding their differences!), and scaled
//! acceleration sits in between until it saturates into the afap
//! regime.
//!
//! Usage: `cargo run -p rb-bench --release --bin figreplay [-- --quick]`

use rb_bench::{quick_requested, write_results};
use rb_core::prelude::*;
use rb_replay::{replay_with, ReplayConfig};
use rb_simcore::time::Nanos;
use rb_simcore::units::Bytes;
use std::fmt::Write as _;

fn main() {
    rb_bench::refuse_unknown_flags(&["quick"]);
    let duration = if quick_requested() {
        Nanos::from_secs(2)
    } else {
        Nanos::from_secs(10)
    };
    eprintln!("figreplay: recording a {duration} varmail session on ext2...");
    let mut origin = rb_core::testbed::paper_ext2(Bytes::gib(1), 7);
    let mut recorder = Recorder::new(&mut origin);
    let workload = personalities::varmail(25);
    let config = EngineConfig {
        duration,
        window: Nanos::from_secs(1),
        seed: 7,
        cold_start: false,
        ..EngineConfig::default()
    };
    Engine::run(&mut recorder, &workload, &config).expect("record");
    let trace = recorder.finish();
    let profile = characterize(&trace);
    println!(
        "recorded {} ops, span {}, working set {}:",
        trace.len(),
        trace.span(),
        profile.working_set
    );
    print!("{}", profile.render());
    println!();

    let policies = [
        Timing::Afap,
        Timing::Faithful,
        Timing::Scaled { factor: 4.0 },
    ];
    let mut rows = Vec::new();
    let mut throughputs: Vec<Vec<f64>> = Vec::new();
    let mut csv = String::from("timing,fs,ops,errors,duration_ns,ops_per_sec,hit_ratio\n");
    for timing in policies {
        let mut policy_tp = Vec::new();
        for fs in FsKind::ALL {
            let mut target = rb_core::testbed::paper_fs(fs, Bytes::gib(1), 7);
            let result = replay_with(&mut target, &trace, &ReplayConfig { timing, seed: 7 });
            let hit = target.cache_hit_ratio().unwrap_or(0.0);
            policy_tp.push(result.ops_per_sec());
            let _ = writeln!(
                csv,
                "{},{},{},{},{},{:.1},{:.4}",
                timing.label(),
                fs.name(),
                result.ops,
                result.errors,
                result.duration.as_nanos(),
                result.ops_per_sec(),
                hit
            );
            rows.push(vec![
                timing.label(),
                fs.name().to_string(),
                format!("{}", result.duration),
                format!("{:.0}", result.ops_per_sec()),
                format!("{hit:.3}"),
                format!("{}", result.errors),
            ]);
        }
        throughputs.push(policy_tp);
    }
    println!("one trace, three timing policies, three file systems:");
    print!(
        "{}",
        rb_core::report::text_table(
            &["timing", "fs", "duration", "ops/s", "hits", "errors"],
            &rows
        )
    );

    // The headline numbers: how much of the between-fs spread each
    // policy preserves. Afap exposes file-system differences; faithful
    // deliberately reproduces the recorded arrival rate instead, so
    // wherever every fs keeps up, their throughputs collapse together.
    println!();
    for (timing, tp) in policies.iter().zip(&throughputs) {
        let max = tp.iter().cloned().fold(f64::MIN, f64::max);
        let min = tp.iter().cloned().fold(f64::MAX, f64::min);
        println!(
            "{:>10}: between-fs throughput spread {:.2}x",
            timing.label(),
            max / min.max(1e-9)
        );
    }
    write_results("figreplay.csv", &csv);
}
