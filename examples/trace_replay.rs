//! Traces as portable artifacts: record a workload once, replay it on
//! every file system under every timing policy — the paper's fix for
//! "almost none of those traces are widely available", extended with
//! the replay-timing taxonomy.
//!
//! ```sh
//! cargo run --release --example trace_replay
//! ```

use rb_core::prelude::*;
use rb_replay::{replay_with, Recorder, ReplayConfig, Transform};
use rb_simcore::time::Nanos;
use rb_simcore::units::Bytes;

fn main() {
    // 1. Record a varmail-style session on ext2. The recorder emits a
    //    v2 trace: each op is stamped with its stream id and arrival
    //    time, which is what makes faithful replay possible.
    let mut origin = rb_core::testbed::paper_ext2(Bytes::gib(1), 1);
    let mut recorder = Recorder::new(&mut origin);
    let workload = personalities::varmail(25);
    let config = EngineConfig {
        duration: Nanos::from_secs(5),
        window: Nanos::from_secs(1),
        seed: 1,
        cold_start: false,
        prewarm: false,
        ..Default::default()
    };
    Engine::run(&mut recorder, &workload, &config).expect("record");
    let trace = recorder.finish();
    let text = trace.to_text().expect("engine paths are whitespace-free");
    println!(
        "recorded {} operations ({} bytes as {} text)\n",
        trace.len(),
        text.len(),
        trace.version.label()
    );
    println!("first lines of the portable trace:");
    for line in text.lines().take(8) {
        println!("  {line}");
    }

    // 2. The text round-trips: this is what you would deposit publicly.
    let parsed = rb_replay::Trace::from_text(&text).expect("parse");
    assert_eq!(parsed, trace);

    // 3. What did we actually capture? Characterize before replaying.
    println!("\n{}", characterize(&parsed).render());

    // 4. Replay the identical operation stream on each file system,
    //    as fast as possible (peak service capacity).
    println!("replaying the same trace everywhere (afap):");
    for kind in FsKind::ALL {
        let mut target = rb_core::testbed::paper_fs(kind, Bytes::gib(1), 1);
        let result = replay(&mut target, &parsed);
        println!(
            "  {:>5}: {:>6} ops, {:>3} errors, {:>10} virtual time, p50 {}",
            kind.name(),
            result.ops,
            result.errors,
            format!("{}", result.duration),
            result
                .histogram
                .quantile(0.5)
                .map(|n| format!("{n}"))
                .unwrap_or_default(),
        );
    }

    // 5. The timing policy is part of the experiment definition: the
    //    same trace on the same fs measures different things under
    //    different policies.
    println!("\none trace, one fs (ext2), three timing policies:");
    for timing in [
        Timing::Afap,
        Timing::Faithful,
        Timing::Scaled { factor: 2.0 },
    ] {
        let mut target = rb_core::testbed::paper_ext2(Bytes::gib(1), 1);
        let result = replay_with(&mut target, &parsed, &ReplayConfig { timing, seed: 1 });
        println!(
            "  {:>9}: {:>10} virtual time, {:>6.0} ops/s",
            timing.label(),
            format!("{}", result.duration),
            result.ops_per_sec()
        );
    }

    // 6. And one capture yields many scenarios: spatially scale the
    //    trace onto two disjoint namespaces (two concurrent streams)
    //    and let the dependency-aware replayer interleave them.
    let doubled = Transform::Scale { clones: 2 }
        .apply(&parsed)
        .expect("scale");
    let mut target = rb_core::testbed::paper_ext2(Bytes::gib(1), 1);
    let result = replay_with(
        &mut target,
        &doubled,
        &ReplayConfig {
            timing: Timing::Afap,
            seed: 1,
        },
    );
    println!(
        "\nspatially scaled x2: {} ops over {} streams, {} errors, {} virtual time",
        result.ops,
        doubled.stream_ids().len(),
        result.errors,
        result.duration
    );
    println!("\nSame ops, comparable numbers — because the *workload* is now");
    println!("a shareable, transformable artifact instead of a private memory.");
}
