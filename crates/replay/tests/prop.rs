//! Property tests for the trace subsystem.
//!
//! Gated off (`autotests = false` in Cargo.toml) until the proptest
//! dependency is vendored, like the sibling sim crates; deterministic
//! many-seed versions of the same invariants run in the in-crate unit
//! tests meanwhile.

use proptest::prelude::*;
use rb_replay::{replay_with, schedule, ReplayConfig, Timing, Trace, TraceEntry, TraceOp};
use rb_simcore::time::Nanos;

/// Strategy: an arbitrary valid operation over a tiny path universe, so
/// generated traces actually collide on paths.
fn arb_op() -> impl Strategy<Value = TraceOp> {
    let path = prop_oneof![Just("/p/a"), Just("/p/b"), Just("/p/c")].prop_map(str::to_string);
    prop_oneof![
        path.clone().prop_map(TraceOp::Create),
        path.clone().prop_map(TraceOp::Open),
        path.clone().prop_map(TraceOp::Close),
        path.clone().prop_map(TraceOp::Fsync),
        path.clone().prop_map(TraceOp::Stat),
        path.clone().prop_map(TraceOp::Unlink),
        (path.clone(), 0u64..1 << 20, 1u64..65536)
            .prop_map(|(path, offset, len)| TraceOp::Read { path, offset, len }),
        (path.clone(), 0u64..1 << 20, 1u64..65536)
            .prop_map(|(path, offset, len)| TraceOp::Write { path, offset, len }),
        (path, 0u64..1 << 24).prop_map(|(path, size)| TraceOp::SetSize { path, size }),
    ]
}

/// Strategy: a v2 trace with up to three streams and monotone times.
fn arb_trace() -> impl Strategy<Value = Trace> {
    proptest::collection::vec((arb_op(), 0u32..3, 0u64..1 << 24), 1..60).prop_map(|raw| {
        let mut at = 0u64;
        let mut trace = Trace::default();
        for (op, stream, gap) in raw {
            at += gap;
            trace.entries.push(TraceEntry {
                at: Nanos::from_nanos(at),
                stream,
                op,
            });
        }
        trace.normalize_version();
        trace
    })
}

proptest! {
    /// v1 -> v2 round-trip stability: promoting any v1 trace to v2 and
    /// shipping it through text preserves the op stream exactly.
    #[test]
    fn v1_to_v2_roundtrip_is_stable(ops in proptest::collection::vec(arb_op(), 1..60)) {
        let v1 = Trace::from_ops(ops);
        let text1 = v1.to_text().unwrap();
        let reparsed = Trace::from_text(&text1).unwrap();
        prop_assert_eq!(&reparsed, &v1);
        let v2 = Trace::from_text(&v1.clone().to_v2().to_text().unwrap()).unwrap();
        let ops1: Vec<&TraceOp> = v1.ops().collect();
        let ops2: Vec<&TraceOp> = v2.ops().collect();
        prop_assert_eq!(ops1, ops2);
        prop_assert!(v2.entries.iter().all(|e| e.stream == 0 && e.at.is_zero()));
    }

    /// Afap replay of a v2 trace is byte-identical to v1 replay of the
    /// same ops: the schedule (hence every executed op, in order) is the
    /// trace order for any single-stream trace at any seed.
    #[test]
    fn afap_v2_schedule_equals_v1_schedule(
        ops in proptest::collection::vec(arb_op(), 1..60),
        seed in 0u64..1000,
    ) {
        let v1 = Trace::from_ops(ops);
        let v2 = v1.clone().to_v2();
        let s1 = schedule(&v1, Timing::Afap, seed);
        let s2 = schedule(&v2, Timing::Afap, seed);
        prop_assert_eq!(&s1, &s2);
        prop_assert_eq!(s1, (0..v1.len()).collect::<Vec<_>>());
    }

    /// Dependency-aware replay never reorders same-path ops at any seed,
    /// under any timing policy, and keeps per-stream program order.
    #[test]
    fn same_path_order_is_invariant(trace in arb_trace(), seed in 0u64..1000) {
        for timing in [Timing::Afap, Timing::Faithful, Timing::Scaled { factor: 3.0 }] {
            let order = schedule(&trace, timing, seed);
            // A schedule is a permutation.
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..trace.len()).collect::<Vec<_>>());
            // Same-path subsequences appear in trace order.
            for path in ["/p/a", "/p/b", "/p/c"] {
                let scheduled: Vec<usize> = order
                    .iter()
                    .copied()
                    .filter(|&i| trace.entries[i].op.path() == path)
                    .collect();
                let mut expected = scheduled.clone();
                expected.sort_unstable();
                prop_assert_eq!(scheduled, expected, "{} reordered", path);
            }
            // Per-stream program order survives the merge.
            for stream in trace.stream_ids() {
                let scheduled: Vec<usize> = order
                    .iter()
                    .copied()
                    .filter(|&i| trace.entries[i].stream == stream)
                    .collect();
                let mut expected = scheduled.clone();
                expected.sort_unstable();
                prop_assert_eq!(scheduled, expected, "stream {} reordered", stream);
            }
        }
    }

    /// The schedule is a pure function of (trace, timing, seed) — and so
    /// is a full replay on a deterministic target.
    #[test]
    fn schedule_is_deterministic(trace in arb_trace(), seed in 0u64..1000) {
        prop_assert_eq!(
            schedule(&trace, Timing::Afap, seed),
            schedule(&trace, Timing::Afap, seed)
        );
        prop_assert_eq!(
            schedule(&trace, Timing::Faithful, seed),
            schedule(&trace, Timing::Faithful, seed)
        );
    }

    /// Replay never panics on arbitrary traces (missing files etc. are
    /// counted errors), and accounting adds up.
    #[test]
    fn replay_accounting_is_total(trace in arb_trace(), seed in 0u64..100) {
        use rb_replay::Target;
        // A minimal always-failing target: replay must absorb the
        // failures as counted errors rather than dying.
        struct NullTarget(Nanos);
        type R<T> = rb_simcore::error::SimResult<T>;
        type Fd = rb_simfs::stack::Fd;
        type Id = Option<rb_simfs::intern::PathId>;
        type Cost = rb_simfs::stack::OpCost;
        type B = rb_simcore::units::Bytes;
        fn fail<T>() -> R<T> {
            Err(rb_simcore::error::SimError::NoSpace)
        }
        impl Target for NullTarget {
            fn name(&self) -> String { "null".into() }
            fn now(&self) -> Nanos { self.0 }
            fn advance(&mut self, d: Nanos) { self.0 += d; }
            fn create_at(&mut self, _: Id, _: &str, _: Nanos) -> R<Cost> { fail() }
            fn mkdir_at(&mut self, _: Id, _: &str, _: Nanos) -> R<Cost> { fail() }
            fn unlink_at(&mut self, _: Id, _: &str, _: Nanos) -> R<Cost> { fail() }
            fn stat_at(&mut self, _: Id, _: &str, _: Nanos) -> R<Cost> { fail() }
            fn open_at(&mut self, _: Id, _: &str, _: Nanos) -> R<(Fd, Cost)> { fail() }
            fn set_size_at(&mut self, _: Fd, _: B, _: Nanos) -> R<Cost> { fail() }
            fn read_at(&mut self, _: Fd, _: B, _: B, _: Nanos) -> R<Cost> { fail() }
            fn write_at(&mut self, _: Fd, _: B, _: B, _: Nanos) -> R<Cost> { fail() }
            fn fsync_at(&mut self, _: Fd, _: Nanos) -> R<Cost> { fail() }
            fn close(&mut self, _: Fd) -> R<()> { fail() }
            fn drop_caches(&mut self) -> bool { false }
        }
        let mut target = NullTarget(Nanos::ZERO);
        let result = replay_with(
            &mut target,
            &trace,
            &ReplayConfig { timing: Timing::Afap, seed },
        );
        prop_assert_eq!(result.ops + result.errors, trace.len() as u64);
        // Close of a never-opened path is a successful no-op; everything
        // else fails, so any error implies a first_error report.
        if result.errors > 0 {
            prop_assert!(result.first_error.is_some());
        }
    }
}
