//! # rb-obs — the flight recorder
//!
//! The source paper's core complaint is that file-system benchmarks
//! report a number without explaining *why* it is that number. This
//! crate is the instrumentation layer that answers the "why": a
//! deterministic, zero-cost-when-off recorder wired through every
//! simulated layer (scheduler → workload → cache → fs → disk).
//!
//! Two facilities:
//!
//! - [`span`] — virtual-time span tracing of op lifecycles
//!   (arrive → issue → cpu → device → done), emitted as Chrome
//!   trace-event JSON loadable in Perfetto / `chrome://tracing`.
//!   Timestamps come from the sim clock, so traces are byte-identical
//!   across hosts and `--jobs` levels.
//! - [`metrics`] — an end-of-run [`metrics::MetricsSnapshot`]
//!   assembled from per-layer stat deltas plus a windowed gauge
//!   timeline, with an `explain` renderer that decomposes a figure
//!   into hit ratio, device busy %, and queue-wait share.
//!
//! Everything is opt-in via [`ObsConfig`]; the disabled path is a
//! handful of branch checks, proven ≤2% by the `obs-overhead`
//! perfgate scenario and byte-identical by the golden-output tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod span;

pub use metrics::{DiskDelta, FaultDelta, MetricsSnapshot, SchedMetrics};
pub use span::{SpanRecorder, SpanTrace, TraceEvent};

/// Observability switches for one engine run.
///
/// The default is everything off, which must be byte-identical to a
/// build without the flight recorder.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsConfig {
    /// Collect a [`metrics::MetricsSnapshot`] (layer counters, latency
    /// decomposition, gauge timeline) into `Recording.metrics`.
    pub metrics: bool,
    /// Record op lifecycle spans into `Recording.trace`.
    pub trace: Option<TraceConfig>,
}

impl ObsConfig {
    /// True when any recorder is switched on.
    pub fn enabled(&self) -> bool {
        self.metrics || self.trace.is_some()
    }
}

/// Span-tracing knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Record every Nth completed op (1 = every op). Sampling counts
    /// completions in virtual-time order, so the sampled subset is as
    /// deterministic as the full trace.
    pub sample_every: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { sample_every: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_off() {
        let cfg = ObsConfig::default();
        assert!(!cfg.metrics);
        assert!(cfg.trace.is_none());
        assert!(!cfg.enabled());
        assert!(ObsConfig {
            metrics: true,
            trace: None
        }
        .enabled());
        assert_eq!(TraceConfig::default().sample_every, 1);
    }
}
