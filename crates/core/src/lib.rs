//! # rb-core — the rocketbench harness
//!
//! The paper's contribution turned into a system: a statistically
//! rigorous, multi-dimensional file-system benchmarking harness.
//!
//! * [`campaign`] — declarative multi-dimensional sweeps, sharded
//!   across worker threads with per-cell deterministic seeds.
//! * [`dimensions`] — the five-dimension taxonomy of Section 2.
//! * [`survey`] — Table 1 (benchmark usage 1999–2010) as data + renderer.
//! * [`target`] — systems under test: the simulated stack or a real
//!   directory.
//! * [`testbed`] — the paper's Xeon + Maxtor + 512 MiB machine, prewired.
//! * [`workload`] — Filebench-style flowops and personalities.
//! * [`runner`] — run protocols (fixed-N and convergence-driven), the
//!   stateful `Experiment` driver, verdicts and summaries.
//! * [`sched`] — the discrete-event process scheduler behind
//!   multi-process runs: core tokens, the shared device queue, and the
//!   closed-loop event pump.
//! * [`store`] — the content-addressed result store behind cache-aware,
//!   resumable campaigns.
//! * [`scaling`] — saturation curves over the process-count axis, run
//!   on the real engine.
//! * [`figures`] — reproduction drivers for Figures 1–4.
//! * [`nano`] — the Section 4 nano-benchmark suite.
//! * [`analysis`] — regimes, fragility, warm-up, sound comparisons.
//! * [`report`] — ASCII charts, CSV, gnuplot, JSON export.
//!
//! ## Quick start
//!
//! ```
//! use rb_core::prelude::*;
//! use rb_simcore::units::Bytes;
//! use rb_simcore::time::Nanos;
//!
//! // The paper's workload on the paper's machine, 10 virtual seconds.
//! let mut target = rb_core::testbed::paper_ext2(Bytes::gib(1), 0);
//! let workload = personalities::random_read(Bytes::mib(16));
//! let cfg = EngineConfig {
//!     duration: Nanos::from_secs(10),
//!     ..Default::default()
//! };
//! let rec = Engine::run(&mut target, &workload, &cfg).unwrap();
//! assert!(rec.ops > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod campaign;
pub mod dimensions;
pub mod figures;
pub mod nano;
pub mod report;
pub mod runner;
pub mod scaling;
pub mod sched;
pub mod store;
pub mod survey;
pub mod target;
pub mod testbed;
pub mod workload;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::analysis::{
        compare_systems, ComparisonVerdict, FragilityReport, Regime, WarmupReport,
    };
    pub use crate::campaign::{
        run_campaign, run_campaign_with, CampaignOptions, CampaignReport, CampaignRun,
        CampaignStats, Cell, CellResult, CellWorkload, Personality, StoreOptions, SweepSpec,
        TraceSource,
    };
    pub use crate::dimensions::{Coverage, CoverageProfile, Dimension};
    pub use crate::figures::{
        fig1, fig1_campaign, fig1_zoom, fig1_zoom_campaign, fig2, fig3, fig4, Fig1Config, Fig1Data,
        Fig2Config, Fig2Data, Fig3Config, Fig3Data, Fig4Config, Fig4Data,
    };
    pub use crate::nano::{run_suite, NanoConfig, NanoReport};
    pub use crate::runner::{
        run_many, Experiment, ExperimentStatus, MultiRun, Protocol, RunOutcome, RunPlan, Verdict,
    };
    pub use crate::scaling::{thread_scaling, ScalingConfig, ScalingCurve, ScalingPoint};
    pub use crate::sched::{
        run_open_loop, Arrival, ArrivalGen, CoreSet, DeviceQueue, OpenLoopConfig, OpenOutcome,
        SchedConfig,
    };
    pub use crate::store::{ResultStore, CODE_SALT};
    pub use crate::survey::{render_table1, table1, SurveyRow};
    pub use crate::target::{RealFsTarget, SimTarget, Target};
    pub use crate::testbed::{FsKind, Testbed};
    pub use crate::workload::{
        personalities, Engine, EngineConfig, FileSet, FlowOp, OpenLoopReport, Recording, Workload,
    };
    pub use rb_faults;
    pub use rb_faults::{FaultSpec, OutcomeLedger, RetryPolicy};
    pub use rb_obs::{MetricsSnapshot, ObsConfig, SpanTrace, TraceConfig};
    pub use rb_replay::{
        characterize, replay, replay_with, Recorder, ReplayConfig, ReplayResult, Timing, Trace,
        TraceOp, TraceProfile,
    };
}
