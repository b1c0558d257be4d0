//! # rb-stats — statistics for rigorous benchmark reporting
//!
//! The statistical machinery the paper says file-system benchmarking
//! lacks: OSprof-style log2 latency histograms, streaming moments and
//! relative standard deviation, distribution-free bootstrap intervals,
//! sequential (convergence-driven) stopping rules, peak/modality
//! analysis, cliff and changepoint detection, windowed throughput time
//! series, and Welch's t-test for defensible two-system comparisons.
//!
//! Everything here is deterministic: randomized procedures (the
//! bootstrap) take an explicit [`rb_simcore::rng::Rng`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod changepoint;
pub mod compare;
pub mod histogram;
pub mod moments;
pub mod peaks;
pub mod sequential;
pub mod summary;
pub mod timeseries;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::bootstrap::{bootstrap_ci, bootstrap_mean_ci, bootstrap_rsd_ci, Interval};
    pub use crate::changepoint::{
        binary_segmentation, steady_state_start, steepest_drop, transition_window, Cliff,
    };
    pub use crate::compare::{welch_t, WelchT};
    pub use crate::histogram::{bucket_label, bucket_midpoint, Log2Histogram, BUCKETS};
    pub use crate::moments::Moments;
    pub use crate::peaks::{bimodal_balance, classify_modality, find_peaks, Modality, Peak};
    pub use crate::sequential::{evaluate, Decision, StoppingRule};
    pub use crate::summary::{percentile_sorted, Summary};
    pub use crate::timeseries::{tail_mean_ops_per_sec, Window, WindowedSeries};
}
