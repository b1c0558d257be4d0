//! Multi-run experiment execution: fixed-N and convergence-driven.
//!
//! The paper's methodology for Figure 1 was folklore made explicit: "we
//! ran the benchmark 10 times … to ensure steady-state results we report
//! only the last minute". This module keeps that protocol available —
//! byte-for-byte, for exact figure reproduction — as
//! [`Protocol::FixedRuns`], and adds what the paper (and Hasselbring's
//! *Benchmarking as Empirical Standard*) actually asks for:
//! [`Protocol::Adaptive`], a sequential protocol that detects each run's
//! warm-up with a changepoint test instead of a fixed tail window, keeps
//! adding runs until the bootstrap confidence interval on the mean is
//! narrower than a target, and records an explicit [`Verdict`]
//! (converged / hit the run ceiling / refused because the runs straddle
//! performance regimes) on every [`MultiRun`].
//!
//! One loop, [`repeat`], owns the protocol: [`run_many`] gives it the
//! flowop engine as its per-run body, and trace-backed campaign cells
//! and the nano suite give it theirs.

use crate::analysis::Regime;
use crate::sched::Arrival;
use crate::target::Target;
use crate::workload::{Engine, EngineConfig, Recording, Workload};
use rb_simcore::error::{SimError, SimResult};
use rb_simcore::rng::Rng;
use rb_simcore::time::Nanos;
use rb_simcore::units::{Bytes, PAGE_SIZE};
use rb_stats::bootstrap::{bootstrap_mean_ci, Interval};
use rb_stats::changepoint::steady_state_start;
use rb_stats::sequential::{self, Decision, StoppingRule};
use rb_stats::summary::Summary;

/// RSD limit (%) used by the adaptive protocol's per-run warm-up
/// detection: steady state starts at the first window from which the
/// remaining suffix stays within this relative standard deviation.
pub const WARMUP_RSD_LIMIT: f64 = 5.0;

/// Bootstrap resamples used for the final reported interval.
const REPORT_RESAMPLES: usize = 1000;

/// How the number of repetitions is decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Protocol {
    /// Exactly N runs — the paper's "ran it 10 times" folklore, kept for
    /// exact reproduction of the pre-refactor figures.
    FixedRuns(u32),
    /// Convergence-driven: run at least `min_runs`, stop as soon as the
    /// `confidence`-level bootstrap CI on the mean steady-state
    /// throughput is narrower than `ci_rel_width` (relative to the
    /// mean), give up explicitly at `max_runs`.
    Adaptive {
        /// Floor on the number of runs (sequential CIs on tiny samples
        /// are unreliable).
        min_runs: u32,
        /// Ceiling on the number of runs; hitting it yields
        /// [`Verdict::MaxRuns`], never a silent success.
        max_runs: u32,
        /// Target relative CI width (e.g. `0.02` = 2 % of the mean).
        ci_rel_width: f64,
        /// Confidence level of the interval (e.g. `0.95`).
        confidence: f64,
    },
}

impl Protocol {
    /// The default adaptive protocol: 5–30 runs, 2 % CI at 95 %.
    pub fn adaptive_default() -> Protocol {
        Protocol::Adaptive {
            min_runs: 5,
            max_runs: 30,
            ci_rel_width: 0.02,
            confidence: 0.95,
        }
    }

    /// Upper bound on runs this protocol can execute.
    pub fn max_runs(&self) -> u32 {
        match *self {
            Protocol::FixedRuns(n) => n,
            Protocol::Adaptive { max_runs, .. } => max_runs,
        }
    }

    /// Lower bound on runs this protocol will execute.
    pub fn min_runs(&self) -> u32 {
        match *self {
            Protocol::FixedRuns(n) => n,
            Protocol::Adaptive { min_runs, .. } => min_runs,
        }
    }

    /// True for the convergence-driven variant.
    pub fn is_adaptive(&self) -> bool {
        matches!(self, Protocol::Adaptive { .. })
    }

    /// Checks the protocol for nonsense configurations.
    pub fn validate(&self) -> SimResult<()> {
        match *self {
            Protocol::FixedRuns(0) => Err(SimError::BadConfig(
                "protocol needs at least one run".into(),
            )),
            Protocol::FixedRuns(_) => Ok(()),
            Protocol::Adaptive {
                min_runs,
                max_runs,
                ci_rel_width,
                confidence,
            } => StoppingRule::new(min_runs, max_runs, ci_rel_width, confidence)
                .validate()
                .map_err(SimError::BadConfig),
        }
    }

    /// The same protocol with its run count capped at `cap` (floored at
    /// one run). Used by campaigns to divide a shared run budget across
    /// cells deterministically.
    pub fn capped(&self, cap: u32) -> Protocol {
        let cap = cap.max(1);
        match *self {
            Protocol::FixedRuns(n) => Protocol::FixedRuns(n.min(cap)),
            Protocol::Adaptive {
                min_runs,
                max_runs,
                ci_rel_width,
                confidence,
            } => Protocol::Adaptive {
                min_runs: min_runs.min(cap),
                max_runs: max_runs.min(cap),
                ci_rel_width,
                confidence,
            },
        }
    }

    /// The stopping rule for the adaptive variant; `None` for fixed-N.
    pub fn stopping_rule(&self) -> Option<StoppingRule> {
        match *self {
            Protocol::FixedRuns(_) => None,
            Protocol::Adaptive {
                min_runs,
                max_runs,
                ci_rel_width,
                confidence,
            } => Some(StoppingRule::new(
                min_runs,
                max_runs,
                ci_rel_width,
                confidence,
            )),
        }
    }

    /// Confidence level used for the reported interval.
    pub fn confidence(&self) -> f64 {
        match *self {
            Protocol::FixedRuns(_) => 0.95,
            Protocol::Adaptive { confidence, .. } => confidence,
        }
    }

    /// Parses a percentage like `2%`, `2`, or `0.5%` into a fraction
    /// (`0.02`, `0.02`, `0.005`). The value is always read as percent;
    /// the `%` suffix is optional.
    pub fn parse_percent(s: &str) -> Result<f64, String> {
        let digits = s.trim().trim_end_matches('%').trim();
        let v = digits
            .parse::<f64>()
            .map_err(|_| format!("bad percentage {s:?}; expected e.g. 2% or 0.5"))?;
        if !(v > 0.0 && v < 100.0) {
            return Err(format!("percentage {s:?} must be in (0, 100)"));
        }
        Ok(v / 100.0)
    }

    /// Builds a protocol from command-line flag values — the one parser
    /// behind both the `rocketbench` CLI and the rb-bench regenerators,
    /// so the flag semantics cannot drift between them. Every error is
    /// a single human-readable line.
    pub fn from_flags(
        flags: &ProtocolFlags<'_>,
        default_fixed_runs: u32,
    ) -> Result<Protocol, String> {
        let parse_runs = |flag: &str, v: &str| -> Result<u32, String> {
            match v.parse::<u32>() {
                Ok(n) if n > 0 => Ok(n),
                _ => Err(format!("bad --{flag}: {v:?} is not a positive run count")),
            }
        };
        match flags.protocol.unwrap_or("fixed") {
            "fixed" => {
                for (name, value) in [
                    ("ci", flags.ci),
                    ("min-runs", flags.min_runs),
                    ("max-runs", flags.max_runs),
                    ("confidence", flags.confidence),
                ] {
                    if value.is_some() {
                        return Err(format!("--{name} only applies to --protocol adaptive"));
                    }
                }
                let runs = match flags.runs {
                    Some(v) => parse_runs("runs", v)?,
                    None => default_fixed_runs,
                };
                Ok(Protocol::FixedRuns(runs))
            }
            "adaptive" => {
                if flags.runs.is_some() {
                    return Err("--runs sets a fixed count; with --protocol adaptive use \
                         --min-runs/--max-runs"
                        .into());
                }
                let Protocol::Adaptive {
                    mut min_runs,
                    mut max_runs,
                    mut ci_rel_width,
                    mut confidence,
                } = Protocol::adaptive_default()
                else {
                    unreachable!("adaptive_default is adaptive")
                };
                if let Some(v) = flags.ci {
                    ci_rel_width = Protocol::parse_percent(v).map_err(|e| format!("--ci: {e}"))?;
                }
                if let Some(v) = flags.min_runs {
                    min_runs = parse_runs("min-runs", v)?;
                }
                if let Some(v) = flags.max_runs {
                    max_runs = parse_runs("max-runs", v)?;
                }
                if let Some(v) = flags.confidence {
                    confidence =
                        Protocol::parse_percent(v).map_err(|e| format!("--confidence: {e}"))?;
                }
                let protocol = Protocol::Adaptive {
                    min_runs,
                    max_runs,
                    ci_rel_width,
                    confidence,
                };
                protocol.validate().map_err(|e| e.to_string())?;
                Ok(protocol)
            }
            other => Err(format!("unknown protocol {other:?}; use fixed or adaptive")),
        }
    }
}

/// Raw command-line flag values feeding [`Protocol::from_flags`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ProtocolFlags<'a> {
    /// `--protocol` (`fixed` | `adaptive`); `None` defaults to fixed.
    pub protocol: Option<&'a str>,
    /// `--runs` (fixed protocol only).
    pub runs: Option<&'a str>,
    /// `--ci` (adaptive only), a percentage.
    pub ci: Option<&'a str>,
    /// `--min-runs` (adaptive only).
    pub min_runs: Option<&'a str>,
    /// `--max-runs` (adaptive only).
    pub max_runs: Option<&'a str>,
    /// `--confidence` (adaptive only), a percentage.
    pub confidence: Option<&'a str>,
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Protocol::FixedRuns(n) => write!(f, "fixed({n})"),
            Protocol::Adaptive {
                min_runs,
                max_runs,
                ci_rel_width,
                confidence,
            } => write!(
                f,
                "adaptive({min_runs}..{max_runs}, ci {:.1}% @ {:.0}%)",
                ci_rel_width * 100.0,
                confidence * 100.0
            ),
        }
    }
}

/// Protocol for a repeated experiment.
#[derive(Debug, Clone)]
pub struct RunPlan {
    /// How many repetitions, and how that is decided.
    pub protocol: Protocol,
    /// Measured duration per run.
    pub duration: Nanos,
    /// Throughput sampling window.
    pub window: Nanos,
    /// Windows from the end used for steady-state reporting under
    /// [`Protocol::FixedRuns`] ("the last minute" = 6 × 10 s windows).
    /// The adaptive protocol detects warm-up per run instead and only
    /// falls back to this when detection fails.
    pub tail_windows: usize,
    /// Base seed; run `i` uses `base_seed.wrapping_add(i)` (campaigns
    /// derive base seeds spanning the full `u64` range).
    pub base_seed: u64,
    /// Nominal cache capacity, if the plan controls it.
    pub cache_capacity: Option<Bytes>,
    /// Uniform ± jitter applied to the cache capacity per run.
    pub cache_jitter: Bytes,
    /// Start each run with a cold cache.
    pub cold_start: bool,
    /// Sequentially prewarm the files before measuring (reaches the
    /// cold-start steady state without simulating the full warm-up).
    pub prewarm: bool,
    /// Concurrent closed-loop processes per run (`1` = the classic
    /// serial engine; `> 1` = the discrete-event scheduler).
    pub processes: u32,
    /// Load regime: closed-loop (the classic pump) or an open-loop
    /// arrival process offering ops at a fixed rate regardless of
    /// completions.
    pub arrival: Arrival,
    /// Flight-recorder configuration applied to every run (off by
    /// default; enabling it never changes what is measured, only what
    /// is additionally recorded).
    pub obs: rb_obs::ObsConfig,
    /// Deterministic fault plan armed for every run's measured phase
    /// (`None` = healthy device; the pre-fault engine byte-for-byte).
    pub faults: Option<rb_faults::FaultSpec>,
    /// Retry policy applied when injected faults surface as op errors.
    pub retry: rb_faults::RetryPolicy,
}

impl Default for RunPlan {
    fn default() -> Self {
        RunPlan {
            protocol: Protocol::FixedRuns(10),
            duration: Nanos::from_secs(180),
            window: Nanos::from_secs(10),
            tail_windows: 6,
            base_seed: 0,
            cache_capacity: None,
            cache_jitter: Bytes::ZERO,
            cold_start: true,
            prewarm: false,
            processes: 1,
            arrival: Arrival::Closed,
            obs: rb_obs::ObsConfig::default(),
            faults: None,
            retry: rb_faults::RetryPolicy::None,
        }
    }
}

impl RunPlan {
    /// The paper's Figure 1 protocol (durations shortened from 20 min to
    /// 3 min: the runner reports tail windows after steady state either
    /// way, and the simulator's warm-up completes within a minute).
    pub fn paper_fig1(base_seed: u64) -> Self {
        RunPlan {
            base_seed,
            cache_capacity: Some(crate::testbed::PAPER_CACHE),
            cache_jitter: Bytes::mib(3),
            prewarm: true,
            ..RunPlan::default()
        }
    }

    /// A smoke-test protocol: 3 runs of 15 virtual seconds with the
    /// paper's cache control. The default for interactive `sweep`
    /// campaigns, where the full Figure 1 protocol would take minutes
    /// per cell.
    pub fn quick(base_seed: u64) -> Self {
        RunPlan {
            protocol: Protocol::FixedRuns(3),
            duration: Nanos::from_secs(15),
            window: Nanos::from_secs(3),
            tail_windows: 3,
            ..RunPlan::paper_fig1(base_seed)
        }
    }

    /// The same plan with a different process count — how campaigns
    /// stamp cells along the concurrency axis.
    pub fn with_processes(mut self, processes: u32) -> Self {
        self.processes = processes.max(1);
        self
    }

    /// The same plan under a different load regime — how campaigns
    /// stamp cells along the arrival axis.
    pub fn with_arrival(mut self, arrival: Arrival) -> Self {
        self.arrival = arrival;
        self
    }

    /// The same plan with a different base seed — how a campaign stamps
    /// each cell with its derived, scheduling-independent seed.
    pub fn with_base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// The same plan under a different repetition protocol.
    pub fn with_protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// The same plan under a fault regime — how campaigns stamp cells
    /// along the faults axis.
    pub fn with_faults(mut self, faults: Option<rb_faults::FaultSpec>) -> Self {
        self.faults = faults;
        self
    }

    /// The same plan under a different retry policy.
    pub fn with_retry(mut self, retry: rb_faults::RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Applies run `seed`'s memory pressure to `target` when the plan
    /// controls the cache: the nominal capacity ± the plan's jitter,
    /// floored at one page. Returns the capacity set, in pages. Workload
    /// runs and trace-backed cells share this model.
    pub fn set_run_cache(&self, target: &mut dyn Target, seed: u64) -> Option<u64> {
        let pages = jittered_cache_pages(self.cache_capacity?, self.cache_jitter, seed);
        target.set_cache_capacity_pages(pages);
        Some(pages)
    }

    /// The engine configuration for run `i` of this plan.
    pub fn engine_config(&self, run_index: u32) -> EngineConfig {
        EngineConfig {
            duration: self.duration,
            window: self.window,
            seed: self.base_seed.wrapping_add(run_index as u64),
            cold_start: self.cold_start,
            prewarm: self.prewarm,
            processes: self.processes,
            arrival: self.arrival,
            obs: self.obs.clone(),
            faults: self.faults,
            retry: self.retry,
            ..EngineConfig::default()
        }
    }
}

/// One run's outcome.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Full recording (windows, histograms).
    pub recording: Recording,
    /// Seed used.
    pub seed: u64,
    /// Cache capacity in effect (pages), if controlled.
    pub cache_pages: Option<u64>,
    /// Steady-state throughput. Under [`Protocol::FixedRuns`] this is
    /// the tail-window mean (the paper's "last minute"); under
    /// [`Protocol::Adaptive`] it is the mean over the windows after the
    /// detected warm-up changepoint.
    pub steady_ops_per_sec: f64,
    /// Window index where steady state was detected to begin
    /// (changepoint over the throughput series). `None` when the run
    /// never held steady for at least `tail_windows` windows.
    pub steady_from_window: Option<usize>,
    /// The performance regime this run executed in.
    pub regime: Regime,
}

/// Why a multi-run experiment stopped, and whether its aggregate is
/// trustworthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Fixed-N protocol: no stopping rule was applied (the pre-refactor
    /// behavior, kept for exact reproduction).
    Fixed,
    /// Adaptive protocol: the CI met its target within the run bounds.
    Converged,
    /// Adaptive protocol: `max_runs` reached without convergence. The
    /// aggregate is reported, but flagged.
    MaxRuns,
    /// The runs straddle performance regimes (memory- vs disk-bound):
    /// the mean describes neither, so the experiment refuses to bless
    /// it. The paper's Section 3.1 failure mode, detected.
    MixedRegime,
}

impl Verdict {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Fixed => "fixed",
            Verdict::Converged => "converged",
            Verdict::MaxRuns => "max-runs",
            Verdict::MixedRegime => "mixed-regime",
        }
    }

    /// Parses a report label back into its verdict — the inverse of
    /// [`Verdict::label`], used by the result store to round-trip
    /// persisted cell records.
    pub fn parse(s: &str) -> Option<Verdict> {
        match s {
            "fixed" => Some(Verdict::Fixed),
            "converged" => Some(Verdict::Converged),
            "max-runs" => Some(Verdict::MaxRuns),
            "mixed-regime" => Some(Verdict::MixedRegime),
            _ => None,
        }
    }

    /// Whether the aggregate behind this verdict is methodologically
    /// sound to quote as a single mean.
    pub fn is_sound(self) -> bool {
        matches!(self, Verdict::Fixed | Verdict::Converged)
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A completed multi-run experiment.
#[derive(Debug, Clone)]
pub struct MultiRun {
    /// Per-run outcomes.
    pub outcomes: Vec<RunOutcome>,
    /// Summary of steady-state throughput across runs.
    pub summary: Summary,
    /// Why the experiment stopped.
    pub verdict: Verdict,
    /// Bootstrap CI on the mean steady-state throughput (at the
    /// protocol's confidence level), when computable.
    pub ci: Option<Interval>,
}

impl MultiRun {
    /// The steady-state throughput samples.
    pub fn samples(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.steady_ops_per_sec).collect()
    }

    /// Number of runs executed.
    pub fn runs(&self) -> u32 {
        self.outcomes.len() as u32
    }

    /// Relative standard deviation (%) across runs — Figure 1's right
    /// axis. A spread needs at least two samples; fewer report `0.0`
    /// (never `NaN` — `Moments` defines the zero-sample-variance and
    /// zero-mean cases, and the tests below pin the contract).
    pub fn rsd_percent(&self) -> f64 {
        self.summary.rsd_percent
    }
}

/// The fork of a base seed that the adaptive stopping rule of
/// [`run_many`] and trace-backed campaign cells draws its bootstrap from.
pub(crate) const SEQUENTIAL_CI: &str = "sequential-ci";

/// The repetition loop behind every repeated measurement: [`run_many`],
/// trace-backed campaign cells and the nano suite each supply only the
/// per-run body.
///
/// Calls `run(i, base_seed + i)` for `i = 0, 1, …` until the protocol
/// says stop. Each run returns its sample and, when the body can
/// classify it, the performance [`Regime`] it ran in. Runs that straddle
/// regimes stop with [`Verdict::MixedRegime`]: under
/// [`Protocol::Adaptive`] as soon as `min_runs` are in, before the CI
/// rule, since no number of extra runs makes a bimodal sample's mean
/// meaningful; under [`Protocol::FixedRuns`] after the last run.
/// Otherwise the adaptive rule is evaluated after every run from
/// `min_runs` on, on a bootstrap drawn afresh from the `stop_fork`
/// stream of `base_seed`. The verdict is therefore a pure function of
/// the samples and the seed, so campaigns can schedule cells in any
/// order on any number of workers without changing a byte. A run's
/// error ends the loop and is returned.
///
/// Returns the samples in run order, never empty, and the verdict.
pub fn repeat(
    protocol: &Protocol,
    base_seed: u64,
    stop_fork: &str,
    mut run: impl FnMut(u32, u64) -> SimResult<(f64, Option<Regime>)>,
) -> SimResult<(Vec<f64>, Verdict)> {
    protocol.validate()?;
    let rule = protocol.stopping_rule();
    let mut samples = Vec::new();
    let mut first_regime = None;
    let mut mixed = false;
    loop {
        let n = samples.len() as u32;
        let verdict = match &rule {
            None if n < protocol.max_runs() => None,
            None if mixed => Some(Verdict::MixedRegime),
            None => Some(Verdict::Fixed),
            Some(rule) if n < rule.min_runs => None,
            Some(_) if mixed => Some(Verdict::MixedRegime),
            Some(rule) => {
                let mut rng = Rng::new(base_seed).fork(stop_fork);
                match sequential::evaluate(&samples, rule, &mut rng) {
                    Decision::Continue => None,
                    Decision::Converged(_) => Some(Verdict::Converged),
                    Decision::Exhausted(_) => Some(Verdict::MaxRuns),
                }
            }
        };
        if let Some(verdict) = verdict {
            return Ok((samples, verdict));
        }
        let (sample, regime) = run(n, base_seed.wrapping_add(n as u64))?;
        samples.push(sample);
        if let Some(regime) = regime {
            mixed |= *first_regime.get_or_insert(regime) != regime;
        }
    }
}

/// What [`run_many`] and trace cells report for the samples of
/// [`repeat`]: their summary, and the bootstrap CI on their mean drawn
/// from the `bootstrap-ci` stream of `base_seed` at the protocol's
/// confidence.
pub(crate) fn summarize(
    samples: &[f64],
    protocol: &Protocol,
    base_seed: u64,
) -> (Summary, Option<Interval>) {
    // Both callers pass the samples of `repeat`, which first validates
    // the protocol (refusing `FixedRuns(0)` and `min_runs` 0), so it
    // returns at least one.
    let summary = Summary::from_sample(samples).expect("a validated protocol runs at least once");
    let mut rng = Rng::new(base_seed).fork("bootstrap-ci");
    let alpha = 1.0 - protocol.confidence();
    let ci = bootstrap_mean_ci(samples, REPORT_RESAMPLES, alpha, &mut rng);
    (summary, ci)
}

/// Runs `workload` under `plan`'s protocol, building a fresh target per
/// run via `make_target(seed)`.
///
/// Every run's seed derives from `plan.base_seed + run_index`, and the
/// stopping rule's bootstrap from `plan.base_seed` alone (see
/// [`repeat`]), so the result is a pure function of (plan, workload,
/// target factory).
pub fn run_many<T, F>(
    mut make_target: F,
    workload: &Workload,
    plan: &RunPlan,
) -> SimResult<MultiRun>
where
    T: Target,
    F: FnMut(u64) -> T,
{
    let mut outcomes = Vec::new();
    let (samples, verdict) = repeat(&plan.protocol, plan.base_seed, SEQUENTIAL_CI, |i, seed| {
        let outcome = run_once(&mut make_target(seed), workload, plan, i, seed)?;
        let sample = (outcome.steady_ops_per_sec, Some(outcome.regime));
        outcomes.push(outcome);
        Ok(sample)
    })?;
    let (summary, ci) = summarize(&samples, &plan.protocol, plan.base_seed);
    Ok(MultiRun {
        outcomes,
        summary,
        verdict,
        ci,
    })
}

/// Run `i` of `plan`, seeded `seed`, on a fresh `target`: the run's
/// memory pressure, the engine, then its steady-state sample and regime.
fn run_once(
    target: &mut dyn Target,
    workload: &Workload,
    plan: &RunPlan,
    i: u32,
    seed: u64,
) -> SimResult<RunOutcome> {
    let cache_pages = plan.set_run_cache(target, seed);
    let recording = Engine::run(target, workload, &plan.engine_config(i))?;
    let ys: Vec<f64> = recording.windows.iter().map(|w| w.ops_per_sec).collect();
    // Changepoint-detected warm-up end. `steady_state_start` accepts
    // any trailing suffix (a 1-window suffix is trivially "stable"),
    // so demand the steady phase cover at least `tail_windows`
    // windows — a shorter one means the run never really settled,
    // and averaging a couple of windows would be a far noisier
    // sample than the tail rule.
    let min_steady = plan.tail_windows.max(1);
    let steady_from_window =
        steady_state_start(&ys, WARMUP_RSD_LIMIT).filter(|&s| ys.len() - s >= min_steady);
    let steady = if plan.protocol.is_adaptive() {
        // Average the detected steady phase; fall back to the
        // tail-window rule (then the whole run) when the series
        // never stabilizes for long enough.
        steady_from_window
            .map(|s| ys[s..].iter().sum::<f64>() / (ys.len() - s) as f64)
            .or_else(|| recording.tail_ops_per_sec(plan.tail_windows))
            .unwrap_or_else(|| recording.ops_per_sec())
    } else {
        recording
            .tail_ops_per_sec(plan.tail_windows)
            .unwrap_or_else(|| recording.ops_per_sec())
    };
    let regime = Regime::classify(&recording);
    Ok(RunOutcome {
        recording,
        seed,
        cache_pages,
        steady_ops_per_sec: steady,
        steady_from_window,
        regime,
    })
}

/// One run's controlled cache capacity in pages: the nominal capacity
/// plus a seeded uniform ± `jitter` perturbation, floored at one page.
fn jittered_cache_pages(base: Bytes, jitter: Bytes, seed: u64) -> u64 {
    let jitter = jitter.as_u64();
    let mut rng = Rng::new(seed).fork("cache-jitter");
    let delta = if jitter == 0 {
        0
    } else {
        rng.below(2 * jitter + 1) as i64 - jitter as i64
    };
    let bytes = (base.as_u64() as i64 + delta).max(PAGE_SIZE.as_u64() as i64) as u64;
    Bytes::new(bytes).div_ceil(PAGE_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed;
    use crate::workload::personalities;

    fn quick_plan(runs: u32, secs: u64) -> RunPlan {
        RunPlan {
            protocol: Protocol::FixedRuns(runs),
            duration: Nanos::from_secs(secs),
            window: Nanos::from_secs(1),
            tail_windows: 3,
            base_seed: 10,
            cache_capacity: Some(Bytes::mib(410)),
            cache_jitter: Bytes::mib(3),
            cold_start: true,
            prewarm: true,
            processes: 1,
            arrival: Arrival::Closed,
            obs: rb_obs::ObsConfig::default(),
            faults: None,
            retry: rb_faults::RetryPolicy::None,
        }
    }

    fn adaptive_plan(min: u32, max: u32, ci: f64, secs: u64) -> RunPlan {
        RunPlan {
            protocol: Protocol::Adaptive {
                min_runs: min,
                max_runs: max,
                ci_rel_width: ci,
                confidence: 0.95,
            },
            ..quick_plan(0, secs)
        }
    }

    #[test]
    fn multi_run_produces_summary() {
        let w = personalities::random_read(Bytes::mib(8));
        let mr = run_many(
            |seed| testbed::paper_ext2(Bytes::gib(1), seed),
            &w,
            &quick_plan(4, 6),
        )
        .unwrap();
        assert_eq!(mr.outcomes.len(), 4);
        assert_eq!(mr.summary.n, 4);
        assert!(mr.summary.mean > 1000.0);
        assert_eq!(mr.verdict, Verdict::Fixed);
        let ci = mr.ci.expect("bootstrap ci");
        assert!(ci.contains(ci.point));
        // Distinct seeds produced distinct cache capacities.
        let caps: std::collections::HashSet<_> =
            mr.outcomes.iter().map(|o| o.cache_pages.unwrap()).collect();
        assert!(caps.len() > 1, "jitter had no effect: {caps:?}");
    }

    #[test]
    fn in_memory_runs_are_stable_across_seeds() {
        let w = personalities::random_read(Bytes::mib(8));
        let mr = run_many(
            |seed| testbed::paper_ext2(Bytes::gib(1), seed),
            &w,
            &quick_plan(5, 8),
        )
        .unwrap();
        // Memory-bound: RSD well under 2 %, as in the paper's left region.
        assert!(mr.rsd_percent() < 2.0, "rsd {}", mr.rsd_percent());
        // And all runs classify into the same (memory) regime.
        assert!(mr
            .outcomes
            .iter()
            .all(|o| o.regime == crate::analysis::Regime::MemoryBound));
    }

    #[test]
    fn deterministic_given_same_plan() {
        let w = personalities::random_read(Bytes::mib(4));
        let run = || {
            run_many(
                |seed| testbed::paper_ext2(Bytes::gib(1), seed),
                &w,
                &quick_plan(2, 3),
            )
            .unwrap()
            .samples()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn no_jitter_when_uncontrolled() {
        let w = personalities::random_read(Bytes::mib(4));
        let plan = RunPlan {
            cache_capacity: None,
            ..quick_plan(2, 3)
        };
        let mr = run_many(|seed| testbed::paper_ext2(Bytes::gib(1), seed), &w, &plan).unwrap();
        assert!(mr.outcomes.iter().all(|o| o.cache_pages.is_none()));
    }

    #[test]
    fn zero_runs_is_an_error_not_a_panic() {
        let w = personalities::random_read(Bytes::mib(4));
        let plan = quick_plan(0, 2);
        assert!(run_many(|seed| testbed::paper_ext2(Bytes::gib(1), seed), &w, &plan).is_err());
    }

    #[test]
    fn rsd_is_zero_never_nan_for_single_run() {
        let w = personalities::random_read(Bytes::mib(4));
        let mr = run_many(
            |seed| testbed::paper_ext2(Bytes::gib(1), seed),
            &w,
            &quick_plan(1, 3),
        )
        .unwrap();
        assert_eq!(mr.outcomes.len(), 1);
        let rsd = mr.rsd_percent();
        assert!(rsd == 0.0 && !rsd.is_nan(), "rsd {rsd}");
    }

    #[test]
    fn adaptive_stable_workload_converges_before_max() {
        // Memory-bound: ~0.5 % RSD, so a 5 % CI target converges at the
        // minimum run count.
        let w = personalities::random_read(Bytes::mib(8));
        let mr = run_many(
            |seed| testbed::paper_ext2(Bytes::gib(1), seed),
            &w,
            &adaptive_plan(3, 12, 0.05, 6),
        )
        .unwrap();
        assert_eq!(mr.verdict, Verdict::Converged);
        assert!(
            mr.runs() < 12,
            "stable workload burned the whole budget: {} runs",
            mr.runs()
        );
        let ci = mr.ci.expect("ci");
        assert!(ci.rel_width() <= 0.05, "ci rel width {}", ci.rel_width());
    }

    #[test]
    fn adaptive_detects_warmup_per_run() {
        let w = personalities::random_read(Bytes::mib(8));
        let plan = adaptive_plan(3, 6, 0.05, 6);
        let mr = run_many(|seed| testbed::paper_ext2(Bytes::gib(1), seed), &w, &plan).unwrap();
        for o in &mr.outcomes {
            // Prewarmed in-memory runs stabilize quickly — and the
            // detected steady phase must cover at least the tail-window
            // span (a shorter suffix does not count as "detected").
            let s = o.steady_from_window.expect("steady state detected");
            let windows = o.recording.windows.len();
            assert!(
                windows - s >= plan.tail_windows,
                "steady suffix too short: start {s} of {windows}"
            );
        }
    }

    #[test]
    fn adaptive_too_short_steady_phase_falls_back_to_tail_rule() {
        // With fewer windows than tail_windows, no suffix can satisfy
        // the minimum steady-phase length: detection must report None
        // (a trivially "stable" 1-window suffix does not count) and the
        // steady sample must come from the tail-window rule, never from
        // averaging a couple of trailing windows.
        let mut plan = adaptive_plan(1, 1, 0.05, 4);
        plan.window = Nanos::from_secs(1);
        plan.tail_windows = 6;
        let w = personalities::random_read(Bytes::mib(8));
        let mr = run_many(|seed| testbed::paper_ext2(Bytes::gib(1), seed), &w, &plan).unwrap();
        let o = &mr.outcomes[0];
        assert!(o.recording.windows.len() < plan.tail_windows);
        assert_eq!(
            o.steady_from_window, None,
            "a sub-tail-length suffix must not count as steady"
        );
        let tail = o.recording.tail_ops_per_sec(plan.tail_windows).unwrap();
        assert_eq!(o.steady_ops_per_sec, tail);
    }

    #[test]
    fn protocol_validation_and_capping() {
        assert!(Protocol::FixedRuns(0).validate().is_err());
        assert!(Protocol::FixedRuns(1).validate().is_ok());
        assert!(Protocol::adaptive_default().validate().is_ok());
        let bad = Protocol::Adaptive {
            min_runs: 10,
            max_runs: 5,
            ci_rel_width: 0.02,
            confidence: 0.95,
        };
        assert!(bad.validate().is_err());
        assert_eq!(Protocol::FixedRuns(10).capped(3), Protocol::FixedRuns(3));
        assert_eq!(Protocol::FixedRuns(2).capped(0), Protocol::FixedRuns(1));
        match Protocol::adaptive_default().capped(4) {
            Protocol::Adaptive {
                min_runs, max_runs, ..
            } => {
                assert_eq!((min_runs, max_runs), (4, 4));
            }
            other => panic!("capping changed the variant: {other:?}"),
        }
    }

    #[test]
    fn protocol_from_flags_shared_parser() {
        let empty = ProtocolFlags::default();
        assert_eq!(
            Protocol::from_flags(&empty, 10).unwrap(),
            Protocol::FixedRuns(10)
        );
        assert_eq!(
            Protocol::from_flags(&empty, 3).unwrap(),
            Protocol::FixedRuns(3)
        );
        let adaptive = ProtocolFlags {
            protocol: Some("adaptive"),
            ci: Some("2%"),
            max_runs: Some("30"),
            ..Default::default()
        };
        assert_eq!(
            Protocol::from_flags(&adaptive, 10).unwrap(),
            Protocol::adaptive_default()
        );
        // Mismatched flags are one-line errors, regardless of caller.
        let mixed = ProtocolFlags {
            ci: Some("2%"),
            ..Default::default()
        };
        assert!(Protocol::from_flags(&mixed, 10).is_err());
        let fixed_runs_with_adaptive = ProtocolFlags {
            protocol: Some("adaptive"),
            runs: Some("5"),
            ..Default::default()
        };
        assert!(Protocol::from_flags(&fixed_runs_with_adaptive, 10).is_err());
        let unknown = ProtocolFlags {
            protocol: Some("warp"),
            ..Default::default()
        };
        assert!(Protocol::from_flags(&unknown, 10).is_err());
    }

    #[test]
    fn repeat_runs_fixed_counts_with_derived_seeds() {
        let mut seeds = Vec::new();
        let (samples, verdict) = repeat(&Protocol::FixedRuns(4), 100, SEQUENTIAL_CI, |i, seed| {
            seeds.push((i, seed));
            Ok((1000.0 + i as f64, None))
        })
        .unwrap();
        assert_eq!(samples.len(), 4);
        assert_eq!(verdict, Verdict::Fixed);
        assert_eq!(seeds, vec![(0, 100), (1, 101), (2, 102), (3, 103)]);
        // Zero-run protocols are rejected, not an empty success.
        assert!(
            repeat(&Protocol::FixedRuns(0), 0, SEQUENTIAL_CI, |_, _| Ok((
                1.0, None
            )))
            .is_err()
        );
    }

    #[test]
    fn repeat_adaptive_stops_on_stable_samples() {
        let (samples, verdict) = repeat(&Protocol::adaptive_default(), 7, SEQUENTIAL_CI, |_, _| {
            Ok((5000.0, None))
        })
        .unwrap();
        assert_eq!(verdict, Verdict::Converged);
        assert_eq!(samples.len(), 5, "constant samples converge at min");
        // Wildly noisy samples exhaust the budget instead.
        let mut noise = Rng::new(9);
        let (samples, verdict) = repeat(
            &Protocol::Adaptive {
                min_runs: 3,
                max_runs: 6,
                ci_rel_width: 0.0001,
                confidence: 0.95,
            },
            9,
            SEQUENTIAL_CI,
            |_, _| Ok((1000.0 + noise.next_f64() * 900.0, None)),
        )
        .unwrap();
        assert_eq!(verdict, Verdict::MaxRuns);
        assert_eq!(samples.len(), 6);
    }

    #[test]
    fn repeat_propagates_run_errors() {
        let err = repeat(&Protocol::FixedRuns(3), 0, SEQUENTIAL_CI, |i, _| {
            if i == 1 {
                Err(SimError::BadConfig("boom".into()))
            } else {
                Ok((1.0, None))
            }
        });
        assert!(err.is_err());
    }

    #[test]
    fn jittered_cache_pages_is_seeded_and_floored() {
        let base = Bytes::mib(64);
        let a = jittered_cache_pages(base, Bytes::mib(3), 5);
        assert_eq!(a, jittered_cache_pages(base, Bytes::mib(3), 5));
        assert_ne!(a, jittered_cache_pages(base, Bytes::mib(3), 6));
        // No jitter: exact page count.
        assert_eq!(
            jittered_cache_pages(base, Bytes::ZERO, 5),
            base.div_ceil(PAGE_SIZE)
        );
        // A pathological jitter can never drive capacity below one page.
        assert!(jittered_cache_pages(Bytes::new(1), Bytes::new(1 << 40), 3) >= 1);
    }

    #[test]
    fn protocol_labels() {
        assert_eq!(Protocol::FixedRuns(10).to_string(), "fixed(10)");
        let label = Protocol::adaptive_default().to_string();
        assert!(label.contains("adaptive(5..30"), "{label}");
        assert_eq!(Verdict::MixedRegime.label(), "mixed-regime");
        assert!(Verdict::Converged.is_sound());
        assert!(!Verdict::MaxRuns.is_sound());
    }

    // The three repetition loops `repeat` replaced, kept as its oracle.
    // Each is the pre-merge code but for its run body: `Experiment`'s
    // engine run and the nano suite run become scripted samples and
    // regimes.

    /// What an [`Experiment`] decided after the most recent run.
    #[derive(Debug, Clone, PartialEq)]
    enum ExperimentStatus {
        Continue,
        Done(Verdict),
    }

    /// The pre-merge stateful driver behind `run_many`; each run's
    /// outcome is the script's `(sample, regime)`.
    struct Experiment<F>
    where
        F: FnMut(u32, u64) -> SimResult<(f64, Regime)>,
    {
        script: F,
        plan: RunPlan,
        outcomes: Vec<(f64, Regime)>,
    }

    impl<F> Experiment<F>
    where
        F: FnMut(u32, u64) -> SimResult<(f64, Regime)>,
    {
        fn new(script: F, plan: &RunPlan) -> SimResult<Self> {
            plan.protocol.validate()?;
            Ok(Experiment {
                script,
                plan: plan.clone(),
                outcomes: Vec::new(),
            })
        }

        fn completed_runs(&self) -> u32 {
            self.outcomes.len() as u32
        }

        fn samples(&self) -> Vec<f64> {
            self.outcomes.iter().map(|o| o.0).collect()
        }

        fn run_next(&mut self) -> SimResult<()> {
            let i = self.outcomes.len() as u32;
            let seed = self.plan.base_seed.wrapping_add(i as u64);
            let outcome = (self.script)(i, seed)?;
            self.outcomes.push(outcome);
            Ok(())
        }

        fn regimes_mixed(&self) -> bool {
            let first = match self.outcomes.first() {
                Some(o) => o.1,
                None => return false,
            };
            self.outcomes.iter().any(|o| o.1 != first)
        }

        fn status(&self) -> ExperimentStatus {
            let n = self.completed_runs();
            match self.plan.protocol.stopping_rule() {
                None => {
                    if n < self.plan.protocol.max_runs() {
                        ExperimentStatus::Continue
                    } else if self.regimes_mixed() {
                        ExperimentStatus::Done(Verdict::MixedRegime)
                    } else {
                        ExperimentStatus::Done(Verdict::Fixed)
                    }
                }
                Some(rule) => {
                    if n < rule.min_runs {
                        return ExperimentStatus::Continue;
                    }
                    if self.regimes_mixed() {
                        return ExperimentStatus::Done(Verdict::MixedRegime);
                    }
                    let mut rng = Rng::new(self.plan.base_seed).fork("sequential-ci");
                    match sequential::evaluate(&self.samples(), &rule, &mut rng) {
                        Decision::Continue => ExperimentStatus::Continue,
                        Decision::Converged(_) => ExperimentStatus::Done(Verdict::Converged),
                        Decision::Exhausted(_) => ExperimentStatus::Done(Verdict::MaxRuns),
                    }
                }
            }
        }

        fn run_to_completion(mut self) -> SimResult<ProtocolDrive> {
            loop {
                match self.status() {
                    ExperimentStatus::Continue => {
                        self.run_next()?;
                    }
                    ExperimentStatus::Done(verdict) => {
                        return self.finish(verdict);
                    }
                }
            }
        }

        fn finish(self, verdict: Verdict) -> SimResult<ProtocolDrive> {
            let samples = self.samples();
            Summary::from_sample(&samples)
                .ok_or_else(|| SimError::BadConfig("experiment finished with zero runs".into()))?;
            let mut rng = Rng::new(self.plan.base_seed).fork("bootstrap-ci");
            let alpha = 1.0 - self.plan.protocol.confidence();
            let ci = bootstrap_mean_ci(&samples, REPORT_RESAMPLES, alpha, &mut rng);
            Ok(ProtocolDrive {
                samples,
                verdict,
                ci,
            })
        }
    }

    /// The outcome of one of the oracle loops.
    #[derive(Debug, Clone)]
    struct ProtocolDrive {
        samples: Vec<f64>,
        verdict: Verdict,
        ci: Option<Interval>,
    }

    /// The pre-merge generic loop behind trace cells.
    fn drive_protocol<F>(
        protocol: &Protocol,
        base_seed: u64,
        mut run: F,
    ) -> SimResult<ProtocolDrive>
    where
        F: FnMut(u32, u64) -> SimResult<f64>,
    {
        protocol.validate()?;
        let mut samples: Vec<f64> = Vec::new();
        let verdict = loop {
            let n = samples.len() as u32;
            match protocol.stopping_rule() {
                None => {
                    if n >= protocol.max_runs() {
                        break Verdict::Fixed;
                    }
                }
                Some(rule) => {
                    if n >= rule.min_runs {
                        let mut rng = Rng::new(base_seed).fork("sequential-ci");
                        match sequential::evaluate(&samples, &rule, &mut rng) {
                            Decision::Continue => {}
                            Decision::Converged(_) => break Verdict::Converged,
                            Decision::Exhausted(_) => break Verdict::MaxRuns,
                        }
                    }
                }
            }
            let seed = base_seed.wrapping_add(n as u64);
            samples.push(run(n, seed)?);
        };
        let mut rng = Rng::new(base_seed).fork("bootstrap-ci");
        let alpha = 1.0 - protocol.confidence();
        let ci = bootstrap_mean_ci(&samples, REPORT_RESAMPLES, alpha, &mut rng);
        Ok(ProtocolDrive {
            samples,
            verdict,
            ci,
        })
    }

    /// The CI the nano suite reports for its headline metric.
    fn nano_headline_ci(samples: &[f64], protocol: &Protocol, seed: u64) -> Option<Interval> {
        let mut rng = Rng::new(seed).fork("nano-ci/in-memory-read/throughput");
        bootstrap_mean_ci(samples, 1000, 1.0 - protocol.confidence(), &mut rng)
    }

    /// The pre-merge loop of `nano::run_suite_protocol`; `suite(n, seed)`
    /// stands for run `n`'s suite run and yields its headline metric.
    fn nano_loop(
        protocol: &Protocol,
        seed: u64,
        mut suite: impl FnMut(u32, u64) -> SimResult<f64>,
    ) -> SimResult<ProtocolDrive> {
        protocol.validate()?;
        let rule = protocol.stopping_rule();
        let mut headline: Vec<f64> = Vec::new();
        let verdict = loop {
            let n = headline.len() as u32;
            match &rule {
                None => {
                    if n >= protocol.max_runs() {
                        break Verdict::Fixed;
                    }
                }
                Some(rule) => {
                    let mut rng = Rng::new(seed).fork("nano-sequential");
                    match sequential::evaluate(&headline, rule, &mut rng) {
                        Decision::Continue => {}
                        Decision::Converged(_) => break Verdict::Converged,
                        Decision::Exhausted(_) => break Verdict::MaxRuns,
                    }
                }
            }
            headline.push(suite(n, seed.wrapping_add(n as u64))?);
        };
        let ci = nano_headline_ci(&headline, protocol, seed);
        Ok(ProtocolDrive {
            samples: headline,
            verdict,
            ci,
        })
    }

    /// One seeded oracle case: a protocol, and a scripted run body.
    #[derive(Debug)]
    struct Case {
        protocol: Protocol,
        base_seed: u64,
        /// 0 = stable, 1 = noisy, 2 = bimodal samples.
        shape: u64,
        /// Runs from this index on execute in the disk-bound regime.
        flip_at: Option<u32>,
        /// The run at this index fails.
        fail_at: Option<u32>,
    }

    impl Case {
        fn generate(k: u64) -> Case {
            let mut rng = Rng::new(k).fork("repeat-oracle");
            let protocol = if rng.chance(0.5) {
                Protocol::FixedRuns(rng.range(1, 13) as u32)
            } else {
                let min_runs = rng.range(1, 7) as u32;
                Protocol::Adaptive {
                    min_runs,
                    max_runs: min_runs + rng.below(11) as u32,
                    ci_rel_width: rng.range_f64(0.002, 0.2),
                    confidence: rng.range_f64(0.6, 0.99),
                }
            };
            let runs = protocol.max_runs() as u64;
            Case {
                protocol,
                base_seed: if rng.chance(0.1) {
                    u64::MAX - rng.below(8)
                } else {
                    rng.next_u64()
                },
                shape: rng.below(3),
                flip_at: rng.chance(0.3).then(|| rng.range(1, runs + 1) as u32),
                fail_at: rng.chance(0.2).then(|| rng.below(runs) as u32),
            }
        }

        /// Run `i`'s scripted outcome, a pure function of the case and
        /// the run's `(index, seed)`.
        fn run(&self, i: u32, seed: u64) -> SimResult<(f64, Regime)> {
            if self.fail_at == Some(i) {
                return Err(SimError::BadConfig(format!("run {i} failed")));
            }
            let u = Rng::new(seed).fork("script").next_f64();
            let sample = match self.shape {
                0 => 5000.0 * (1.0 + 0.002 * (u - 0.5)),
                1 => 5000.0 * (0.5 + u),
                _ => {
                    if i.is_multiple_of(2) {
                        9700.0 + 10.0 * u
                    } else {
                        500.0 + 10.0 * u
                    }
                }
            };
            let regime = if self.flip_at.is_some_and(|k| i >= k) {
                Regime::DiskBound
            } else {
                Regime::MemoryBound
            };
            Ok((sample, regime))
        }
    }

    /// A loop's `(index, seed)` calls and its outcome.
    type Traced = (Vec<(u32, u64)>, SimResult<ProtocolDrive>);

    /// `repeat` on `case`'s script, with or without its regimes, stopping
    /// on the `stop_fork` stream and reporting the CI `ci` computes.
    fn repeat_case(
        case: &Case,
        stop_fork: &str,
        regimes: bool,
        ci: impl Fn(&[f64]) -> Option<Interval>,
    ) -> Traced {
        let mut calls = Vec::new();
        let drive = repeat(&case.protocol, case.base_seed, stop_fork, |i, seed| {
            calls.push((i, seed));
            let (sample, regime) = case.run(i, seed)?;
            Ok((sample, regimes.then_some(regime)))
        })
        .map(|(samples, verdict)| ProtocolDrive {
            ci: ci(&samples),
            samples,
            verdict,
        });
        (calls, drive)
    }

    /// Asserts that an old loop and `repeat` made the same calls and
    /// came to the same outcome, bit for bit.
    fn assert_same(case: &Case, loop_name: &str, (old_calls, old): Traced, (calls, new): Traced) {
        assert_eq!(old_calls, calls, "{loop_name} calls differ on {case:?}");
        let bits =
            |ci: &Option<Interval>| ci.map(|c| (c.lo.to_bits(), c.point.to_bits(), c.hi.to_bits()));
        match (&old, &new) {
            (Ok(a), Ok(b)) => {
                let sa: Vec<u64> = a.samples.iter().map(|x| x.to_bits()).collect();
                let sb: Vec<u64> = b.samples.iter().map(|x| x.to_bits()).collect();
                assert_eq!(sa, sb, "{loop_name} samples differ on {case:?}");
                assert_eq!(
                    a.verdict, b.verdict,
                    "{loop_name} verdict differs on {case:?}"
                );
                assert_eq!(
                    bits(&a.ci),
                    bits(&b.ci),
                    "{loop_name} ci differs on {case:?}"
                );
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{loop_name} error differs on {case:?}"),
            _ => panic!("{loop_name} outcome differs on {case:?}: {old:?} vs {new:?}"),
        }
    }

    #[test]
    fn repeat_matches_the_three_loop_oracle() {
        let mut verdicts: std::collections::BTreeMap<&str, usize> = Default::default();
        for k in 0..320 {
            let case = Case::generate(k);
            let report_ci = |samples: &[f64]| summarize(samples, &case.protocol, case.base_seed).1;

            // `run_many`'s loop: regimes reported, `sequential-ci` fork.
            let plan = RunPlan {
                protocol: case.protocol,
                base_seed: case.base_seed,
                ..RunPlan::default()
            };
            let mut calls = Vec::new();
            let old = Experiment::new(
                |i, seed| {
                    calls.push((i, seed));
                    case.run(i, seed)
                },
                &plan,
            )
            .and_then(Experiment::run_to_completion);
            let new = repeat_case(&case, SEQUENTIAL_CI, true, report_ci);
            if let Ok(drive) = &new.1 {
                *verdicts.entry(drive.verdict.label()).or_default() += 1;
            }
            assert_same(&case, "Experiment", (calls, old), new);

            // Trace cells' loop: no regimes, `sequential-ci` fork.
            let mut calls = Vec::new();
            let old = drive_protocol(&case.protocol, case.base_seed, |i, seed| {
                calls.push((i, seed));
                case.run(i, seed).map(|(sample, _)| sample)
            });
            let new = repeat_case(&case, SEQUENTIAL_CI, false, report_ci);
            assert_same(&case, "drive_protocol", (calls, old), new);

            // The nano suite's loop: no regimes, `nano-sequential` fork.
            let mut calls = Vec::new();
            let old = nano_loop(&case.protocol, case.base_seed, |i, seed| {
                calls.push((i, seed));
                case.run(i, seed).map(|(sample, _)| sample)
            });
            let new = repeat_case(&case, "nano-sequential", false, |samples| {
                nano_headline_ci(samples, &case.protocol, case.base_seed)
            });
            assert_same(&case, "nano", (calls, old), new);
        }
        for verdict in [
            Verdict::Fixed,
            Verdict::Converged,
            Verdict::MaxRuns,
            Verdict::MixedRegime,
        ] {
            let n = verdicts.get(verdict.label()).copied().unwrap_or(0);
            assert!(n >= 5, "verdict {verdict} reached in only {n} cases");
        }
    }
}
