//! Sequential (convergence-driven) stopping rules for repeated runs.
//!
//! The paper's complaint — and Hasselbring's empirical-standard
//! checklist — is that benchmarkers pick "10 runs" by folklore and never
//! inspect whether the sample they collected actually pins the mean
//! down. A sequential protocol inverts that: after every run it asks
//! "is the bootstrap confidence interval on the mean narrower than the
//! target yet?", stops as soon as the answer is yes, and gives up
//! explicitly (rather than silently) when a run-count ceiling is hit.
//!
//! The rule is deterministic: the bootstrap takes an explicit
//! [`Rng`], so the same samples and seed always produce the same
//! decision — which is what lets a parallel campaign using this rule
//! stay byte-identical at any worker count.

use crate::bootstrap::{bootstrap_mean_ci, Interval};
use crate::moments::Moments;
use rb_simcore::rng::Rng;

/// Default bootstrap resample count for stopping decisions.
pub const DEFAULT_RESAMPLES: usize = 1000;

/// Default RSD gate (%): convergence is never declared while the sample
/// relative standard deviation exceeds this, however narrow the CI.
/// Guards against blessing a bimodal (mixed-regime) sample whose
/// bootstrap interval happens to be tight.
pub const DEFAULT_RSD_GATE_PERCENT: f64 = 10.0;

/// A convergence-driven stopping rule over bootstrap intervals.
#[derive(Debug, Clone, PartialEq)]
pub struct StoppingRule {
    /// Never stop before this many runs (sequential CIs computed on
    /// tiny samples are unreliable; 5 is a sane floor).
    pub min_runs: u32,
    /// Never run more than this many runs; hitting the ceiling is an
    /// explicit [`Decision::Exhausted`], not a silent success.
    pub max_runs: u32,
    /// Target relative CI width: stop once `(hi - lo) / |mean|` is at
    /// or below this (e.g. `0.02` = "CI narrower than 2 % of the mean").
    pub ci_rel_width: f64,
    /// Confidence level of the interval (e.g. `0.95`).
    pub confidence: f64,
    /// RSD gate (%): see [`DEFAULT_RSD_GATE_PERCENT`].
    pub rsd_gate_percent: f64,
    /// Bootstrap resamples per decision.
    pub resamples: usize,
}

impl StoppingRule {
    /// A rule with the default RSD gate and resample count.
    pub fn new(min_runs: u32, max_runs: u32, ci_rel_width: f64, confidence: f64) -> StoppingRule {
        StoppingRule {
            min_runs,
            max_runs,
            ci_rel_width,
            confidence,
            rsd_gate_percent: DEFAULT_RSD_GATE_PERCENT,
            resamples: DEFAULT_RESAMPLES,
        }
    }

    /// Checks the rule's internal consistency; returns a human-readable
    /// complaint for nonsense configurations.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_runs == 0 {
            return Err("min_runs must be at least 1".into());
        }
        if self.max_runs < self.min_runs {
            return Err(format!(
                "max_runs ({}) must be >= min_runs ({})",
                self.max_runs, self.min_runs
            ));
        }
        if !(self.ci_rel_width > 0.0 && self.ci_rel_width < 1.0) {
            return Err(format!(
                "ci_rel_width must be in (0, 1), got {}",
                self.ci_rel_width
            ));
        }
        if !(self.confidence > 0.5 && self.confidence < 1.0) {
            return Err(format!(
                "confidence must be in (0.5, 1), got {}",
                self.confidence
            ));
        }
        if self.resamples == 0 {
            return Err("resamples must be at least 1".into());
        }
        Ok(())
    }

    /// The bootstrap `alpha` implied by the confidence level.
    pub fn alpha(&self) -> f64 {
        1.0 - self.confidence
    }
}

/// Outcome of evaluating a stopping rule on the samples collected so far.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// Keep collecting runs.
    Continue,
    /// The CI met the target (and the RSD gate passed): stop.
    Converged(Interval),
    /// `max_runs` reached without meeting the target: stop, but report
    /// the (too-wide) interval honestly.
    Exhausted(Interval),
}

impl Decision {
    /// The interval attached to a stopping decision, if any.
    pub fn interval(&self) -> Option<Interval> {
        match self {
            Decision::Continue => None,
            Decision::Converged(ci) | Decision::Exhausted(ci) => Some(*ci),
        }
    }
}

/// Evaluates `rule` against the steady-state samples collected so far.
///
/// Deterministic under `rng`; callers that need scheduling-independent
/// results must derive `rng` from stable identity (a cell key, a base
/// seed), never from wall time or worker index.
///
/// # Examples
///
/// ```
/// use rb_simcore::rng::Rng;
/// use rb_stats::sequential::{evaluate, Decision, StoppingRule};
///
/// let rule = StoppingRule::new(3, 10, 0.05, 0.95);
/// // Two runs: below min_runs, keep going.
/// assert_eq!(
///     evaluate(&[100.0, 101.0], &rule, &mut Rng::new(1)),
///     Decision::Continue
/// );
/// // Four tight runs: converged.
/// let d = evaluate(&[100.0, 101.0, 100.5, 99.8], &rule, &mut Rng::new(1));
/// assert!(matches!(d, Decision::Converged(_)));
/// ```
pub fn evaluate(samples: &[f64], rule: &StoppingRule, rng: &mut Rng) -> Decision {
    let n = samples.len() as u32;
    if n < rule.min_runs {
        return Decision::Continue;
    }
    let ci = match bootstrap_mean_ci(samples, rule.resamples, rule.alpha(), rng) {
        Some(ci) => ci,
        None => return Decision::Continue,
    };
    let rsd = Moments::from_slice(samples).rsd_percent();
    let met = ci.rel_width() <= rule.ci_rel_width && rsd <= rule.rsd_gate_percent;
    if met {
        Decision::Converged(ci)
    } else if n >= rule.max_runs {
        Decision::Exhausted(ci)
    } else {
        Decision::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule() -> StoppingRule {
        StoppingRule::new(4, 12, 0.05, 0.95)
    }

    #[test]
    fn below_min_runs_always_continues() {
        let r = rule();
        for n in 0..4usize {
            let xs = vec![100.0; n];
            assert_eq!(evaluate(&xs, &r, &mut Rng::new(1)), Decision::Continue);
        }
    }

    #[test]
    fn tight_sample_converges_at_min_runs() {
        let xs = [100.0, 100.2, 99.9, 100.1];
        let d = evaluate(&xs, &rule(), &mut Rng::new(2));
        match d {
            Decision::Converged(ci) => {
                assert!(ci.rel_width() <= 0.05);
                assert!(ci.contains(100.0));
            }
            other => panic!("expected convergence, got {other:?}"),
        }
    }

    #[test]
    fn noisy_sample_continues_then_exhausts() {
        // Bimodal sample (regime mix): never converges, exhausts at max.
        let mut xs: Vec<f64> = Vec::new();
        for i in 0..12 {
            xs.push(if i % 2 == 0 { 9700.0 } else { 500.0 });
            let d = evaluate(&xs, &rule(), &mut Rng::new(3));
            if (xs.len() as u32) < 12 {
                assert_eq!(d, Decision::Continue, "stopped early at n={}", xs.len());
            } else {
                assert!(matches!(d, Decision::Exhausted(_)), "got {d:?}");
            }
        }
    }

    #[test]
    fn rsd_gate_blocks_convergence() {
        // Large-n bimodal data can have a proportionally narrow CI, but
        // the RSD gate still refuses to call it converged.
        let xs: Vec<f64> = (0..200)
            .map(|i| if i % 2 == 0 { 120.0 } else { 80.0 })
            .collect();
        let mut r = rule();
        r.max_runs = 500;
        r.ci_rel_width = 0.5;
        r.rsd_gate_percent = 5.0;
        assert_eq!(evaluate(&xs, &r, &mut Rng::new(4)), Decision::Continue);
        // Lifting the gate lets the (genuinely narrow) CI win.
        r.rsd_gate_percent = 100.0;
        assert!(matches!(
            evaluate(&xs, &r, &mut Rng::new(4)),
            Decision::Converged(_)
        ));
    }

    #[test]
    fn deterministic_under_same_seed() {
        let xs: Vec<f64> = (0..8).map(|i| 100.0 + (i % 3) as f64).collect();
        let a = evaluate(&xs, &rule(), &mut Rng::new(7));
        let b = evaluate(&xs, &rule(), &mut Rng::new(7));
        assert_eq!(a, b);
    }

    #[test]
    fn validation_rejects_nonsense() {
        assert!(rule().validate().is_ok());
        assert!(StoppingRule::new(0, 10, 0.02, 0.95).validate().is_err());
        assert!(StoppingRule::new(5, 4, 0.02, 0.95).validate().is_err());
        assert!(StoppingRule::new(5, 10, 0.0, 0.95).validate().is_err());
        assert!(StoppingRule::new(5, 10, 1.5, 0.95).validate().is_err());
        assert!(StoppingRule::new(5, 10, 0.02, 0.3).validate().is_err());
        assert!(StoppingRule::new(5, 10, 0.02, 1.0).validate().is_err());
        let mut r = rule();
        r.resamples = 0;
        assert!(r.validate().is_err());
    }

    #[test]
    fn decision_accessors() {
        assert_eq!(Decision::Continue.interval(), None);
        let ci = Interval {
            lo: 1.0,
            point: 2.0,
            hi: 3.0,
        };
        assert_eq!(Decision::Converged(ci).interval(), Some(ci));
    }
}
