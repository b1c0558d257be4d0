//! Sample summaries: percentiles and multi-statistic reports.
//!
//! The paper's closing demand is to "report a range of values" rather than
//! a single number. [`Summary`] is the harness's standard answer: mean,
//! spread, extremes and a percentile ladder for any sample of repeated
//! measurements.

use crate::moments::Moments;

/// Linear-interpolated percentile of an already sorted sample
/// (ascending).
///
/// Uses the common "linear between closest ranks" definition (R-7, the
/// default of R and NumPy); `q` is clamped to `[0, 1]`. A
/// single-element sample returns that element at every `q`, and an
/// empty one returns 0.0.
///
/// # Examples
///
/// ```
/// use rb_stats::summary::percentile_sorted;
///
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile_sorted(&xs, 0.5), 2.5);
/// assert_eq!(percentile_sorted(&xs, 0.0), 1.0);
/// assert_eq!(percentile_sorted(&xs, 1.0), 4.0);
/// ```
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let q = q.clamp(0.0, 1.0);
            let rank = q * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            let frac = rank - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// A complete descriptive summary of one sample.
///
/// Produced by every rocketbench experiment for every reported metric;
/// renders as one row of a multi-run results table.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub sd: f64,
    /// Relative standard deviation, percent of mean.
    pub rsd_percent: f64,
    /// 95 % confidence half-width of the mean.
    pub ci95: f64,
    /// Minimum observation.
    pub min: f64,
    /// Median (p50).
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum observation.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample. Returns `None` on an empty sample.
    pub fn from_sample(xs: &[f64]) -> Option<Summary> {
        if xs.is_empty() {
            return None;
        }
        let m = Moments::from_slice(xs);
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        Some(Summary {
            n: m.count(),
            mean: m.mean(),
            sd: m.sample_sd(),
            rsd_percent: m.rsd_percent(),
            ci95: m.ci95_half_width(),
            min: m.min(),
            median: percentile_sorted(&sorted, 0.5),
            p90: percentile_sorted(&sorted, 0.9),
            p99: percentile_sorted(&sorted, 0.99),
            max: m.max(),
        })
    }

    /// Ratio of max to min observation — a quick fragility indicator.
    ///
    /// Section 3.1 shows the same nominal configuration spanning "orders
    /// of magnitude"; a spread ≫ 1 flags exactly that.
    pub fn spread(&self) -> f64 {
        if self.min.abs() < f64::EPSILON {
            f64::INFINITY
        } else {
            self.max / self.min
        }
    }

    /// One-line rendering: `mean ± sd (rsd%) [min..max]`.
    pub fn render(&self) -> String {
        format!(
            "{:.1} ± {:.1} ({:.1}%) [{:.1}..{:.1}] n={}",
            self.mean, self.sd, self.rsd_percent, self.min, self.max, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_empty_sample_is_zero() {
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn percentile_single() {
        assert_eq!(percentile_sorted(&[7.0], 0.0), 7.0);
        assert_eq!(percentile_sorted(&[7.0], 1.0), 7.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile_sorted(&xs, 0.5), 30.0);
        assert_eq!(percentile_sorted(&xs, 0.25), 20.0);
        // Between ranks: 0.1 * 4 = rank 0.4 -> 10 + 0.4*10 = 14.
        assert!((percentile_sorted(&xs, 0.1) - 14.0).abs() < 1e-9);
    }

    /// [`Summary`] sorts its sample before it reads percentiles off it.
    #[test]
    fn percentile_unsorted_input() {
        let xs = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(Summary::from_sample(&xs).unwrap().median, 30.0);
    }

    #[test]
    fn single_sample_p999_is_that_sample() {
        assert_eq!(percentile_sorted(&[7.25], 0.999), 7.25);
    }

    #[test]
    fn percentile_clamps_q() {
        let xs = [1.0, 2.0];
        assert_eq!(percentile_sorted(&xs, -3.0), 1.0);
        assert_eq!(percentile_sorted(&xs, 9.0), 2.0);
    }

    #[test]
    fn summary_fields_consistent() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::from_sample(&xs).unwrap();
        assert_eq!(s.n, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.median - 50.5).abs() < 1e-9);
        assert!(s.p90 > s.median && s.p99 > s.p90 && s.max >= s.p99);
        assert!(s.spread() == 100.0);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Summary::from_sample(&[]).is_none());
    }

    #[test]
    fn render_contains_key_numbers() {
        let s = Summary::from_sample(&[9.0, 10.0, 11.0]).unwrap();
        let line = s.render();
        assert!(line.contains("10.0"));
        assert!(line.contains("n=3"));
    }

    #[test]
    fn spread_with_zero_min() {
        let s = Summary::from_sample(&[0.0, 5.0]).unwrap();
        assert!(s.spread().is_infinite());
    }
}
