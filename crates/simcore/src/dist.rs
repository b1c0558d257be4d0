//! Sampling distributions for workload and device modelling.
//!
//! Workload generators need access-pattern distributions (uniform, Zipf for
//! popularity skew, Pareto for file sizes) and device models need latency
//! distributions (log-normal service times, exponential interarrivals).
//! All sampling is driven by the deterministic [`Rng`].

use crate::rng::Rng;

/// A sampling distribution over non-negative reals.
///
/// The enum form keeps configurations plain data: a workload file can name
/// a distribution without trait objects, and two configurations compare
/// equal structurally.
///
/// # Examples
///
/// ```
/// use rb_simcore::dist::Dist;
/// use rb_simcore::rng::Rng;
///
/// let mut rng = Rng::new(1);
/// let d = Dist::Uniform { lo: 10.0, hi: 20.0 };
/// let x = d.sample(&mut rng);
/// assert!((10.0..20.0).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Dist {
    /// Always the same value.
    Constant(f64),
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Exponential with the given mean.
    Exponential {
        /// Mean of the distribution.
        mean: f64,
    },
    /// Log-normal parameterized by median and shape.
    LogNormal {
        /// Median of the distribution (50th percentile).
        median: f64,
        /// Shape (sigma of the underlying normal).
        sigma: f64,
    },
    /// Bounded Pareto on `[lo, hi]` with tail index `alpha`.
    ///
    /// Classic heavy-tailed model for file sizes.
    Pareto {
        /// Smallest value.
        lo: f64,
        /// Largest value.
        hi: f64,
        /// Tail index; smaller means heavier tail.
        alpha: f64,
    },
    /// Normal with mean and standard deviation, truncated at zero.
    Normal {
        /// Mean.
        mean: f64,
        /// Standard deviation.
        sd: f64,
    },
}

impl Dist {
    /// Draws one sample.
    ///
    /// All variants return finite, non-negative values; negative normal
    /// draws are clamped to zero (latencies and sizes cannot be negative).
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        match *self {
            Dist::Constant(v) => v.max(0.0),
            Dist::Uniform { lo, hi } => rng.range_f64(lo, hi).max(0.0),
            Dist::Exponential { mean } => rng.exponential(mean.max(0.0)),
            Dist::LogNormal { median, sigma } => rng.lognormal(median.max(0.0), sigma),
            Dist::Pareto { lo, hi, alpha } => {
                let (l, h) = (lo.max(1e-9), hi.max(lo.max(1e-9)));
                if (h - l).abs() < f64::EPSILON {
                    return l;
                }
                // Inverse-CDF sampling of the bounded Pareto.
                let a = alpha.max(1e-9);
                let u = rng.next_f64();
                let la = l.powf(a);
                let ha = h.powf(a);
                (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / a)
            }
            Dist::Normal { mean, sd } => (mean + sd * rng.normal()).max(0.0),
        }
    }

    /// Returns the distribution's theoretical mean where it has a simple
    /// closed form, used by tests and by the harness's run-length planner.
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Constant(v) => v.max(0.0),
            Dist::Uniform { lo, hi } => (lo + hi) / 2.0,
            Dist::Exponential { mean } => mean,
            Dist::LogNormal { median, sigma } => median * (sigma * sigma / 2.0).exp(),
            Dist::Normal { mean, .. } => mean,
            Dist::Pareto { lo, hi, alpha } => {
                // Mean of the bounded Pareto.
                let (l, h, a) = (lo, hi, alpha);
                if (a - 1.0).abs() < 1e-9 {
                    let la = l.powf(a);
                    let ha = h.powf(a);
                    la / (1.0 - la / ha) * (h.ln() - l.ln())
                } else {
                    let la = l.powf(a);
                    let ha = h.powf(a);
                    (la / (1.0 - la / ha))
                        * (a / (a - 1.0))
                        * (1.0 / l.powf(a - 1.0) - 1.0 / h.powf(a - 1.0))
                }
            }
        }
    }
}

/// Zipf-distributed index sampler over `{0, 1, ..., n-1}`.
///
/// Rank 0 is the most popular item. Used for skewed file- and
/// block-popularity models (web server and file server personalities).
/// Sampling is by inverted-CDF binary search over a precomputed table,
/// which is exact and fast for the table sizes workloads use (≤ ~1e6).
///
/// # Examples
///
/// ```
/// use rb_simcore::dist::Zipf;
/// use rb_simcore::rng::Rng;
///
/// let mut rng = Rng::new(2);
/// let z = Zipf::new(1000, 0.99);
/// let i = z.sample(&mut rng);
/// assert!(i < 1000);
/// ```
#[derive(Debug, Clone)]
pub enum Zipf {
    /// `theta = 0`: every item equally likely. Construction is O(1) —
    /// important because engines rebuild the sampler whenever a file
    /// set grows or shrinks — and sampling computes the same CDF values
    /// the table would hold (`(i+1)/n`) on the fly, so the drawn
    /// indices are bit-identical to the table-backed sampler's.
    Uniform {
        /// Number of items.
        n: usize,
    },
    /// `theta > 0`: inverted-CDF table over the skewed mass function.
    Skewed {
        /// Cumulative distribution, `cdf[i] = P(index <= i)`.
        cdf: Vec<f64>,
    },
}

impl Zipf {
    /// Builds a sampler for `n` items with exponent `theta`.
    ///
    /// `theta = 0` degenerates to uniform; `theta ≈ 1` is the classic
    /// web-popularity skew. `n = 0` is treated as `n = 1`.
    pub fn new(n: usize, theta: f64) -> Self {
        let n = n.max(1);
        if theta == 0.0 {
            // With theta = 0 every weight is exactly 1.0, the partial
            // sums are exact integers, and the normalized table would be
            // exactly (i+1)/n — reproduced in `sample` without a table.
            return Zipf::Uniform { n };
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf::Skewed { cdf }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        match self {
            Zipf::Uniform { n } => *n,
            Zipf::Skewed { cdf } => cdf.len(),
        }
    }

    /// Returns true if the sampler has exactly one item.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws one index in `[0, n)`.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        match self {
            Zipf::Uniform { n } => uniform_index(*n, u),
            // partition_point returns the first index with cdf > u.
            Zipf::Skewed { cdf } => cdf.partition_point(|&c| c <= u).min(cdf.len() - 1),
        }
    }
}

/// The uniform sampler's pick for `u` in `[0, 1)`: the first index
/// whose CDF value `cdf[i] = (i+1)/n` exceeds `u`, computed on demand.
/// The predicate is monotone (fixed-divisor division is non-decreasing
/// under rounding), and `floor(u * n)` lands within rounding of the
/// boundary, so a few steps from there find the index `partition_point`
/// over the table would. The last index always qualifies:
/// `cdf[n-1] = n/n = 1 > u`.
fn uniform_index(n: usize, u: f64) -> usize {
    let nf = n as f64;
    let exceeds = |i: usize| (i + 1) as f64 / nf > u;
    let mut i = ((u * nf) as usize).min(n - 1);
    if exceeds(i) {
        while i > 0 && exceeds(i - 1) {
            i -= 1;
        }
    } else {
        while !exceeds(i) {
            i += 1;
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean(d: &Dist, seed: u64, n: usize) -> f64 {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let d = Dist::Constant(3.5);
        let mut rng = Rng::new(0);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 3.5);
        }
    }

    #[test]
    fn uniform_stays_in_range() {
        let d = Dist::Uniform { lo: 2.0, hi: 8.0 };
        let mut rng = Rng::new(1);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((2.0..8.0).contains(&x));
        }
        assert!((sample_mean(&d, 2, 50_000) - 5.0).abs() < 0.05);
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Dist::Exponential { mean: 7.0 };
        assert!((sample_mean(&d, 3, 100_000) - 7.0).abs() < 0.15);
    }

    #[test]
    fn lognormal_mean_matches_closed_form() {
        let d = Dist::LogNormal {
            median: 100.0,
            sigma: 0.5,
        };
        let want = d.mean();
        let got = sample_mean(&d, 4, 200_000);
        assert!((got / want - 1.0).abs() < 0.03, "got {got}, want {want}");
    }

    #[test]
    fn pareto_stays_bounded() {
        let d = Dist::Pareto {
            lo: 1.0,
            hi: 1000.0,
            alpha: 1.2,
        };
        let mut rng = Rng::new(5);
        for _ in 0..20_000 {
            let x = d.sample(&mut rng);
            assert!((1.0..=1000.0 + 1e-6).contains(&x), "{x} out of bounds");
        }
    }

    #[test]
    fn pareto_mean_matches_closed_form() {
        let d = Dist::Pareto {
            lo: 4.0,
            hi: 4096.0,
            alpha: 1.3,
        };
        let want = d.mean();
        let got = sample_mean(&d, 6, 300_000);
        assert!((got / want - 1.0).abs() < 0.05, "got {got}, want {want}");
    }

    #[test]
    fn normal_clamps_at_zero() {
        let d = Dist::Normal {
            mean: 0.5,
            sd: 10.0,
        };
        let mut rng = Rng::new(7);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn zipf_rank_zero_most_popular() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(8);
        let mut counts = vec![0u32; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
        // Rank 0 of a theta=1 Zipf over 100 items carries ~1/H(100) ≈ 19 %.
        assert!((counts[0] as f64 / 100_000.0 - 0.192).abs() < 0.02);
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = Rng::new(9);
        let mut counts = vec![0u32; 10];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((4_000..6_000).contains(&c), "count {c}");
        }
    }

    /// The binary search the uniform pick used to run, kept as the
    /// oracle its stepping search must match.
    fn uniform_by_bisection(n: usize, u: f64) -> usize {
        let nf = n as f64;
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if (mid + 1) as f64 / nf <= u {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo.min(n - 1)
    }

    #[test]
    fn uniform_pick_matches_bisection() {
        let mut rng = Rng::new(11);
        for n in [
            1usize,
            2,
            3,
            7,
            10,
            100,
            999,
            1000,
            1001,
            4096,
            65_537,
            (1 << 40) + 7,
        ] {
            let nf = n as f64;
            let check = |u: f64| {
                if (0.0..1.0).contains(&u) {
                    assert_eq!(
                        uniform_index(n, u),
                        uniform_by_bisection(n, u),
                        "n {n}, u {u:e}"
                    );
                }
            };
            for _ in 0..20_000 {
                check(rng.next_f64());
            }
            // CDF boundaries k/n, the first and last few thousand and a
            // random spread, each with its neighbours one ulp away.
            let spread = (0..2_000).map(|_| rng.below(n as u64 + 1) as usize);
            let ks = (0..=n.min(2_000)).chain(n.saturating_sub(2_000)..=n);
            for k in ks.chain(spread.collect::<Vec<_>>()) {
                let b = k as f64 / nf;
                check(b);
                check(f64::from_bits(b.to_bits() + 1));
                if b > 0.0 {
                    check(f64::from_bits(b.to_bits() - 1));
                }
            }
        }
    }

    #[test]
    fn zipf_degenerate_sizes() {
        let z = Zipf::new(0, 1.0);
        assert_eq!(z.len(), 1);
        let mut rng = Rng::new(10);
        assert_eq!(z.sample(&mut rng), 0);
    }
}
