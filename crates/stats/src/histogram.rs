//! Log2-bucket latency histograms (OSprof style).
//!
//! The paper's Figure 3 and Figure 4 use the histogram convention of
//! Joukov et al. (OSDI '06): bucket `k` counts operations whose latency
//! falls in `[2^k, 2^(k+1))` nanoseconds. The whole interesting range of
//! storage latencies — 16 ns cache hits to 268 ms worst-case seeks — fits
//! in buckets 4..28, and a peak's bucket index reads directly as a latency
//! scale. Section 3.2's argument is that these histograms expose bimodal
//! behaviour that means and standard deviations hide.

use rb_simcore::time::Nanos;

/// Number of log2 buckets; covers every representable `u64` nanosecond
/// latency (bucket 63 is `[2^63, 2^64)`).
pub const BUCKETS: usize = 64;

/// A latency histogram with power-of-two bucket boundaries.
///
/// # Examples
///
/// ```
/// use rb_stats::histogram::Log2Histogram;
/// use rb_simcore::time::Nanos;
///
/// let mut h = Log2Histogram::new();
/// h.record(Nanos::from_nanos(4096));  // an in-memory read
/// h.record(Nanos::from_millis(8));    // a disk read
/// assert_eq!(h.total(), 2);
/// assert_eq!(h.count(12), 1);
/// assert_eq!(h.count(22), 1); // 8 ms = 8_000_000 ns, bucket 22
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    counts: [u64; BUCKETS],
    total: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Log2Histogram {
            counts: [0; BUCKETS],
            total: 0,
        }
    }

    /// Records one latency observation.
    pub fn record(&mut self, latency: Nanos) {
        self.counts[latency.log2_bucket() as usize] += 1;
        self.total += 1;
    }

    /// Records `n` identical observations.
    pub fn record_n(&mut self, latency: Nanos, n: u64) {
        self.counts[latency.log2_bucket() as usize] += n;
        self.total += n;
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Returns true if no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Count in bucket `k` (latencies in `[2^k, 2^(k+1))` ns).
    ///
    /// Out-of-range bucket indices return 0.
    pub fn count(&self, k: usize) -> u64 {
        self.counts.get(k).copied().unwrap_or(0)
    }

    /// Fraction of observations in bucket `k`, in `[0, 1]`.
    pub fn fraction(&self, k: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(k) as f64 / self.total as f64
        }
    }

    /// Index of the first non-empty bucket, if any.
    pub fn min_bucket(&self) -> Option<usize> {
        self.counts.iter().position(|&c| c > 0)
    }

    /// Index of the last non-empty bucket, if any.
    pub fn max_bucket(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }

    /// Index of the fullest bucket (the primary mode), if any.
    pub fn mode_bucket(&self) -> Option<usize> {
        if self.total == 0 {
            return None;
        }
        let mut best = 0;
        for k in 1..BUCKETS {
            if self.counts[k] > self.counts[best] {
                best = k;
            }
        }
        Some(best)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for k in 0..BUCKETS {
            self.counts[k] += other.counts[k];
        }
        self.total += other.total;
    }

    /// Approximate quantile `q` in `[0, 1]`, returned as the geometric
    /// midpoint latency of the bucket containing the quantile.
    ///
    /// Returns `None` on an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<Nanos> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut acc = 0;
        for k in 0..BUCKETS {
            acc += self.counts[k];
            if acc >= target {
                return Some(bucket_midpoint(k));
            }
        }
        Some(bucket_midpoint(BUCKETS - 1))
    }

    /// The span, in orders of magnitude (base 10), between the smallest
    /// and largest observed latency buckets.
    ///
    /// Section 3.2 observes working-set size swings latency across more
    /// than 3 orders of magnitude; this is the statistic that checks it.
    pub fn span_orders_of_magnitude(&self) -> f64 {
        match (self.min_bucket(), self.max_bucket()) {
            (Some(lo), Some(hi)) => (hi - lo) as f64 * 2f64.log10(),
            _ => 0.0,
        }
    }

    /// Total-variation distance to another histogram, in `[0, 1]`:
    /// half the L1 distance between the two bucket distributions.
    ///
    /// 0 means identical profiles, 1 means disjoint. This is the OSprof
    /// (paper reference \[6\]) notion of comparing latency *profiles*
    /// rather than means: two systems with equal averages but different
    /// peak structure are far apart here.
    pub fn total_variation_distance(&self, other: &Log2Histogram) -> f64 {
        if self.total == 0 || other.total == 0 {
            return if self.total == other.total { 0.0 } else { 1.0 };
        }
        let mut l1 = 0.0;
        for k in 0..BUCKETS {
            l1 += (self.fraction(k) - other.fraction(k)).abs();
        }
        l1 / 2.0
    }

    /// Renders the histogram as ASCII art over buckets `[lo, hi)`,
    /// one row per bucket, matching the paper's Figure 3 orientation.
    pub fn render_ascii(&self, lo: usize, hi: usize, width: usize) -> String {
        let mut out = String::new();
        let peak = (lo..hi.min(BUCKETS))
            .map(|k| self.fraction(k))
            .fold(0.0f64, f64::max)
            .max(1e-12);
        for k in lo..hi.min(BUCKETS) {
            let frac = self.fraction(k);
            let bar = ((frac / peak) * width as f64).round() as usize;
            out.push_str(&format!(
                "{:>2} {:>9} |{:<width$}| {:5.1}%\n",
                k,
                bucket_label(k),
                "#".repeat(bar),
                frac * 100.0,
                width = width
            ));
        }
        out
    }
}

/// Geometric midpoint latency of bucket `k`: `2^k * sqrt(2)` ns.
pub fn bucket_midpoint(k: usize) -> Nanos {
    let lo = 1u64 << k.min(62);
    Nanos::from_nanos((lo as f64 * std::f64::consts::SQRT_2) as u64)
}

/// Human-readable label for bucket `k`'s lower bound (e.g. "4us", "16ms").
pub fn bucket_label(k: usize) -> String {
    format!("{}", Nanos::from_nanos(1u64 << k.min(63)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_places_in_right_bucket() {
        let mut h = Log2Histogram::new();
        h.record(Nanos::from_nanos(1)); // bucket 0
        h.record(Nanos::from_nanos(2)); // bucket 1
        h.record(Nanos::from_nanos(1023)); // bucket 9
        h.record(Nanos::from_nanos(1024)); // bucket 10
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(9), 1);
        assert_eq!(h.count(10), 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut h = Log2Histogram::new();
        for i in 0..1000u64 {
            h.record(Nanos::from_nanos(i * 37 + 1));
        }
        let sum: f64 = (0..BUCKETS).map(|k| h.fraction(k)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mode_and_extremes() {
        let mut h = Log2Histogram::new();
        assert_eq!(h.mode_bucket(), None);
        h.record_n(Nanos::from_nanos(4096), 80); // bucket 12
        h.record_n(Nanos::from_millis(8), 20); // bucket 22
        assert_eq!(h.mode_bucket(), Some(12));
        assert_eq!(h.min_bucket(), Some(12));
        assert_eq!(h.max_bucket(), Some(22));
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        a.record_n(Nanos::from_nanos(100), 5);
        b.record_n(Nanos::from_nanos(100), 7);
        b.record_n(Nanos::from_millis(1), 3);
        a.merge(&b);
        assert_eq!(a.total(), 15);
        assert_eq!(a.count(6), 12); // 100 ns is bucket 6

        // Seeded cases: three histograms of 0-199 samples each, below
        // 2^63. Merging adds totals and every bucket, keeps fractions
        // summing to one, and is associative bucket for bucket and in
        // its quantiles. A failure names its seed.
        use rb_simcore::rng::Rng;
        for seed in 0..64 {
            let mut rng = Rng::new(seed);
            let mut build = || {
                let mut h = Log2Histogram::new();
                for _ in 0..rng.below(200) {
                    h.record(Nanos::from_nanos(rng.below(u64::MAX / 2)));
                }
                h
            };
            let (a, b, c) = (build(), build(), build());
            let mut ab = a.clone();
            ab.merge(&b);
            assert_eq!(ab.total(), a.total() + b.total(), "seed {seed}");
            for k in 0..BUCKETS {
                assert_eq!(
                    ab.count(k),
                    a.count(k) + b.count(k),
                    "seed {seed}: bucket {k}"
                );
            }
            if ab.total() > 0 {
                let sum: f64 = (0..BUCKETS).map(|k| ab.fraction(k)).sum();
                assert!(
                    (sum - 1.0).abs() < 1e-9,
                    "seed {seed}: fractions sum to {sum}"
                );
            }
            let mut left = ab;
            left.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            assert_eq!(left.total(), right.total(), "seed {seed}");
            for k in 0..BUCKETS {
                assert_eq!(left.count(k), right.count(k), "seed {seed}: bucket {k}");
            }
            for q in [0.5, 0.99, 0.999] {
                assert_eq!(left.quantile(q), right.quantile(q), "seed {seed}: q {q}");
            }
        }
    }

    #[test]
    fn quantile_walks_cdf() {
        let mut h = Log2Histogram::new();
        h.record_n(Nanos::from_nanos(16), 50); // bucket 4
        h.record_n(Nanos::from_millis(16), 50); // bucket 23
        let p25 = h.quantile(0.25).unwrap();
        let p75 = h.quantile(0.75).unwrap();
        assert_eq!(p25.log2_bucket(), 4);
        assert_eq!(p75.log2_bucket(), 23);
        assert!(h.quantile(0.0).is_some());
        assert!(h.quantile(1.0).is_some());
        assert_eq!(Log2Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn span_matches_paper_claim() {
        // In-memory peak at ~4 us, disk peak at ~16 ms: > 3 orders.
        let mut h = Log2Histogram::new();
        h.record_n(Nanos::from_nanos(4096), 10);
        h.record_n(Nanos::from_millis(16), 10);
        assert!(h.span_orders_of_magnitude() >= 3.0);
    }

    #[test]
    fn ascii_render_has_rows() {
        let mut h = Log2Histogram::new();
        h.record_n(Nanos::from_nanos(4096), 10);
        let art = h.render_ascii(10, 14, 40);
        assert_eq!(art.lines().count(), 4);
        assert!(art.contains('#'));
    }

    #[test]
    fn bucket_labels_are_readable() {
        assert_eq!(bucket_label(4), "16ns");
        assert_eq!(bucket_label(12), "4.096us");
        assert_eq!(bucket_label(24), "16.777ms");
    }

    #[test]
    fn tv_distance_properties() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        a.record_n(Nanos::from_nanos(4096), 100);
        b.record_n(Nanos::from_nanos(4096), 50);
        // Same distribution, different counts: identical profiles.
        assert_eq!(a.total_variation_distance(&b), 0.0);
        // Disjoint profiles: distance 1.
        let mut c = Log2Histogram::new();
        c.record_n(Nanos::from_millis(8), 10);
        assert!((a.total_variation_distance(&c) - 1.0).abs() < 1e-12);
        // Symmetry.
        assert_eq!(
            a.total_variation_distance(&c),
            c.total_variation_distance(&a)
        );
        // Half-moved mass: distance 0.5.
        let mut d = Log2Histogram::new();
        d.record_n(Nanos::from_nanos(4096), 50);
        d.record_n(Nanos::from_millis(8), 50);
        assert!((a.total_variation_distance(&d) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tv_distance_ignores_adjacency() {
        // A shift by one bucket is as far as a shift by ten.
        let mut base = Log2Histogram::new();
        base.record_n(Nanos::from_nanos(4096), 100); // bucket 12
        let mut near = Log2Histogram::new();
        near.record_n(Nanos::from_nanos(8192), 100); // bucket 13
        let mut far = Log2Histogram::new();
        far.record_n(Nanos::from_millis(8), 100); // bucket 22
        assert_eq!(
            base.total_variation_distance(&near),
            base.total_variation_distance(&far)
        );
    }

    #[test]
    fn record_n_zero_is_noop_for_counts() {
        let mut h = Log2Histogram::new();
        h.record_n(Nanos::from_nanos(5), 0);
        assert_eq!(h.total(), 0);
        assert!(h.is_empty());
    }
}
