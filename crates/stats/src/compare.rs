//! Two-sample comparison: Welch's t-test and effect sizes.
//!
//! "Which file system is better?" is, per the paper, ill-defined — but
//! when a comparison *is* made, it should at least be statistically
//! defensible. This module provides Welch's unequal-variance t-test with
//! a proper p-value (via the regularized incomplete beta function) plus
//! Cohen's d, so the harness can label differences as significant,
//! insignificant or meaningless-but-significant.

use crate::moments::Moments;

/// Natural log of the gamma function (Lanczos approximation).
fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients (g = 7, n = 9).
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized incomplete beta function I_x(a, b) by Lentz's continued
/// fraction (Numerical Recipes style).
fn betai(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    // The continued fraction converges fast for x below the pivot; above
    // it, evaluate the mirrored fraction directly (the `front` factor is
    // symmetric in (a, x) <-> (b, 1-x)), avoiding recursion entirely.
    if x < (a + 1.0) / (a + b + 2.0) {
        front * betacf(a, b, x) / a
    } else {
        1.0 - front * betacf(b, a, 1.0 - x) / b
    }
}

fn betacf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3e-14;
    const FPMIN: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Two-sided p-value of Student's t with `df` degrees of freedom.
fn t_pvalue(t: f64, df: f64) -> f64 {
    if df <= 0.0 {
        return 1.0;
    }
    let x = df / (df + t * t);
    betai(df / 2.0, 0.5, x).clamp(0.0, 1.0)
}

/// Result of a Welch two-sample comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WelchT {
    /// The t statistic (positive when sample A's mean is larger).
    pub t: f64,
    /// Welch-Satterthwaite degrees of freedom.
    pub df: f64,
    /// Two-sided p-value.
    pub p_value: f64,
    /// Cohen's d effect size (pooled-SD standardized mean difference).
    pub cohens_d: f64,
    /// Mean of sample A minus mean of sample B.
    pub mean_diff: f64,
}

impl WelchT {
    /// True if the difference is significant at the given level.
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }

    /// Conventional effect-size label for |d|:
    /// negligible < 0.2 ≤ small < 0.5 ≤ medium < 0.8 ≤ large.
    pub fn effect_label(&self) -> &'static str {
        let d = self.cohens_d.abs();
        if d < 0.2 {
            "negligible"
        } else if d < 0.5 {
            "small"
        } else if d < 0.8 {
            "medium"
        } else {
            "large"
        }
    }
}

/// Performs Welch's unequal-variance t-test between two samples.
///
/// Returns `None` if either sample has fewer than 2 observations or both
/// variances are zero (no test is possible — though equal-constant
/// samples yield `p = 1` via the zero-t convention).
///
/// # Examples
///
/// ```
/// use rb_stats::compare::welch_t;
///
/// let ext2 = [9682.0, 9653.0, 9679.0, 9700.0, 9543.0];
/// let ext3 = [8120.0, 8190.0, 8075.0, 8160.0, 8105.0];
/// let r = welch_t(&ext2, &ext3).unwrap();
/// assert!(r.significant_at(0.01));
/// assert_eq!(r.effect_label(), "large");
/// ```
pub fn welch_t(a: &[f64], b: &[f64]) -> Option<WelchT> {
    if a.len() < 2 || b.len() < 2 {
        return None;
    }
    let ma = Moments::from_slice(a);
    let mb = Moments::from_slice(b);
    let (va, vb) = (ma.sample_variance(), mb.sample_variance());
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let mean_diff = ma.mean() - mb.mean();
    let se2 = va / na + vb / nb;
    if se2 <= 0.0 {
        // Both samples constant: t is infinite, signed as the means
        // differ.
        let t = if mean_diff.abs() < f64::EPSILON {
            0.0
        } else {
            f64::INFINITY.copysign(mean_diff)
        };
        let p = if t == 0.0 { 1.0 } else { 0.0 };
        return Some(WelchT {
            t,
            df: na + nb - 2.0,
            p_value: p,
            cohens_d: 0.0,
            mean_diff,
        });
    }
    let t = mean_diff / se2.sqrt();
    let df = se2 * se2 / ((va / na).powi(2) / (na - 1.0) + (vb / nb).powi(2) / (nb - 1.0));
    let pooled_sd = (((na - 1.0) * va + (nb - 1.0) * vb) / (na + nb - 2.0)).sqrt();
    let cohens_d = if pooled_sd > 0.0 {
        mean_diff / pooled_sd
    } else {
        0.0
    };
    Some(WelchT {
        t,
        df,
        p_value: t_pvalue(t, df),
        cohens_d,
        mean_diff,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Swapping the samples negates t, also when both samples are
    /// constant and t is infinite.
    #[test]
    fn welch_t_is_antisymmetric_for_constant_samples() {
        let (low, high) = ([3.0, 3.0, 3.0], [5.0, 5.0]);
        let (ab, ba) = (welch_t(&low, &high).unwrap(), welch_t(&high, &low).unwrap());
        assert_eq!(ab.t, -ba.t);
        assert_eq!(ab.t, f64::NEG_INFINITY);
        assert_eq!((ab.p_value, ba.p_value), (0.0, 0.0));
    }

    #[test]
    fn ln_gamma_known_values() {
        // Gamma(5) = 24.
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10);
        // Gamma(0.5) = sqrt(pi).
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn betai_boundaries() {
        assert_eq!(betai(2.0, 3.0, 0.0), 0.0);
        assert_eq!(betai(2.0, 3.0, 1.0), 1.0);
        // I_{0.5}(a, a) = 0.5 by symmetry.
        assert!((betai(4.0, 4.0, 0.5) - 0.5).abs() < 1e-10);
    }

    #[test]
    fn t_pvalue_known_points() {
        // t = 0 gives p = 1.
        assert!((t_pvalue(0.0, 10.0) - 1.0).abs() < 1e-12);
        // Large |t| gives tiny p.
        assert!(t_pvalue(10.0, 30.0) < 1e-9);
        // t = 2.228 at df = 10 is the classic 5 % two-sided critical value.
        let p = t_pvalue(2.228, 10.0);
        assert!((p - 0.05).abs() < 0.002, "p {p}");
    }

    #[test]
    fn identical_samples_not_significant() {
        let xs = [5.0, 6.0, 7.0, 8.0];
        let r = welch_t(&xs, &xs).unwrap();
        assert!((r.t).abs() < 1e-12);
        assert!(r.p_value > 0.99);
        assert!(!r.significant_at(0.05));
    }

    #[test]
    fn distinct_means_detected() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2];
        let b = [110.0, 111.0, 109.0, 110.5, 109.5, 110.2];
        let r = welch_t(&a, &b).unwrap();
        assert!(r.significant_at(0.001));
        assert!(r.mean_diff < 0.0);
        assert_eq!(r.effect_label(), "large");
    }

    #[test]
    fn high_variance_masks_difference() {
        // Same mean gap as above but sd ~ 30: not significant at n = 4.
        let a = [80.0, 140.0, 70.0, 110.0];
        let b = [95.0, 150.0, 85.0, 120.0];
        let r = welch_t(&a, &b).unwrap();
        assert!(!r.significant_at(0.05));
    }

    #[test]
    fn too_small_samples_are_none() {
        assert!(welch_t(&[1.0], &[2.0, 3.0]).is_none());
        assert!(welch_t(&[], &[]).is_none());
    }

    #[test]
    fn constant_samples_conventions() {
        let r = welch_t(&[5.0, 5.0, 5.0], &[5.0, 5.0]).unwrap();
        assert_eq!(r.p_value, 1.0);
        let r2 = welch_t(&[5.0, 5.0, 5.0], &[6.0, 6.0]).unwrap();
        assert_eq!(r2.p_value, 0.0);
    }

    #[test]
    fn df_between_min_and_sum() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0];
        let r = welch_t(&a, &b).unwrap();
        assert!(r.df >= 4.0 && r.df <= 9.0, "df {}", r.df);
    }
}
