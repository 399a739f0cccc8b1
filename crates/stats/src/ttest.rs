//! Student's t-tests.
//!
//! Used by the level-shift detector (§4.1: "the minimum difference Δ between
//! the means of two adjacent regimes ... that is statistically significant
//! according to the Student's t-test at the 95% confidence level") and by the
//! NDT throughput validation (§5.3, Table 2's t-test p-values).

use crate::describe::Summary;
use crate::special::student_t_cdf;

/// Alternative hypothesis direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tails {
    /// H1: means differ (p doubles the tail probability).
    TwoSided,
    /// H1: mean(a) > mean(b).
    Greater,
    /// H1: mean(a) < mean(b).
    Less,
}

/// Result of a t-test.
#[derive(Debug, Clone, Copy)]
pub struct TTest {
    /// The t statistic.
    pub t: f64,
    /// Degrees of freedom.
    pub df: f64,
    /// p-value under the chosen alternative.
    pub p: f64,
}

impl TTest {
    /// Whether the test rejects H0 at significance level `alpha`.
    pub fn significant(&self, alpha: f64) -> bool {
        self.p < alpha
    }
}

fn p_value(t: f64, df: f64, tails: Tails) -> f64 {
    match tails {
        Tails::TwoSided => 2.0 * student_t_cdf(-t.abs(), df),
        Tails::Greater => 1.0 - student_t_cdf(t, df),
        Tails::Less => student_t_cdf(t, df),
    }
    .clamp(0.0, 1.0)
}

/// Two-sample pooled-variance Student's t-test of H0: mean(a) == mean(b).
///
/// Assumes equal variances (the classical form the paper cites). Returns
/// `None` when either sample has fewer than 2 points or the pooled variance
/// is zero.
///
/// ```
/// use manic_stats::{two_sample_t, Tails};
///
/// let congested: Vec<f64> = (0..30).map(|i| 7.8 + (i % 3) as f64 * 0.1).collect();
/// let uncongested: Vec<f64> = (0..30).map(|i| 26.8 + (i % 3) as f64 * 0.1).collect();
/// let t = two_sample_t(&uncongested, &congested, Tails::TwoSided).unwrap();
/// assert!(t.significant(0.001)); // the paper's Table 2, Link 1 situation
/// ```
pub fn two_sample_t(a: &[f64], b: &[f64], tails: Tails) -> Option<TTest> {
    let sa = Summary::of(a);
    let sb = Summary::of(b);
    if sa.n < 2 || sb.n < 2 {
        return None;
    }
    let df = (sa.n + sb.n - 2) as f64;
    let pooled = ((sa.n - 1) as f64 * sa.var + (sb.n - 1) as f64 * sb.var) / df;
    if !(pooled > 0.0) {
        return None;
    }
    let se = (pooled * (1.0 / sa.n as f64 + 1.0 / sb.n as f64)).sqrt();
    let t = (sa.mean - sb.mean) / se;
    Some(TTest { t, df, p: p_value(t, df, tails) })
}

/// Minimum mean difference between two adjacent regimes of length `l` that is
/// significant at level `alpha`, given the series' average variance `sigma2`.
///
/// This is the Δ used by the level-shift algorithm (§4.1): with a pooled
/// standard error `sqrt(sigma2 * 2/l)` and `2l - 2` degrees of freedom, the
/// critical difference is `t_crit * se`.
pub fn min_significant_delta(sigma2: f64, l: usize, alpha: f64) -> f64 {
    assert!(l >= 2, "regime length must be >= 2");
    let df = (2 * l - 2) as f64;
    let se = (sigma2 * 2.0 / l as f64).sqrt();
    t_critical(df, alpha) * se
}

/// Two-sided critical value t* such that P(|T| > t*) = alpha, by bisection on
/// the CDF (the CDF is monotone; 60 iterations give ~1e-12 accuracy).
pub fn t_critical(df: f64, alpha: f64) -> f64 {
    assert!(df > 0.0 && alpha > 0.0 && alpha < 1.0);
    let target = 1.0 - alpha / 2.0;
    let (mut lo, mut hi) = (0.0f64, 1e3f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if student_t_cdf(mid, df) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_sample_identical_distributions_not_significant() {
        let a: Vec<f64> = (0..40).map(|i| (i % 7) as f64).collect();
        let b = a.clone();
        let t = two_sample_t(&a, &b, Tails::TwoSided).unwrap();
        assert!((t.t).abs() < 1e-12);
        assert!((t.p - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_sample_detects_shift() {
        let a: Vec<f64> = (0..30).map(|i| 5.0 + (i % 3) as f64 * 0.2).collect();
        let b: Vec<f64> = (0..30).map(|i| 8.0 + (i % 3) as f64 * 0.2).collect();
        let t = two_sample_t(&a, &b, Tails::TwoSided).unwrap();
        assert!(t.significant(0.001));
        assert!(t.t < 0.0, "a < b should give negative t");
    }

    #[test]
    fn tails_are_consistent() {
        let a: Vec<f64> = (0..20).map(|i| 5.0 + (i % 4) as f64 * 0.1).collect();
        let b: Vec<f64> = (0..20).map(|i| 6.0 + (i % 4) as f64 * 0.1).collect();
        let two = two_sample_t(&a, &b, Tails::TwoSided).unwrap();
        let less = two_sample_t(&a, &b, Tails::Less).unwrap();
        let greater = two_sample_t(&a, &b, Tails::Greater).unwrap();
        assert!((less.p + greater.p - 1.0).abs() < 1e-9);
        assert!((two.p - 2.0 * less.p.min(greater.p)).abs() < 1e-9);
    }

    #[test]
    fn t_critical_matches_tables() {
        // Classic table values (two-sided, alpha=0.05).
        assert!((t_critical(10.0, 0.05) - 2.228).abs() < 0.01);
        assert!((t_critical(1e6, 0.05) - 1.960).abs() < 0.01);
    }

    #[test]
    fn min_delta_scales_with_variance() {
        let d1 = min_significant_delta(1.0, 12, 0.05);
        let d2 = min_significant_delta(4.0, 12, 0.05);
        assert!((d2 / d1 - 2.0).abs() < 1e-9, "delta should scale with sigma");
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert!(two_sample_t(&[1.0, 1.0], &[1.0, 1.0], Tails::TwoSided).is_none());
    }
}
