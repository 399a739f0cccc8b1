//! Property-based tests for manic-stats invariants.

use manic_stats::special::{inc_beta, normal_cdf, student_t_cdf};
use manic_stats::ttest::Tails;
use manic_stats::*;
use proptest::prelude::*;

fn finite_vec(min_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6f64, min_len..64)
}

proptest! {
    #[test]
    fn pvalues_in_unit_interval(a in finite_vec(2), b in finite_vec(2)) {
        if let Some(t) = two_sample_t(&a, &b, Tails::TwoSided) {
            prop_assert!((0.0..=1.0).contains(&t.p), "p={}", t.p);
        }
    }

    #[test]
    fn ttest_symmetric_in_arguments(a in finite_vec(2), b in finite_vec(2)) {
        let ab = two_sample_t(&a, &b, Tails::TwoSided);
        let ba = two_sample_t(&b, &a, Tails::TwoSided);
        match (ab, ba) {
            (Some(x), Some(y)) => {
                prop_assert!((x.t + y.t).abs() < 1e-9 * (1.0 + x.t.abs()));
                prop_assert!((x.p - y.p).abs() < 1e-9);
            }
            (None, None) => {}
            _ => prop_assert!(false, "asymmetric None"),
        }
    }

    #[test]
    fn quantile_within_range(xs in finite_vec(1), q in 0.0f64..=1.0) {
        let v = quantile(&xs, q);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
    }

    #[test]
    fn quantile_monotone_in_q(xs in finite_vec(2), q1 in 0.0f64..=1.0, q2 in 0.0f64..=1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(quantile(&xs, lo) <= quantile(&xs, hi) + 1e-9);
    }

    #[test]
    fn cdfs_monotone(z1 in -10.0f64..10.0, z2 in -10.0f64..10.0, df in 1.0f64..200.0) {
        let (lo, hi) = if z1 <= z2 { (z1, z2) } else { (z2, z1) };
        prop_assert!(normal_cdf(lo) <= normal_cdf(hi) + 1e-12);
        prop_assert!(student_t_cdf(lo, df) <= student_t_cdf(hi, df) + 1e-12);
    }

    #[test]
    fn inc_beta_unit_range(a in 0.1f64..50.0, b in 0.1f64..50.0, x in 0.0f64..=1.0) {
        let v = inc_beta(a, b, x);
        prop_assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    fn cusum_detects_large_planted_shift(
        base in -100.0f64..100.0,
        delta in 10.0f64..100.0,
        n1 in 10usize..40,
        n2 in 10usize..40,
    ) {
        let xs: Vec<f64> = (0..n1)
            .map(|i| base + (i % 3) as f64 * 0.01)
            .chain((0..n2).map(|i| base + delta + (i % 3) as f64 * 0.01))
            .collect();
        let cp = cusum_scan(&xs, None).expect("series long enough");
        prop_assert!((cp.index as i64 - n1 as i64).abs() <= 1);
        prop_assert!((cp.delta() - delta).abs() < delta * 0.2);
    }

    #[test]
    fn proportion_test_p_in_unit_interval(
        s1 in 0u64..500, n1 in 1u64..500,
        s2 in 0u64..500, n2 in 1u64..500,
    ) {
        let s1 = s1.min(n1);
        let s2 = s2.min(n2);
        if let Some(t) = two_proportion_z_test(s1, n1, s2, n2, Tails::TwoSided) {
            prop_assert!((0.0..=1.0).contains(&t.p));
        }
    }
}
