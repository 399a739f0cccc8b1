//! Huber's robust weight function.
//!
//! §4.1: "To handle outliers in the time series, the algorithm employs
//! Huber's weight function with an adjustable parameter P where higher values
//! of P accommodate more deviation, e.g., P=5 tolerates outliers up to 5
//! standard deviations." The paper runs the level-shift detector with P=1.

/// Huber weight for a residual `r` given scale `sigma` and tuning constant `p`.
///
/// Returns 1 for |r| <= p·sigma and p·sigma/|r| beyond, so that the effective
/// influence of a point is capped at p standard deviations.
pub fn huber_weight(r: f64, sigma: f64, p: f64) -> f64 {
    assert!(sigma >= 0.0 && p > 0.0);
    let bound = p * sigma;
    let ar = r.abs();
    if ar <= bound || ar == 0.0 {
        1.0
    } else if bound == 0.0 {
        0.0
    } else {
        bound / ar
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_is_one_inside_band() {
        assert_eq!(huber_weight(0.5, 1.0, 1.0), 1.0);
        assert_eq!(huber_weight(-1.0, 1.0, 1.0), 1.0);
        assert_eq!(huber_weight(0.0, 0.0, 1.0), 1.0);
    }

    #[test]
    fn weight_decays_outside_band() {
        let w = huber_weight(5.0, 1.0, 1.0);
        assert!((w - 0.2).abs() < 1e-12);
        // Larger P tolerates more deviation.
        assert_eq!(huber_weight(4.0, 1.0, 5.0), 1.0);
    }
}
