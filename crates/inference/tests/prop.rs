//! Property-based tests for the inference algorithms.

use manic_inference::autocorr::{analyze_window, AutocorrConfig, INTERVALS_PER_DAY};
use manic_inference::levelshift::{detect_level_shifts, LevelShiftConfig};
use proptest::prelude::*;

/// Strategy: a 50-day diurnal far series with a configurable window/amount.
fn far_series(lo: usize, len: usize, amount: f64, seed: u64) -> Vec<Option<f64>> {
    (0..50 * INTERVALS_PER_DAY)
        .map(|i| {
            let iv = i % INTERVALS_PER_DAY;
            let noise = ((i as u64).wrapping_mul(seed | 1) >> 33) as f64 / (1u64 << 31) as f64;
            let inside = (iv + INTERVALS_PER_DAY - lo) % INTERVALS_PER_DAY < len;
            Some(20.0 + noise + if inside { amount } else { 0.0 })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Structural invariants of the autocorrelation output, for any input:
    /// day estimates bounded, masks confined to the asserted window, counts
    /// consistent with masks.
    #[test]
    fn autocorr_output_invariants(
        lo in 0usize..INTERVALS_PER_DAY,
        len in 1usize..40,
        amount in 0.0f64..60.0,
        seed in any::<u64>(),
    ) {
        let far = far_series(lo, len, amount, seed);
        let near = vec![Some(5.0); far.len()];
        let r = analyze_window(&near, &far, &AutocorrConfig::default());
        prop_assert_eq!(r.days.len(), 50);
        prop_assert_eq!(r.day_masks.len(), 50);
        for (d, &mask) in r.days.iter().zip(&r.day_masks) {
            prop_assert!(d.congestion_pct >= 0.0 && d.congestion_pct <= 1.0);
            prop_assert_eq!(d.congested_intervals, mask.count_ones() as usize);
            match r.window {
                Some(w) => {
                    for iv in 0..INTERVALS_PER_DAY {
                        if mask & (1u128 << iv) != 0 {
                            prop_assert!(w.contains(iv), "mask bit outside window");
                        }
                    }
                }
                None => prop_assert_eq!(mask, 0),
            }
        }
        // Rejection and window assertion are mutually exclusive.
        prop_assert_eq!(r.window.is_some(), r.rejected.is_none());
    }

    /// A clean planted diurnal window above the threshold is always found,
    /// and the asserted window covers the plant.
    #[test]
    fn autocorr_finds_planted_windows(
        lo in 0usize..INTERVALS_PER_DAY,
        len in 4usize..24,
        amount in 15.0f64..60.0,
        seed in any::<u64>(),
    ) {
        let far = far_series(lo, len, amount, seed);
        let near = vec![Some(5.0); far.len()];
        let r = analyze_window(&near, &far, &AutocorrConfig::default());
        let w = r.window.expect("planted window must be found");
        for off in 0..len {
            let iv = (lo + off) % INTERVALS_PER_DAY;
            prop_assert!(w.contains(iv), "window {w:?} misses planted interval {iv}");
        }
        // Daily estimates reflect the plant's duration (within expansion).
        for d in &r.days {
            prop_assert!(d.congested_intervals >= len.saturating_sub(1));
        }
    }

    /// Level-shift episodes are ordered, disjoint, within bounds, and at
    /// least l/2 bins long.
    #[test]
    fn levelshift_episode_invariants(
        shifts in prop::collection::vec((0usize..900, 8usize..80, 5.0f64..50.0), 0..4),
        seed in any::<u64>(),
    ) {
        let n = 1000usize;
        let series: Vec<Option<f64>> = (0..n)
            .map(|i| {
                let noise = ((i as u64).wrapping_mul(seed | 1) >> 33) as f64 / (1u64 << 31) as f64;
                let mut v = 20.0 + noise * 0.5;
                for &(lo, len, amt) in &shifts {
                    if i >= lo && i < (lo + len).min(n) {
                        v += amt;
                    }
                }
                Some(v)
            })
            .collect();
        let cfg = LevelShiftConfig::default();
        let eps = detect_level_shifts(&series, &cfg);
        let mut prev_end = 0usize;
        for e in &eps {
            prop_assert!(e.start >= prev_end, "episodes ordered/disjoint");
            prop_assert!(e.end <= n);
            prop_assert!(e.end > e.start);
            prop_assert!(e.level >= e.baseline);
            prev_end = e.end;
        }
    }
}
