//! Level-shift detection (§4.1).
//!
//! "The level-shift detection heuristic is based on CUSUM. As a
//! pre-processing step, we select the minimum latency in a time bin to
//! filter outliers. Given a parameter l (the cut-off length), the algorithm
//! detects level-shifts of duration at least l/2. The algorithm first
//! estimates the average variance σ² of the entire time series, calculated
//! as the average variance in a moving window of length l. It then
//! determines the minimum difference Δ between the means of two adjacent
//! regimes of length l that is statistically significant according to the
//! Student's t-test (at the 95% confidence level). To handle outliers the
//! algorithm employs Huber's weight function with parameter P."
//!
//! The paper runs it with l=12 five-minute bins and P=1: shifts lasting at
//! least 30 minutes.

use manic_stats::cusum::{cusum_scan, ChangePoint};
use manic_stats::describe::{mean, variance};
use manic_stats::huber::huber_weight;
use manic_stats::ttest::min_significant_delta;

/// Detector parameters.
#[derive(Debug, Clone, Copy)]
pub struct LevelShiftConfig {
    /// Cut-off length `l` in bins (paper: 12 bins of 5 minutes).
    pub l: usize,
    /// Huber tuning constant `P` (paper: 1.0).
    pub p: f64,
}

impl Default for LevelShiftConfig {
    fn default() -> Self {
        LevelShiftConfig { l: 12, p: 1.0 }
    }
}

/// Significance level for the regime-difference t-test (the paper's 95 %
/// confidence level).
const ALPHA: f64 = 0.05;

/// A detected elevated-latency episode, in bin indices of the input series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Episode {
    /// First elevated bin.
    pub start: usize,
    /// One past the last elevated bin.
    pub end: usize,
    /// Mean level during the episode.
    pub level: f64,
    /// Baseline the series shifted from.
    pub baseline: f64,
}

impl Episode {
    pub fn duration_bins(&self) -> usize {
        self.end - self.start
    }
}

/// Run level-shift detection on a min-filtered series (missing bins allowed).
///
/// Returns episodes where the series level is significantly above the
/// series' baseline (lowest regime mean).
pub fn detect_level_shifts(series: &[Option<f64>], cfg: &LevelShiftConfig) -> Vec<Episode> {
    // Collapse missing bins, remembering original indices.
    let present: Vec<(usize, f64)> = series
        .iter()
        .enumerate()
        .filter_map(|(i, v)| v.map(|x| (i, x)))
        .collect();
    if present.len() < 2 * cfg.l {
        return Vec::new();
    }
    let xs: Vec<f64> = present.iter().map(|&(_, x)| x).collect();

    // Average moving-window variance -> sigma^2.
    let sigma2 = moving_variance(&xs, cfg.l);
    // NaN-aware: a NaN variance must bail out, so not `sigma2 < 0.0`.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(sigma2 >= 0.0) {
        return Vec::new();
    }
    // Minimum significant delta between adjacent regimes of length l.
    let min_delta = min_significant_delta(sigma2.max(1e-9), cfg.l, ALPHA);

    // Huber weights relative to a *rolling* median: an isolated slow-path
    // outlier sits far from its neighborhood's median and is downweighted,
    // while a sustained shift raises the local median with it and keeps full
    // weight (downweighting whole regimes would make them undetectable).
    let sigma = sigma2.sqrt().max(1e-9);
    let local = rolling_median(&xs, cfg.l);
    let weights: Vec<f64> = xs
        .iter()
        .zip(&local)
        .map(|(&x, &m)| huber_weight(x - m, sigma, cfg.p))
        .collect();

    // Weighted CUSUM segmentation with minimum regime length l/2, iterated
    // once: the second pass recomputes the Huber weights against the first
    // pass's regime means (IRLS-style), which undoes the damping the rolling
    // median applies to bins right at a shift boundary.
    let min_len = (cfg.l / 2).max(2);
    // Exploration depth: edge-hugging splits shed only `min_len` bins per
    // level, so the worst-case chain is n/min_len deep (work O(n^2/min_len),
    // trivially cheap at TSLP series sizes).
    let depth = xs.len() / min_len + 2;
    let mut weights = weights;
    let mut regimes: Vec<(usize, usize, f64)> = Vec::new();
    for _pass in 0..2 {
        let mut cps: Vec<ChangePoint> = Vec::new();
        segment_weighted(&xs, &weights, 0, min_delta, min_len, depth, &mut cps);
        cps.sort_by_key(|c| c.index);
        cps.dedup_by_key(|c| c.index);
        let mut bounds = vec![0usize];
        bounds.extend(cps.iter().map(|c| c.index));
        bounds.push(xs.len());
        bounds.dedup();
        regimes = bounds
            .windows(2)
            .map(|w| (w[0], w[1], mean(&xs[w[0]..w[1]])))
            .collect();
        // Re-weight against the fitted regimes for the next pass.
        for &(lo, hi, m) in &regimes {
            for i in lo..hi {
                weights[i] = huber_weight(xs[i] - m, sigma, cfg.p);
            }
        }
    }
    let baseline = regimes.iter().map(|&(_, _, m)| m).fold(f64::INFINITY, f64::min);

    // Elevated regimes: significantly above baseline. Merge adjacent ones.
    let mut episodes: Vec<Episode> = Vec::new();
    for &(lo, hi, m) in &regimes {
        if m - baseline >= min_delta {
            let start = present[lo].0;
            let end = present[hi - 1].0 + 1;
            match episodes.last_mut() {
                Some(last) if last.end >= start => {
                    last.end = end;
                    last.level = last.level.max(m);
                }
                _ => episodes.push(Episode { start, end, level: m, baseline }),
            }
        }
    }
    episodes
}

/// Centered rolling median with window `l` (clamped at the edges).
///
/// The per-position windows `[i-half, i+half+1)` have monotone
/// non-decreasing endpoints, so a single `SlidingMedian` slides across the
/// series with two pointers: O(n·half) memmove work instead of the
/// O(n·l·log l) full re-sort per position — and bit-identical output, since
/// `SlidingMedian::median` uses the same interpolation as
/// `describe::median`.
fn rolling_median(xs: &[f64], l: usize) -> Vec<f64> {
    let half = (l / 2).max(1);
    let mut sm = manic_stats::SlidingMedian::with_capacity(2 * half + 1);
    let (mut lo, mut hi) = (0usize, 0usize);
    (0..xs.len())
        .map(|i| {
            let new_lo = i.saturating_sub(half);
            let new_hi = (i + half + 1).min(xs.len());
            while hi < new_hi {
                sm.insert(xs[hi]);
                hi += 1;
            }
            while lo < new_lo {
                sm.remove(xs[lo]);
                lo += 1;
            }
            sm.median()
        })
        .collect()
}

/// Average variance over a moving window of length `l`.
fn moving_variance(xs: &[f64], l: usize) -> f64 {
    if xs.len() < l || l < 2 {
        return variance(xs);
    }
    let mut sum = 0.0;
    let mut n = 0usize;
    for w in xs.windows(l) {
        let v = variance(w);
        if v.is_finite() {
            sum += v;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Recursive weighted-CUSUM binary segmentation.
///
/// Plain binary segmentation stops when the top-level split is
/// insignificant — which silently misses *periodic* shifts (a series with
/// several evening episodes has near-equal half means, so the first test
/// fails even though every episode is a textbook shift). We therefore keep
/// recursing at the max-|S| point up to a depth bound even when the split
/// itself does not qualify, but only *emit* change points that pass the
/// significance test. Emission is what the caller sees; exploratory splits
/// on pure noise produce nothing because their deltas stay below
/// `min_delta`.
fn segment_weighted(
    xs: &[f64],
    ws: &[f64],
    offset: usize,
    min_delta: f64,
    min_len: usize,
    depth: usize,
    out: &mut Vec<ChangePoint>,
) {
    if xs.len() < 2 * min_len || depth == 0 {
        return;
    }
    let Some(cp) = cusum_scan(xs, Some(ws)) else { return };
    // When the extremum hugs a segment edge there is no room for two
    // regimes there; clamp the split inward rather than abandoning the
    // segment. A significant shift is emitted at the clamped position too —
    // the placement error is bounded by `min_len` (the l/2 = 30-minute
    // granularity the detector promises anyway); leaving it unemitted would
    // lose the boundary entirely whenever an exploratory edge lands within
    // `min_len` of a true shift.
    let split = cp.index.clamp(min_len, xs.len() - min_len);
    if cp.delta().abs() >= min_delta {
        out.push(ChangePoint { index: offset + split, ..cp });
    }
    segment_weighted(&xs[..split], &ws[..split], offset, min_delta, min_len, depth - 1, out);
    segment_weighted(&xs[split..], &ws[split..], offset + split, min_delta, min_len, depth - 1, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Series builder: base latency with a ripple, plus elevated windows.
    fn series(n: usize, base: f64, elevated: &[(usize, usize, f64)]) -> Vec<Option<f64>> {
        (0..n)
            .map(|i| {
                let mut v = base + (i % 4) as f64 * 0.05;
                for &(lo, hi, amount) in elevated {
                    if i >= lo && i < hi {
                        v += amount;
                    }
                }
                Some(v)
            })
            .collect()
    }

    #[test]
    fn detects_sustained_shift() {
        // 24h of 5-min bins with a 4-hour 30ms elevation.
        let s = series(288, 20.0, &[(120, 168, 30.0)]);
        let eps = detect_level_shifts(&s, &LevelShiftConfig::default());
        assert_eq!(eps.len(), 1, "{eps:?}");
        let e = eps[0];
        assert!((e.start as i64 - 120).abs() <= 2, "start {}", e.start);
        assert!((e.end as i64 - 168).abs() <= 2, "end {}", e.end);
        assert!((e.level - 50.0).abs() < 1.0);
        assert!((e.baseline - 20.0).abs() < 1.0);
    }

    #[test]
    fn ignores_short_blips() {
        // 20-minute (4-bin) spike is below the l/2 = 6-bin minimum duration.
        let s = series(288, 20.0, &[(100, 104, 30.0)]);
        let eps = detect_level_shifts(&s, &LevelShiftConfig::default());
        assert!(eps.is_empty(), "{eps:?}");
    }

    #[test]
    fn ignores_flat_series() {
        let s = series(288, 20.0, &[]);
        assert!(detect_level_shifts(&s, &LevelShiftConfig::default()).is_empty());
    }

    #[test]
    fn single_outlier_does_not_trigger() {
        let mut s = series(288, 20.0, &[]);
        s[150] = Some(500.0); // one wild slow-path response
        let eps = detect_level_shifts(&s, &LevelShiftConfig::default());
        assert!(eps.is_empty(), "{eps:?}");
    }

    #[test]
    fn detects_two_separate_episodes() {
        let s = series(288, 15.0, &[(50, 80, 25.0), (200, 260, 40.0)]);
        let eps = detect_level_shifts(&s, &LevelShiftConfig::default());
        assert_eq!(eps.len(), 2, "{eps:?}");
        assert!(eps[0].start < eps[1].start);
        assert!(eps[1].level > eps[0].level);
    }

    #[test]
    fn handles_missing_bins() {
        let mut s = series(288, 20.0, &[(120, 168, 30.0)]);
        for i in (0..288).step_by(7) {
            s[i] = None;
        }
        let eps = detect_level_shifts(&s, &LevelShiftConfig::default());
        assert_eq!(eps.len(), 1);
        assert!((eps[0].start as i64 - 120).abs() <= 8);
    }

    #[test]
    fn too_short_series_is_empty() {
        let s = series(10, 20.0, &[]);
        assert!(detect_level_shifts(&s, &LevelShiftConfig::default()).is_empty());
    }

    #[test]
    fn rolling_median_matches_naive_per_window() {
        let xs: Vec<f64> = (0..200)
            .map(|i| 20.0 + ((i * 61) % 29) as f64 * 0.3 + if i > 90 && i < 140 { 25.0 } else { 0.0 })
            .collect();
        for l in [1usize, 2, 3, 12, 13, 250] {
            let fast = rolling_median(&xs, l);
            let half = (l / 2).max(1);
            let naive: Vec<f64> = (0..xs.len())
                .map(|i| {
                    let lo = i.saturating_sub(half);
                    let hi = (i + half + 1).min(xs.len());
                    manic_stats::describe::median(&xs[lo..hi])
                })
                .collect();
            // Bit-identical, not approximately equal.
            assert_eq!(fast, naive, "l={l}");
        }
    }

    #[test]
    fn small_insignificant_shift_ignored() {
        // Shift smaller than the noise-derived minimum delta.
        let s: Vec<Option<f64>> = (0..288)
            .map(|i| {
                let noise = ((i * 31) % 13) as f64 * 0.4; // sd ~1.5
                let shift = if (120..168).contains(&i) { 0.3 } else { 0.0 };
                Some(20.0 + noise + shift)
            })
            .collect();
        let eps = detect_level_shifts(&s, &LevelShiftConfig::default());
        assert!(eps.is_empty(), "{eps:?}");
    }
}
