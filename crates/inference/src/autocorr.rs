//! The autocorrelation (diurnal recurrence) method (§4.2).
//!
//! The method looks for "multi-day repetition of elevated delays at the same
//! times of day that imply congestion driven by diurnal demand":
//!
//! 1. aggregate raw TSLP samples into 15-minute bins, min-filtered;
//! 2. exclude intervals where the *near* side is elevated (congestion inside
//!    the access network, not at the interconnection);
//! 3. threshold: a far-side bin is *elevated* when it exceeds
//!    `min RTT + 7 ms` over the 50-day window;
//! 4. for each of the 96 intervals of the day, count the days elevated;
//!    the interval with the most days anchors the *recurring congestion
//!    window*, expanded to adjacent intervals with sufficiently many
//!    elevated days;
//! 5. reject false positives: multiple comparable peaks dispersed across the
//!    day, or different days driving different peaks;
//! 6. per day, the congestion estimate is the number of elevated intervals
//!    inside the recurring window (1 interval = 1/96 ≈ 1.04% of the day).

/// Intervals per day at 15-minute resolution.
pub const INTERVALS_PER_DAY: usize = 96;

/// Algorithm parameters (defaults are the paper's operating point).
#[derive(Debug, Clone, Copy)]
pub struct AutocorrConfig {
    /// Analysis window length in days (paper: 50).
    pub window_days: usize,
    /// Elevation threshold above the window minimum, ms (paper: 7).
    pub elevation_ms: f64,
    /// Minimum days the peak interval must be elevated to assert recurrence.
    pub min_days: usize,
}

/// An interval joins the recurring window when its elevated-day count is at
/// least this fraction of the peak interval's count.
const SUFFICIENT_FRAC: f64 = 0.5;
/// Reject when a second cluster's peak reaches this fraction of the main
/// peak and sits at least `CLUSTER_GAP` intervals away.
const AMBIGUITY_FRAC: f64 = 0.8;
/// Minimum separation (in intervals) for clusters to count as dispersed:
/// four hours.
const CLUSTER_GAP: usize = 16;
/// Reject when the days contributing to the peak interval cover less than
/// this fraction of all days showing any elevation.
const DAY_COHERENCE_FRAC: f64 = 0.4;

impl Default for AutocorrConfig {
    fn default() -> Self {
        AutocorrConfig {
            window_days: 50,
            elevation_ms: 7.0,
            min_days: 5,
        }
    }
}

/// Why the window hypothesis was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Peak interval elevated on too few days.
    TooFewDays,
    /// Multiple comparable peaks dispersed across the day.
    DispersedPeaks,
    /// Different days contribute to different peaks.
    IncoherentDays,
    /// Not enough data in the window.
    InsufficientData,
}

impl RejectReason {
    /// Stable snake_case label (metric labels, journal fields, audit trail).
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::TooFewDays => "too_few_days",
            RejectReason::DispersedPeaks => "dispersed_peaks",
            RejectReason::IncoherentDays => "incoherent_days",
            RejectReason::InsufficientData => "insufficient_data",
        }
    }
}

/// Per-day congestion estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DayEstimate {
    /// Day offset within the analysis window.
    pub day: usize,
    /// Elevated 15-minute intervals inside the recurring window.
    pub congested_intervals: usize,
    /// Fraction of the day congested (`congested_intervals / 96`).
    pub congestion_pct: f64,
}

/// The recurring congestion window: `len` 15-minute intervals starting at
/// interval-of-day `start`, possibly wrapping past midnight (a 9pm US-East
/// peak sits at 02:00 UTC, so wrapping is the common case for UTC-binned
/// series).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecurringWindow {
    pub start: usize,
    pub len: usize,
}

impl RecurringWindow {
    /// Is interval-of-day `iv` inside the window?
    pub fn contains(&self, iv: usize) -> bool {
        (iv + INTERVALS_PER_DAY - self.start) % INTERVALS_PER_DAY < self.len
    }

    /// Circular distance from `iv` to the window (0 when inside).
    pub fn distance(&self, iv: usize) -> usize {
        let rel = (iv + INTERVALS_PER_DAY - self.start) % INTERVALS_PER_DAY;
        if rel < self.len {
            0
        } else {
            (rel - self.len + 1).min(INTERVALS_PER_DAY - rel)
        }
    }

    /// The intervals covered, in window order.
    pub fn intervals(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).map(move |o| (self.start + o) % INTERVALS_PER_DAY)
    }
}

/// Result of analyzing one (vp, link) 50-day window.
#[derive(Debug, Clone)]
pub struct AutocorrResult {
    /// The recurring congestion window (time-of-day band), if asserted.
    pub window: Option<RecurringWindow>,
    /// Per-day estimates (zeroed when no window was found).
    pub days: Vec<DayEstimate>,
    pub rejected: Option<RejectReason>,
    /// Per-interval elevated-day counts (diagnostics, Figure 9 input).
    pub interval_counts: Vec<usize>,
    /// Per-day bitmap of congested 15-minute intervals inside the recurring
    /// window (bit `iv` set when interval `iv` was elevated). This is what
    /// the validation pipelines use to classify each 15-minute period as
    /// congested or uncongested (§5) and what Figure 9's histograms count.
    pub day_masks: Vec<u128>,
}

impl AutocorrResult {
    fn empty(ndays: usize, reason: RejectReason) -> Self {
        AutocorrResult {
            window: None,
            days: (0..ndays)
                .map(|day| DayEstimate { day, congested_intervals: 0, congestion_pct: 0.0 })
                .collect(),
            rejected: Some(reason),
            interval_counts: vec![0; INTERVALS_PER_DAY],
            day_masks: vec![0; ndays],
        }
    }
}

/// Analyze one window of aligned near/far series.
///
/// `near` and `far` are dense min-filtered 15-minute bins, one per interval,
/// covering whole days (`len == days * 96`); missing bins are `None`.
///
/// ```
/// use manic_inference::{analyze_window, AutocorrConfig};
///
/// // Fifty days with a recurring 20:00-23:00 elevation of +30 ms.
/// let far: Vec<Option<f64>> = (0..50 * 96)
///     .map(|i| Some(if (80..92).contains(&(i % 96)) { 55.0 } else { 25.0 }))
///     .collect();
/// let near = vec![Some(5.0); far.len()];
/// let r = analyze_window(&near, &far, &AutocorrConfig::default());
/// let window = r.window.expect("recurring congestion asserted");
/// assert!(window.contains(85));
/// assert!((r.days[7].congestion_pct - 12.0 / 96.0).abs() < 0.03);
/// ```
pub fn analyze_window(
    near: &[Option<f64>],
    far: &[Option<f64>],
    cfg: &AutocorrConfig,
) -> AutocorrResult {
    let result = analyze_window_inner(near, far, cfg);
    let m = crate::obs::metrics();
    m.autocorr_windows.inc();
    match result.rejected {
        Some(reason) => m.autocorr_rejected(reason).inc(),
        None => m.autocorr_asserted.inc(),
    }
    result
}

fn analyze_window_inner(
    near: &[Option<f64>],
    far: &[Option<f64>],
    cfg: &AutocorrConfig,
) -> AutocorrResult {
    assert_eq!(near.len(), far.len(), "near/far series must align");
    assert!(
        far.len().is_multiple_of(INTERVALS_PER_DAY),
        "series must cover whole days of 96 intervals"
    );
    let ndays = far.len() / INTERVALS_PER_DAY;

    let far_present: Vec<f64> = far.iter().flatten().copied().collect();
    if far_present.len() < far.len() / 4 || ndays == 0 {
        return AutocorrResult::empty(ndays, RejectReason::InsufficientData);
    }
    let far_min = far_present.iter().cloned().fold(f64::INFINITY, f64::min);
    let far_thresh = far_min + cfg.elevation_ms;
    let near_present: Vec<f64> = near.iter().flatten().copied().collect();
    let near_min = near_present.iter().cloned().fold(f64::INFINITY, f64::min);
    let near_thresh = near_min + cfg.elevation_ms;

    // Elevation matrix: day x interval; near-side elevation excludes a bin.
    let elevated = |day: usize, iv: usize| -> bool {
        let idx = day * INTERVALS_PER_DAY + iv;
        let near_elev = near[idx].map(|v| v > near_thresh).unwrap_or(false);
        if near_elev {
            return false;
        }
        far[idx].map(|v| v > far_thresh).unwrap_or(false)
    };

    // Per-interval elevated-day counts.
    let mut counts = vec![0usize; INTERVALS_PER_DAY];
    for (iv, c) in counts.iter_mut().enumerate() {
        *c = (0..ndays).filter(|&d| elevated(d, iv)).count();
    }

    let peak_iv = (0..INTERVALS_PER_DAY).max_by_key(|&iv| counts[iv]).unwrap();
    let peak = counts[peak_iv];
    if peak < cfg.min_days {
        return AutocorrResult {
            rejected: Some(RejectReason::TooFewDays),
            interval_counts: counts,
            ..AutocorrResult::empty(ndays, RejectReason::TooFewDays)
        };
    }

    // Expand the window around the peak interval, circularly: evening peaks
    // in US timezones wrap past midnight UTC.
    let sufficient = ((peak as f64 * SUFFICIENT_FRAC).ceil() as usize).max(cfg.min_days);
    let mut start = peak_iv;
    let mut len = 1usize;
    loop {
        let prev = (start + INTERVALS_PER_DAY - 1) % INTERVALS_PER_DAY;
        if len < INTERVALS_PER_DAY && counts[prev] >= sufficient {
            start = prev;
            len += 1;
        } else {
            break;
        }
    }
    loop {
        let next = (start + len) % INTERVALS_PER_DAY;
        if len < INTERVALS_PER_DAY && counts[next] >= sufficient {
            len += 1;
        } else {
            break;
        }
    }
    let window = RecurringWindow { start, len };

    // Rejection (a): another qualifying cluster far from the window.
    let far_cluster_peak = (0..INTERVALS_PER_DAY)
        .filter(|&iv| window.distance(iv) >= CLUSTER_GAP)
        .map(|iv| counts[iv])
        .max()
        .unwrap_or(0);
    if (far_cluster_peak as f64) >= AMBIGUITY_FRAC * peak as f64 {
        return AutocorrResult {
            rejected: Some(RejectReason::DispersedPeaks),
            interval_counts: counts,
            ..AutocorrResult::empty(ndays, RejectReason::DispersedPeaks)
        };
    }

    // Rejection (b): the peak interval's contributing days must cover a fair
    // share of all days showing any elevation at all.
    let peak_days: Vec<usize> = (0..ndays).filter(|&d| elevated(d, peak_iv)).collect();
    let any_days = (0..ndays)
        .filter(|&d| (0..INTERVALS_PER_DAY).any(|iv| elevated(d, iv)))
        .count();
    if (peak_days.len() as f64) < DAY_COHERENCE_FRAC * any_days as f64 {
        return AutocorrResult {
            rejected: Some(RejectReason::IncoherentDays),
            interval_counts: counts,
            ..AutocorrResult::empty(ndays, RejectReason::IncoherentDays)
        };
    }

    // Per-day congestion estimates within the recurring window.
    let mut days = Vec::with_capacity(ndays);
    let mut day_masks = Vec::with_capacity(ndays);
    for day in 0..ndays {
        let mut mask: u128 = 0;
        for iv in window.intervals() {
            if elevated(day, iv) {
                mask |= 1u128 << iv;
            }
        }
        let congested = mask.count_ones() as usize;
        days.push(DayEstimate {
            day,
            congested_intervals: congested,
            congestion_pct: congested as f64 / INTERVALS_PER_DAY as f64,
        });
        day_masks.push(mask);
    }

    AutocorrResult {
        window: Some(window),
        days,
        rejected: None,
        interval_counts: counts,
        day_masks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a 50-day far series: base RTT, elevated by `amount` during
    /// [start_iv, end_iv) on the listed days.
    fn far_series(
        ndays: usize,
        base: f64,
        amount: f64,
        window: (usize, usize),
        days: &[usize],
    ) -> Vec<Option<f64>> {
        (0..ndays * INTERVALS_PER_DAY)
            .map(|idx| {
                let (d, iv) = (idx / INTERVALS_PER_DAY, idx % INTERVALS_PER_DAY);
                let mut v = base + (idx % 3) as f64 * 0.2;
                if days.contains(&d) && iv >= window.0 && iv < window.1 {
                    v += amount;
                }
                Some(v)
            })
            .collect()
    }

    fn flat(ndays: usize, base: f64) -> Vec<Option<f64>> {
        far_series(ndays, base, 0.0, (0, 0), &[])
    }

    #[test]
    fn finds_recurring_evening_window() {
        let days: Vec<usize> = (0..50).collect();
        let far = far_series(50, 30.0, 35.0, (80, 92), &days); // 20:00-23:00
        let near = flat(50, 5.0);
        let r = analyze_window(&near, &far, &AutocorrConfig::default());
        assert!(r.rejected.is_none(), "{:?}", r.rejected);
        let w = r.window.unwrap();
        assert!((w.start as i64 - 80).abs() <= 1, "start {}", w.start);
        assert!((w.len as i64 - 12).abs() <= 2, "len {}", w.len);
        // Every day shows 12 intervals = 12.5% of the day.
        assert!(r.days.iter().all(|d| (d.congestion_pct - 0.125).abs() < 0.02));
    }

    #[test]
    fn sporadic_days_no_recurrence() {
        // Elevation on only 3 of 50 days: below min_days.
        let far = far_series(50, 30.0, 35.0, (80, 92), &[3, 17, 40]);
        let near = flat(50, 5.0);
        let r = analyze_window(&near, &far, &AutocorrConfig::default());
        assert_eq!(r.rejected, Some(RejectReason::TooFewDays));
        assert!(r.days.iter().all(|d| d.congested_intervals == 0));
    }

    #[test]
    fn near_side_elevation_excluded() {
        // Far elevated, but near elevated at the same times: congestion is
        // inside the access network, not at the interconnection.
        let days: Vec<usize> = (0..50).collect();
        let far = far_series(50, 30.0, 35.0, (80, 92), &days);
        let near = far_series(50, 5.0, 30.0, (80, 92), &days);
        let r = analyze_window(&near, &far, &AutocorrConfig::default());
        assert_eq!(r.rejected, Some(RejectReason::TooFewDays), "{:?}", r.window);
    }

    #[test]
    fn dispersed_peaks_rejected() {
        // Two equal-strength windows 8 hours apart.
        let days: Vec<usize> = (0..50).collect();
        let mut far = far_series(50, 30.0, 35.0, (80, 86), &days);
        let second = far_series(50, 30.0, 35.0, (20, 26), &days);
        for (a, b) in far.iter_mut().zip(second) {
            if let (Some(x), Some(y)) = (a.as_mut(), b) {
                *x = x.max(y);
            }
        }
        let near = flat(50, 5.0);
        let r = analyze_window(&near, &far, &AutocorrConfig::default());
        assert_eq!(r.rejected, Some(RejectReason::DispersedPeaks));
    }

    #[test]
    fn incoherent_days_rejected() {
        // Each day elevates a different random interval: lots of "any
        // elevation" days, few agreeing on the peak.
        let mut far = flat(50, 30.0);
        for d in 0..50usize {
            let iv = (d * 13) % INTERVALS_PER_DAY;
            far[d * INTERVALS_PER_DAY + iv] = Some(70.0);
        }
        let near = flat(50, 5.0);
        let cfg = AutocorrConfig { min_days: 1, ..Default::default() };
        let r = analyze_window(&near, &far, &cfg);
        assert!(
            matches!(
                r.rejected,
                Some(RejectReason::IncoherentDays) | Some(RejectReason::DispersedPeaks)
            ),
            "{:?}",
            r.rejected
        );
    }

    #[test]
    fn partial_days_counted_in_estimates() {
        // All days share the window, but day 7 is congested only half of it.
        let days: Vec<usize> = (0..50).collect();
        let mut far = far_series(50, 30.0, 35.0, (80, 92), &days);
        for iv in 86..92 {
            far[7 * INTERVALS_PER_DAY + iv] = Some(30.0);
        }
        let near = flat(50, 5.0);
        let r = analyze_window(&near, &far, &AutocorrConfig::default());
        assert!(r.rejected.is_none());
        assert_eq!(r.days[7].congested_intervals, 6);
        assert_eq!(r.days[8].congested_intervals, 12);
        // 1 interval = 1.04% (the paper's example granularity).
        assert!((1.0f64 / 96.0 - 0.0104).abs() < 1e-4);
    }

    #[test]
    fn missing_data_rejected() {
        let near = vec![None; 50 * INTERVALS_PER_DAY];
        let far = vec![None; 50 * INTERVALS_PER_DAY];
        let r = analyze_window(&near, &far, &AutocorrConfig::default());
        assert_eq!(r.rejected, Some(RejectReason::InsufficientData));
    }

    #[test]
    fn uncongested_link_clean() {
        let far = flat(50, 30.0);
        let near = flat(50, 5.0);
        let r = analyze_window(&near, &far, &AutocorrConfig::default());
        assert!(r.window.is_none());
        assert!(r.days.iter().all(|d| d.congestion_pct == 0.0));
    }
}
