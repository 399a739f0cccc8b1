//! Metric handles for the inference layer.

use crate::autocorr::RejectReason;
use manic_obs::{registry, Counter};
use std::sync::OnceLock;

pub(crate) struct Metrics {
    /// Bins blanked by quality masking before detection.
    pub bins_masked: Counter,
    /// Invocations of the masked level-shift detector.
    pub levelshift_runs: Counter,
    /// Episodes the CUSUM detector reported (pre mask-edge filter).
    pub shifts_detected: Counter,
    /// Episodes discarded because a boundary touched a masked region.
    pub shifts_rejected_mask_edge: Counter,
    /// Link-summary maintenance: summaries created by store backfill.
    pub summary_backfills: Counter,
    /// Bins expired/entered as summary windows advanced.
    pub summary_bins_advanced: Counter,
    /// Samples folded into summaries (commits and backfills).
    pub summary_samples_folded: Counter,
    /// Dense detection windows served from a summary (no store rescan).
    pub summary_windows_served: Counter,
    /// Detection windows a summary could not cover (store rescan).
    pub summary_window_fallbacks: Counter,
    /// Autocorrelation windows analyzed / asserting recurrence.
    pub autocorr_windows: Counter,
    pub autocorr_asserted: Counter,
    /// Autocorrelation rejections by reason.
    pub autocorr_rejected_too_few_days: Counter,
    pub autocorr_rejected_dispersed_peaks: Counter,
    pub autocorr_rejected_incoherent_days: Counter,
    pub autocorr_rejected_insufficient_data: Counter,
}

impl Metrics {
    pub fn autocorr_rejected(&self, reason: RejectReason) -> &Counter {
        match reason {
            RejectReason::TooFewDays => &self.autocorr_rejected_too_few_days,
            RejectReason::DispersedPeaks => &self.autocorr_rejected_dispersed_peaks,
            RejectReason::IncoherentDays => &self.autocorr_rejected_incoherent_days,
            RejectReason::InsufficientData => &self.autocorr_rejected_insufficient_data,
        }
    }
}

static METRICS: OnceLock<Metrics> = OnceLock::new();

pub(crate) fn metrics() -> &'static Metrics {
    METRICS.get_or_init(|| {
        let r = registry();
        let rej = |reason| r.counter_labeled("manic_inference_autocorr_rejected", &[("reason", reason)]);
        Metrics {
            bins_masked: r.counter("manic_inference_bins_masked"),
            levelshift_runs: r.counter("manic_inference_levelshift_runs"),
            shifts_detected: r.counter("manic_inference_shifts_detected"),
            shifts_rejected_mask_edge: r.counter("manic_inference_shifts_rejected_mask_edge"),
            summary_backfills: r.counter("manic_inference_summary_backfills"),
            summary_bins_advanced: r.counter("manic_inference_summary_bins_advanced"),
            summary_samples_folded: r.counter("manic_inference_summary_samples_folded"),
            summary_windows_served: r.counter("manic_inference_summary_windows_served"),
            summary_window_fallbacks: r.counter("manic_inference_summary_window_fallbacks"),
            autocorr_windows: r.counter("manic_inference_autocorr_windows"),
            autocorr_asserted: r.counter("manic_inference_autocorr_asserted"),
            autocorr_rejected_too_few_days: rej("too_few_days"),
            autocorr_rejected_dispersed_peaks: rej("dispersed_peaks"),
            autocorr_rejected_incoherent_days: rej("incoherent_days"),
            autocorr_rejected_insufficient_data: rej("insufficient_data"),
        }
    })
}
