//! Congestion inference from TSLP time series (§4).
//!
//! Two detectors, matching the paper:
//!
//! * [`levelshift`] (§4.1) — CUSUM-based detection of sustained latency
//!   level shifts, with Huber-weighted outlier handling and Student's-t
//!   significance. Operated with `l = 12` five-minute bins (shifts of at
//!   least 30 minutes) and Huber `P = 1`. Used to trigger the reactive loss
//!   prober.
//! * [`autocorr`] (§4.2) — the diurnal-recurrence method: 15-minute
//!   min-filtered bins over a 50-day window, an elevation threshold of
//!   `min RTT + 7 ms`, near-side exclusion, selection of the
//!   recurring-congestion window as the time-of-day band where the most
//!   days show elevation, false-positive rejection, and per-day congestion
//!   percentages. This is the method behind every §6 result.
//!
//! The paper's final stage, merging per-VP inferences for one link, runs
//! where the per-VP records meet: `manic_core::longitudinal` ORs the VPs'
//! per-day congested-interval masks.

pub mod autocorr;
pub mod levelshift;
pub mod mask;
pub(crate) mod obs;
pub mod summary;

pub use autocorr::{analyze_window, AutocorrConfig, AutocorrResult, DayEstimate, RejectReason};
pub use levelshift::{detect_level_shifts, Episode, LevelShiftConfig};
pub use mask::{apply_quality_mask, detect_level_shifts_masked, DEFAULT_REJECT};
pub use summary::{note_summary_fallback, LinkSummary};
