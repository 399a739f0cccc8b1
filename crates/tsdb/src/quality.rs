//! Series quality annotations.
//!
//! Measurements degrade for reasons the inference layer must know about but
//! the raw points cannot express: a probing task sat in quarantine (no data
//! is *expected*), the far end looked rate-limited (§5.2's 64-85% corrupted
//! loss responses), or the responder address changed under the task
//! (renumbering — samples before/after are not the same interface). Each
//! condition is a flag attached to a time window of a series; the inference
//! entry points mask flagged bins to `None` so faults produce "no inference"
//! instead of false level shifts.

/// Bitmask of quality conditions over a window of a series.
pub type QualityFlags = u8;

/// No valid samples were expected in the window (task skipped or dark).
pub const GAP: QualityFlags = 1 << 0;
/// Far end unanswered while the near end answered — the asymmetry that
/// indicates ICMP rate limiting rather than path loss (§5.2).
pub const SUSPECT_RATE_LIMITED: QualityFlags = 1 << 1;
/// Responses arrived from an unexpected address (interface renumbered or
/// route shifted off the link, §3.2 visibility loss).
pub const RENUMBERED: QualityFlags = 1 << 2;
/// The task's health machine had the series quarantined.
pub const QUARANTINED: QualityFlags = 1 << 3;

/// Annotation windows of one series: `(from, to, flags)`, `to` exclusive.
/// Windows are kept in insertion order; adjacent same-flag windows are
/// coalesced on append (the per-round annotation pattern of the control
/// loop would otherwise grow one entry per five minutes).
#[derive(Debug, Clone, Default)]
pub struct QualityLog {
    windows: Vec<(i64, i64, QualityFlags)>,
}

impl QualityLog {
    pub fn annotate(&mut self, from: i64, to: i64, flags: QualityFlags) {
        if to <= from || flags == 0 {
            return;
        }
        if let Some(last) = self.windows.last_mut() {
            if last.2 == flags && last.1 == from {
                last.1 = to;
                return;
            }
        }
        self.windows.push((from, to, flags));
    }

    pub fn windows(&self) -> &[(i64, i64, QualityFlags)] {
        &self.windows
    }

    /// Per-bin OR of flags across `[start, end)` in `bin_secs` bins, into a
    /// caller-owned buffer (cleared first) so repeated window scans reuse
    /// one allocation. Same edge-case contract as
    /// `Series::downsample_dense`: non-positive bins and empty/inverted
    /// windows yield no bins.
    pub fn dense_into(&self, start: i64, end: i64, bin_secs: i64, out: &mut Vec<QualityFlags>) {
        out.clear();
        if bin_secs <= 0 || end <= start {
            return;
        }
        let nbins = ((end - start).max(0) + bin_secs - 1) / bin_secs;
        out.resize(nbins as usize, 0);
        for &(f, t, fl) in &self.windows {
            if t <= start || f >= end {
                continue;
            }
            let b0 = ((f.max(start) - start) / bin_secs).max(0);
            let b1 = (((t.min(end) - start) + bin_secs - 1) / bin_secs).min(nbins);
            for b in b0..b1 {
                out[b as usize] |= fl;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesces_adjacent_same_flag_windows() {
        let mut log = QualityLog::default();
        log.annotate(0, 300, QUARANTINED);
        log.annotate(300, 600, QUARANTINED);
        log.annotate(600, 900, GAP);
        log.annotate(900, 1200, GAP | QUARANTINED);
        assert_eq!(log.windows().len(), 3, "first two merge");
        assert_eq!(log.windows()[0], (0, 600, QUARANTINED));
    }

    #[test]
    fn empty_and_zero_windows_ignored() {
        let mut log = QualityLog::default();
        log.annotate(100, 100, GAP);
        log.annotate(200, 100, GAP);
        log.annotate(0, 100, 0);
        assert!(log.windows().is_empty());
    }

    fn dense(log: &QualityLog, start: i64, end: i64, bin_secs: i64) -> Vec<QualityFlags> {
        let mut out = vec![0xff; 7];
        log.dense_into(start, end, bin_secs, &mut out);
        out
    }

    #[test]
    fn dense_ors_every_overlapped_bin() {
        let mut log = QualityLog::default();
        log.annotate(300, 600, SUSPECT_RATE_LIMITED);
        log.annotate(900, 1200, RENUMBERED);
        assert_eq!(dense(&log, 0, 1200, 300), vec![0, SUSPECT_RATE_LIMITED, 0, RENUMBERED]);
        // Windows straddling bin edges mark every touched bin.
        let straddled = dense(&log, 0, 1200, 450);
        assert_eq!(straddled.len(), 3);
        assert_eq!(straddled[0], SUSPECT_RATE_LIMITED, "300..450 overlap");
        assert_eq!(straddled[1], SUSPECT_RATE_LIMITED, "450..600 overlap");
        assert_eq!(straddled[2], RENUMBERED);
        // One bin over overlapping windows ORs their flags.
        assert_eq!(dense(&log, 500, 1000, 500), vec![SUSPECT_RATE_LIMITED | RENUMBERED]);
        // A window ending on a bin's start does not touch it.
        assert_eq!(dense(&log, 600, 900, 300), vec![0]);
        assert!(dense(&log, 500, 100, 300).is_empty(), "inverted window clears the buffer");
        assert!(dense(&log, 0, 600, 0).is_empty(), "non-positive bin clears the buffer");
    }

}
