//! Per-link incremental inference summaries.
//!
//! `arm_reactive_loss` originally rescanned the store over the full
//! detection window for every task every time it ran: a range query, a
//! downsample, and a quality scan per link, all O(points in window). A
//! `LinkSummary` keeps the far-end series of one probing task in exactly
//! the dense form the detectors consume — a window of per-bin minimums and
//! per-bin quality flags — updated from each committed round in O(new
//! bins). Serving a detection window is then a straight copy out of it.
//!
//! # The canonical invariant
//!
//! At all times, the window content over `[hi_bin - cap, hi_bin)` equals
//! what `Store::downsample_dense(key, …, Min)` /
//! `Store::quality_dense(key, …)` would return over the same bins. This
//! holds **unconditionally of when the summary was created**, because:
//!
//! * a summary is *backfilled* from the store at creation, so it starts
//!   equal by construction;
//! * each commit applies exactly the staged samples/annotations the store
//!   received, and the per-bin folds (`f64::min` over positive RTTs, `|=`
//!   over flags) are order-independent, so equality is preserved
//!   inductively.
//!
//! Creation-time independence is what makes checkpoint resume free: a
//! restored system simply recreates summaries lazily at the first
//! post-resume commit, and because the restored store is byte-identical,
//! the backfilled windows — and their [`LinkSummary::fingerprint`]s — match
//! the uninterrupted run's. The debug-assert recompute path in
//! `manic-core` checks the invariant on every served window in debug
//! builds.

use manic_stats::{fnv1a, FNV1A_OFFSET};
use manic_tsdb::quality::QualityFlags;
use manic_tsdb::{SeriesKey, Store};
use std::collections::VecDeque;

fn div_ceil_i64(x: i64, d: i64) -> i64 {
    debug_assert!(d > 0);
    x.div_euclid(d) + i64::from(x.rem_euclid(d) != 0)
}

/// Rolling dense-bin summary of one link's far-end min-RTT series.
///
/// The logical window is the absolute bins `[hi_bin - cap, hi_bin)`. Only
/// its tail `[hi_bin - mins.len(), hi_bin)` is stored — from the oldest bin
/// that ever received a sample or a flag up to `hi_bin`, never more than
/// `cap` bins — and every bin below that reads as empty. A bin without
/// samples holds `f64::INFINITY`.
#[derive(Debug, Clone)]
pub struct LinkSummary {
    bin_secs: i64,
    cap: usize,
    /// One past the newest covered absolute bin.
    hi_bin: i64,
    /// Per-bin minimum (`INFINITY` = no samples), oldest first.
    mins: VecDeque<f64>,
    /// Per-bin OR of quality flags, index-aligned with `mins`.
    flags: VecDeque<QualityFlags>,
}

impl LinkSummary {
    /// Empty summary ending at `hi_end` (no store backfill — for tests and
    /// synthetic feeds that replay every sample through `observe_sample`).
    pub fn new(hi_end: i64, window_bins: usize, bin_secs: i64) -> Self {
        assert!(window_bins > 0 && bin_secs > 0);
        LinkSummary {
            bin_secs,
            cap: window_bins,
            hi_bin: div_ceil_i64(hi_end, bin_secs),
            mins: VecDeque::new(),
            flags: VecDeque::new(),
        }
    }

    /// Summary backfilled from the store over the trailing window ending at
    /// `hi_end`. This is the canonical constructor: the window starts equal
    /// to the store's dense view by construction, regardless of how much
    /// history exists.
    pub fn backfilled(
        store: &Store,
        key: &SeriesKey,
        hi_end: i64,
        window_bins: usize,
        bin_secs: i64,
    ) -> Self {
        let mut s = LinkSummary::new(hi_end, window_bins, bin_secs);
        let (from, to) = (s.lo_bin() * bin_secs, s.hi_bin * bin_secs);
        for p in store.query(key, from, to) {
            s.observe_sample(p.t, p.v);
        }
        for (f, t, fl) in store.quality_windows(key) {
            s.observe_flags(f, t, fl);
        }
        crate::obs::metrics().summary_backfills.inc();
        s
    }

    pub fn bin_secs(&self) -> i64 {
        self.bin_secs
    }

    pub fn window_bins(&self) -> usize {
        self.cap
    }

    /// One past the newest covered absolute bin.
    pub fn hi_bin(&self) -> i64 {
        self.hi_bin
    }

    #[inline]
    fn lo_bin(&self) -> i64 {
        self.hi_bin - self.cap as i64
    }

    /// Oldest stored bin (`hi_bin` when nothing is stored).
    #[inline]
    fn first_bin(&self) -> i64 {
        self.hi_bin - self.mins.len() as i64
    }

    /// `(min, flags)` of absolute bin `b < hi_bin`; empty below storage.
    #[inline]
    fn bin(&self, b: i64) -> (f64, QualityFlags) {
        match usize::try_from(b - self.first_bin()) {
            Ok(i) => (self.mins[i], self.flags[i]),
            Err(_) => (f64::INFINITY, 0),
        }
    }

    /// Make room for `n` more stored bins. Doubles like `VecDeque` does but
    /// stops at `cap`, so a full window holds exactly `cap` bins.
    fn reserve(&mut self, n: usize) {
        let need = self.mins.len() + n;
        if need > self.mins.capacity() {
            let extra = need.max(2 * self.mins.capacity()).min(self.cap) - self.mins.len();
            self.mins.reserve_exact(extra);
            self.flags.reserve_exact(extra);
        }
    }

    /// Storage index of bin `b` in `[lo_bin, hi_bin)`, extending storage at
    /// the front with empty bins when `b` is older than anything stored.
    fn slot(&mut self, b: i64) -> usize {
        debug_assert!(self.lo_bin() <= b && b < self.hi_bin);
        let missing = (self.first_bin() - b).max(0) as usize;
        self.reserve(missing);
        for _ in 0..missing {
            self.mins.push_front(f64::INFINITY);
            self.flags.push_front(0);
        }
        (b - self.first_bin()) as usize
    }

    /// Advance the window so it ends at `hi_end`, expiring bins that fall
    /// out the back. O(bins advanced), never more than one full window.
    pub fn advance_to(&mut self, hi_end: i64) {
        let new_hi = div_ceil_i64(hi_end, self.bin_secs);
        if new_hi <= self.hi_bin {
            return;
        }
        let stepped = (new_hi - self.hi_bin).min(self.cap as i64) as usize;
        let expired = (self.mins.len() + stepped).saturating_sub(self.cap).min(self.mins.len());
        self.mins.drain(..expired);
        self.flags.drain(..expired);
        // Nothing stored means nothing to stay contiguous with: the new
        // bins are empty either way.
        if !self.mins.is_empty() {
            self.reserve(stepped);
            self.mins.resize(self.mins.len() + stepped, f64::INFINITY);
            self.flags.resize(self.flags.len() + stepped, 0);
        }
        self.hi_bin = new_hi;
        crate::obs::metrics().summary_bins_advanced.add(stepped as u64);
    }

    /// Fold one committed sample into its bin. Samples older than the
    /// window are ignored; a sample past `hi_bin` (a rate-budget slot that
    /// spilled over the round boundary) extends the window forward so the
    /// summary never silently diverges from the store.
    pub fn observe_sample(&mut self, t: i64, v: f64) {
        let b = t.div_euclid(self.bin_secs);
        if b >= self.hi_bin {
            self.advance_to((b + 1) * self.bin_secs);
        }
        if b < self.lo_bin() {
            return;
        }
        let i = self.slot(b);
        self.mins[i] = self.mins[i].min(v);
        crate::obs::metrics().summary_samples_folded.inc();
    }

    /// OR a quality annotation window into every bin it overlaps — the same
    /// per-bin overlap rule as `QualityLog::dense`.
    pub fn observe_flags(&mut self, from: i64, to: i64, fl: QualityFlags) {
        if fl == 0 || to <= from {
            return;
        }
        let b0 = from.div_euclid(self.bin_secs).max(self.lo_bin());
        let b1 = div_ceil_i64(to, self.bin_secs).min(self.hi_bin);
        if b0 >= b1 {
            return;
        }
        let i0 = self.slot(b0);
        for f in self.flags.range_mut(i0..i0 + (b1 - b0) as usize) {
            *f |= fl;
        }
    }

    /// Can the summary serve a dense read over `[from, to)`? Requires
    /// bin-aligned bounds fully inside the window.
    pub fn can_serve(&self, from: i64, to: i64) -> bool {
        from < to
            && from.rem_euclid(self.bin_secs) == 0
            && to.rem_euclid(self.bin_secs) == 0
            && from.div_euclid(self.bin_secs) >= self.lo_bin()
            && to.div_euclid(self.bin_secs) <= self.hi_bin
    }

    /// Copy the dense window `[from, to)` out of the summary, into the same
    /// layout `Store::downsample_dense` / `Store::quality_dense` produce.
    /// The caller must have checked [`Self::can_serve`].
    pub fn dense_into(
        &self,
        from: i64,
        to: i64,
        bins: &mut Vec<Option<f64>>,
        qual: &mut Vec<QualityFlags>,
    ) {
        assert!(self.can_serve(from, to), "window [{from}, {to}) not servable");
        bins.clear();
        qual.clear();
        let b0 = from.div_euclid(self.bin_secs);
        let b1 = to.div_euclid(self.bin_secs);
        bins.reserve((b1 - b0) as usize);
        qual.reserve((b1 - b0) as usize);
        for b in b0..b1 {
            let (min, fl) = self.bin(b);
            bins.push(min.is_finite().then_some(min));
            qual.push(fl);
        }
        crate::obs::metrics().summary_windows_served.inc();
    }

    /// Content fingerprint: FNV-1a over the window's dense content in
    /// chronological bin order, plus the window geometry. Deliberately
    /// excludes any trace of *when* the summary was created — two summaries
    /// over byte-identical stores fingerprint equal even if one was
    /// maintained incrementally for weeks and the other backfilled a minute
    /// ago.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV1A_OFFSET;
        h = fnv1a(h, &self.bin_secs.to_le_bytes());
        h = fnv1a(h, &(self.cap as u64).to_le_bytes());
        h = fnv1a(h, &self.hi_bin.to_le_bytes());
        for b in self.lo_bin()..self.hi_bin {
            let (min, fl) = self.bin(b);
            let present = min.is_finite();
            h = fnv1a(h, &[present as u8, fl]);
            if present {
                h = fnv1a(h, &min.to_bits().to_le_bytes());
            }
        }
        h
    }
}

/// Count a served-window fallback (the summary could not cover the
/// requested window and the caller rescanned the store).
pub fn note_summary_fallback() {
    crate::obs::metrics().summary_window_fallbacks.inc();
}

#[cfg(test)]
mod tests {
    use super::*;
    use manic_tsdb::quality::{GAP, QUARANTINED};

    fn feed(s: &mut LinkSummary, t0: i64, vals: &[f64]) {
        for (i, &v) in vals.iter().enumerate() {
            let t = t0 + i as i64 * s.bin_secs();
            s.advance_to(t + s.bin_secs());
            s.observe_sample(t, v);
        }
    }

    #[test]
    fn ring_serves_dense_window() {
        let mut s = LinkSummary::new(0, 8, 300);
        feed(&mut s, 0, &[10.0, 11.0, 12.0, 13.0]);
        let (mut bins, mut qual) = (Vec::new(), Vec::new());
        assert!(s.can_serve(0, 1200));
        s.dense_into(0, 1200, &mut bins, &mut qual);
        assert_eq!(bins, vec![Some(10.0), Some(11.0), Some(12.0), Some(13.0)]);
        assert_eq!(qual, vec![0, 0, 0, 0]);
    }

    #[test]
    fn min_fold_and_presence() {
        let mut s = LinkSummary::new(300, 4, 300);
        s.observe_sample(10, 20.0);
        s.observe_sample(20, 15.0);
        s.observe_sample(30, 25.0);
        let (mut bins, mut qual) = (Vec::new(), Vec::new());
        s.dense_into(-900, 300, &mut bins, &mut qual);
        assert_eq!(bins, vec![None, None, None, Some(15.0)]);
    }

    #[test]
    fn advance_expires_old_bins() {
        let mut s = LinkSummary::new(0, 4, 300);
        feed(&mut s, 0, &[1.0, 2.0, 3.0, 4.0]);
        // Window is [0, 1200); advance two bins: [600, 1800).
        s.advance_to(1800);
        assert!(!s.can_serve(0, 1200), "oldest bins expired");
        let (mut bins, mut qual) = (Vec::new(), Vec::new());
        s.dense_into(600, 1800, &mut bins, &mut qual);
        assert_eq!(bins, vec![Some(3.0), Some(4.0), None, None]);
        // A jump past the whole ring clears everything.
        s.advance_to(1800 + 5 * 300);
        let hi = s.hi_bin() * 300;
        s.dense_into(hi - 4 * 300, hi, &mut bins, &mut qual);
        assert_eq!(bins, vec![None, None, None, None]);
    }

    #[test]
    fn flags_cover_overlapped_bins() {
        let mut s = LinkSummary::new(1200, 4, 300);
        s.observe_flags(250, 700, GAP);
        s.observe_flags(900, 1200, QUARANTINED);
        let (mut bins, mut qual) = (Vec::new(), Vec::new());
        s.dense_into(0, 1200, &mut bins, &mut qual);
        assert_eq!(qual, vec![GAP, GAP, GAP, QUARANTINED]);
    }

    #[test]
    fn can_serve_rejects_misaligned_and_out_of_window() {
        let s = LinkSummary::new(3000, 4, 300);
        assert!(s.can_serve(1800, 3000));
        assert!(!s.can_serve(1700, 3000), "misaligned start");
        assert!(!s.can_serve(1800, 2950), "misaligned end");
        assert!(!s.can_serve(1500, 3000), "beyond ring capacity");
        assert!(!s.can_serve(1800, 3300), "beyond window end");
        assert!(!s.can_serve(1800, 1800), "empty window");
    }

    #[test]
    fn fingerprint_is_creation_time_independent() {
        // Incrementally-maintained summary vs. one "backfilled" with the
        // same final content: identical fingerprints.
        let mut a = LinkSummary::new(0, 6, 300);
        feed(&mut a, 0, &[5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let mut b = LinkSummary::new(8 * 300, 6, 300);
        for (i, v) in [7.0, 8.0, 9.0, 10.0, 11.0, 12.0].iter().enumerate() {
            b.observe_sample((2 + i as i64) * 300, *v);
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Content differences must show.
        b.observe_sample(7 * 300 + 10, 1.0);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
