//! Per-link incremental inference summaries.
//!
//! `arm_reactive_loss` originally rescanned the store over the full
//! detection window for every task every time it ran: a range query, a
//! downsample, and a quality scan per link, all O(points in window). A
//! `LinkSummary` keeps the far-end series of one probing task in exactly
//! the dense form the detectors consume — a ring of per-bin minimums,
//! per-bin quality flags, and a presence bitset — updated from each
//! committed round in O(new bins). Serving a detection window is then a
//! straight copy out of the ring.
//!
//! # The canonical invariant
//!
//! At all times, the ring content over `[hi_bin - cap, hi_bin)` equals what
//! `Store::downsample_dense(key, …, Min)` / `Store::quality_dense(key, …)`
//! would return over the same bins. This holds **unconditionally of when
//! the summary was created**, because:
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
//! the backfilled rings — and their [`LinkSummary::fingerprint`]s — match
//! the uninterrupted run's. The debug-assert recompute path in
//! `manic-core` checks the invariant on every served window in debug
//! builds.
//!
//! # Carried verdicts
//!
//! A byte-identical *per-round* verdict stream while skipping detection is
//! impossible: the minimum significant delta sits below the noise extremes,
//! so no cheap monotone sentinel can prove "the verdict did not change".
//! Instead [`LinkSummary::refresh`] maintains an elevation sentinel (running
//! count of consecutive present, unmasked bins more than 7 ms above the
//! baseline minimum — the §4.2 elevation criterion at the §4.1 minimum
//! duration) and re-runs the exact detector only when the sentinel arms or
//! disarms; between analyses the last exact verdict is carried. Verdicts at
//! analysis points are exact by construction; callers that need exactness
//! at an arbitrary instant (the production `arm_reactive_loss` path, the
//! benchmark's final evaluation) call [`LinkSummary::analyze_exact`].

use crate::levelshift::{Episode, LevelShiftConfig};
use crate::mask::{detect_level_shifts_masked, DEFAULT_REJECT};
use manic_stats::{fnv1a, FNV1A_OFFSET};
use manic_tsdb::quality::QualityFlags;
use manic_tsdb::{Aggregate, BitSet, SeriesKey, Store};

/// §4.2's elevation criterion: a bin more than this far above the window
/// baseline counts as elevated for the sentinel.
pub const ELEVATION_MS: f64 = 7.0;

fn div_ceil_i64(x: i64, d: i64) -> i64 {
    debug_assert!(d > 0);
    x.div_euclid(d) + i64::from(x.rem_euclid(d) != 0)
}

/// Rolling dense-bin summary of one link's far-end min-RTT series.
///
/// The ring covers absolute bins `[hi_bin - cap, hi_bin)`; bin `b` lives in
/// slot `b.rem_euclid(cap)`. Empty bins hold `f64::INFINITY` in `mins` and
/// a clear `present` bit.
#[derive(Debug, Clone)]
pub struct LinkSummary {
    bin_secs: i64,
    cap: usize,
    /// One past the newest covered absolute bin.
    hi_bin: i64,
    /// Per-bin minimum (`INFINITY` = no samples).
    mins: Vec<f64>,
    /// Per-bin OR of quality flags.
    flags: Vec<QualityFlags>,
    /// Which bins hold at least one sample.
    present: BitSet,
    // --- sentinel / carried-verdict state (not part of the fingerprint) ---
    /// Baseline minimum captured at the last exact analysis.
    base_min: f64,
    /// Consecutive elevated present bins ending at `scanned_to`.
    elev_run: u32,
    armed: bool,
    /// First bin the sentinel has not yet examined.
    scanned_to: i64,
    carried: Option<bool>,
    /// Exact analyses this summary has run (for speedup accounting).
    pub analyses: u64,
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
            mins: vec![f64::INFINITY; window_bins],
            flags: vec![0; window_bins],
            present: BitSet::with_len(window_bins),
            base_min: f64::INFINITY,
            elev_run: 0,
            armed: false,
            scanned_to: div_ceil_i64(hi_end, bin_secs) - window_bins as i64,
            carried: None,
            analyses: 0,
        }
    }

    /// Summary backfilled from the store over the trailing window ending at
    /// `hi_end`. This is the canonical constructor: the ring starts equal
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
        let from = (s.hi_bin - s.cap as i64) * bin_secs;
        let to = s.hi_bin * bin_secs;
        let mut bins = Vec::new();
        let mut qual = Vec::new();
        store.downsample_dense_into(key, from, to, bin_secs, Aggregate::Min, &mut bins);
        store.quality_dense_into(key, from, to, bin_secs, &mut qual);
        for (i, (v, q)) in bins.iter().zip(&qual).enumerate() {
            let b = s.hi_bin - s.cap as i64 + i as i64;
            let slot = b.rem_euclid(s.cap as i64) as usize;
            if let Some(v) = v {
                s.mins[slot] = *v;
                s.present.set(slot);
            }
            s.flags[slot] = *q;
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
    fn slot(&self, b: i64) -> usize {
        b.rem_euclid(self.cap as i64) as usize
    }

    #[inline]
    fn lo_bin(&self) -> i64 {
        self.hi_bin - self.cap as i64
    }

    /// Advance the window so it ends at `hi_end`, expiring bins that fall
    /// out the back. O(bins advanced), never more than one full ring.
    pub fn advance_to(&mut self, hi_end: i64) {
        let new_hi = div_ceil_i64(hi_end, self.bin_secs);
        if new_hi <= self.hi_bin {
            return;
        }
        let stepped = new_hi - self.hi_bin;
        if stepped >= self.cap as i64 {
            self.mins.fill(f64::INFINITY);
            self.flags.fill(0);
            self.present.clear_all();
        } else {
            // Slots entering at the top previously held the bins expiring
            // at the bottom.
            for b in self.hi_bin..new_hi {
                let slot = self.slot(b);
                self.mins[slot] = f64::INFINITY;
                self.flags[slot] = 0;
                self.present.clear(slot);
            }
        }
        self.hi_bin = new_hi;
        self.scanned_to = self.scanned_to.max(self.lo_bin());
        crate::obs::metrics().summary_bins_advanced.add(stepped.min(self.cap as i64) as u64);
    }

    /// Fold one committed sample into its bin. Samples older than the
    /// window are ignored; a sample past `hi_bin` (a rate-budget slot that
    /// spilled over the round boundary) extends the window forward so the
    /// ring never silently diverges from the store.
    pub fn observe_sample(&mut self, t: i64, v: f64) {
        let b = t.div_euclid(self.bin_secs);
        if b >= self.hi_bin {
            self.advance_to((b + 1) * self.bin_secs);
        }
        if b < self.lo_bin() {
            return;
        }
        let slot = self.slot(b);
        self.mins[slot] = self.mins[slot].min(v);
        self.present.set(slot);
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
        for b in b0..b1 {
            let slot = self.slot(b);
            self.flags[slot] |= fl;
        }
    }

    /// Can the ring serve a dense read over `[from, to)`? Requires
    /// bin-aligned bounds fully inside the window.
    pub fn can_serve(&self, from: i64, to: i64) -> bool {
        from < to
            && from.rem_euclid(self.bin_secs) == 0
            && to.rem_euclid(self.bin_secs) == 0
            && from.div_euclid(self.bin_secs) >= self.lo_bin()
            && to.div_euclid(self.bin_secs) <= self.hi_bin
    }

    /// Copy the dense window `[from, to)` out of the ring, into the same
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
            let slot = self.slot(b);
            bins.push(self.present.get(slot).then_some(self.mins[slot]));
            qual.push(self.flags[slot]);
        }
        crate::obs::metrics().summary_windows_served.inc();
    }

    /// Exact masked level-shift detection over `[from, to)`, served from
    /// the ring. Identical output to running `detect_level_shifts_masked`
    /// on the store's dense view (the canonical invariant).
    pub fn analyze_exact(&mut self, from: i64, to: i64, cfg: &LevelShiftConfig) -> Vec<Episode> {
        let mut bins = Vec::new();
        let mut qual = Vec::new();
        self.dense_into(from, to, &mut bins, &mut qual);
        self.analyses += 1;
        crate::obs::metrics().summary_exact_analyses.inc();
        // Refresh the sentinel baseline: minimum over present unmasked bins.
        self.base_min = bins
            .iter()
            .zip(&qual)
            .filter(|&(_, &q)| q & DEFAULT_REJECT == 0)
            .filter_map(|(v, _)| *v)
            .fold(f64::INFINITY, f64::min);
        detect_level_shifts_masked(&bins, &qual, DEFAULT_REJECT, cfg)
    }

    /// Sentinel-gated verdict for the window `[from, to)`: scan only the
    /// bins appended since the last call, re-running the exact detector
    /// only when the elevation sentinel arms or disarms (or on first use).
    /// Between analyses the last exact verdict is carried; exactness at an
    /// arbitrary instant requires [`Self::analyze_exact`].
    pub fn refresh(&mut self, from: i64, to: i64, cfg: &LevelShiftConfig) -> bool {
        debug_assert!(self.can_serve(from, to));
        let arm_at = (cfg.l / 2).max(2) as u32;
        let b1 = to.div_euclid(self.bin_secs);
        let start = self.scanned_to.max(from.div_euclid(self.bin_secs));
        for b in start..b1 {
            let slot = self.slot(b);
            let masked = self.flags[slot] & DEFAULT_REJECT != 0;
            if !masked && self.present.get(slot) && self.mins[slot] > self.base_min + ELEVATION_MS
            {
                self.elev_run += 1;
            } else {
                self.elev_run = 0;
            }
        }
        self.scanned_to = self.scanned_to.max(b1);
        let armed_now = self.elev_run >= arm_at;
        if self.carried.is_none() || armed_now != self.armed {
            let verdict = !self.analyze_exact(from, to, cfg).is_empty();
            self.carried = Some(verdict);
        } else {
            crate::obs::metrics().summary_verdicts_carried.inc();
        }
        self.armed = armed_now;
        self.carried.unwrap_or(false)
    }

    /// Content fingerprint: FNV-1a over the window's dense content in
    /// chronological bin order, plus the window geometry. Deliberately
    /// excludes sentinel/carried state and any trace of *when* the summary
    /// was created — two summaries over byte-identical stores fingerprint
    /// equal even if one was maintained incrementally for weeks and the
    /// other backfilled a minute ago.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV1A_OFFSET;
        h = fnv1a(h, &self.bin_secs.to_le_bytes());
        h = fnv1a(h, &(self.cap as u64).to_le_bytes());
        h = fnv1a(h, &self.hi_bin.to_le_bytes());
        for b in self.lo_bin()..self.hi_bin {
            let slot = self.slot(b);
            let present = self.present.get(slot);
            h = fnv1a(h, &[present as u8, self.flags[slot]]);
            if present {
                h = fnv1a(h, &self.mins[slot].to_bits().to_le_bytes());
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
        // Sentinel state must not leak into the fingerprint.
        let fp = a.fingerprint();
        a.refresh(2 * 300, 8 * 300, &LevelShiftConfig { l: 2, ..Default::default() });
        assert_eq!(a.fingerprint(), fp);
        // Content differences must.
        b.observe_sample(7 * 300 + 10, 1.0);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn refresh_carries_and_reanalyzes_on_transition() {
        let cfg = LevelShiftConfig::default();
        let nbins = 288i64;
        let mut s = LinkSummary::new(0, nbins as usize, 300);
        // Quiet day: first refresh analyzes, second carries.
        feed(&mut s, 0, &(0..nbins).map(|i| 20.0 + (i % 4) as f64 * 0.05).collect::<Vec<_>>());
        let hi = s.hi_bin() * 300;
        assert!(!s.refresh(hi - nbins * 300, hi, &cfg));
        assert_eq!(s.analyses, 1);
        s.advance_to(hi + 300);
        s.observe_sample(hi, 20.0);
        let hi2 = s.hi_bin() * 300;
        assert!(!s.refresh(hi2 - nbins * 300, hi2, &cfg));
        assert_eq!(s.analyses, 1, "quiet appends carry the verdict");
        // Sustained elevation arms the sentinel and forces an exact pass.
        for k in 0..48i64 {
            let t = hi2 + k * 300;
            s.advance_to(t + 300);
            s.observe_sample(t, 50.0);
        }
        let hi3 = s.hi_bin() * 300;
        let verdict = s.refresh(hi3 - nbins * 300, hi3, &cfg);
        assert!(s.analyses >= 2, "arming transition re-analyzes");
        assert!(verdict, "sustained 30ms shift detected");
    }

    #[test]
    fn analyze_exact_matches_direct_detection() {
        let cfg = LevelShiftConfig::default();
        let vals: Vec<f64> = (0..288)
            .map(|i| {
                let base = 20.0 + (i % 4) as f64 * 0.05;
                if (120..168).contains(&i) { base + 30.0 } else { base }
            })
            .collect();
        let mut s = LinkSummary::new(0, 288, 300);
        feed(&mut s, 0, &vals);
        let hi = s.hi_bin() * 300;
        let eps = s.analyze_exact(hi - 288 * 300, hi, &cfg);
        let bins: Vec<Option<f64>> = vals.iter().map(|&v| Some(v)).collect();
        let direct = detect_level_shifts_masked(&bins, &[0; 288], DEFAULT_REJECT, &cfg);
        assert_eq!(eps, direct);
        assert!(!eps.is_empty());
    }
}
