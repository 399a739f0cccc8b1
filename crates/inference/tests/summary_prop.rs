//! Property tests for the incremental `LinkSummary`: across random
//! append/annotate/gap sequences (including chaos-schedule-style quality
//! flags), the summary must stay equal to the store's dense view — also
//! when its window is far longer than the history, and when late ops land
//! before its first stored bin —, detection on its dense window must equal
//! batch detection on the store scan, and a summary backfilled mid-sequence
//! (the checkpoint-resume path) must converge to the incrementally-
//! maintained one bit-for-bit.
//!
//! Also compiled into the root `tests/summary_ring.rs`, so tier-1 runs it.

use manic_inference::{detect_level_shifts_masked, LevelShiftConfig, LinkSummary, DEFAULT_REJECT};
use manic_tsdb::{Aggregate, SeriesKey, Store};
use proptest::prelude::*;

const BIN: i64 = 300;
const CAP: usize = 32;

/// One round's worth of activity: samples at offsets within the round,
/// and an optional quality annotation over a sub-window.
type Round = (Vec<(i64, f64)>, Option<(i64, i64, u8)>);

fn arb_round() -> impl Strategy<Value = Round> {
    (
        prop::collection::vec((0i64..BIN, 1.0f64..100.0), 0..4),
        (0u8..2, 0i64..BIN, 1i64..BIN, 1u8..16),
    )
        .prop_map(|(samples, (has, off, len, fl))| {
            (samples, (has == 1).then_some((off, len, fl)))
        })
}

/// Replay `rounds` into a store and a `cap`-bin summary the way the
/// engine's commit does: store writes first, then window advance, then the
/// same staged ops folded into the summary. Returns
/// `(store, key, summary, end_time)`.
fn replay(
    rounds: &[Round],
    cap: usize,
    resume_at: Option<usize>,
) -> (Store, SeriesKey, LinkSummary, i64) {
    let store = Store::new();
    let key = SeriesKey::with_tags("tslp", &[("vp", "v1"), ("link", "10.0.0.1"), ("end", "far")]);
    let mut summary = LinkSummary::new(0, cap, BIN);
    for (r, (samples, annot)) in rounds.iter().enumerate() {
        let t0 = r as i64 * BIN;
        if let Some(&(off, len, fl)) = annot.as_ref() {
            let (f, t) = (t0 + off, (t0 + off + len).min(t0 + BIN));
            if t > f {
                store.annotate(&key, f, t, fl);
            }
        }
        for &(off, v) in samples {
            store.write(&key, t0 + off, v);
        }
        // A mid-sequence backfill models checkpoint resume: the summary is
        // recreated from the store at this round's commit and must converge
        // with the incrementally-maintained one.
        if resume_at == Some(r) {
            summary = LinkSummary::backfilled(&store, &key, t0 + BIN, cap, BIN);
        } else {
            summary.advance_to(t0 + BIN);
            if let Some(&(off, len, fl)) = annot.as_ref() {
                let (f, t) = (t0 + off, (t0 + off + len).min(t0 + BIN));
                if t > f {
                    summary.observe_flags(f, t, fl);
                }
            }
            for &(off, v) in samples {
                summary.observe_sample(t0 + off, v);
            }
        }
    }
    let end = rounds.len() as i64 * BIN;
    (store, key, summary, end)
}

/// Dense per-bin minimums and quality flags of one window.
type Dense = (Vec<Option<f64>>, Vec<u8>);

/// The summary's dense read over `[from, to)` next to the store's.
fn dense_views(
    summary: &LinkSummary,
    store: &Store,
    key: &SeriesKey,
    from: i64,
    to: i64,
) -> (Dense, Dense) {
    assert!(summary.can_serve(from, to), "[{from}, {to}) not servable");
    let (mut bins, mut qual) = (Vec::new(), Vec::new());
    summary.dense_into(from, to, &mut bins, &mut qual);
    let store_bins = store.downsample_dense(key, from, to, BIN, Aggregate::Min);
    let store_qual = store.quality_dense(key, from, to, BIN);
    ((bins, qual), (store_bins, store_qual))
}

proptest! {
    /// Ring content == store dense content over any servable window.
    #[test]
    fn ring_equals_store_dense(
        rounds in prop::collection::vec(arb_round(), 1..80),
        win in 1usize..CAP,
    ) {
        let (store, key, summary, end) = replay(&rounds, CAP, None);
        let from = (end - (win as i64).min(rounds.len() as i64) * BIN).max(end - CAP as i64 * BIN);
        let (ring, scan) = dense_views(&summary, &store, &key, from, end);
        prop_assert_eq!(ring, scan, "diverged over [{}, {})", from, end);
    }

    /// A 30-day window over a day-fragment of history serves the whole
    /// logical window like the store does: the bins before the history
    /// started read as empty.
    #[test]
    fn long_window_over_short_history_equals_store(
        rounds in prop::collection::vec(arb_round(), 24..25),
        resume_at in 0usize..48,
    ) {
        const LONG: usize = 8640;
        // Half the cases maintain the summary from round 0, half backfill it.
        let resume_at = (resume_at < 24).then_some(resume_at);
        let (store, key, summary, end) = replay(&rounds, LONG, resume_at);
        let from = end - LONG as i64 * BIN;
        let (ring, scan) = dense_views(&summary, &store, &key, from, end);
        prop_assert!(ring.0[..LONG - 24].iter().all(Option::is_none));
        prop_assert!(ring.1[..LONG - 24].iter().all(|&q| q == 0));
        prop_assert_eq!(ring, scan);
    }

    /// A sample or an annotation that lands before the summary's first
    /// stored bin (`lead` quiet rounds precede the first data) but inside
    /// its logical window extends the summary backwards; one that lands
    /// before the window is ignored. Either way it stays equal to the store.
    #[test]
    fn late_ops_before_first_stored_bin_equal_store(
        lead in 1usize..40,
        rounds in prop::collection::vec(arb_round(), 1..40),
        sample in (0usize..40, 0i64..BIN, 1.0f64..100.0),
        annot in (0usize..40, 0i64..BIN, 1i64..3 * BIN, 1u8..16),
    ) {
        let mut all: Vec<Round> = vec![(Vec::new(), None); lead];
        all.extend(rounds);
        let (store, key, mut summary, end) = replay(&all, CAP, None);
        let (r, off, v) = sample;
        let t = (r % lead) as i64 * BIN + off;
        store.write(&key, t, v);
        summary.observe_sample(t, v);
        let (r, off, len, fl) = annot;
        let f = (r % lead) as i64 * BIN + off;
        store.annotate(&key, f, f + len, fl);
        summary.observe_flags(f, f + len, fl);
        let (ring, scan) = dense_views(&summary, &store, &key, end - CAP as i64 * BIN, end);
        prop_assert_eq!(ring, scan);
    }

    /// Detection on the summary's dense window == batch detection on the
    /// store rescan.
    #[test]
    fn ring_detection_equals_batch_detection(
        rounds in prop::collection::vec(arb_round(), 24..80),
    ) {
        let (store, key, summary, end) = replay(&rounds, CAP, None);
        let from = end - (CAP as i64).min(rounds.len() as i64) * BIN;
        let cfg = LevelShiftConfig::default();
        let ((bins, qual), (store_bins, store_qual)) =
            dense_views(&summary, &store, &key, from, end);
        let incremental = detect_level_shifts_masked(&bins, &qual, DEFAULT_REJECT, &cfg);
        let batch = detect_level_shifts_masked(&store_bins, &store_qual, DEFAULT_REJECT, &cfg);
        prop_assert_eq!(incremental, batch);
    }

    /// A summary recreated by store backfill mid-sequence (checkpoint
    /// resume) fingerprints identically to one maintained incrementally
    /// from the start — creation time must be unobservable.
    #[test]
    fn backfilled_summary_converges(
        rounds in prop::collection::vec(arb_round(), 2..80),
        cut in 0usize..80,
    ) {
        let cut = cut % rounds.len();
        let (_, _, maintained, _) = replay(&rounds, CAP, None);
        let (_, _, resumed, _) = replay(&rounds, CAP, Some(cut));
        prop_assert_eq!(
            maintained.fingerprint(),
            resumed.fingerprint(),
            "backfill at round {} diverged", cut
        );
    }
}
