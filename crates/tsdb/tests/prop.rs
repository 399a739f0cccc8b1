//! Property-based tests for the tsdb crate.

use manic_tsdb::segment::{self, SegmentWriter};
use manic_tsdb::wal::{replay_dir_range, replay_segment_file_with};
use manic_tsdb::{
    Aggregate, FsyncPolicy, Point, Series, SeriesKey, SeriesSlot, Store, TagSet, Wal, WalPosition,
    WalRecord,
};
use manic_vfs::RealVfs;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A scratch path no other case (or test binary) shares.
fn scratch(tag: &str) -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let p = std::env::temp_dir().join(format!("manic-prop-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Journal `samples` of one series through a real log under `policy`, with a
/// sync barrier after every `epoch` of them (so the log holds several
/// `K`-then-`B` epochs), and return the live store and the one segment file.
fn journaled(
    policy: FsyncPolicy,
    key: &SeriesKey,
    samples: &[(i64, f64)],
    epoch: usize,
) -> (Store, PathBuf, PathBuf) {
    let dir = scratch("wal");
    let wal = Arc::new(Wal::open_with(&dir, policy, 1 << 30, manic_vfs::real()).unwrap());
    let live = Store::new();
    live.attach_wal(Arc::clone(&wal));
    for chunk in samples.chunks(epoch) {
        for &(t, v) in chunk {
            live.write(key, t, v);
        }
        wal.flush_and_sync().unwrap();
    }
    drop(wal);
    let mut segs = segment::list_segments_with(&RealVfs, &dir).unwrap();
    assert_eq!(segs.len(), 1);
    (live, dir, segs.pop().unwrap().1)
}

/// The policies whose writers differ: inline (`always`) and threaded.
const POLICIES: [FsyncPolicy; 2] = [FsyncPolicy::Always, FsyncPolicy::EveryN(8)];

/// Replay from the start of the log.
const START: WalPosition = WalPosition {
    segment: 0,
    offset: 0,
};

/// The seed's array-of-structs downsampling semantics: collect every bin's
/// values into a `Vec<f64>` in stored order, then aggregate the collection.
/// The columnar streaming fold must be value-identical (same fold order,
/// same partial sums), not merely approximately equal.
fn aos_reference_aggregate(vals: &[f64], agg: Aggregate) -> f64 {
    match agg {
        Aggregate::Min => vals.iter().cloned().fold(f64::INFINITY, f64::min),
        Aggregate::Max => vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        Aggregate::Mean => vals.iter().sum::<f64>() / vals.len() as f64,
        Aggregate::Sum => vals.iter().sum(),
        Aggregate::Count => vals.len() as f64,
        Aggregate::Last => *vals.last().unwrap(),
    }
}

fn arb_aggregate() -> impl Strategy<Value = Aggregate> {
    (0u8..6).prop_map(|i| match i {
        0 => Aggregate::Min,
        1 => Aggregate::Max,
        2 => Aggregate::Mean,
        3 => Aggregate::Sum,
        4 => Aggregate::Count,
        _ => Aggregate::Last,
    })
}

proptest! {
    /// downsample(Min) output is <= every raw sample inside its bin and is a
    /// member of the bin.
    #[test]
    fn downsample_min_is_bin_minimum(
        pts in prop::collection::vec((0i64..10_000, -1e6f64..1e6), 1..200),
        bin in 1i64..1000,
    ) {
        let mut s = Series::new();
        for &(t, v) in &pts {
            s.push(t, v);
        }
        for Point { t: bin_start, v } in s.downsample(0, 10_000, bin, Aggregate::Min) {
            let in_bin: Vec<f64> = pts
                .iter()
                .filter(|(t, _)| *t >= bin_start && *t < bin_start + bin)
                .map(|&(_, v)| v)
                .collect();
            prop_assert!(!in_bin.is_empty());
            let min = in_bin.iter().cloned().fold(f64::INFINITY, f64::min);
            prop_assert_eq!(v, min);
        }
    }

    /// The series stays sorted no matter the insertion order.
    #[test]
    fn series_always_sorted(pts in prop::collection::vec((0i64..1000, -10.0f64..10.0), 0..100)) {
        let mut s = Series::new();
        for &(t, v) in &pts {
            s.push(t, v);
        }
        let ts: Vec<i64> = s.all().iter().map(|p| p.t).collect();
        prop_assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(s.len(), pts.len());
    }

    /// range(start, end) returns exactly the points in the half-open window.
    #[test]
    fn range_matches_linear_filter(
        pts in prop::collection::vec((0i64..1000, -10.0f64..10.0), 0..100),
        start in 0i64..1000,
        len in 0i64..1000,
    ) {
        let mut s = Series::new();
        for &(t, v) in &pts {
            s.push(t, v);
        }
        let end = start + len;
        let got = s.range(start, end).len();
        let expected = pts.iter().filter(|(t, _)| *t >= start && *t < end).count();
        prop_assert_eq!(got, expected);
    }

    /// Hostile names — structural characters, backslashes, spaces — either
    /// format to a token that parses back to the same key or are rejected at
    /// format time. No silently unparseable token is ever produced.
    #[test]
    fn key_token_roundtrips_or_rejects_hostile_names(
        meas in "[a-z ,=\\\\]{1,8}",
        tags in prop::collection::vec(("[a-z ,=\\\\]{1,5}", "[a-z0-9 ,=\\\\._-]{1,8}"), 0..3),
    ) {
        let key = SeriesKey::new(
            meas,
            TagSet::from_pairs(tags.iter().map(|(k, v)| (k.clone(), v.clone()))),
        );
        if let Ok(token) = manic_tsdb::format_key(&key) {
            prop_assert_eq!(manic_tsdb::parse_key(&token).unwrap(), key, "token: {}", token);
        }
    }

    /// The key-token parser never panics, whatever the input.
    #[test]
    fn parse_key_never_panics(s in "[ -~]{0,80}") {
        let _ = manic_tsdb::parse_key(&s);
    }

    /// Arbitrary bytes never panic the record decoder, nor — as the body of
    /// a `K` or a `B` frame, defined key or not — the replay that reads them.
    #[test]
    fn wal_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..120)) {
        let _ = WalRecord::decode(&bytes);
        let path = scratch("frames").with_extension("seg");
        let mut w = SegmentWriter::create_with(&RealVfs, &path).unwrap();
        let frame = |kind: u8, body: &[u8]| [&[kind], body].concat();
        w.append(&frame(b'B', &bytes)).unwrap();
        w.append(&frame(b'K', &bytes)).unwrap();
        // Ids 0 and whatever the bytes start with now name a real series.
        w.append(&frame(b'K', b"\0\0\0\0tslp,vp=v1")).unwrap();
        w.append(&frame(b'B', &bytes)).unwrap();
        w.sync().unwrap();
        drop(w);
        let store = Store::new();
        let report = replay_segment_file_with(&RealVfs, &path, &store).unwrap();
        prop_assert!(report.samples <= 2 * (bytes.len() / 20) as u64);
        prop_assert_eq!(store.point_count() as u64, report.samples);
        std::fs::remove_file(&path).unwrap();
    }

    /// encode -> decode is the identity for an annotation, the record that
    /// has a text form, and samples survive their `K`/`B` frames bit for bit.
    #[test]
    fn wal_record_roundtrip(
        link in "[a-z0-9.]{1,12}",
        points in prop::collection::vec((-1_000_000i64..1_000_000, -1e9f64..1e9), 1..40),
        from in -1000i64..1000,
        len in 1i64..1000,
        flags in 1u8..16,
    ) {
        let key = SeriesKey::with_tags("tslp", &[("vp", "v1"), ("link", &link)]);
        let rec = WalRecord::Annotate { key: key.clone(), from, to: from + len, flags };
        let enc = rec.encode().expect("clean names encode");
        let dec = WalRecord::decode(&enc).expect("own encoding decodes");
        prop_assert_eq!(dec, rec);
        let sample = WalRecord::Sample { key: key.clone(), point: Point::new(points[0].0, points[0].1) };
        prop_assert!(sample.encode().is_err(), "a sample has no record form");

        let store = Store::new();
        let other = SeriesKey::with_tags("tslp", &[("vp", "v 2"), ("link", &link)]);
        for (i, &(t, v)) in points.iter().enumerate() {
            store.write(if i % 3 == 0 { &other } else { &key }, t, v);
        }
        let path = scratch("kb").with_extension("seg");
        let mut w = SegmentWriter::create_with(&RealVfs, &path).unwrap();
        store.write_snapshot(&mut w).unwrap();
        w.sync().unwrap();
        drop(w);
        let rebuilt = Store::new();
        let report = replay_segment_file_with(&RealVfs, &path, &rebuilt).unwrap();
        prop_assert_eq!(report.samples, points.len() as u64);
        prop_assert_eq!(report.decode_errors, 0);
        for k in [&key, &other] {
            let (got, want) = (rebuilt.query(k, i64::MIN, i64::MAX), store.query(k, i64::MIN, i64::MAX));
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!((g.t, g.v.to_bits()), (w.t, w.v.to_bits()));
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Any prefix of a log segment replays cleanly, whichever writer made
    /// it: at worst the final frame is fenced as torn, never a panic or a
    /// half-applied frame, and what was applied is a prefix of the samples.
    #[test]
    fn random_segment_prefix_always_replays(
        samples in prop::collection::vec((0i64..10_000, -1e6f64..1e6), 1..30),
        epoch in 1usize..12,
        cut_back in 0usize..400,
    ) {
        let key = SeriesKey::with_tags("tslp", &[("vp", "v1"), ("link", "1.2.3.4")]);
        for policy in POLICIES {
            let (_live, dir, path) = journaled(policy, &key, &samples, epoch);
            let full = std::fs::metadata(&path).unwrap().len();
            let cut = full.saturating_sub(cut_back as u64);
            std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(cut).unwrap();

            let store = Store::new();
            let report = replay_dir_range(&RealVfs, &dir, &store, START, None).unwrap();
            prop_assert!(report.samples <= samples.len() as u64);
            prop_assert!(report.torn_records <= 1);
            prop_assert_eq!(report.decode_errors, 0, "{}: a prefix never orphans a B frame", policy);
            if cut >= full {
                prop_assert_eq!(report.samples, samples.len() as u64, "untouched file replays fully");
                prop_assert_eq!(report.torn_records, 0);
            }
            // Replay applied a prefix of the sample sequence, in order.
            let prefix = Store::new();
            for &(t, v) in samples.iter().take(report.samples as usize) {
                prefix.write(&key, t, v);
            }
            prop_assert_eq!(store.content_hash(), prefix.content_hash(), "{}", policy);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Flipping any single bit in a log segment is recover-or-flag, never a
    /// panic and never silent divergence, whichever writer made it: every
    /// point replay applies is one of the original samples, and a store
    /// that came back short — a lost `K` frame orphans its epoch's `B`
    /// frames — comes with a report that says so.
    #[test]
    fn segment_bit_flip_recovers_or_flags(
        samples in prop::collection::vec((0i64..10_000, -1e6f64..1e6), 1..30),
        epoch in 1usize..12,
        flip in 0usize..1_000_000,
    ) {
        let key = SeriesKey::with_tags("tslp", &[("vp", "v1"), ("link", "1.2.3.4")]);
        for policy in POLICIES {
            let (live, dir, path) = journaled(policy, &key, &samples, epoch);
            let mut bytes = std::fs::read(&path).unwrap();
            let bit = flip % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&path, &bytes).unwrap();

            let store = Store::new();
            let report = replay_dir_range(&RealVfs, &dir, &store, START, None).unwrap();
            // A CRC-intact frame must still carry original samples — a
            // flipped-yet-accepted payload would be silent corruption.
            let mut left: Vec<(i64, u64)> = samples.iter().map(|&(t, v)| (t, v.to_bits())).collect();
            for p in store.query(&key, i64::MIN, i64::MAX) {
                let at = left.iter().position(|&s| s == (p.t, p.v.to_bits()));
                prop_assert!(at.is_some(), "{}: replay invented ({}, {})", policy, p.t, p.v);
                left.swap_remove(at.unwrap());
            }
            prop_assert!(store.series_count() <= 1, "{}: replay invented a series", policy);
            let flagged = report.corrupted() || report.torn_records > 0;
            prop_assert!(flagged, "{}: a flipped bit went unnoticed: {:?}", policy, report);
            if report.decode_errors > 0 {
                prop_assert!(report.corrupted(), "{}: orphaned samples unflagged: {:?}", policy, report);
            }
            if left.is_empty() {
                // Nothing lost: the flip hit a frame replay can do without
                // (a re-defined key), and the data is all there. The GAP
                // fence written over the damage is the only difference.
                prop_assert_eq!(store.point_count(), live.point_count());
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Columnar downsampling is value-identical to the seed's AoS
    /// collect-then-aggregate model, for every aggregate.
    #[test]
    fn downsample_matches_aos_reference(
        pts in prop::collection::vec((0i64..5_000, -1e6f64..1e6), 1..150),
        bin in 1i64..700,
        agg in arb_aggregate(),
        start in 0i64..2_000,
        len in 1i64..5_000,
    ) {
        let mut s = Series::new();
        for &(t, v) in &pts {
            s.push(t, v);
        }
        let end = start + len;
        // Reference: walk the stored points (insertion-stable sort order —
        // the order the old interleaved layout iterated in), bucket into
        // bins, aggregate each bucket as a collected Vec.
        let stored = s.all();
        let mut expected: Vec<(i64, f64)> = Vec::new();
        let mut bin_start = start;
        while bin_start < end {
            let bin_end = (bin_start + bin).min(end);
            let vals: Vec<f64> = stored
                .iter()
                .filter(|p| p.t >= bin_start && p.t < bin_end)
                .map(|p| p.v)
                .collect();
            if !vals.is_empty() {
                expected.push((bin_start, aos_reference_aggregate(&vals, agg)));
            }
            bin_start += bin;
        }
        let got: Vec<(i64, f64)> =
            s.downsample(start, end, bin, agg).iter().map(|p| (p.t, p.v)).collect();
        prop_assert_eq!(got.len(), expected.len());
        for (&(gt, gv), &(et, ev)) in got.iter().zip(&expected) {
            prop_assert_eq!(gt, et);
            prop_assert_eq!(
                gv.to_bits(), ev.to_bits(),
                "bin {}: columnar {} != reference {} ({:?})", gt, gv, ev, agg
            );
        }
        // The dense variant must agree bin-for-bin with the sparse one.
        let dense = s.downsample_dense(start, end, bin, agg);
        let filled: Vec<(i64, f64)> = dense
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|v| (start + i as i64 * bin, v)))
            .collect();
        prop_assert_eq!(filled, got);
    }

    /// `downsample_dense_into` / `quality_dense_into` are pure functions of
    /// the window — a dirty reused buffer must not leak previous contents.
    #[test]
    fn dense_into_ignores_buffer_residue(
        pts in prop::collection::vec((0i64..3_000, 0.0f64..100.0), 0..60),
        windows in prop::collection::vec((0i64..3_000, 1i64..600, 1u8..16), 0..8),
        bin in 1i64..400,
        agg in arb_aggregate(),
    ) {
        let store = Store::new();
        let key = SeriesKey::with_tags("m", &[("a", "b")]);
        for &(t, v) in &pts {
            store.write(&key, t, v);
        }
        for &(f, len, fl) in &windows {
            store.annotate(&key, f, f + len, fl);
        }
        let fresh_bins = store.downsample_dense(&key, 0, 3_000, bin, agg);
        let fresh_qual = store.quality_dense(&key, 0, 3_000, bin);
        // Dirty buffers: wrong length, stale contents.
        let mut bins = vec![Some(f64::MAX); 7];
        let mut qual = vec![0xffu8; 1_000];
        store.downsample_dense_into(&key, 0, 3_000, bin, agg, &mut bins);
        store.quality_dense_into(&key, 0, 3_000, bin, &mut qual);
        prop_assert_eq!(bins, fresh_bins);
        prop_assert_eq!(qual, fresh_qual);
    }

    /// Dense downsampling covers every bin exactly once.
    #[test]
    fn dense_bins_cover_window(
        pts in prop::collection::vec((0i64..5000, 0.0f64..10.0), 0..50),
        bin in 1i64..500,
    ) {
        let store = Store::new();
        let key = SeriesKey::with_tags("m", &[("a", "b")]);
        for &(t, v) in &pts {
            store.write(&key, t, v);
        }
        let dense = store.downsample_dense(&key, 0, 5000, bin, Aggregate::Min);
        let expected_bins = (5000 + bin - 1) / bin;
        prop_assert_eq!(dense.len() as i64, expected_bins);
        let filled = dense.iter().filter(|b| b.is_some()).count();
        let sparse = store.downsample(&key, 0, 5000, bin, Aggregate::Min).len();
        prop_assert_eq!(filled, sparse);
    }
}

/// One step of a journaled history; `key` indexes the case's key pool.
type WalOp = (u8, usize, i64, f64, i64, u8);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One op sequence — writes, batches, annotations, explicit barriers,
    /// with and without segment rotation — journaled under each fsync
    /// policy: every log holds nothing but `K`/`B`/`A` frames, and
    /// replaying it from the start, or from any barrier's position onto the
    /// store as it stood at that barrier, rebuilds the live store's content
    /// hash with no decode error.
    #[test]
    fn every_policy_journals_the_same_replayable_frames(
        names in prop::collection::vec(("[a-z ,=\\\\]{1,6}", "[a-z0-9 ,=\\\\.]{1,6}"), 1..5),
        ops in prop::collection::vec(
            (0u8..10, 0usize..5, -50i64..2_000, -1e6f64..1e6, 1i64..600, 1u8..16),
            1..60,
        ),
        rotate_small in any::<bool>(),
    ) {
        let keys: Vec<SeriesKey> = names
            .iter()
            .map(|(m, v)| SeriesKey::new(m.clone(), TagSet::from_pairs([("link".to_string(), v.clone())])))
            .collect();
        let ops: &[WalOp] = &ops;
        let mut hashes = Vec::new();
        for policy in [FsyncPolicy::Always, FsyncPolicy::EveryN(8), FsyncPolicy::Never] {
            let dir = scratch("policies");
            let rotate = if rotate_small { 300 } else { 1 << 30 };
            let wal = Arc::new(Wal::open_with(&dir, policy, rotate, manic_vfs::real()).unwrap());
            let live = Store::new();
            live.attach_wal(Arc::clone(&wal));
            // (position, the store's contents there) at every barrier.
            let mut barriers: Vec<(WalPosition, Vec<WalRecord>)> = Vec::new();
            for &(kind, key, t, v, len, flags) in ops {
                let key = &keys[key % keys.len()];
                match kind {
                    0..=3 => live.write(key, t, v),
                    4..=5 => live.write_batch(
                        key,
                        &[Point::new(t, v), Point::new(t - 7, -v), Point::new(t + len, v)],
                    ),
                    6..=7 => live.annotate(key, t, t + len, flags),
                    _ => {
                        wal.flush_and_sync().unwrap();
                        barriers.push((wal.position(), live.dump_records()));
                    }
                }
            }
            wal.flush_and_sync().unwrap();
            drop(wal);

            for (_, path) in segment::list_segments_with(&RealVfs, &dir).unwrap() {
                let scan = segment::scan_with(&RealVfs, &path, 0, false).unwrap();
                prop_assert!(!scan.torn && scan.quarantined.is_empty());
                for (_, payload) in &scan.records {
                    prop_assert!(b"KBA".contains(&payload[0]), "{}: frame kind {:?}", policy, payload[0] as char);
                }
            }
            let want = live.content_hash();
            let full = Store::new();
            let report = replay_dir_range(&RealVfs, &dir, &full, START, None).unwrap();
            prop_assert_eq!(report.decode_errors, 0, "{}: full replay", policy);
            prop_assert!(!report.corrupted() && report.torn_records == 0);
            prop_assert_eq!(full.content_hash(), want, "{}: full replay diverged", policy);
            for (n, (pos, contents)) in barriers.iter().enumerate() {
                let tail = Store::new();
                contents.iter().for_each(|rec| tail.apply_record(rec));
                let report = replay_dir_range(&RealVfs, &dir, &tail, *pos, None).unwrap();
                prop_assert_eq!(report.decode_errors, 0, "{}: barrier {} left a key undefined", policy, n);
                prop_assert_eq!(tail.content_hash(), want, "{}: replay from barrier {} diverged", policy, n);
            }
            hashes.push(want);
            std::fs::remove_dir_all(&dir).unwrap();
        }
        prop_assert!(hashes.windows(2).all(|w| w[0] == w[1]));
    }
}

/// One step of a slot-vs-key history: `(kind, key, t, v, len, flags)`;
/// `key` indexes the case's key pool, and an odd `kind` goes through the
/// slot where the op has a slot form.
type SlotOp = (u8, usize, i64, f64, i64, u8);

/// Everything a reader or the disk can see of a journaled store, WAL bytes
/// included (read after the log is synced and closed).
#[derive(Debug, PartialEq)]
struct Observed {
    hash: u64,
    records: Vec<WalRecord>,
    series: usize,
    points: usize,
    found: Vec<Vec<SeriesKey>>,
    snapshot: Vec<u8>,
    wal: Vec<Vec<u8>>,
}

fn observe(store: &Store, wal: Arc<Wal>, dir: &std::path::Path, keys: &[SeriesKey]) -> Observed {
    wal.flush_and_sync().unwrap();
    drop(wal);
    let snap = scratch("slot-snap");
    let mut w = SegmentWriter::create_with(&RealVfs, &snap).unwrap();
    let hash = store.write_snapshot(&mut w).unwrap();
    w.sync().unwrap();
    drop(w);
    let found = keys
        .iter()
        .flat_map(|key| {
            [TagSet::new(), key.tags.clone()].map(|f| store.find_series(&key.measurement, &f))
        })
        .collect();
    let observed = Observed {
        hash: store.content_hash(),
        records: store.dump_records(),
        series: store.series_count(),
        points: store.point_count(),
        found,
        snapshot: std::fs::read(&snap).unwrap(),
        wal: segment::list_segments_with(&RealVfs, dir)
            .unwrap()
            .into_iter()
            .map(|(_, path)| std::fs::read(path).unwrap())
            .collect(),
    };
    assert_eq!(observed.hash, hash, "write_snapshot folded another hash");
    std::fs::remove_file(&snap).unwrap();
    observed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Writing and annotating through a `SeriesSlot` is writing and
    /// annotating through its key. One op sequence — writes, batches,
    /// annotations (empty windows included), `annotate_all` — is applied to
    /// one journaled store by key and to another through a random mix of
    /// slots and keys, with some slots resolved before the first write and
    /// others mid-stream. The two must agree on everything observable: content
    /// hash, record dump, series and point counts, `find_series`,
    /// snapshot bytes and WAL bytes. A slot resolved for a key nothing
    /// writes must leave no trace.
    #[test]
    fn slot_writes_match_key_writes(
        names in prop::collection::vec(("[a-z]{1,3}", "[a-z0-9 ,=\\\\.]{1,4}"), 1..7),
        early in prop::collection::vec(any::<bool>(), 7..8),
        ops in prop::collection::vec(
            (0u8..20, 0usize..7, -50i64..2_000, -1e6f64..1e6, 0i64..600, 0u8..16),
            1..80,
        ),
    ) {
        let keys: Vec<SeriesKey> = names
            .iter()
            .map(|(m, v)| SeriesKey::new(m.clone(), TagSet::from_pairs([("link", v.clone())])))
            .collect();
        let open = |tag: &str| {
            let dir = scratch(tag);
            let wal = Wal::open_with(&dir, FsyncPolicy::Never, 1 << 30, manic_vfs::real()).unwrap();
            let wal = Arc::new(wal);
            let store = Store::with_shards(4);
            store.attach_wal(Arc::clone(&wal));
            (store, wal, dir)
        };
        let (by_key, key_wal, key_dir) = open("slot-ref");
        let (by_slot, slot_wal, slot_dir) = open("slot");
        // Slots resolved up front, one of them for a key the ops may never
        // touch; the rest are resolved at their key's first use.
        let mut slots: Vec<Option<SeriesSlot>> = keys
            .iter()
            .zip(&early)
            .map(|(key, &early)| early.then(|| by_slot.slot(key)))
            .collect();
        let ops: &[SlotOp] = &ops;
        for &(kind, k, t, v, len, flags) in ops {
            let (kind, via_slot) = (kind / 2, kind % 2 == 1);
            let k = k % keys.len();
            let key = &keys[k];
            let slot = *slots[k].get_or_insert_with(|| by_slot.slot(key));
            prop_assert_eq!(by_slot.slot(key), slot, "a slot moved");
            let batch = [Point::new(t, v), Point::new(t - 7, -v), Point::new(t + len, v)];
            let points: &[Point] = match kind {
                0..=3 => &batch[..1],
                4..=5 => &batch,
                _ => &[],
            };
            match kind {
                0..=6 => {
                    by_key.write_batch(key, points);
                    if via_slot {
                        by_slot.write_batch_at(slot, points);
                    } else {
                        by_slot.write_batch(key, points);
                    }
                }
                7..=8 => {
                    by_key.annotate(key, t, t + len, flags);
                    if via_slot {
                        by_slot.annotate_at(slot, t, t + len, flags);
                    } else {
                        by_slot.annotate(key, t, t + len, flags);
                    }
                }
                _ => {
                    let n = by_key.annotate_all(t, t + len, flags);
                    prop_assert_eq!(n, by_slot.annotate_all(t, t + len, flags));
                }
            }
        }
        let want = observe(&by_key, key_wal, &key_dir, &keys);
        let got = observe(&by_slot, slot_wal, &slot_dir, &keys);
        prop_assert_eq!(got, want);
        std::fs::remove_dir_all(&key_dir).unwrap();
        std::fs::remove_dir_all(&slot_dir).unwrap();
    }
}
