//! Tier-1 home of the tsdb property suite, plus the contracts of the sorted
//! store walk.
//!
//! `crates/tsdb/tests/prop.rs` (columnar ≡ AoS, WAL codec and frame round
//! trips, random-prefix replay, segment bit-flip recover-or-flag, one op
//! sequence under every fsync policy) is included here so `cargo test -q` at
//! the root runs it. On top of it: everything that
//! needs "the store in canonical order" — `content_hash`, `dump_records`,
//! the checkpoint's `write_snapshot` — goes through `Store::walk`, and these
//! tests pin what that order and those bytes are, against references that
//! use none of it.

#[path = "../crates/tsdb/tests/prop.rs"]
mod tsdb_props;

use manic_tsdb::segment::{self, crc32, SegmentWriter, MAX_PAYLOAD};
use manic_tsdb::wal::replay_segment_file_with;
use manic_tsdb::{format_key, quality, Point, SeriesKey, Store, TagSet};
use manic_vfs::RealVfs;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts this thread's allocations (tests run on parallel threads).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers to `System` for every operation; the only addition is a
// counter in a const-initialised, destructor-free thread local, which never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: same layout, forwarded unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn scratch_file(tag: &str) -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("manic-store-walk-{tag}-{}-{n}.seg", std::process::id()))
}

/// `content_hash` as its doc comment defines it, written against the read
/// API only: FNV-1a over, per key in sorted order, `"S" key t v` per point
/// then `"A" key from to flags` per window, `key` being `key.to_string()`.
/// `keys` must cover every key ever written; keys holding nothing add nothing.
fn reference_hash(store: &Store, keys: &[SeriesKey]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    let mut keys = keys.to_vec();
    keys.sort();
    keys.dedup();
    for key in &keys {
        let text = key.to_string();
        for p in store.query(key, i64::MIN, i64::MAX) {
            eat(b"S");
            eat(text.as_bytes());
            eat(&p.t.to_le_bytes());
            eat(&p.v.to_bits().to_le_bytes());
        }
        for (from, to, flags) in store.quality_windows(key) {
            eat(b"A");
            eat(text.as_bytes());
            eat(&from.to_le_bytes());
            eat(&to.to_le_bytes());
            eat(&[flags]);
        }
    }
    h
}

/// The snapshot as `write_snapshot`'s doc comment lays it out, written
/// against the read API only. Per key that holds anything, in sorted order,
/// `id` its ordinal there: if it has points, a frame `"K" id token` and the
/// points as 20-byte `id t v_bits` entries (all LE) in `"B" entries` frames
/// of at most `(MAX_PAYLOAD - 1) / 20` entries; then one text frame
/// `"A" token from to flags` per quality window. `keys` must cover every key
/// ever written (and no point may sit at `i64::MAX`, which `query` cannot
/// reach). Returns the file's bytes.
fn reference_snapshot(store: &Store, keys: &[SeriesKey]) -> Vec<u8> {
    let mut keys = keys.to_vec();
    keys.sort();
    keys.dedup();
    let contents = |key: &SeriesKey| (store.query(key, i64::MIN, i64::MAX), store.quality_windows(key));
    keys.retain(|key| contents(key) != (vec![], vec![]));
    let path = scratch_file("ref");
    let mut w = SegmentWriter::create_with(&RealVfs, &path).unwrap();
    for (id, key) in keys.iter().enumerate() {
        let id = (id as u32).to_le_bytes();
        let token = format_key(key).unwrap();
        let (points, windows) = contents(key);
        if !points.is_empty() {
            w.append(&[b"K", &id[..], token.as_bytes()].concat()).unwrap();
        }
        for chunk in points.chunks((MAX_PAYLOAD as usize - 1) / 20) {
            let mut frame = vec![b'B'];
            for p in chunk {
                frame.extend([&id[..], &p.t.to_le_bytes(), &p.v.to_bits().to_le_bytes()].concat());
            }
            w.append(&frame).unwrap();
        }
        for (from, to, flags) in windows {
            w.append(format!("A{token} {from} {to} {flags}").as_bytes()).unwrap();
        }
    }
    w.sync().unwrap();
    drop(w);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

/// What the checkpoint writes: `(file bytes, hash write_snapshot returned)`.
/// The file is left at the returned path for the caller to replay.
fn streamed_snapshot(store: &Store) -> (PathBuf, Vec<u8>, u64) {
    let path = scratch_file("stream");
    let mut w = SegmentWriter::create_with(&RealVfs, &path).unwrap();
    let hash = store.write_snapshot(&mut w).unwrap();
    w.sync().unwrap();
    drop(w);
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes, hash)
}

/// One store mutation of a random history; `key` indexes the case's key pool.
type Op = (usize, u8, i64, f64, i64, u8);

/// Apply a random history. The last key of the pool only ever receives
/// annotations, so an annotation-only series is (almost) always present.
fn apply(store: &Store, keys: &[SeriesKey], ops: &[Op]) {
    for &(key, kind, t, v, len, flags) in ops {
        let key_idx = key % keys.len();
        let key = &keys[key_idx];
        match kind {
            _ if key_idx == keys.len() - 1 => store.annotate(key, t, t + len, flags),
            0..=4 => store.write(key, t, v),
            // Out of order and duplicated inside one batch.
            5 => store.write_batch(key, &[Point::new(t, v), Point::new(t - 7, -v), Point::new(t, v)]),
            _ => store.annotate(key, t, t + len, flags),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random stores — names full of the key token's structural
    /// characters, duplicate and out-of-order timestamps, annotation-only
    /// series — at 1 and at 64 shards: the hash is the
    /// documented one, the snapshot is byte for byte the documented layout
    /// and carries that hash, replaying it rebuilds an equal store, and the
    /// series counts and lookups see exactly the keys that hold points.
    #[test]
    fn walk_feeds_hash_and_snapshot_identically(
        names in prop::collection::vec(
            ("[a-z ,=\\\\]{1,6}", "[a-z ,=\\\\]{1,4}", "[a-z0-9 ,=\\\\.]{1,6}", "[a-z]{1,3}"),
            2..7,
        ),
        ops in prop::collection::vec(
            (0usize..7, 0u8..8, -50i64..2_000, -1e6f64..1e6, 1i64..600, 1u8..16),
            0..80,
        ),
    ) {
        let keys: Vec<SeriesKey> = names
            .iter()
            .map(|(m, k, v, v2)| {
                SeriesKey::new(m.clone(), TagSet::from_pairs([(k.clone(), v.clone()), ("end".into(), v2.clone())]))
            })
            .collect();
        let narrow = Store::with_shards(1);
        let wide = Store::with_shards(64);
        apply(&narrow, &keys, &ops);
        apply(&wide, &keys, &ops);

        let want_hash = reference_hash(&narrow, &keys);
        prop_assert_eq!(narrow.content_hash(), want_hash, "hash is not the documented one");
        prop_assert_eq!(wide.content_hash(), want_hash, "shard count leaked into the hash");

        // A series is a key with points: annotation-only keys hold an
        // entry but are not counted or found.
        let mut series: Vec<(SeriesKey, usize)> = keys
            .iter()
            .map(|key| (key.clone(), narrow.query(key, i64::MIN, i64::MAX).len()))
            .filter(|&(_, points)| points > 0)
            .collect();
        series.sort_by(|a, b| a.0.cmp(&b.0));
        series.dedup_by(|a, b| a.0 == b.0);
        for store in [&narrow, &wide] {
            prop_assert_eq!(store.series_count(), series.len());
            prop_assert_eq!(store.point_count(), series.iter().map(|s| s.1).sum::<usize>());
            for key in &keys {
                let want: Vec<SeriesKey> =
                    series.iter().filter(|s| s.0.measurement == key.measurement).map(|s| s.0.clone()).collect();
                prop_assert_eq!(store.find_series(&key.measurement, &TagSet::new()), want);
            }
        }

        let want_bytes = reference_snapshot(&narrow, &keys);
        for store in [&narrow, &wide] {
            let (path, bytes, hash) = streamed_snapshot(store);
            prop_assert_eq!(hash, want_hash, "write_snapshot folded a different hash");
            prop_assert!(bytes == want_bytes, "snapshot is not the documented K/B/A layout");
            let rebuilt = Store::with_shards(4);
            let report = replay_segment_file_with(&RealVfs, &path, &rebuilt).unwrap();
            std::fs::remove_file(&path).unwrap();
            prop_assert!(!report.corrupted());
            prop_assert_eq!(report.decode_errors, 0);
            prop_assert_eq!(rebuilt.content_hash(), want_hash, "replay rebuilt a different store");
            prop_assert_eq!(rebuilt.point_count(), store.point_count());
        }
    }
}

/// A fixed store covering the awkward cases: escapes in names, duplicate
/// and out-of-order timestamps, a batch, coalescing windows, a tagless key,
/// an annotation-only series, extreme values.
fn golden_store() -> Store {
    let store = Store::with_shards(4);
    let far = SeriesKey::with_tags(
        "tslp",
        &[("vp", "acme nyc"), ("link", "10.0.0.1,eth=0"), ("end", "far")],
    );
    store.write(&far, 600, 21.5);
    store.write(&far, 300, 20.25);
    store.write(&far, 600, 22.0);
    store.write_batch(&far, &[Point::new(900, 1e-3), Point::new(1200, -0.0), Point::new(1500, 1e21)]);
    store.annotate(&far, 0, 300, quality::GAP);
    store.annotate(&far, 300, 600, quality::GAP);
    store.annotate(&far, 900, 1200, quality::SUSPECT_RATE_LIMITED | quality::RENUMBERED);
    let plain = SeriesKey::with_tags("loss", &[]);
    store.write(&plain, -5, 0.125);
    store.write(&plain, i64::MAX, f64::MIN_POSITIVE);
    let flags_only = SeriesKey::with_tags("tslp", &[("vp", "back\\slash"), ("end", "near")]);
    store.annotate(&flags_only, 100, 4000, quality::QUARANTINED);
    store
}

/// The hash is the one every implementation so far has produced and may
/// never move. The snapshot constants pin the snapshot layout of checkpoint
/// format versions 2 and 3 (3 changed only the meta): the frames, in sorted
/// key order, are `K B` (`loss`: two points in one `B` frame), `K B A A`
/// (six points in one frame; the two adjacent GAP windows coalesce into
/// one) and `A` (the annotation-only series: no points, so no `K`) — 442
/// bytes, a figure a Python transcription of the layout in
/// `write_snapshot`'s doc comment reproduces together with the CRC.
#[test]
fn golden_store_hash_and_snapshot_bytes_are_pinned() {
    const HASH: u64 = 0x13c0_f8fc_01d2_9f38;
    const SNAPSHOT_CRC: u32 = 0xab1c_6a6f;
    const SNAPSHOT_LEN: usize = 442;
    let store = golden_store();
    assert_eq!(store.content_hash(), HASH);
    let (path, bytes, hash) = streamed_snapshot(&store);
    assert_eq!(hash, HASH);
    let scan = segment::scan_with(&RealVfs, &path, 0, false).unwrap();
    let kinds: Vec<u8> = scan.records.iter().map(|(_, p)| p[0]).collect();
    assert_eq!(kinds, b"KBKBAAA");
    assert_eq!((bytes.len(), crc32(&bytes)), (SNAPSHOT_LEN, SNAPSHOT_CRC));
    let rebuilt = Store::with_shards(1);
    let report = replay_segment_file_with(&RealVfs, &path, &rebuilt).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!((report.samples, report.annotations, report.decode_errors), (8, 3, 0));
    assert_eq!(rebuilt.content_hash(), HASH);
}

/// A series longer than one `B` frame is split at the frame limit, the
/// split is the documented one, and nothing is lost across it.
#[test]
fn series_longer_than_one_frame_is_chunked() {
    let per_frame = (MAX_PAYLOAD as usize - 1) / 20;
    let long = SeriesKey::with_tags("tslp", &[("vp", "acme-nyc"), ("end", "far")]);
    let short = SeriesKey::with_tags("tslp", &[("vp", "acme-nyc"), ("end", "near")]);
    let store = Store::with_shards(2);
    let points: Vec<Point> = (0..2 * per_frame as i64 + 3).map(|i| Point::new(i * 300, i as f64 * 0.25)).collect();
    store.write_batch(&long, &points);
    store.write(&short, 0, 1.0);
    let (path, bytes, hash) = streamed_snapshot(&store);
    let scan = segment::scan_with(&RealVfs, &path, 0, false).unwrap();
    let frames: Vec<(u8, usize)> = scan.records.iter().map(|(_, p)| (p[0], p.len())).collect();
    let full = 1 + per_frame * 20;
    assert_eq!(frames[1..], [(b'B', full), (b'B', full), (b'B', 1 + 3 * 20), (b'K', frames[4].1), (b'B', 21)]);
    assert!(full <= MAX_PAYLOAD as usize);
    assert!(bytes == reference_snapshot(&store, &[long, short]), "not the documented layout");
    let rebuilt = Store::new();
    let report = replay_segment_file_with(&RealVfs, &path, &rebuilt).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!((report.samples, report.decode_errors), (points.len() as u64 + 1, 0));
    assert_eq!(rebuilt.content_hash(), hash);
    assert_eq!(hash, store.content_hash());
}

/// A store holding what no frame can carry fails the snapshot with
/// `InvalidInput` instead of writing something that would not replay.
#[test]
fn unencodable_contents_fail_the_snapshot() {
    let key = SeriesKey::with_tags("tslp", &[("vp", "x"), ("end", "far")]);
    let control = SeriesKey::with_tags("tslp", &[("vp", "x\ny"), ("end", "far")]);
    for poison in [
        (&key, f64::NAN),
        (&key, f64::INFINITY),
        (&key, f64::NEG_INFINITY),
        (&control, 1.0),
    ] {
        let store = Store::new();
        store.write(&key, 0, 1.0);
        store.write(poison.0, 300, poison.1);
        let path = scratch_file("poison");
        let mut w = SegmentWriter::create_with(&RealVfs, &path).unwrap();
        let err = store.write_snapshot(&mut w).expect_err("snapshot of an unencodable store");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{poison:?}: {err}");
        drop(w);
        std::fs::remove_file(&path).unwrap();
    }
}

/// The control loop annotates a series every round with the window that
/// follows the last one; once the series exists, that costs no allocation:
/// the key is not cloned and the adjacent same-flag window coalesces.
#[test]
fn adjacent_annotations_on_an_existing_series_allocate_nothing() {
    let store = Store::with_shards(16);
    let key = SeriesKey::with_tags("tslp", &[("vp", "acme-nyc"), ("link", "10.0.0.1"), ("end", "far")]);
    store.write(&key, 0, 1.0);
    store.annotate(&key, 0, 300, quality::QUARANTINED);
    let before = ALLOCS.with(Cell::get);
    for round in 1..=1_000 {
        store.annotate(&key, round * 300, (round + 1) * 300, quality::QUARANTINED);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(allocs, 0, "1,000 adjacent annotations made {allocs} allocations");
    assert_eq!(store.quality_windows(&key), vec![(0, 1_001 * 300, quality::QUARANTINED)]);
}

/// Hashing costs allocations per *series* (the sorted view, one key text),
/// never per point: a 100 k-point store hashes in far fewer allocations
/// than it has points.
#[test]
fn content_hash_allocates_per_series_not_per_point() {
    const SERIES: usize = 200;
    const POINTS: usize = 500;
    let store = Store::with_shards(16);
    for s in 0..SERIES {
        let key = SeriesKey::with_tags("tslp", &[("vp", "acme-nyc"), ("link", &format!("10.0.{s}.1")), ("end", "far")]);
        let points: Vec<Point> = (0..POINTS).map(|i| Point::new(i as i64 * 300, i as f64 * 0.5)).collect();
        store.write_batch(&key, &points);
        store.annotate(&key, 0, 300, quality::GAP);
    }
    let before = ALLOCS.with(Cell::get);
    let hash = std::hint::black_box(store.content_hash());
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_ne!(hash, 0);
    assert!(
        allocs < 20 * SERIES as u64,
        "content_hash made {allocs} allocations for {SERIES} series / {} points",
        SERIES * POINTS
    );
}
