//! The sharded series store.
//!
//! Points and quality windows live in per-key shards; anything that needs
//! the whole store in one canonical order — the content hash, the record
//! dump, the checkpoint snapshot — is a visitor over [`Store::walk`], one
//! sorted pass that copies nothing. The snapshot ([`Store::write_snapshot`],
//! checkpoint format version 2) is a segment of the write-ahead log's own
//! frames: a sample is a 20-byte entry of a `B` frame under its series' `K`
//! frame there as everywhere else on disk, so [`crate::wal`]'s replay is its
//! only reader.

use crate::key::{SeriesKey, TagSet};
use crate::lineproto::format_key;
use crate::quality::{QualityFlags, QualityLog};
use crate::segment::SegmentWriter;
use crate::series::{Aggregate, Point, Series};
use crate::wal::{
    encode_annotation_into, key_frame, push_sample, sample_chunks, sample_frame, Wal, WalRecord,
};
use manic_stats::{fnv1a, FNV1A_OFFSET};
use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::io;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Default shard count — the pre-planetary operating point.
const SHARDS: usize = 16;

/// Shard count sized to an expected far-link keyspace: roughly one shard per
/// 128 concurrently-written series, kept to a power of two between 16 and
/// 256. Planetary worlds (tens of thousands of observed links) get wider
/// stripes; the hand-built worlds keep the classic 16.
pub fn recommended_shards(expected_series: usize) -> usize {
    let want = (expected_series / 128).clamp(16, 256);
    want.next_power_of_two().min(256)
}

/// Seqlock-published most-recent sample of one series.
///
/// Writers (which are already serialized per series by the points shard
/// write lock) bump `seq` to odd, store the pair, bump back to even; readers
/// retry until they observe a stable even `seq`. Readers therefore never
/// touch a shard lock once they hold the cell — the serving layer's
/// `latest()` hot path proceeds even while ingest holds every shard write
/// lock.
#[derive(Debug, Default)]
pub struct LatestCell {
    /// Even = stable; zero = never written.
    seq: AtomicU64,
    t: AtomicI64,
    /// `f64::to_bits` of the value.
    bits: AtomicU64,
}

impl LatestCell {
    /// Publish a new latest sample. Callers must hold the per-series write
    /// exclusion (the points shard write lock) — the seqlock protocol
    /// assumes one writer at a time.
    fn publish(&self, t: i64, v: f64) {
        self.seq.fetch_add(1, Ordering::Release);
        self.t.store(t, Ordering::Relaxed);
        self.bits.store(v.to_bits(), Ordering::Relaxed);
        self.seq.fetch_add(1, Ordering::Release);
    }

    /// Timestamp of the published sample, or `i64::MIN` when never written.
    /// Only meaningful to the (exclusive) writer deciding whether a new
    /// sample supersedes the published one.
    fn writer_t(&self) -> i64 {
        if self.seq.load(Ordering::Relaxed) == 0 {
            i64::MIN
        } else {
            self.t.load(Ordering::Relaxed)
        }
    }

    /// Lock-free consistent read of the latest `(t, v)` pair.
    pub fn read(&self) -> Option<Point> {
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 == 0 {
                return None;
            }
            if s1 % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let t = self.t.load(Ordering::Relaxed);
            let bits = self.bits.load(Ordering::Relaxed);
            if self.seq.load(Ordering::Acquire) == s1 {
                return Some(Point::new(t, f64::from_bits(bits)));
            }
        }
    }
}

/// Cloneable handle onto one series' latest-sample cell; hot read loops
/// fetch it once and bypass even the lookup-map read lock thereafter.
pub type LatestHandle = Arc<LatestCell>;

/// Tag predicate for series selection: every listed pair must match.
pub type TagFilter = TagSet;

/// One series as `Store::walk` hands it to its visitor. Everything is
/// borrowed from the store: no point is copied to build it.
struct SeriesView<'a> {
    key: &'a SeriesKey,
    /// Timestamp column, ascending ([`Series::cols`]); empty for a series
    /// that only has annotations.
    ts: &'a [i64],
    /// Value column, index-aligned with `ts`.
    vs: &'a [f64],
    /// Quality windows `(from, to, flags)`, in insertion order.
    windows: &'a [(i64, i64, QualityFlags)],
}

impl SeriesView<'_> {
    /// The points, in stored order.
    fn points(&self) -> impl Iterator<Item = Point> + '_ {
        self.ts.iter().zip(self.vs).map(|(&t, &v)| Point::new(t, v))
    }
}

/// The running [`Store::content_hash`]: FNV-1a over the canonical byte
/// stream, fed one series at a time in walk order.
struct ContentHasher {
    h: u64,
    /// `key.to_string()` of the series being fed, rebuilt once per series.
    key_text: String,
}

impl ContentHasher {
    fn new() -> Self {
        ContentHasher { h: FNV1A_OFFSET, key_text: String::new() }
    }

    fn series(&mut self, s: &SeriesView<'_>) {
        let mut h = self.h;
        // The `Display` form, not the escaped `format_key` token a segment
        // carries: the hash predates escaping and must not move.
        self.key_text.clear();
        let _ = write!(self.key_text, "{}", s.key);
        let key = self.key_text.as_bytes();
        for p in s.points() {
            h = fnv1a(fnv1a(h, b"S"), key);
            h = fnv1a(fnv1a(h, &p.t.to_le_bytes()), &p.v.to_bits().to_le_bytes());
        }
        for &(from, to, flags) in s.windows {
            h = fnv1a(fnv1a(h, b"A"), key);
            h = fnv1a(fnv1a(h, &from.to_le_bytes()), &to.to_le_bytes());
            h = fnv1a(h, &[flags]);
        }
        self.h = h;
    }
}

/// Concurrent store of tagged time series.
///
/// Writers take a shard write lock only for their series' shard; analysis
/// queries take read locks, so steady-state ingest and read-side analytics do
/// not serialize against each other (the paper's backend ingests TSLP rounds
/// continuously while inference jobs run on a longer cadence).
///
/// ```
/// use manic_tsdb::{Aggregate, SeriesKey, Store};
///
/// let store = Store::new();
/// let key = SeriesKey::with_tags("tslp", &[("vp", "ark1"), ("end", "far")]);
/// for round in 0..12 {
///     store.write(&key, round * 300, 20.0 + (round % 3) as f64);
/// }
/// // The inference pre-processing step: minimum per 15-minute bin.
/// let bins = store.downsample(&key, 0, 3600, 900, Aggregate::Min);
/// assert_eq!(bins.len(), 4);
/// assert!(bins.iter().all(|p| p.v == 20.0));
/// ```
pub struct Store {
    shards: Vec<RwLock<HashMap<SeriesKey, Series>>>,
    /// Quality annotations, sharded like the points (see [`crate::quality`]).
    quality: Vec<RwLock<HashMap<SeriesKey, QualityLog>>>,
    /// Latest-sample cells, sharded like the points. The map lock is only
    /// taken to locate a cell; the cell itself is a seqlock (see
    /// [`LatestCell`]), so `latest()` readers never contend with ingest.
    latest: Vec<RwLock<HashMap<SeriesKey, LatestHandle>>>,
    /// Optional write-ahead log; when attached, every mutation is appended
    /// to it before being applied in memory.
    wal: OnceLock<Arc<Wal>>,
}

impl Default for Store {
    fn default() -> Self {
        Self::new()
    }
}

impl Store {
    pub fn new() -> Self {
        Self::with_shards(SHARDS)
    }

    /// A store striped over `n` shards (rounded up to at least 1). Shard
    /// count affects only contention, never contents: dumps, snapshots, and
    /// hashes iterate keys in sorted order regardless of striping.
    pub fn with_shards(n: usize) -> Self {
        let n = n.max(1);
        Store {
            shards: (0..n).map(|_| RwLock::new(HashMap::new())).collect(),
            quality: (0..n).map(|_| RwLock::new(HashMap::new())).collect(),
            latest: (0..n).map(|_| RwLock::new(HashMap::new())).collect(),
            wal: OnceLock::new(),
        }
    }

    /// Number of stripes this store was built with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Attach a write-ahead log; from here on every mutation is journaled
    /// before being applied. Attach *after* any replay into this store, or
    /// the replayed records would be logged again. The first attach wins.
    pub fn attach_wal(&self, wal: Arc<Wal>) {
        let _ = self.wal.set(wal);
    }

    /// The attached WAL, if any.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.get()
    }

    fn shard_index(&self, key: &SeriesKey) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    fn shard(&self, key: &SeriesKey) -> &RwLock<HashMap<SeriesKey, Series>> {
        &self.shards[self.shard_index(key)]
    }

    /// The latest cell of `key`, which lives in shard `si`, created on
    /// first use. Must be called while holding the points shard write lock
    /// for `key` so that cell publishes stay single-writer.
    fn latest_cell(&self, si: usize, key: &SeriesKey) -> LatestHandle {
        if let Some(cell) = self.latest[si].read().unwrap().get(key) {
            return Arc::clone(cell);
        }
        let mut map = self.latest[si].write().unwrap();
        Arc::clone(map.entry(key.clone()).or_default())
    }

    /// Append one point to a series, creating the series if needed.
    pub fn write(&self, key: &SeriesKey, t: i64, v: f64) {
        let si = self.shard_index(key);
        let mut shard = self.shards[si].write().unwrap();
        // The key is cloned only for a series' first point.
        let series = match shard.get_mut(key) {
            Some(series) => series,
            None => shard.entry(key.clone()).or_default(),
        };
        // Logged before applied; holding the shard lock across the enqueue
        // keeps WAL order identical to apply order within a series.
        if let Some(wal) = self.wal.get() {
            wal.append_sample(key, &series.wal_key_token, Point::new(t, v));
        }
        series.push(t, v);
        drop(shard);
        let cell = self.latest_cell(si, key);
        if t >= cell.writer_t() {
            cell.publish(t, v);
        }
    }

    /// Append many points to a series in one lock acquisition.
    pub fn write_batch(&self, key: &SeriesKey, points: &[Point]) {
        if points.is_empty() {
            return;
        }
        let si = self.shard_index(key);
        let mut shard = self.shards[si].write().unwrap();
        let series = match shard.get_mut(key) {
            Some(series) => series,
            None => shard.entry(key.clone()).or_default(),
        };
        if let Some(wal) = self.wal.get() {
            wal.append_samples(key, &series.wal_key_token, points);
        }
        let mut newest: Option<Point> = None;
        for p in points {
            series.push(p.t, p.v);
            if newest.is_none_or(|n| p.t >= n.t) {
                newest = Some(*p);
            }
        }
        let cell = self.latest_cell(si, key);
        if let Some(n) = newest {
            if n.t >= cell.writer_t() {
                cell.publish(n.t, n.v);
            }
        }
    }

    /// Most recent sample of one series without touching any shard write
    /// lock: the lookup takes a read lock on a dedicated cell map (never
    /// held by point ingest beyond first-write cell creation) and the cell
    /// itself is read via a seqlock. Reflects the highest-timestamp sample
    /// ever written, independent of retention trimming.
    pub fn latest(&self, key: &SeriesKey) -> Option<Point> {
        self.latest[self.shard_index(key)]
            .read()
            .unwrap()
            .get(key)
            .and_then(|cell| cell.read())
    }

    /// Cloneable handle for repeated [`Self::latest`]-style reads of one
    /// series; `None` until the series receives its first point.
    pub fn latest_handle(&self, key: &SeriesKey) -> Option<LatestHandle> {
        self.latest[self.shard_index(key)].read().unwrap().get(key).map(Arc::clone)
    }

    /// Number of distinct series.
    pub fn series_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap().len()).sum()
    }

    /// Total number of stored points.
    pub fn point_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap().values().map(Series::len).sum::<usize>())
            .sum()
    }

    /// All series keys for `measurement` whose tags match `filter`.
    pub fn find_series(&self, measurement: &str, filter: &TagFilter) -> Vec<SeriesKey> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.read().unwrap();
            for key in shard.keys() {
                if key.measurement == measurement && key.tags.matches(filter) {
                    out.push(key.clone());
                }
            }
        }
        out.sort();
        out
    }

    /// Raw points of one series in `[start, end)`.
    pub fn query(&self, key: &SeriesKey, start: i64, end: i64) -> Vec<Point> {
        let shard = self.shard(key).read().unwrap();
        shard.get(key).map(|s| s.range(start, end)).unwrap_or_default()
    }

    /// Downsampled view of one series (sparse: empty bins omitted).
    pub fn downsample(
        &self,
        key: &SeriesKey,
        start: i64,
        end: i64,
        bin_secs: i64,
        agg: Aggregate,
    ) -> Vec<Point> {
        let shard = self.shard(key).read().unwrap();
        shard
            .get(key)
            .map(|s| s.downsample(start, end, bin_secs, agg))
            .unwrap_or_default()
    }

    /// Dense downsampled view (one `Option<f64>` per bin across the window).
    pub fn downsample_dense(
        &self,
        key: &SeriesKey,
        start: i64,
        end: i64,
        bin_secs: i64,
        agg: Aggregate,
    ) -> Vec<Option<f64>> {
        let mut out = Vec::new();
        self.downsample_dense_into(key, start, end, bin_secs, agg, &mut out);
        out
    }

    /// [`Self::downsample_dense`] into a caller-owned buffer (cleared
    /// first): the per-round inference loop rescans thousands of link
    /// windows and must not pay one allocation per link per round.
    pub fn downsample_dense_into(
        &self,
        key: &SeriesKey,
        start: i64,
        end: i64,
        bin_secs: i64,
        agg: Aggregate,
        out: &mut Vec<Option<f64>>,
    ) {
        out.clear();
        if bin_secs <= 0 || end <= start {
            return;
        }
        let shard = self.shard(key).read().unwrap();
        match shard.get(key) {
            Some(s) => s.downsample_dense_into(start, end, bin_secs, agg, out),
            None => {
                let nbins = ((end - start) + bin_secs - 1) / bin_secs;
                out.resize(nbins as usize, None);
            }
        }
    }

    /// Materialize a downsampled rollup of every series of `measurement`
    /// matching `filter` into `target` (InfluxDB continuous-query style):
    /// each source series gets a same-tag series under the target
    /// measurement holding one aggregated point per bin. Returns the number
    /// of points written. The production deployment keeps raw five-minute
    /// TSLP samples on a short retention and hour-level rollups for the
    /// longitudinal dashboards; this is that mechanism.
    #[allow(clippy::too_many_arguments)]
    pub fn rollup(
        &self,
        measurement: &str,
        filter: &TagFilter,
        start: i64,
        end: i64,
        bin_secs: i64,
        agg: Aggregate,
        target: &str,
    ) -> usize {
        let mut written = 0;
        for key in self.find_series(measurement, filter) {
            let points = self.downsample(&key, start, end, bin_secs, agg);
            if points.is_empty() {
                continue;
            }
            let tkey = SeriesKey::new(target, key.tags.clone());
            written += points.len();
            self.write_batch(&tkey, &points);
        }
        written
    }

    /// Attach quality flags to `[from, to)` of one series. Annotations are
    /// independent of points: a series can be annotated before (or without)
    /// ever receiving data — a quarantined task writes gaps, not points.
    pub fn annotate(&self, key: &SeriesKey, from: i64, to: i64, flags: QualityFlags) {
        if let Some(wal) = self.wal.get() {
            wal.append(WalRecord::Annotate { key: key.clone(), from, to, flags });
        }
        let mut shard = self.quality[self.shard_index(key)].write().unwrap();
        shard.entry(key.clone()).or_default().annotate(from, to, flags);
    }

    /// Attach quality flags to `[from, to)` of *every* series currently in
    /// the store (points or existing annotations). Used by self-healing
    /// replay to fence quarantined WAL ranges: corrupt frames are
    /// interleaved across series, so the whole window is suspect for all of
    /// them. Returns the number of series annotated.
    pub fn annotate_all(&self, from: i64, to: i64, flags: QualityFlags) -> usize {
        let mut keys: Vec<SeriesKey> = Vec::new();
        for shard in &self.shards {
            keys.extend(shard.read().unwrap().keys().cloned());
        }
        for shard in &self.quality {
            keys.extend(shard.read().unwrap().keys().cloned());
        }
        keys.sort();
        keys.dedup();
        for key in &keys {
            self.annotate(key, from, to, flags);
        }
        keys.len()
    }

    /// All annotation windows of one series, `(from, to, flags)`.
    pub fn quality_windows(&self, key: &SeriesKey) -> Vec<(i64, i64, QualityFlags)> {
        let shard = self.quality[self.shard_index(key)].read().unwrap();
        shard.get(key).map(|l| l.windows().to_vec()).unwrap_or_default()
    }

    /// Per-bin OR of quality flags over `[start, end)` — same bin layout as
    /// [`Self::downsample_dense`], so the two zip together for masking.
    pub fn quality_dense(
        &self,
        key: &SeriesKey,
        start: i64,
        end: i64,
        bin_secs: i64,
    ) -> Vec<QualityFlags> {
        let mut out = Vec::new();
        self.quality_dense_into(key, start, end, bin_secs, &mut out);
        out
    }

    /// [`Self::quality_dense`] into a caller-owned buffer (cleared first).
    pub fn quality_dense_into(
        &self,
        key: &SeriesKey,
        start: i64,
        end: i64,
        bin_secs: i64,
        out: &mut Vec<QualityFlags>,
    ) {
        out.clear();
        if bin_secs <= 0 || end <= start {
            return;
        }
        let shard = self.quality[self.shard_index(key)].read().unwrap();
        match shard.get(key) {
            Some(l) => l.dense_into(start, end, bin_secs, out),
            None => {
                let nbins = ((end - start) + bin_secs - 1) / bin_secs;
                out.resize(nbins as usize, 0);
            }
        }
    }

    /// Apply a retention policy: drop all points older than `cutoff`, and
    /// trim quality-flag windows to the retained range so flags never
    /// outlive the data they annotate. Returns the number of points removed.
    pub fn retain_from(&self, cutoff: i64) -> usize {
        if let Some(wal) = self.wal.get() {
            wal.append(WalRecord::Retain { cutoff });
        }
        let mut removed = 0;
        for shard in &self.shards {
            let mut shard = shard.write().unwrap();
            for series in shard.values_mut() {
                removed += series.trim_before(cutoff);
            }
            shard.retain(|_, s| !s.is_empty());
        }
        for shard in &self.quality {
            let mut shard = shard.write().unwrap();
            for log in shard.values_mut() {
                log.trim_before(cutoff);
            }
            shard.retain(|_, l| !l.windows().is_empty());
        }
        removed
    }

    /// Apply one replayed WAL record. Recovery-only: the store being
    /// rebuilt must not have a WAL attached, or the record would be
    /// journaled a second time.
    pub fn apply_record(&self, rec: &WalRecord) {
        debug_assert!(self.wal.get().is_none(), "replaying into a journaled store");
        match rec {
            WalRecord::Sample { key, point } => self.write(key, point.t, point.v),
            WalRecord::Annotate { key, from, to, flags } => self.annotate(key, *from, *to, *flags),
            WalRecord::Retain { cutoff } => {
                self.retain_from(*cutoff);
            }
        }
    }

    /// Visit every series — anything with points or annotations — in sorted
    /// key order: the store in canonical order, which is what the content
    /// hash, the record dump and the checkpoint snapshot are all defined
    /// over. Holds every shard's *read* lock for the duration, so the view
    /// is one consistent cut and readers are not blocked; `visit` must not
    /// call back into this store (a second read lock can deadlock behind a
    /// waiting writer). The first error `visit` returns ends the walk.
    fn walk<E>(&self, mut visit: impl FnMut(SeriesView<'_>) -> Result<(), E>) -> Result<(), E> {
        let points: Vec<_> = self.shards.iter().map(|s| s.read().unwrap()).collect();
        let quality: Vec<_> = self.quality.iter().map(|s| s.read().unwrap()).collect();
        let mut views = Vec::with_capacity(points.iter().map(|s| s.len()).sum());
        // A key's points and windows live in the same-numbered shard.
        for (points, quality) in points.iter().zip(&quality) {
            for (key, series) in points.iter() {
                let (ts, vs) = series.cols();
                let windows = quality.get(key).map_or(&[][..], QualityLog::windows);
                views.push(SeriesView { key, ts, vs, windows });
            }
            for (key, log) in quality.iter().filter(|(key, _)| !points.contains_key(*key)) {
                views.push(SeriesView { key, ts: &[], vs: &[], windows: log.windows() });
            }
        }
        views.sort_unstable_by(|a, b| a.key.cmp(b.key));
        views.into_iter().try_for_each(&mut visit)
    }

    /// Every mutation needed to rebuild the store's current contents, in
    /// sorted key order: replaying the result into an empty store
    /// reproduces points and quality windows exactly. Clones the key per
    /// record — for tests and drills; [`Self::write_snapshot`] is the
    /// checkpoint path.
    pub fn dump_records(&self) -> Vec<WalRecord> {
        let mut out = Vec::new();
        let Ok(()) = self.walk(|s| -> Result<(), Infallible> {
            out.extend(s.points().map(|point| WalRecord::Sample { key: s.key.clone(), point }));
            out.extend(s.windows.iter().map(|&(from, to, flags)| WalRecord::Annotate {
                key: s.key.clone(),
                from,
                to,
                flags,
            }));
            Ok(())
        });
        out
    }

    /// Digest of the full store contents (points and quality windows; the
    /// derived latest-cells are excluded), independent of write history and
    /// shard count: two stores with identical series data hash identically
    /// — the crash-recovery equivalence checks compare these. Defined over
    /// sorted key order as FNV-1a of, per series, one
    /// `"S" key t_le v_bits_le` run per point then one
    /// `"A" key from_le to_le flags` run per quality window, where `key` is
    /// the bytes of `key.to_string()`.
    pub fn content_hash(&self) -> u64 {
        let mut hasher = ContentHasher::new();
        let Ok(()) = self.walk(|s| -> Result<(), Infallible> {
            hasher.series(&s);
            Ok(())
        });
        hasher.h
    }

    /// The checkpoint snapshot: append the store to `w` in the WAL's own
    /// frames ([`crate::wal`]) and return the [`Self::content_hash`] of what
    /// was written, folded in the same pass. Per series, in sorted key order
    /// (`id` is the series' ordinal in that order, `token` its escaped
    /// [`format_key`] token, formatted once):
    ///
    /// * if it has points: one `K` frame `"K" id_le token`, then its points
    ///   as 20-byte entries `id_le t_le v_bits_le` in `B` frames `"B" entries`
    ///   of at most `(MAX_PAYLOAD - 1) / 20` entries each;
    /// * one `A` frame `"A" token " " from " " to " " flags` per quality window.
    ///
    /// A value or name the frames cannot carry (a non-finite sample, a
    /// control character) fails with `InvalidInput` rather than writing a
    /// frame that would not replay; `w` then holds a partial snapshot the
    /// caller must discard.
    pub fn write_snapshot(&self, w: &mut SegmentWriter) -> io::Result<u64> {
        let mut hasher = ContentHasher::new();
        let (mut frame, mut entries, mut text) = (Vec::new(), Vec::new(), String::new());
        let mut id = 0u32;
        self.walk(|s| -> io::Result<()> {
            hasher.series(&s);
            let token = format_key(s.key)?;
            if !s.ts.is_empty() {
                key_frame(&mut frame, id, &token);
                w.append(&frame)?;
                entries.clear();
                for point in s.points() {
                    push_sample(&mut entries, id, point)?;
                }
                for chunk in sample_chunks(&entries) {
                    sample_frame(&mut frame, chunk);
                    w.append(&frame)?;
                }
            }
            for &(from, to, flags) in s.windows {
                text.clear();
                encode_annotation_into(&mut text, &token, from, to, flags);
                w.append(text.as_bytes())?;
            }
            id += 1;
            Ok(())
        })?;
        Ok(hasher.h)
    }

    /// Export one series as CSV (`t,v` rows with a header).
    pub fn export_csv(&self, key: &SeriesKey, start: i64, end: i64) -> String {
        let mut out = String::from("t,v\n");
        for p in self.query(key, start, end) {
            let _ = writeln!(out, "{},{}", p.t, p.v);
        }
        out
    }

    /// Export matching series as a Grafana-style JSON document:
    /// `[{"target": "<series>", "datapoints": [[v, t], ...]}, ...]`.
    pub fn export_json(&self, measurement: &str, filter: &TagFilter, start: i64, end: i64) -> String {
        let mut doc = Vec::new();
        for key in self.find_series(measurement, filter) {
            let datapoints: Vec<(f64, i64)> =
                self.query(&key, start, end).iter().map(|p| (p.v, p.t)).collect();
            doc.push(serde_json::json!({
                "target": key.to_string(),
                "datapoints": datapoints,
            }));
        }
        serde_json::to_string(&doc).expect("json export is infallible for these types")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::TagSet;

    fn key(vp: &str, link: &str, end: &str) -> SeriesKey {
        SeriesKey::with_tags("tslp", &[("vp", vp), ("link", link), ("end", end)])
    }

    #[test]
    fn shard_count_never_changes_contents() {
        // Identical writes into differently-striped stores must hash, dump,
        // and export identically — striping is a contention knob only.
        let wide = Store::with_shards(64);
        let narrow = Store::with_shards(1);
        for i in 0..40 {
            let k = key(&format!("vp{}", i % 3), &format!("L{i}"), "far");
            wide.write(&k, i as i64 * 300, i as f64);
            narrow.write(&k, i as i64 * 300, i as f64);
        }
        assert_eq!(wide.shard_count(), 64);
        assert_eq!(narrow.shard_count(), 1);
        assert_eq!(wide.content_hash(), narrow.content_hash());
    }

    #[test]
    fn recommended_shards_scales_with_keyspace() {
        assert_eq!(recommended_shards(0), 16);
        assert_eq!(recommended_shards(2_000), 16);
        assert_eq!(recommended_shards(10_000), 128);
        assert_eq!(recommended_shards(1_000_000), 256);
        for n in [0, 100, 5_000, 50_000, 1 << 20] {
            assert!(recommended_shards(n).is_power_of_two());
        }
    }

    #[test]
    fn write_and_query_roundtrip() {
        let store = Store::new();
        let k = key("vp1", "L1", "far");
        store.write(&k, 0, 10.0);
        store.write(&k, 300, 12.0);
        let pts = store.query(&k, 0, 1000);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[1].v, 12.0);
    }

    #[test]
    fn find_series_filters_by_tags() {
        let store = Store::new();
        store.write(&key("vp1", "L1", "far"), 0, 1.0);
        store.write(&key("vp1", "L1", "near"), 0, 1.0);
        store.write(&key("vp2", "L2", "far"), 0, 1.0);
        let far = store.find_series("tslp", &TagSet::from_pairs([("end", "far")]));
        assert_eq!(far.len(), 2);
        let l1 = store.find_series("tslp", &TagSet::from_pairs([("link", "L1")]));
        assert_eq!(l1.len(), 2);
        let all = store.find_series("tslp", &TagSet::new());
        assert_eq!(all.len(), 3);
        assert!(store.find_series("loss", &TagSet::new()).is_empty());
    }

    #[test]
    fn counts() {
        let store = Store::new();
        store.write(&key("vp1", "L1", "far"), 0, 1.0);
        store.write(&key("vp1", "L1", "far"), 1, 1.0);
        store.write(&key("vp1", "L1", "near"), 0, 1.0);
        assert_eq!(store.series_count(), 2);
        assert_eq!(store.point_count(), 3);
    }

    #[test]
    fn retention_trims_and_prunes() {
        let store = Store::new();
        let k = key("vp1", "L1", "far");
        for t in 0..10 {
            store.write(&k, t * 100, t as f64);
        }
        assert_eq!(store.retain_from(500), 5);
        assert_eq!(store.point_count(), 5);
        assert_eq!(store.retain_from(10_000), 5);
        assert_eq!(store.series_count(), 0);
    }

    #[test]
    fn retention_trims_quality_windows_too() {
        use crate::quality;
        let store = Store::new();
        let k = key("vp1", "L1", "far");
        store.write(&k, 1000, 1.0);
        store.annotate(&k, 0, 300, quality::GAP);
        store.annotate(&k, 300, 900, quality::QUARANTINED);
        let only_flags = key("vp2", "L2", "far");
        store.annotate(&only_flags, 0, 500, quality::GAP);
        store.retain_from(600);
        assert_eq!(
            store.quality_windows(&k),
            vec![(600, 900, quality::QUARANTINED)],
            "old windows dropped, straddlers clamped"
        );
        assert!(store.quality_windows(&only_flags).is_empty(), "flag-only logs pruned");
        assert_eq!(store.query(&k, 0, 2000).len(), 1, "points past cutoff kept");
    }

    #[test]
    fn content_hash_tracks_contents_not_history() {
        use crate::quality;
        let a = Store::new();
        let b = Store::new();
        // Same contents via different write orders and batching.
        a.write(&key("vp1", "L1", "far"), 0, 1.0);
        a.write(&key("vp1", "L1", "far"), 300, 2.0);
        a.write(&key("vp2", "L2", "far"), 0, 3.0);
        b.write(&key("vp2", "L2", "far"), 0, 3.0);
        b.write_batch(&key("vp1", "L1", "far"), &[Point::new(0, 1.0), Point::new(300, 2.0)]);
        assert_eq!(a.content_hash(), b.content_hash());
        a.annotate(&key("vp1", "L1", "far"), 0, 300, quality::GAP);
        assert_ne!(a.content_hash(), b.content_hash(), "quality windows are hashed");
        b.annotate(&key("vp1", "L1", "far"), 0, 300, quality::GAP);
        assert_eq!(a.content_hash(), b.content_hash());
        b.write(&key("vp1", "L1", "far"), 300, 2.5);
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn dump_records_rebuild_equal_store() {
        use crate::quality;
        let store = Store::new();
        for t in 0..10 {
            store.write(&key("vp1", "L1", "far"), t * 300, t as f64);
        }
        store.annotate(&key("vp1", "L1", "near"), 0, 900, quality::SUSPECT_RATE_LIMITED);
        let rebuilt = Store::new();
        for rec in store.dump_records() {
            rebuilt.apply_record(&rec);
        }
        assert_eq!(rebuilt.content_hash(), store.content_hash());
        assert_eq!(rebuilt.point_count(), store.point_count());
        assert_eq!(rebuilt.quality_windows(&key("vp1", "L1", "near")).len(), 1);
    }

    #[test]
    fn csv_export_shape() {
        let store = Store::new();
        let k = key("vp1", "L1", "far");
        store.write(&k, 5, 1.5);
        let csv = store.export_csv(&k, 0, 10);
        assert_eq!(csv, "t,v\n5,1.5\n");
    }

    #[test]
    fn json_export_parses() {
        let store = Store::new();
        store.write(&key("vp1", "L1", "far"), 0, 2.0);
        let js = store.export_json("tslp", &TagSet::new(), 0, 10);
        let v: serde_json::Value = serde_json::from_str(&js).unwrap();
        assert_eq!(v[0]["datapoints"][0][0], 2.0);
    }

    #[test]
    fn dense_downsample_of_missing_series_is_all_none() {
        let store = Store::new();
        let k = key("vp9", "L9", "far");
        let bins = store.downsample_dense(&k, 0, 900, 300, Aggregate::Min);
        assert_eq!(bins, vec![None, None, None]);
    }

    #[test]
    fn rollup_materializes_aggregates() {
        let store = Store::new();
        for vp in ["a", "b"] {
            let k = SeriesKey::with_tags("tslp", &[("vp", vp), ("end", "far")]);
            for t in 0..12 {
                store.write(&k, t * 300, (t % 4) as f64);
            }
        }
        let n = store.rollup("tslp", &TagSet::new(), 0, 3600, 900, Aggregate::Min, "tslp_15m");
        assert_eq!(n, 8, "4 bins x 2 series");
        let rolled = store.find_series("tslp_15m", &TagSet::new());
        assert_eq!(rolled.len(), 2);
        let pts = store.query(&rolled[0], 0, 3600);
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0].v, 0.0, "min of 0,1,2");
        // Raw series untouched.
        assert_eq!(store.find_series("tslp", &TagSet::new()).len(), 2);
        // Typical pairing: retention trims old raw samples; the rollup keeps
        // its own (coarser) points past the cutoff.
        store.retain_from(1800);
        let raw = store.query(&SeriesKey::with_tags("tslp", &[("vp", "a"), ("end", "far")]), 0, 3600);
        assert_eq!(raw.len(), 6, "raw samples before the cutoff dropped");
        assert_eq!(store.query(&rolled[0], 0, 3600).len(), 2, "post-cutoff rollup bins remain");
    }

    #[test]
    fn annotations_roundtrip_and_align_with_bins() {
        use crate::quality;
        let store = Store::new();
        let k = key("vp1", "L1", "far");
        // Annotation before any point exists.
        store.annotate(&k, 300, 600, quality::QUARANTINED);
        store.annotate(&k, 600, 900, quality::QUARANTINED);
        store.annotate(&k, 900, 1200, quality::SUSPECT_RATE_LIMITED);
        assert_eq!(
            store.quality_windows(&k),
            vec![(300, 900, quality::QUARANTINED), (900, 1200, quality::SUSPECT_RATE_LIMITED)]
        );
        let dense = store.quality_dense(&k, 0, 1200, 300);
        assert_eq!(
            dense,
            vec![0, quality::QUARANTINED, quality::QUARANTINED, quality::SUSPECT_RATE_LIMITED]
        );
        // Unannotated series: all clear, same bin count as downsample_dense.
        let other = key("vp2", "L2", "far");
        assert_eq!(store.quality_dense(&other, 0, 900, 300), vec![0, 0, 0]);
        assert!(store.quality_windows(&other).is_empty());
    }

    #[test]
    fn latest_tracks_newest_sample() {
        let store = Store::new();
        let k = key("vp1", "L1", "far");
        assert_eq!(store.latest(&k), None, "missing series");
        assert!(store.latest_handle(&k).is_none());
        store.write(&k, 300, 10.0);
        assert_eq!(store.latest(&k), Some(Point::new(300, 10.0)));
        store.write(&k, 600, 12.5);
        assert_eq!(store.latest(&k), Some(Point::new(600, 12.5)));
        // Out-of-order write does not regress the latest sample.
        store.write(&k, 0, 99.0);
        assert_eq!(store.latest(&k), Some(Point::new(600, 12.5)));
        // Equal timestamp: last write wins (matches Series duplicate order).
        store.write(&k, 600, 13.0);
        assert_eq!(store.latest(&k), Some(Point::new(600, 13.0)));
        // Batch writes publish the newest of the batch.
        store.write_batch(&k, &[Point::new(900, 1.0), Point::new(1200, 2.0), Point::new(700, 9.0)]);
        assert_eq!(store.latest(&k), Some(Point::new(1200, 2.0)));
        // A cached handle observes subsequent writes.
        let h = store.latest_handle(&k).unwrap();
        store.write(&k, 1500, 3.0);
        assert_eq!(h.read(), Some(Point::new(1500, 3.0)));
        // Retention does not clear the published latest sample.
        store.retain_from(10_000);
        assert_eq!(store.latest(&k), Some(Point::new(1500, 3.0)));
    }

    #[test]
    fn latest_reads_race_free_under_concurrent_ingest() {
        use std::sync::Arc;
        let store = Arc::new(Store::new());
        let k = key("vp1", "L1", "far");
        store.write(&k, 0, 0.0);
        let writer = {
            let store = Arc::clone(&store);
            let k = k.clone();
            std::thread::spawn(move || {
                for t in 1..20_000i64 {
                    // Value encodes the timestamp so readers can check that
                    // they never observe a torn (t, v) pair.
                    store.write(&k, t, t as f64 * 0.5);
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let store = Arc::clone(&store);
                let k = k.clone();
                std::thread::spawn(move || {
                    let h = store.latest_handle(&k).unwrap();
                    let mut last_t = -1;
                    for _ in 0..50_000 {
                        let p = h.read().expect("series already written");
                        assert_eq!(p.v, p.t as f64 * 0.5, "torn read");
                        assert!(p.t >= last_t, "latest went backwards");
                        last_t = p.t;
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(store.latest(&k).unwrap().t, 19_999);
    }

    #[test]
    fn store_windows_degrade_gracefully() {
        let store = Store::new();
        let k = key("vp1", "L1", "far");
        store.write(&k, 0, 1.0);
        assert!(store.query(&k, 500, 100).is_empty());
        assert!(store.downsample(&k, 500, 100, 300, Aggregate::Min).is_empty());
        assert!(store.downsample_dense(&k, 500, 100, 300, Aggregate::Min).is_empty());
        assert!(store.downsample_dense(&k, 0, 600, 0, Aggregate::Min).is_empty());
        assert!(store.quality_dense(&k, 500, 100, 300).is_empty());
        assert!(store.quality_dense(&k, 0, 600, -1).is_empty());
    }

    #[test]
    fn concurrent_ingest() {
        use std::sync::Arc;
        let store = Arc::new(Store::new());
        let mut handles = Vec::new();
        for vp in 0..8 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                let k = key(&format!("vp{vp}"), "L1", "far");
                for t in 0..1000 {
                    store.write(&k, t, t as f64);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.point_count(), 8000);
        assert_eq!(store.series_count(), 8);
    }
}
