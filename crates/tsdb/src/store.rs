//! The sharded series store.
//!
//! A series' points and quality windows live in one entry of one shard's
//! entry vector, found through that shard's key → index map or directly
//! through a [`SeriesSlot`]; anything that needs the whole store in one
//! canonical order — the content hash, the record dump, the checkpoint
//! snapshot — is a visitor over [`Store::walk`], one sorted pass that
//! copies nothing. The snapshot ([`Store::write_snapshot`], the checkpoint
//! snapshot since format version 2) is a segment of the write-ahead log's own frames: a
//! sample is a 20-byte entry of a `B` frame under its series' `K` frame
//! there as everywhere else on disk, so [`crate::wal`]'s replay is its only
//! reader.

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

/// Tag predicate for series selection: every listed pair must match.
pub type TagFilter = TagSet;

/// Everything the store holds for one key. An entry is *live* from the
/// key's first write or annotation on; only live entries are seen by
/// [`Store::walk`] and [`Store::annotate_all`], and an entry counts as a
/// series (`series_count`, `find_series`) only while it has points. An
/// entry that [`Store::slot`] created and nothing has touched is not live:
/// the store reads exactly as if it did not exist.
struct Entry {
    /// Shared with the shard's index map.
    key: Arc<SeriesKey>,
    live: bool,
    series: Series,
    quality: QualityLog,
}

impl Entry {
    fn new(key: Arc<SeriesKey>) -> Self {
        Entry { key, live: false, series: Series::default(), quality: QualityLog::default() }
    }
}

/// One stripe of the store: a key → index map over a vector of entries.
/// Entries are never removed or moved, so an index, once handed out as a
/// [`SeriesSlot`], names its key for the store's lifetime.
#[derive(Default)]
struct Shard {
    index: HashMap<Arc<SeriesKey>, u32>,
    entries: Vec<Entry>,
}

impl Shard {
    /// The index of `key`'s entry, appending a (not yet live) entry on first
    /// use — the only time the key is cloned.
    fn resolve(&mut self, key: &SeriesKey) -> u32 {
        if let Some(&i) = self.index.get(key) {
            return i;
        }
        let i = u32::try_from(self.entries.len()).expect("more than u32::MAX series in one shard");
        let key = Arc::new(key.clone());
        self.entries.push(Entry::new(Arc::clone(&key)));
        self.index.insert(key, i);
        i
    }

    /// `key`'s entry, if it is live.
    fn get(&self, key: &SeriesKey) -> Option<&Entry> {
        self.index.get(key).map(|&i| &self.entries[i as usize]).filter(|e| e.live)
    }

    fn live(&self) -> impl Iterator<Item = &Entry> {
        self.entries.iter().filter(|e| e.live)
    }
}

/// A stable handle on one series of one [`Store`]: its shard and its index
/// in that shard's entry vector. [`Store::write_batch_at`] and
/// [`Store::annotate_at`] go straight to the entry, so a writer that
/// resolves its keys once ([`Store::slot`]) hashes no key per write. A slot
/// is valid for the store that issued it, for that store's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesSlot {
    shard: u32,
    index: u32,
}

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
    /// One key → index map and entry vector per stripe; a key's points and
    /// quality windows (see [`crate::quality`]) share its one [`Entry`].
    shards: Vec<RwLock<Shard>>,
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
        Store { shards: (0..n).map(|_| RwLock::default()).collect(), wal: OnceLock::new() }
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

    fn shard(&self, key: &SeriesKey) -> &RwLock<Shard> {
        &self.shards[self.shard_index(key)]
    }

    /// The stable handle on `key`'s series, creating its entry if needed.
    /// Creating one changes nothing any reader sees: the entry stays
    /// invisible until a write or an annotation goes through it.
    pub fn slot(&self, key: &SeriesKey) -> SeriesSlot {
        let shard = self.shard_index(key);
        let index = self.shards[shard].write().unwrap().resolve(key);
        SeriesSlot { shard: shard as u32, index }
    }

    /// Run `f` on `key`'s entry under its shard's write lock, creating the
    /// entry on first use.
    fn update(&self, key: &SeriesKey, f: impl FnOnce(&mut Entry)) {
        let mut shard = self.shard(key).write().unwrap();
        let i = shard.resolve(key);
        f(&mut shard.entries[i as usize])
    }

    /// Run `f` on `slot`'s entry under its shard's write lock.
    fn update_at(&self, slot: SeriesSlot, f: impl FnOnce(&mut Entry)) {
        let mut shard = self.shards[slot.shard as usize].write().unwrap();
        f(&mut shard.entries[slot.index as usize])
    }

    /// Append one point to a series, creating the series if needed.
    pub fn write(&self, key: &SeriesKey, t: i64, v: f64) {
        self.write_batch(key, &[Point::new(t, v)]);
    }

    /// Append many points to a series in one lock acquisition.
    pub fn write_batch(&self, key: &SeriesKey, points: &[Point]) {
        if !points.is_empty() {
            self.update(key, |entry| self.append(entry, points));
        }
    }

    /// [`Self::write_batch`] to the series `slot` names.
    pub fn write_batch_at(&self, slot: SeriesSlot, points: &[Point]) {
        if !points.is_empty() {
            self.update_at(slot, |entry| self.append(entry, points));
        }
    }

    /// The one write body, under the entry's shard lock.
    fn append(&self, entry: &mut Entry, points: &[Point]) {
        // Logged before applied; holding the shard lock across the enqueue
        // keeps WAL order identical to apply order within a series.
        if let Some(wal) = self.wal.get() {
            wal.append_samples(&entry.key, &entry.series.wal_key_token, points);
        }
        for p in points {
            entry.series.push(p.t, p.v);
        }
        entry.live = true;
    }

    /// Number of distinct series with points.
    pub fn series_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap().live().filter(|e| !e.series.is_empty()).count())
            .sum()
    }

    /// Total number of stored points.
    pub fn point_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap().live().map(|e| e.series.len()).sum::<usize>())
            .sum()
    }

    /// All series keys for `measurement` whose tags match `filter` and
    /// which hold points.
    pub fn find_series(&self, measurement: &str, filter: &TagFilter) -> Vec<SeriesKey> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.read().unwrap();
            for entry in shard.live() {
                let key = &*entry.key;
                if !entry.series.is_empty()
                    && key.measurement == measurement
                    && key.tags.matches(filter)
                {
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
        shard.get(key).map(|e| e.series.range(start, end)).unwrap_or_default()
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
            .map(|e| e.series.downsample(start, end, bin_secs, agg))
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
            Some(e) => e.series.downsample_dense_into(start, end, bin_secs, agg, out),
            None => {
                let nbins = ((end - start) + bin_secs - 1) / bin_secs;
                out.resize(nbins as usize, None);
            }
        }
    }

    /// Attach quality flags to `[from, to)` of one series. Annotations are
    /// independent of points: a series can be annotated before (or without)
    /// ever receiving data — a quarantined task writes gaps, not points.
    pub fn annotate(&self, key: &SeriesKey, from: i64, to: i64, flags: QualityFlags) {
        self.update(key, |entry| self.mark(entry, from, to, flags));
    }

    /// [`Self::annotate`] on the series `slot` names.
    pub fn annotate_at(&self, slot: SeriesSlot, from: i64, to: i64, flags: QualityFlags) {
        self.update_at(slot, |entry| self.mark(entry, from, to, flags));
    }

    /// The one annotation body, under the entry's shard lock.
    fn mark(&self, entry: &mut Entry, from: i64, to: i64, flags: QualityFlags) {
        if let Some(wal) = self.wal.get() {
            wal.append(WalRecord::Annotate { key: SeriesKey::clone(&entry.key), from, to, flags });
        }
        entry.quality.annotate(from, to, flags);
        entry.live = true;
    }

    /// Attach quality flags to `[from, to)` of *every* series currently in
    /// the store (points or existing annotations). Used by self-healing
    /// replay to fence quarantined WAL ranges: corrupt frames are
    /// interleaved across series, so the whole window is suspect for all of
    /// them. Series are annotated (and journaled) in sorted key order, like
    /// the walk, so the log does not depend on the store's history.
    /// Returns the number of series annotated.
    pub fn annotate_all(&self, from: i64, to: i64, flags: QualityFlags) -> usize {
        let mut shards: Vec<_> = self.shards.iter().map(|s| s.write().unwrap()).collect();
        let mut order: Vec<(usize, usize)> = Vec::new();
        for (s, shard) in shards.iter().enumerate() {
            let live = shard.entries.iter().enumerate().filter(|(_, e)| e.live);
            order.extend(live.map(|(i, _)| (s, i)));
        }
        order.sort_unstable_by(|&(sa, a), &(sb, b)| {
            shards[sa].entries[a].key.cmp(&shards[sb].entries[b].key)
        });
        for &(s, i) in &order {
            self.mark(&mut shards[s].entries[i], from, to, flags);
        }
        order.len()
    }

    /// All annotation windows of one series, `(from, to, flags)`.
    pub fn quality_windows(&self, key: &SeriesKey) -> Vec<(i64, i64, QualityFlags)> {
        let shard = self.shard(key).read().unwrap();
        shard.get(key).map(|e| e.quality.windows().to_vec()).unwrap_or_default()
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
        let shard = self.shard(key).read().unwrap();
        match shard.get(key) {
            Some(e) => e.quality.dense_into(start, end, bin_secs, out),
            None => {
                let nbins = ((end - start) + bin_secs - 1) / bin_secs;
                out.resize(nbins as usize, 0);
            }
        }
    }

    /// Apply one replayed WAL record. Recovery-only: the store being
    /// rebuilt must not have a WAL attached, or the record would be
    /// journaled a second time.
    pub fn apply_record(&self, rec: &WalRecord) {
        debug_assert!(self.wal.get().is_none(), "replaying into a journaled store");
        match rec {
            WalRecord::Sample { key, point } => self.write(key, point.t, point.v),
            WalRecord::Annotate { key, from, to, flags } => self.annotate(key, *from, *to, *flags),
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
        let shards: Vec<_> = self.shards.iter().map(|s| s.read().unwrap()).collect();
        let mut views = Vec::with_capacity(shards.iter().map(|s| s.entries.len()).sum());
        for entry in shards.iter().flat_map(|s| s.live()) {
            let (ts, vs) = entry.series.cols();
            views.push(SeriesView { key: &entry.key, ts, vs, windows: entry.quality.windows() });
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

    /// Digest of the full store contents (points and quality windows),
    /// independent of write history and shard count: two stores with
    /// identical series data hash identically — the crash-recovery
    /// equivalence checks compare these. Defined over
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
