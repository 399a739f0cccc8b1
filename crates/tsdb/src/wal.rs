//! Write-ahead log for the store.
//!
//! Every mutation of an attached [`Store`] — sample writes and quality
//! annotations — is appended to a segment file *before* it is applied in
//! memory, so a crashed process can rebuild the store by replay. A segment
//! holds three kinds of frame (the framing itself, length
//! prefix + CRC32, lives in [`crate::segment`]):
//!
//! * `K` — key definition: `u32` LE id, then the series' escaped key token
//!   ([`crate::lineproto::format_key`]). Written the first time an id is used
//!   after a sync barrier, so the log from any barrier position on is
//!   replayable on its own.
//! * `B` — samples, the only on-disk form of one: [`SAMPLE_ENTRY`]-byte
//!   entries `u32 id | i64 t | f64 bits`, all LE, at most [`B_FRAME_MAX`]
//!   bytes of them per frame. A non-finite value is never framed.
//! * `A` — a quality annotation, text: `key-token from to flags`.
//!
//! A payload of any other kind is a decode error: replay counts it and
//! moves on, it never guesses. (Whole directories of another checkpoint
//! format version are refused before any segment is read — see
//! `manic_core::CHECKPOINT_VERSION`.)
//!
//! Every [`FsyncPolicy`] writes these same frames through the same code
//! ([`Shared::write`]); a checkpoint snapshot ([`Store::write_snapshot`]) is
//! a segment of `K`/`B`/`A` frames too. The policy only decides who runs the
//! writer and when it fsyncs: under `every-n` and `never` a background thread
//! drains staged batches (`every-n` fsyncs once per n records, `never` leaves
//! flushing to the OS); under `always` the appending thread writes its own
//! batch — one `append_samples` call is one `B` frame — and fsyncs it before
//! the call returns, so nothing acknowledged is ever lost. Replay is
//! deterministic — the same segments always rebuild byte-identical store
//! contents — and a torn tail truncates the log at the last intact frame
//! rather than failing recovery.

use crate::lineproto::{format_key, parse_key, LineProtoError};
use crate::obs::metrics;
use crate::quality::QualityFlags;
use crate::segment::{self, segment_path, SegmentWriter, HEADER_LEN};
use crate::series::Point;
use crate::store::Store;
use crate::SeriesKey;
use manic_vfs::{is_enospc, Vfs};
use std::fmt::{self, Write as _};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;

/// When to fsync appended records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every append (and every batch): an acknowledged record
    /// survives any crash.
    Always,
    /// Group commit: fsync once per `n` records.
    EveryN(u32),
    /// Never fsync explicitly; the OS flushes when it pleases.
    Never,
}

impl FsyncPolicy {
    /// Parse a `--durability` flag value: `always`, `never`, `every-n`
    /// (default group size) or `every-<count>`.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            "every-n" => Some(FsyncPolicy::EveryN(64)),
            _ => {
                let n = s.strip_prefix("every-")?.parse::<u32>().ok()?;
                (n > 0).then_some(FsyncPolicy::EveryN(n))
            }
        }
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::EveryN(n) => write!(f, "every-{n}"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// One logged store mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A sample append (`Store::write` / one element of `write_batch`).
    /// In-memory only ([`Store::dump_records`], [`Store::apply_record`]): on
    /// disk a sample is an entry of a `B` frame, never a record of its own.
    Sample { key: SeriesKey, point: Point },
    /// A quality-flag annotation (`Store::annotate`).
    Annotate { key: SeriesKey, from: i64, to: i64, flags: QualityFlags },
}

/// Decode failure for a CRC-valid payload (format bug or version skew, not
/// disk corruption — corruption is fenced by the segment CRC).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalCodecError {
    Empty,
    UnknownKind(u8),
    NotUtf8,
    Line(LineProtoError),
    Malformed(String),
}

impl fmt::Display for WalCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalCodecError::Empty => write!(f, "empty record payload"),
            WalCodecError::UnknownKind(k) => write!(f, "unknown record kind {k:#04x}"),
            WalCodecError::NotUtf8 => write!(f, "record body is not UTF-8"),
            WalCodecError::Line(e) => write!(f, "bad key token: {e}"),
            WalCodecError::Malformed(s) => write!(f, "malformed record body: {s}"),
        }
    }
}

impl std::error::Error for WalCodecError {}

impl From<LineProtoError> for WalCodecError {
    fn from(e: LineProtoError) -> Self {
        WalCodecError::Line(e)
    }
}

/// Bytes of one packed sample entry in a `B` frame:
/// `u32 token id | i64 t | f64 bits`, all little-endian.
const SAMPLE_ENTRY: usize = 20;

/// Largest packed-sample slice per `B` frame: the frame payload is the kind
/// byte plus the slice, and must stay within [`segment::MAX_PAYLOAD`].
const B_FRAME_MAX: usize =
    (segment::MAX_PAYLOAD as usize - 1) / SAMPLE_ENTRY * SAMPLE_ENTRY;

/// Build the payload of a `K` frame in `buf`: `id` names the series whose
/// escaped key token ([`format_key`]) is `token` in the `B` frames after it.
pub(crate) fn key_frame(buf: &mut Vec<u8>, id: u32, token: &str) {
    buf.clear();
    buf.push(b'K');
    buf.extend_from_slice(&id.to_le_bytes());
    buf.extend_from_slice(token.as_bytes());
}

/// Append the packed entry of one sample of series `id`. A non-finite value
/// has no entry: it must never replay into a store.
pub(crate) fn push_sample(entries: &mut Vec<u8>, id: u32, p: Point) -> Result<(), LineProtoError> {
    if !p.v.is_finite() {
        return Err(LineProtoError::NonFiniteValue);
    }
    let mut entry = [0u8; SAMPLE_ENTRY];
    entry[..4].copy_from_slice(&id.to_le_bytes());
    entry[4..12].copy_from_slice(&p.t.to_le_bytes());
    entry[12..].copy_from_slice(&p.v.to_bits().to_le_bytes());
    entries.extend_from_slice(&entry);
    Ok(())
}

/// Split packed entries into the slices that each fit one `B` frame.
pub(crate) fn sample_chunks(entries: &[u8]) -> std::slice::Chunks<'_, u8> {
    entries.chunks(B_FRAME_MAX)
}

/// Build the payload of a `B` frame in `buf` from one [`sample_chunks`] slice.
pub(crate) fn sample_frame(buf: &mut Vec<u8>, chunk: &[u8]) {
    buf.clear();
    buf.push(b'B');
    buf.extend_from_slice(chunk);
}

/// Append the payload of an annotation record: kind byte `A`, the escaped
/// key token, then the window and its flags.
pub(crate) fn encode_annotation_into(
    out: &mut String,
    key_token: &str,
    from: i64,
    to: i64,
    flags: QualityFlags,
) {
    let _ = write!(out, "A{key_token} {from} {to} {flags}");
}

impl WalRecord {
    /// Encode a control record (an annotation) to a segment payload.
    /// Fails for keys the token format rejects (control characters), and for
    /// a sample, which has no record form: the log frames samples as `K`/`B`
    /// ([`Wal::append_samples`]).
    pub fn encode(&self) -> Result<Vec<u8>, LineProtoError> {
        let mut out = String::new();
        match self {
            WalRecord::Sample { .. } => {
                return Err(LineProtoError::Unencodable("sample (framed as K/B)".into()))
            }
            WalRecord::Annotate { key, from, to, flags } => {
                encode_annotation_into(&mut out, &format_key(key)?, *from, *to, *flags)
            }
        }
        Ok(out.into_bytes())
    }

    /// Decode a control record's payload (inverse of [`Self::encode`]).
    pub fn decode(payload: &[u8]) -> Result<WalRecord, WalCodecError> {
        let (&kind, body) = payload.split_first().ok_or(WalCodecError::Empty)?;
        let body = std::str::from_utf8(body).map_err(|_| WalCodecError::NotUtf8)?;
        match kind {
            b'A' => {
                // The key token may contain escaped spaces; split honouring
                // the escapes.
                let sections = crate::lineproto::split_sections(body);
                let [keytok, from, to, flags] = sections.as_slice() else {
                    return Err(WalCodecError::Malformed(body.to_string()));
                };
                let key = parse_key(keytok)?;
                let parse_i = |s: &str| {
                    s.parse::<i64>().map_err(|_| WalCodecError::Malformed(body.to_string()))
                };
                let flags = flags
                    .parse::<QualityFlags>()
                    .map_err(|_| WalCodecError::Malformed(body.to_string()))?;
                Ok(WalRecord::Annotate { key, from: parse_i(from)?, to: parse_i(to)?, flags })
            }
            other => Err(WalCodecError::UnknownKind(other)),
        }
    }
}

/// A durable position in the log: everything up to and including
/// `(segment, offset)` has been applied (offsets are frame boundaries as
/// returned by the segment writer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalPosition {
    pub segment: u64,
    pub offset: u64,
}

/// The open segment and the frame writer's state, behind [`Shared::inner`].
struct Inner {
    writer: SegmentWriter,
    seq: u64,
    /// Records appended since the last fsync.
    since_sync: u32,
    /// Frame payload under construction.
    buf: Vec<u8>,
    /// The writer's view of the token registry; refreshed (one lock) only
    /// when a batch references an id newer than it.
    tokens: Vec<Arc<str>>,
    /// Ids whose `K` frame is already on disk in the current sync epoch.
    defined: Vec<bool>,
}

impl Inner {
    fn new(writer: SegmentWriter, seq: u64) -> Inner {
        Inner {
            writer,
            seq,
            since_sync: 0,
            buf: Vec::new(),
            tokens: Vec::new(),
            defined: Vec::new(),
        }
    }
}

/// One staged unit of work for the frame writer.
enum Msg {
    /// Packed sample entries ([`SAMPLE_ENTRY`] bytes each). Consecutive
    /// staged samples collapse into one `Bin`, so the producer's per-sample
    /// cost is a short memcpy and the writer checksums and writes a whole
    /// burst as one frame.
    Bin(Vec<u8>),
    Rec(Box<WalRecord>),
    /// Flush + fsync barrier; the ack carries the result.
    Sync(Sender<io::Result<()>>),
}

/// How many packed sample bytes accumulate before the producer forwards the
/// staged batch to the writer thread. Each forward wakes the (usually
/// parked) writer — futex traffic plus a scheduler round-trip on small
/// hosts — and each drained burst costs one group-commit fsync under
/// `every-n`, so the hot path amortizes both aggressively. Sync barriers
/// and `Drop` flush whatever is staged regardless, and checkpoints barrier
/// every few rounds, so the staging window never outlives a checkpoint
/// interval: `every-n` bounds fsync *work*, not acknowledged loss — the
/// checkpoint is the acknowledgment unit, and `always` is the no-loss mode.
const STAGE_SAMPLE_BYTES: usize = 256 * 1024;

/// How many staged control messages (non-sample records, which are rare)
/// force a forward on their own.
const STAGE_FLUSH: usize = 1024;

/// State shared between the append handle and the writer thread.
struct Shared {
    dir: PathBuf,
    policy: FsyncPolicy,
    rotate_bytes: u64,
    vfs: Arc<dyn Vfs>,
    /// ENOSPC-degraded mode: raw-sample (`K`/`B`) frames are shed while
    /// verdict-critical records (annotations) keep being
    /// attempted. Cleared optimistically at every successful sync barrier
    /// so the log re-probes the disk once per group commit.
    degraded: AtomicBool,
    inner: Mutex<Inner>,
    /// Escaped key tokens by id, appended on first use of a series (ids are
    /// dense and monotonic). The frame writer keeps a private copy
    /// ([`Inner::tokens`]) and only takes this lock when it sees an id past
    /// its cache, so steady-state appends never contend here.
    tokens: Mutex<Vec<Arc<str>>>,
}

impl Shared {
    fn rotate_if_due(&self, inner: &mut Inner) -> io::Result<()> {
        if inner.writer.offset() >= self.rotate_bytes {
            inner.writer.sync()?;
            inner.seq += 1;
            inner.writer =
                SegmentWriter::create_with(&*self.vfs, &segment_path(&self.dir, inner.seq))?;
            metrics().wal_rotations.inc();
        }
        Ok(())
    }

    /// Record an append-path failure. ENOSPC flips the log into degraded
    /// (sample-shedding) mode instead of burning the error counter on every
    /// subsequent sample.
    fn note_write_error(&self, e: &io::Error) {
        if is_enospc(e) {
            if !self.degraded.swap(true, Ordering::Relaxed) {
                metrics().wal_degraded_enters.inc();
            }
        } else {
            metrics().wal_write_errors.inc();
        }
    }

    /// The group-commit decision, taken once per written batch.
    fn commit(&self, inner: &mut Inner) -> io::Result<()> {
        let due = match self.policy {
            FsyncPolicy::Always => inner.since_sync > 0,
            FsyncPolicy::EveryN(n) => inner.since_sync >= n,
            FsyncPolicy::Never => false,
        };
        if due {
            self.sync_now(inner)?;
        }
        Ok(())
    }

    fn sync_now(&self, inner: &mut Inner) -> io::Result<()> {
        inner.writer.sync()?;
        metrics().wal_fsyncs.inc();
        inner.since_sync = 0;
        Ok(())
    }

    /// Append one frame; `records` is how many records it carries towards
    /// the next group commit.
    fn append_payload(&self, inner: &mut Inner, payload: &[u8], records: u32) -> io::Result<()> {
        self.rotate_if_due(inner)?;
        inner.writer.append(payload)?;
        inner.since_sync = inner.since_sync.saturating_add(records);
        metrics().wal_appends.inc();
        metrics().wal_bytes.add(8 + payload.len() as u64);
        Ok(())
    }

    /// Frame a run of packed sample entries: a `K` frame for every id not yet
    /// defined in this sync epoch, then the entries as `B` frames.
    fn append_samples(&self, inner: &mut Inner, entries: &[u8]) {
        let shed = |bytes: usize| metrics().wal_shed_samples.add((bytes / SAMPLE_ENTRY) as u64);
        // ENOSPC degraded mode sheds raw-sample persistence: the in-memory
        // store stays authoritative and verdict-critical records
        // (annotations) are still attempted.
        if self.degraded.load(Ordering::Relaxed) {
            return shed(entries.len());
        }
        let mut buf = std::mem::take(&mut inner.buf);
        for e in entries.chunks_exact(SAMPLE_ENTRY) {
            let id = u32::from_le_bytes(e[..4].try_into().unwrap()) as usize;
            if inner.defined.get(id).copied().unwrap_or(false) {
                continue;
            }
            if id >= inner.tokens.len() {
                // Ids are registered before they are staged, so the registry
                // always covers this id.
                inner.tokens.clone_from(&self.tokens.lock().unwrap());
            }
            if inner.defined.len() <= id {
                inner.defined.resize(id + 1, false);
            }
            key_frame(&mut buf, id as u32, &inner.tokens[id]);
            if let Err(e) = self.append_payload(inner, &buf, 0) {
                self.note_write_error(&e);
            }
            inner.defined[id] = true;
        }
        for chunk in sample_chunks(entries) {
            if self.degraded.load(Ordering::Relaxed) {
                shed(chunk.len());
                continue;
            }
            sample_frame(&mut buf, chunk);
            if let Err(e) = self.append_payload(inner, &buf, (chunk.len() / SAMPLE_ENTRY) as u32) {
                self.note_write_error(&e);
                if self.degraded.load(Ordering::Relaxed) {
                    shed(chunk.len());
                }
            }
        }
        inner.buf = buf;
    }

    /// Flush + fsync barrier. The next batch re-defines its keys, so that
    /// this barrier's position (a potential checkpoint) starts a tail that is
    /// replayable on its own.
    fn barrier(&self, inner: &mut Inner) -> io::Result<()> {
        let r = self.sync_now(inner);
        inner.defined.clear();
        match &r {
            // Optimistic re-probe: a successful barrier is the cue to retry
            // raw-sample persistence; if the disk is still full the next
            // append re-enters degraded mode.
            Ok(()) => self.degraded.store(false, Ordering::Relaxed),
            Err(e) => self.note_write_error(e),
        }
        r
    }

    /// The frame writer: append a batch — and whatever `more` has queued up
    /// behind it — under one lock acquisition, then group-commit once.
    /// Failures are counted but do not poison the log: the in-memory store
    /// stays authoritative.
    fn write(&self, mut batch: Vec<Msg>, mut more: impl FnMut() -> Option<Vec<Msg>>) {
        let mut inner = self.inner.lock().unwrap();
        loop {
            for msg in batch.drain(..) {
                match msg {
                    Msg::Bin(entries) => self.append_samples(&mut inner, &entries),
                    Msg::Rec(rec) => {
                        let appended = rec
                            .encode()
                            .map_err(io::Error::from)
                            .and_then(|payload| self.append_payload(&mut inner, &payload, 1));
                        if let Err(e) = appended {
                            self.note_write_error(&e);
                            if is_enospc(&e) {
                                metrics().wal_write_errors.inc();
                            }
                        }
                    }
                    Msg::Sync(ack) => {
                        let _ = ack.send(self.barrier(&mut inner));
                    }
                }
            }
            match more() {
                Some(next) => batch = next,
                None => break,
            }
        }
        if let Err(e) = self.commit(&mut inner) {
            self.note_write_error(&e);
        }
    }
}

/// The background writer of the group-commit policies: every drained burst
/// is one [`Shared::write`]. On channel disconnect (handle dropped) the tail
/// is flushed best-effort.
fn writer_loop(shared: Arc<Shared>, rx: mpsc::Receiver<Vec<Msg>>) {
    while let Ok(batch) = rx.recv() {
        shared.write(batch, || rx.try_recv().ok());
    }
    let mut inner = shared.inner.lock().unwrap();
    let _ = shared.sync_now(&mut inner);
}

/// The write-ahead log: an append handle over a directory of segments.
///
/// Appends are staged producer-side and handed to the frame writer
/// ([`Shared::write`]) in batches. Under `every-n` and `never` that is a
/// dedicated thread (group commit off the measurement hot path); `always`
/// has no thread — every append is forwarded at once and written by the
/// caller, so it has been fsynced when the call returns.
pub struct Wal {
    shared: Arc<Shared>,
    /// Staged messages not yet forwarded to the frame writer. Kept
    /// producer-side so a staging push is a cheap uncontended lock, not a
    /// channel wake.
    stage: Mutex<Vec<Msg>>,
    /// `Some` when a writer thread runs, `None` for `always`.
    tx: Option<Sender<Vec<Msg>>>,
    writer_thread: Option<thread::JoinHandle<()>>,
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Forward the staged tail, then disconnect the channel so the writer
        // drains and flushes, then join it — a dropped handle leaves every
        // queued record on disk.
        let staged = std::mem::take(&mut *self.stage.lock().unwrap());
        if !staged.is_empty() {
            self.forward(staged);
        }
        drop(self.tx.take());
        if let Some(h) = self.writer_thread.take() {
            let _ = h.join();
        }
    }
}

impl Wal {
    /// Wrap freshly-opened segment state in a handle, spawning the writer
    /// thread for the asynchronous commit modes.
    fn finish(
        dir: &Path,
        policy: FsyncPolicy,
        rotate_bytes: u64,
        vfs: Arc<dyn Vfs>,
        inner: Inner,
    ) -> Wal {
        let shared = Arc::new(Shared {
            dir: dir.to_path_buf(),
            policy,
            rotate_bytes,
            vfs,
            degraded: AtomicBool::new(false),
            inner: Mutex::new(inner),
            tokens: Mutex::new(Vec::new()),
        });
        let stage = Mutex::new(Vec::new());
        if policy == FsyncPolicy::Always {
            return Wal { shared, stage, tx: None, writer_thread: None };
        }
        let (tx, rx) = mpsc::channel();
        let thread_shared = Arc::clone(&shared);
        let h = thread::Builder::new()
            .name("tsdb-wal".into())
            .spawn(move || writer_loop(thread_shared, rx))
            .expect("spawn wal writer thread");
        Wal { shared, stage, tx: Some(tx), writer_thread: Some(h) }
    }

    /// Hand a batch to the frame writer: the writer thread, or — under
    /// `always` — this thread, which returns with the batch fsynced.
    fn forward(&self, batch: Vec<Msg>) {
        match &self.tx {
            Some(tx) => {
                if tx.send(batch).is_err() {
                    metrics().wal_write_errors.inc();
                }
            }
            None => self.shared.write(batch, || None),
        }
    }

    /// True when a stage holding `staged` (messages or bytes) against a
    /// forwarding threshold of `limit` must be forwarded now: `always`
    /// forwards everything at once.
    fn stage_due(&self, staged: usize, limit: usize) -> bool {
        self.tx.is_none() || staged >= limit
    }

    /// Open (or create) the log in `dir` through `vfs`, continuing after the
    /// last intact record of the newest segment. A torn tail is truncated
    /// and counted.
    pub fn open_with(
        dir: &Path,
        policy: FsyncPolicy,
        rotate_bytes: u64,
        vfs: Arc<dyn Vfs>,
    ) -> io::Result<Wal> {
        vfs.create_dir_all(dir)?;
        let segments = segment::list_segments_with(&*vfs, dir)?;
        let inner = match segments.last() {
            Some(&(seq, ref path)) => {
                let scan = segment::scan_with(&*vfs, path, 0, false)?;
                if scan.torn {
                    metrics().wal_torn_records.inc();
                }
                Inner::new(SegmentWriter::open_end_with(&*vfs, path, scan.valid_len)?, seq)
            }
            None => Inner::new(SegmentWriter::create_with(&*vfs, &segment_path(dir, 1))?, 1),
        };
        Ok(Wal::finish(dir, policy, rotate_bytes, vfs, inner))
    }

    /// Open the log positioned exactly at `pos`, discarding everything past
    /// it: segments newer than `pos.segment` are deleted and the segment at
    /// `pos` is truncated to `pos.offset`. Used on resume-from-checkpoint —
    /// the discarded tail was never acknowledged by a checkpoint and is
    /// regenerated by deterministic re-execution. Returns the log and the
    /// number of intact records discarded.
    pub fn open_at_with(
        dir: &Path,
        policy: FsyncPolicy,
        rotate_bytes: u64,
        pos: WalPosition,
        vfs: Arc<dyn Vfs>,
    ) -> io::Result<(Wal, u64)> {
        vfs.create_dir_all(dir)?;
        let mut discarded = 0u64;
        let mut target: Option<PathBuf> = None;
        for (seq, path) in segment::list_segments_with(&*vfs, dir)? {
            if seq > pos.segment {
                let scan = segment::scan_with(&*vfs, &path, 0, false)?;
                discarded += scan.records.len() as u64;
                vfs.remove_file(&path)?;
            } else if seq == pos.segment {
                target = Some(path);
            }
        }
        let inner = match target {
            Some(path) => {
                let scan = segment::scan_with(&*vfs, &path, pos.offset, false)?;
                discarded += scan.records.len() as u64;
                if scan.torn && scan.valid_len > pos.offset {
                    metrics().wal_torn_records.inc();
                }
                // The checkpoint position was durable when written; a file
                // that is nonetheless shorter (or torn earlier) only loses
                // records the checkpoint snapshot already covers.
                let valid = pos.offset.min(scan.valid_len).max(HEADER_LEN);
                Inner::new(SegmentWriter::open_end_with(&*vfs, &path, valid)?, pos.segment)
            }
            None => {
                let seq = pos.segment.max(1);
                Inner::new(SegmentWriter::create_with(&*vfs, &segment_path(dir, seq))?, seq)
            }
        };
        metrics().wal_tail_discarded.add(discarded);
        Ok((Wal::finish(dir, policy, rotate_bytes, vfs, inner), discarded))
    }

    pub fn dir(&self) -> &Path {
        &self.shared.dir
    }

    pub fn policy(&self) -> FsyncPolicy {
        self.shared.policy
    }

    /// True while the log is shedding raw-sample persistence because the
    /// disk reported ENOSPC. Verdict-critical records are still attempted.
    pub fn degraded(&self) -> bool {
        self.shared.degraded.load(Ordering::Relaxed)
    }

    /// Append one control record (an annotation) under the configured
    /// commit policy. Failures are counted (`manic_tsdb_wal_write_errors`)
    /// but do not poison the log handle — the in-memory store stays
    /// authoritative.
    pub fn append(&self, rec: WalRecord) {
        if let WalRecord::Sample { key, point } = &rec {
            // Framed like every other sample; the throwaway token costs one
            // registry slot, which no caller on a hot path pays.
            return self.append_samples(key, &OnceLock::new(), &[*point]);
        }
        let mut stage = self.stage.lock().unwrap();
        stage.push(Msg::Rec(Box::new(rec)));
        if self.stage_due(stage.len(), STAGE_FLUSH) {
            let batch = std::mem::take(&mut *stage);
            drop(stage);
            self.forward(batch);
        }
    }

    /// Sample path: `token` caches this series' id in the WAL's key-token
    /// registry (registered here on first use), so steady-state appends cost
    /// a [`SAMPLE_ENTRY`]-byte memcpy per point into the staging buffer on
    /// the caller's thread — no refcount traffic, no encoding — under a
    /// single stage-lock acquisition. Byte-identical to appending the points
    /// one by one, except that under `always` the call is one `B` frame and
    /// one fsync where one-by-one appends are a frame and an fsync each.
    pub fn append_samples(&self, key: &SeriesKey, token: &OnceLock<u32>, points: &[Point]) {
        if points.is_empty() {
            return;
        }
        let id = match token.get() {
            Some(&id) => id,
            None => match format_key(key) {
                Ok(s) => {
                    let mut tokens = self.shared.tokens.lock().unwrap();
                    let id = tokens.len() as u32;
                    tokens.push(s.into());
                    drop(tokens);
                    // A racing registration wastes one registry slot; both
                    // slots hold the same token text, so either id encodes
                    // identically.
                    *token.get_or_init(|| id)
                }
                Err(_) => {
                    metrics().wal_write_errors.inc();
                    return;
                }
            },
        };
        let mut stage = self.stage.lock().unwrap();
        if !matches!(stage.last(), Some(Msg::Bin(_))) {
            let room = if self.tx.is_some() { STAGE_SAMPLE_BYTES } else { 0 };
            stage.push(Msg::Bin(Vec::with_capacity(room)));
        }
        let Some(Msg::Bin(bin)) = stage.last_mut() else { unreachable!() };
        for &point in points {
            if push_sample(bin, id, point).is_err() {
                metrics().wal_write_errors.inc();
            }
        }
        if self.stage_due(bin.len(), STAGE_SAMPLE_BYTES) {
            let batch = std::mem::take(&mut *stage);
            drop(stage);
            self.forward(batch);
        }
    }

    /// Flush buffers and fsync regardless of policy (checkpoint and drain
    /// paths). A barrier: every append made before this call is on disk when
    /// it returns.
    pub fn flush_and_sync(&self) -> io::Result<()> {
        let (ack_tx, ack_rx) = mpsc::channel();
        // The staged tail rides in front of the barrier in one batch so the
        // sync covers everything enqueued before this call.
        let mut batch = std::mem::take(&mut *self.stage.lock().unwrap());
        batch.push(Msg::Sync(ack_tx));
        self.forward(batch);
        ack_rx
            .recv()
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "wal writer thread gone"))?
    }

    /// Current end-of-log position. Meaningful as a durability point only
    /// after [`Self::flush_and_sync`].
    pub fn position(&self) -> WalPosition {
        let inner = self.shared.inner.lock().unwrap();
        WalPosition { segment: inner.seq, offset: inner.writer.offset() }
    }

    /// Delete segments strictly older than `segment` (they are fully
    /// covered by a checkpoint snapshot). Returns how many were removed.
    pub fn gc_before(&self, segment: u64) -> io::Result<usize> {
        // Hold the segment lock so rotation cannot race the directory walk.
        let _inner = self.shared.inner.lock().unwrap();
        let mut removed = 0;
        for (seq, path) in segment::list_segments_with(&*self.shared.vfs, &self.shared.dir)? {
            if seq < segment {
                self.shared.vfs.remove_file(&path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

/// Outcome of a replay.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Segment files visited.
    pub segments: u64,
    /// Records applied, by kind.
    pub samples: u64,
    pub annotations: u64,
    /// Torn tails fenced off (truncation events at a segment end).
    pub torn_records: u64,
    /// CRC-valid payloads that failed to decode (skipped).
    pub decode_errors: u64,
    /// Mid-file corrupt ranges resync skipped over (each range holds one or
    /// more unparseable frames); only non-zero for resync-mode replay.
    pub quarantined_frames: u64,
    /// Bytes covered by those quarantined ranges.
    pub quarantined_bytes: u64,
    /// Time windows `[from, to)` flagged GAP on every series because the
    /// covering WAL range was quarantined or lost mid-directory.
    pub gap_windows: Vec<(i64, i64)>,
}

impl ReplayReport {
    pub fn records(&self) -> u64 {
        self.samples + self.annotations
    }

    /// True when replay had to heal around corruption (as opposed to a
    /// clean log or a plain crash tail).
    pub fn corrupted(&self) -> bool {
        self.quarantined_frames > 0 || !self.gap_windows.is_empty()
    }
}

fn replay_payloads(
    payloads: &[(u64, Vec<u8>)],
    store: &Store,
    report: &mut ReplayReport,
    keymap: &mut Vec<Option<SeriesKey>>,
) {
    debug_assert!(store.wal().is_none(), "replaying into a journaled store");
    let mut run: Vec<Point> = Vec::new();
    for (_, payload) in payloads {
        match payload.split_first() {
            // Key definition: `u32 LE id` + escaped key token. Later
            // definitions overwrite — ids restart at 0 whenever the log is
            // reopened, and the writer re-defines keys after every sync
            // barrier, so in-order replay always holds the current mapping.
            Some((b'K', body)) => {
                let def = body.split_at_checked(4).and_then(|(id, tok)| {
                    let id = u32::from_le_bytes(id.try_into().unwrap()) as usize;
                    let key = parse_key(std::str::from_utf8(tok).ok()?).ok()?;
                    Some((id, key))
                });
                match def {
                    Some((id, key)) => {
                        if keymap.len() <= id {
                            keymap.resize(id + 1, None);
                        }
                        keymap[id] = Some(key);
                    }
                    None => report.decode_errors += 1,
                }
            }
            // Packed samples: each run of same-id entries is one
            // `write_batch` (one shard lock, no key clone).
            Some((b'B', body)) => {
                if body.len() % SAMPLE_ENTRY != 0 {
                    report.decode_errors += 1;
                }
                let id_of = |e: &[u8]| u32::from_le_bytes(e[..4].try_into().unwrap());
                let mut rest = &body[..body.len() - body.len() % SAMPLE_ENTRY];
                while !rest.is_empty() {
                    let id = id_of(rest);
                    let n = rest.chunks_exact(SAMPLE_ENTRY).take_while(|e| id_of(e) == id).count();
                    let (same_id, tail) = rest.split_at(n * SAMPLE_ENTRY);
                    rest = tail;
                    let Some(key) = keymap.get(id as usize).and_then(Option::as_ref) else {
                        report.decode_errors += n as u64;
                        continue;
                    };
                    run.clear();
                    run.extend(same_id.chunks_exact(SAMPLE_ENTRY).map(|e| {
                        let t = i64::from_le_bytes(e[4..12].try_into().unwrap());
                        let v = f64::from_bits(u64::from_le_bytes(e[12..].try_into().unwrap()));
                        Point::new(t, v)
                    }));
                    store.write_batch(key, &run);
                    report.samples += n as u64;
                    metrics().wal_replayed_records.add(n as u64);
                }
            }
            _ => match WalRecord::decode(payload) {
                Ok(rec) => {
                    match rec {
                        WalRecord::Sample { .. } => unreachable!("decode yields control records"),
                        WalRecord::Annotate { .. } => report.annotations += 1,
                    }
                    store.apply_record(&rec);
                    metrics().wal_replayed_records.inc();
                }
                Err(_) => report.decode_errors += 1,
            },
        }
    }
}

/// Replay a single segment file (e.g. a checkpoint's store snapshot) into
/// `store`. The store must not have a WAL attached yet, or the replay would
/// be re-logged. Snapshot replay is strict (no resync): a corrupt snapshot
/// fails its content-hash check and the checkpoint machinery falls back a
/// generation instead.
pub fn replay_segment_file_with(
    vfs: &dyn Vfs,
    path: &Path,
    store: &Store,
) -> io::Result<ReplayReport> {
    let mut report = ReplayReport { segments: 1, ..ReplayReport::default() };
    let scan = segment::scan_with(vfs, path, 0, false)?;
    if scan.torn {
        report.torn_records += 1;
        metrics().wal_torn_records.inc();
    }
    let mut keymap = Vec::new();
    replay_payloads(&scan.records, store, &mut report, &mut keymap);
    Ok(report)
}

/// First and last sample timestamps carried by a payload, if any.
fn payload_times(payload: &[u8]) -> Option<(i64, i64)> {
    match payload.split_first() {
        Some((b'B', body)) => {
            let n = body.len() / SAMPLE_ENTRY;
            if n == 0 {
                return None;
            }
            let t_at = |i: usize| {
                let e = &body[i * SAMPLE_ENTRY..(i + 1) * SAMPLE_ENTRY];
                i64::from_le_bytes(e[4..12].try_into().unwrap())
            };
            Some((t_at(0), t_at(n - 1)))
        }
        _ => None,
    }
}

/// Conservative GAP window bracketing a quarantined byte range: from the
/// last sample time before it to just past the first sample time after it.
fn bracket_gap(before: Option<i64>, after: Option<i64>) -> Option<(i64, i64)> {
    match (before, after) {
        (Some(a), Some(b)) => {
            let (lo, hi) = (a.min(b), a.max(b));
            Some((lo, hi.saturating_add(1)))
        }
        (Some(a), None) => Some((a, a.saturating_add(1))),
        (None, Some(b)) => Some((b, b.saturating_add(1))),
        (None, None) => None,
    }
}

/// GAP window for a quarantined `[s, e)` byte range inside one segment's
/// decoded record list (offsets are frame ends, sorted ascending).
fn gap_window(records: &[(u64, Vec<u8>)], s: u64, e: u64) -> Option<(i64, i64)> {
    let before = records
        .iter()
        .rev()
        .filter(|(o, _)| *o <= s)
        .find_map(|(_, p)| payload_times(p).map(|(_, last)| last));
    let after = records
        .iter()
        .filter(|(o, _)| *o > e)
        .find_map(|(_, p)| payload_times(p).map(|(first, _)| first));
    bracket_gap(before, after)
}

/// Self-healing replay of `dir` into `store`, bounded to `(from, to]`:
/// records at or before `from` are skipped (a checkpoint snapshot covers
/// them), records after `to` (when given) are ignored — that is how
/// generation fallback replays an *older* snapshot forward to a *newer*
/// checkpoint's recorded position.
///
/// Mid-file corrupt frames are quarantined (resync scan), counted, and
/// fenced with GAP quality windows over every series, so one rotten frame
/// costs a flagged measurement window instead of the whole log. A torn tail
/// on the *last* segment is the normal crash tail and simply ends replay; a
/// torn tail with more segments after it is corruption and is bridged with
/// a GAP window into the next segment. Replay is deterministic: the same
/// segments always rebuild identical store contents.
pub fn replay_dir_range(
    vfs: &dyn Vfs,
    dir: &Path,
    store: &Store,
    from: WalPosition,
    to: Option<WalPosition>,
) -> io::Result<ReplayReport> {
    let mut report = ReplayReport::default();
    let mut keymap = Vec::new();
    // Open inter-segment gap: the last sample time of a mid-directory torn
    // segment, waiting for the next segment's first time to close it.
    let mut open_gap: Option<Option<i64>> = None;
    let segs: Vec<(u64, PathBuf)> = segment::list_segments_with(vfs, dir)?
        .into_iter()
        .filter(|&(seq, _)| seq >= from.segment && to.is_none_or(|t| seq <= t.segment))
        .collect();
    let last_idx = segs.len().saturating_sub(1);
    for (idx, (seq, path)) in segs.into_iter().enumerate() {
        let start = if seq == from.segment { from.offset } else { 0 };
        let scan = segment::scan_with(vfs, &path, start, true)?;
        report.segments += 1;
        let bound = to.filter(|t| t.segment == seq).map(|t| t.offset);
        let records: &[(u64, Vec<u8>)] = match bound {
            Some(b) => {
                let cut = scan.records.partition_point(|&(o, _)| o <= b);
                &scan.records[..cut]
            }
            None => &scan.records,
        };
        if let Some(before) = open_gap.take() {
            let after = records.iter().find_map(|(_, p)| payload_times(p).map(|(f, _)| f));
            if let Some(w) = bracket_gap(before, after) {
                report.gap_windows.push(w);
            }
        }
        for &(s, e) in &scan.quarantined {
            if e <= start || bound.is_some_and(|b| s >= b) {
                // Fully below the snapshot-covered prefix, or past the
                // replay bound: not this replay's problem.
                continue;
            }
            report.quarantined_frames += 1;
            report.quarantined_bytes += e - s;
            metrics().wal_torn_records.inc();
            metrics().wal_quarantined_bytes.add(e - s);
            if let Some(w) = gap_window(records, s, e) {
                report.gap_windows.push(w);
            }
        }
        replay_payloads(records, store, &mut report, &mut keymap);
        if scan.torn {
            report.torn_records += 1;
            metrics().wal_torn_records.inc();
            if idx == last_idx {
                // Normal crash tail: everything past it was unacknowledged.
                break;
            }
            // Corruption swallowed the end of a mid-directory segment; keep
            // replaying the rest of the log and fence the hole.
            report.quarantined_frames += 1;
            open_gap = Some(
                records.iter().rev().find_map(|(_, p)| payload_times(p).map(|(_, l)| l)),
            );
        }
    }
    for &(f, t) in &report.gap_windows {
        store.annotate_all(f, t, crate::quality::GAP);
        metrics().wal_gap_annotations.inc();
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::Point;
    use manic_vfs::RealVfs;

    /// Replay from the start of the log.
    const START: WalPosition = WalPosition { segment: 0, offset: 0 };

    fn k(link: &str) -> SeriesKey {
        SeriesKey::with_tags("tslp", &[("vp", "v1"), ("link", link), ("end", "far")])
    }

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("manic-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn policy_parse_and_display_roundtrip() {
        for (s, want) in [
            ("always", FsyncPolicy::Always),
            ("never", FsyncPolicy::Never),
            ("every-n", FsyncPolicy::EveryN(64)),
            ("every-7", FsyncPolicy::EveryN(7)),
        ] {
            assert_eq!(FsyncPolicy::parse(s), Some(want));
            assert_eq!(FsyncPolicy::parse(&want.to_string()), Some(want));
        }
        for bad in ["", "sometimes", "every-0", "every-x", "every-"] {
            assert_eq!(FsyncPolicy::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn record_codec_roundtrip() {
        let rec = WalRecord::Annotate { key: k("od d,=\\"), from: 0, to: 600, flags: 0b1010 };
        assert_eq!(WalRecord::decode(&rec.encode().unwrap()).unwrap(), rec);
        assert!(matches!(WalRecord::decode(b""), Err(WalCodecError::Empty)));
        assert!(matches!(WalRecord::decode(b"Zx"), Err(WalCodecError::UnknownKind(b'Z'))));
        // `R` (a retention cutoff) is no frame kind.
        assert!(matches!(WalRecord::decode(b"R900"), Err(WalCodecError::UnknownKind(b'R'))));
        assert!(matches!(WalRecord::decode(b"A only-a-key"), Err(WalCodecError::Malformed(_))));
        assert!(matches!(WalRecord::decode(&[b'A', 0xFF, 0xFE]), Err(WalCodecError::NotUtf8)));
        // A sample has no record form, out or in.
        let sample = WalRecord::Sample { key: k("1.2.3.4"), point: Point::new(300, 18.5) };
        assert!(matches!(sample.encode(), Err(LineProtoError::Unencodable(_))));
        assert!(matches!(
            WalRecord::decode(b"Stslp,vp=v1 value=18.5 300"),
            Err(WalCodecError::UnknownKind(b'S'))
        ));
    }

    #[test]
    fn replay_rebuilds_and_is_deterministic() {
        let dir = tmpdir("replay");
        let wal = Wal::open_with(&dir, FsyncPolicy::Always, 1 << 20, manic_vfs::real()).unwrap();
        let live = Store::new();
        live.attach_wal(std::sync::Arc::new(wal));
        for t in 0..20 {
            live.write(&k("a"), t * 300, t as f64);
        }
        live.annotate(&k("a"), 0, 600, 1);
        live.write(&k("b"), 5000, 2.5);

        let r1 = Store::new();
        let rep1 = replay_dir_range(&RealVfs, &dir, &r1, START, None).unwrap();
        let r2 = Store::new();
        let rep2 = replay_dir_range(&RealVfs, &dir, &r2, START, None).unwrap();
        assert_eq!(rep1, rep2);
        assert_eq!(rep1.torn_records, 0);
        assert_eq!(rep1.samples, 21);
        assert_eq!(rep1.annotations, 1);
        assert_eq!(r1.content_hash(), r2.content_hash());
        assert_eq!(r1.content_hash(), live.content_hash(), "replay matches the live store");
        assert_eq!(r1.point_count(), live.point_count());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_spreads_records_across_segments_and_gc_drops_old() {
        let dir = tmpdir("rotate");
        let wal = Wal::open_with(&dir, FsyncPolicy::EveryN(8), 256, manic_vfs::real()).unwrap();
        let store = Store::new();
        let wal = std::sync::Arc::new(wal);
        store.attach_wal(std::sync::Arc::clone(&wal));
        for t in 0..100 {
            store.write(&k("a"), t, t as f64);
            if t % 10 == 9 {
                // Flush every 10 samples so the batched fast path emits
                // many frames and the 256-byte threshold actually rotates.
                wal.flush_and_sync().unwrap();
            }
        }
        wal.flush_and_sync().unwrap();
        let segs = segment::list_segments_with(&RealVfs, &dir).unwrap();
        assert!(segs.len() > 2, "256-byte threshold rotates: {} segments", segs.len());
        let pos = wal.position();
        let rebuilt = Store::new();
        let rep = replay_dir_range(&RealVfs, &dir, &rebuilt, START, None).unwrap();
        assert_eq!(rep.samples, 100);
        assert_eq!(rebuilt.content_hash(), store.content_hash());
        let removed = wal.gc_before(pos.segment).unwrap();
        assert_eq!(removed, segs.len() - 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_policy_replays_identically_and_from_barriers() {
        for policy in [FsyncPolicy::Always, FsyncPolicy::EveryN(64), FsyncPolicy::Never] {
            let dir = tmpdir(&format!("barriers-{policy}"));
            let wal =
                std::sync::Arc::new(Wal::open_with(&dir, policy, 1 << 20, manic_vfs::real()).unwrap());
            let live = Store::new();
            live.attach_wal(std::sync::Arc::clone(&wal));
            // Phase 1, then a sync barrier whose position acts as a checkpoint.
            for t in 0..50 {
                live.write(&k("a"), t * 300, t as f64);
                live.write(&k("b"), t * 300, -t as f64);
            }
            wal.flush_and_sync().unwrap();
            let barrier = wal.position();
            // Phase 2 mixes samples with a text record to exercise interleaving.
            live.annotate(&k("a"), 0, 600, 1);
            for t in 50..80 {
                live.write(&k("a"), t * 300, t as f64);
                live.write(&k("c"), t * 300, 0.5);
            }
            // NaN is rejected, not silently corrupted.
            live.write(&k("a"), 99_000, f64::NAN);
            wal.flush_and_sync().unwrap();
            drop(wal);

            // Full replay rebuilds everything except the rejected NaN point.
            let full = Store::new();
            let rep = replay_dir_range(&RealVfs, &dir, &full, START, None).unwrap();
            assert_eq!(rep.samples, 160, "{policy}");
            assert_eq!(rep.annotations, 1);
            assert_eq!(rep.decode_errors, 0, "{policy}");
            assert_eq!(full.point_count(), live.point_count() - 1);

            // A tail replay from the barrier is self-contained: the writer
            // re-defines key tokens after every sync, so the phase-2 records
            // decode without seeing phase 1.
            let tail = Store::new();
            for t in 0..50 {
                tail.write(&k("a"), t * 300, t as f64);
                tail.write(&k("b"), t * 300, -t as f64);
            }
            let tail_rep = replay_dir_range(&RealVfs, &dir, &tail, barrier, None).unwrap();
            assert_eq!(tail_rep.samples, 60, "{policy}");
            assert_eq!(tail_rep.decode_errors, 0, "{policy}: a key was not re-defined");
            assert_eq!(tail.content_hash(), full.content_hash());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn always_acknowledges_a_batch_as_one_frame_and_one_fsync() {
        let dir = tmpdir("always-batch");
        let wal = std::sync::Arc::new(
            Wal::open_with(&dir, FsyncPolicy::Always, 1 << 20, manic_vfs::real()).unwrap(),
        );
        let store = Store::new();
        store.attach_wal(std::sync::Arc::clone(&wal));
        let fsyncs = || metrics().wal_fsyncs.get();
        let points: Vec<Point> = (0..40).map(|t| Point::new(t * 300, t as f64)).collect();
        let before = fsyncs();
        store.write_batch(&k("a"), &points);
        // Other tests fsync concurrently, so the counter bounds from below;
        // the frame count is exact, and on disk before any barrier.
        assert!(fsyncs() > before);
        let (_, path) = segment::list_segments_with(&RealVfs, &dir).unwrap().pop().unwrap();
        let kinds = |path: &Path| -> Vec<u8> {
            let scan = segment::scan_with(&RealVfs, path, 0, false).unwrap();
            scan.records.iter().map(|(_, p)| p[0]).collect()
        };
        assert_eq!(kinds(&path), b"KB");
        store.write(&k("a"), 99_000, 1.0);
        store.annotate(&k("a"), 0, 600, 1);
        assert_eq!(kinds(&path), b"KBBA");
        let rebuilt = Store::new();
        let rep = replay_dir_range(&RealVfs, &dir, &rebuilt, START, None).unwrap();
        assert_eq!(rep.samples, 41);
        assert_eq!(rebuilt.content_hash(), store.content_hash());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn samples_without_a_live_key_definition_are_decode_errors() {
        let path = tmpdir("orphan-b").with_extension("seg");
        let mut w = SegmentWriter::create_with(&RealVfs, &path).unwrap();
        let (mut frame, mut entries) = (Vec::new(), Vec::new());
        key_frame(&mut frame, 3, &format_key(&k("a")).unwrap());
        w.append(&frame).unwrap();
        for (id, t) in [(3, 0), (3, 300), (9, 600), (9, 900), (3, 1200)] {
            push_sample(&mut entries, id, Point::new(t, 1.0)).unwrap();
        }
        for chunk in sample_chunks(&entries) {
            sample_frame(&mut frame, chunk);
            w.append(&frame).unwrap();
        }
        w.append(b"B-not-a-multiple-of-twenty").unwrap();
        w.sync().unwrap();
        drop(w);
        let store = Store::new();
        let rep = replay_segment_file_with(&RealVfs, &path, &store).unwrap();
        assert_eq!(rep.samples, 3, "both runs of id 3 apply");
        assert_eq!(rep.decode_errors, 2 + 1 + 1, "one per orphan entry, one ragged frame, one orphan in it");
        assert_eq!(store.query(&k("a"), i64::MIN, i64::MAX).len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn midfile_corruption_is_quarantined_and_gap_flagged() {
        let dir = tmpdir("quarantine");
        let wal = Wal::open_with(&dir, FsyncPolicy::Always, 1 << 20, manic_vfs::real()).unwrap();
        let live = Store::new();
        live.attach_wal(std::sync::Arc::new(wal));
        for t in 0..10i64 {
            live.write(&k("a"), t * 300, t as f64);
        }
        let (_, path) = segment::list_segments_with(&RealVfs, &dir).unwrap().pop().unwrap();
        let clean = segment::scan_with(&RealVfs, &path, 0, false).unwrap();
        assert_eq!(clean.records.len(), 11, "one K frame, then a B frame per write");
        // Flip one payload byte inside the 6th sample frame (t=1500).
        let frame_start = clean.records[5].0;
        let mut raw = std::fs::read(&path).unwrap();
        raw[frame_start as usize + 9] ^= 0x01;
        std::fs::write(&path, &raw).unwrap();

        let rebuilt = Store::new();
        let rep = replay_dir_range(&RealVfs, &dir, &rebuilt, START, None).unwrap();
        assert_eq!(rep.samples, 9, "all but the corrupt frame replay");
        assert_eq!(rep.torn_records, 0, "mid-file corruption is not a torn tail");
        assert_eq!(rep.quarantined_frames, 1);
        assert!(rep.quarantined_bytes > 0);
        assert!(rep.corrupted());
        // The hole between t=1200 and t=1800 is fenced with a GAP window.
        assert_eq!(rep.gap_windows, vec![(1200, 1801)]);
        let flagged = rebuilt
            .quality_windows(&k("a"))
            .iter()
            .any(|&(f, t, fl)| f <= 1200 && t >= 1800 && fl & crate::quality::GAP != 0);
        assert!(flagged, "GAP annotation covers the quarantined window");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_sheds_samples_but_keeps_control_records() {
        use manic_vfs::{DiskFaultEvent, DiskFaultKind, DiskFaultPlan, FaultVfs};
        let dir = tmpdir("enospc");
        // The disk is full from the first physical write on (the segment
        // writer buffers, so that is the first barrier's flush).
        let vfs = FaultVfs::new(DiskFaultPlan::new(vec![DiskFaultEvent::window(
            DiskFaultKind::Enospc,
            0,
            u64::MAX,
        )]));
        let wal = Wal::open_with(&dir, FsyncPolicy::EveryN(4), 1 << 20, Arc::new(vfs.clone()))
            .unwrap();
        let live = Store::new();
        let wal = std::sync::Arc::new(wal);
        live.attach_wal(std::sync::Arc::clone(&wal));
        for t in 0..50i64 {
            live.write(&k("a"), t * 300, t as f64);
        }
        // First barrier forces the staged burst into the full disk.
        let _ = wal.flush_and_sync();
        assert!(wal.degraded(), "ENOSPC flips the log into degraded mode");
        assert!(vfs.stats().enospc > 0);
        // Verdict-critical records are still attempted while degraded.
        live.annotate(&k("a"), 0, 600, crate::quality::SUSPECT_RATE_LIMITED);
        let _ = wal.flush_and_sync();
        // The in-memory store is authoritative regardless of shedding.
        assert_eq!(live.point_count(), 50);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_at_truncates_unacknowledged_tail() {
        let dir = tmpdir("openat");
        let wal = Wal::open_with(&dir, FsyncPolicy::Always, 1 << 20, manic_vfs::real()).unwrap();
        let store = Store::new();
        let wal = std::sync::Arc::new(wal);
        store.attach_wal(std::sync::Arc::clone(&wal));
        for t in 0..5 {
            store.write(&k("a"), t, 1.0);
        }
        wal.flush_and_sync().unwrap();
        let ack = wal.position();
        for t in 5..9 {
            store.write(&k("a"), t, 1.0);
        }
        wal.flush_and_sync().unwrap();
        drop((store, wal));

        let (wal2, discarded) =
            Wal::open_at_with(&dir, FsyncPolicy::Always, 1 << 20, ack, manic_vfs::real()).unwrap();
        assert_eq!(discarded, 5, "post-checkpoint tail discarded: the re-defined K and four B");
        assert_eq!(wal2.position(), ack);
        let rebuilt = Store::new();
        let rep = replay_dir_range(&RealVfs, &dir, &rebuilt, START, None).unwrap();
        assert_eq!(rep.samples, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
