//! Virtual filesystem shim for the storage layer.
//!
//! Every file the durability path touches — WAL segments, checkpoint
//! snapshots and metadata, the obs journal sink — goes through the small
//! [`Vfs`] trait instead of `std::fs` directly. Production uses [`RealVfs`]
//! (a thin passthrough); the fault-injection harness swaps in [`FaultVfs`],
//! which wraps the real disk and injects EIO, ENOSPC, short/torn writes,
//! fsync-then-crash lies, and bit flips on a deterministic, seedable
//! schedule — the storage counterpart of `netsim/fault.rs`: a plan is a
//! pure function of its event list and the per-class operation counter, so
//! a trial is reproducible from its seed.
//!
//! [`FaultVfs`] models the page cache explicitly: writes land in a pending
//! buffer per file and only reach the real disk on fsync. That makes two
//! failure modes honest that a passthrough cannot express: a *fsync lie*
//! (sync acknowledges but leaves the pending bytes in memory) and a *power
//! cut* ([`FaultVfs::power_cut`]: every unflushed byte is dropped and all
//! further operations fail), which together reproduce the
//! fsync-then-crash data loss that recovery must survive.

use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Raw `ENOSPC` errno (Linux); [`is_enospc`] also matches the portable
/// `ErrorKind::StorageFull` so callers never string-match.
pub const ENOSPC: i32 = 28;

/// Is this error "device full"? The WAL's degraded mode keys off this.
pub fn is_enospc(e: &io::Error) -> bool {
    e.raw_os_error() == Some(ENOSPC) || e.kind() == io::ErrorKind::StorageFull
}

/// An open file handle. `io::Write` covers the append path (all storage
/// writes are sequential); the extra methods are the durability and
/// truncation points the storage layer needs.
pub trait VfsFile: Write + Send {
    /// fdatasync: commit data blocks and file size.
    fn sync_data(&mut self) -> io::Result<()>;
    /// Full fsync (metadata included).
    fn sync_all(&mut self) -> io::Result<()>;
    /// Truncate (or extend) to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Position the write cursor at `pos` from the start.
    fn seek_to(&mut self, pos: u64) -> io::Result<()>;
}

/// Filesystem operations the storage layer performs. Object-safe so a
/// handle is an `Arc<dyn Vfs>` threaded through the WAL, checkpoint, and
/// journal constructors.
pub trait Vfs: Send + Sync {
    /// Implementation name, for operator-facing status.
    fn kind(&self) -> &'static str;
    /// Create (truncating) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Open an existing file read+write (reopen-for-append path).
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    fn remove_dir_all(&self, path: &Path) -> io::Result<()>;
    /// File names (not paths) of directory entries.
    fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>>;
    /// fsync the directory itself (persist renames).
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
    fn exists(&self, path: &Path) -> bool;

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        String::from_utf8(self.read(path)?)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file is not UTF-8"))
    }
}

/// The process-default VFS: a `RealVfs` behind an `Arc`, for call sites
/// that do not thread an explicit handle.
pub fn real() -> Arc<dyn Vfs> {
    Arc::new(RealVfs)
}

// ------------------------------------------------------------------- real

/// Passthrough to `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealVfs;

struct RealFile(std::fs::File);

impl Write for RealFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl VfsFile for RealFile {
    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        self.0.seek(SeekFrom::Start(pos)).map(|_| ())
    }
}

impl Vfs for RealVfs {
    fn kind(&self) -> &'static str {
        "real"
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile(std::fs::File::create(path)?)))
    }
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let f = std::fs::OpenOptions::new().read(true).write(true).open(path)?;
        Ok(Box::new(RealFile(f)))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut out)?;
        Ok(out)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_dir_all(path)
    }
    fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(path)? {
            if let Some(name) = entry?.file_name().to_str() {
                out.push(name.to_string());
            }
        }
        Ok(out)
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }
    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

// ------------------------------------------------------------------ faults

/// One storage fault kind. Write-path kinds fire on the write-operation
/// counter, [`DiskFaultKind::FsyncLie`] on the sync counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFaultKind {
    /// The write fails with EIO; nothing is persisted.
    Eio,
    /// The write fails with ENOSPC (device full).
    Enospc,
    /// Only a prefix of the buffer lands (short write), then EIO.
    TornWrite,
    /// fsync returns success but the pending bytes stay in "page cache" —
    /// lost at the next [`FaultVfs::power_cut`].
    FsyncLie,
    /// One bit of the written buffer is flipped (silent media corruption;
    /// the write itself succeeds).
    BitFlip,
}

impl DiskFaultKind {
    pub const ALL: [DiskFaultKind; 5] = [
        DiskFaultKind::Eio,
        DiskFaultKind::Enospc,
        DiskFaultKind::TornWrite,
        DiskFaultKind::FsyncLie,
        DiskFaultKind::BitFlip,
    ];

    pub fn as_str(&self) -> &'static str {
        match self {
            DiskFaultKind::Eio => "eio",
            DiskFaultKind::Enospc => "enospc",
            DiskFaultKind::TornWrite => "torn",
            DiskFaultKind::FsyncLie => "lie",
            DiskFaultKind::BitFlip => "flip",
        }
    }

    pub fn parse(s: &str) -> Option<DiskFaultKind> {
        DiskFaultKind::ALL.into_iter().find(|k| k.as_str() == s)
    }

    /// Does this kind key off the sync counter (vs the write counter)?
    fn on_sync(&self) -> bool {
        matches!(self, DiskFaultKind::FsyncLie)
    }
}

/// One timed fault: `kind` active while the relevant operation counter is
/// inside `[from_op, until_op)`, optionally scoped to files whose name
/// contains `path_contains` (empty = all files). Counter-indexed windows
/// are the storage analogue of `netsim/fault.rs`'s time-indexed ones: the
/// storage layer has no sim clock, but its operation sequence is
/// deterministic for a deterministic workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskFaultEvent {
    pub kind: DiskFaultKind,
    pub path_contains: String,
    pub from_op: u64,
    /// Exclusive end of the window.
    pub until_op: u64,
}

impl DiskFaultEvent {
    pub fn window(kind: DiskFaultKind, from_op: u64, until_op: u64) -> Self {
        assert!(from_op < until_op, "empty fault window");
        DiskFaultEvent { kind, path_contains: String::new(), from_op, until_op }
    }

    pub fn scoped(mut self, path_contains: &str) -> Self {
        self.path_contains = path_contains.to_string();
        self
    }

    fn active(&self, op: u64, name: &str) -> bool {
        self.from_op <= op
            && op < self.until_op
            && (self.path_contains.is_empty() || name.contains(&self.path_contains))
    }
}

/// One step of a SplitMix64 stream in `state`.
fn splitmix64(state: &mut u64) -> u64 {
    let s = *state;
    *state = s.wrapping_add(manic_stats::GAMMA);
    manic_stats::mix(s)
}

/// A deterministic schedule of disk faults. Pure data: the same plan
/// against the same operation sequence injects the same faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiskFaultPlan {
    pub events: Vec<DiskFaultEvent>,
}

impl DiskFaultPlan {
    pub fn new(events: Vec<DiskFaultEvent>) -> Self {
        DiskFaultPlan { events }
    }

    /// Seeded chaos: for each requested kind, a few windows scattered over
    /// the early operation counter space (where a short trial actually
    /// lands). Deterministic in `(seed, kinds)`.
    pub fn chaos(seed: u64, kinds: &[DiskFaultKind]) -> DiskFaultPlan {
        let mut rng = seed ^ 0xD15C_FA17_ACE1_0000;
        let mut events = Vec::new();
        for &kind in kinds {
            let windows = 1 + (splitmix64(&mut rng) % 3);
            for _ in 0..windows {
                let (space, max_len) = if kind.on_sync() { (96, 4) } else { (3000, 48) };
                let from = splitmix64(&mut rng) % space;
                let len = 1 + splitmix64(&mut rng) % max_len;
                events.push(DiskFaultEvent::window(kind, from, from + len));
            }
        }
        DiskFaultPlan { events }
    }

    /// Parse a CLI spec `"<seed>:<kind>+<kind>+..."` (e.g. `42:eio+torn`)
    /// into a chaos plan. `"<seed>:all"` selects every kind.
    pub fn parse_spec(spec: &str) -> Option<DiskFaultPlan> {
        let (seed, kinds) = spec.split_once(':')?;
        let seed = seed.parse::<u64>().ok()?;
        let kinds: Vec<DiskFaultKind> = if kinds == "all" {
            DiskFaultKind::ALL.to_vec()
        } else {
            kinds.split('+').map(DiskFaultKind::parse).collect::<Option<Vec<_>>>()?
        };
        (!kinds.is_empty()).then(|| DiskFaultPlan::chaos(seed, &kinds))
    }
}

/// Injection counts, by kind (plus power-cut state), for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    pub eio: u64,
    pub enospc: u64,
    pub torn: u64,
    pub lies: u64,
    pub flips: u64,
    pub dead: bool,
}

impl FaultStats {
    pub fn total(&self) -> u64 {
        self.eio + self.enospc + self.torn + self.lies + self.flips
    }
}

#[derive(Default)]
struct FaultState {
    plan: DiskFaultPlan,
    writes: AtomicU64,
    syncs: AtomicU64,
    dead: AtomicBool,
    eio: AtomicU64,
    enospc: AtomicU64,
    torn: AtomicU64,
    lies: AtomicU64,
    flips: AtomicU64,
}

impl FaultState {
    fn fault_at(&self, op: u64, name: &str, on_sync: bool) -> Option<DiskFaultKind> {
        self.plan
            .events
            .iter()
            .find(|e| e.kind.on_sync() == on_sync && e.active(op, name))
            .map(|e| e.kind)
    }
}

fn eio() -> io::Error {
    io::Error::other("injected EIO")
}

fn dead_err() -> io::Error {
    io::Error::other("power cut: device gone")
}

/// Fault-injecting VFS over the real disk. See the module docs for the
/// page-cache model. Cloning shares the schedule and counters (the handle
/// threaded into the WAL and the one the harness keeps are the same
/// schedule).
#[derive(Clone)]
pub struct FaultVfs {
    state: Arc<FaultState>,
    inner: RealVfs,
}

impl FaultVfs {
    pub fn new(plan: DiskFaultPlan) -> FaultVfs {
        FaultVfs {
            state: Arc::new(FaultState { plan, ..FaultState::default() }),
            inner: RealVfs,
        }
    }

    /// Simulate power loss: every byte not yet flushed by an honest fsync
    /// is gone (pending buffers are dropped by their owners' writes
    /// failing), and all further operations fail. Lied-about syncs lose
    /// their data here — that is the point of the lie.
    pub fn power_cut(&self) {
        self.state.dead.store(true, Ordering::SeqCst);
    }

    /// `(write_ops, sync_ops)` consumed so far. Fault windows are indexed
    /// by these counters; a harness can calibrate a window by running the
    /// workload's prefix against an empty plan first.
    pub fn ops(&self) -> (u64, u64) {
        (self.state.writes.load(Ordering::Relaxed), self.state.syncs.load(Ordering::Relaxed))
    }

    pub fn stats(&self) -> FaultStats {
        let s = &self.state;
        FaultStats {
            eio: s.eio.load(Ordering::Relaxed),
            enospc: s.enospc.load(Ordering::Relaxed),
            torn: s.torn.load(Ordering::Relaxed),
            lies: s.lies.load(Ordering::Relaxed),
            flips: s.flips.load(Ordering::Relaxed),
            dead: s.dead.load(Ordering::Relaxed),
        }
    }

    fn check_dead(&self) -> io::Result<()> {
        if self.state.dead.load(Ordering::Relaxed) {
            Err(dead_err())
        } else {
            Ok(())
        }
    }
}

/// Write-back file handle: `pending` is the page cache, the inner file is
/// the platter. All storage-layer writes are sequential appends (after an
/// optional truncate+seek on reopen), so the pending buffer is a tail.
struct FaultFile {
    state: Arc<FaultState>,
    real: Box<dyn VfsFile>,
    name: String,
    pending: Vec<u8>,
}

impl FaultFile {
    fn flush_pending(&mut self) -> io::Result<()> {
        if !self.pending.is_empty() {
            self.real.write_all(&self.pending)?;
            self.pending.clear();
        }
        Ok(())
    }
}

impl Write for FaultFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.state.dead.load(Ordering::Relaxed) {
            return Err(dead_err());
        }
        let op = self.state.writes.fetch_add(1, Ordering::Relaxed);
        match self.state.fault_at(op, &self.name, false) {
            Some(DiskFaultKind::Eio) => {
                self.state.eio.fetch_add(1, Ordering::Relaxed);
                Err(eio())
            }
            Some(DiskFaultKind::Enospc) => {
                self.state.enospc.fetch_add(1, Ordering::Relaxed);
                Err(io::Error::from_raw_os_error(ENOSPC))
            }
            Some(DiskFaultKind::TornWrite) => {
                // Half the buffer lands, then the device errors: the frame
                // under construction is torn mid-payload.
                self.state.torn.fetch_add(1, Ordering::Relaxed);
                self.pending.extend_from_slice(&buf[..buf.len() / 2]);
                Err(eio())
            }
            Some(DiskFaultKind::BitFlip) => {
                self.state.flips.fetch_add(1, Ordering::Relaxed);
                let mut corrupt = buf.to_vec();
                if !corrupt.is_empty() {
                    // Deterministic victim bit derived from the op counter.
                    let mut h = op ^ 0xB17F_11B5;
                    let r = splitmix64(&mut h);
                    let byte = (r % corrupt.len() as u64) as usize;
                    corrupt[byte] ^= 1 << ((r >> 32) % 8);
                }
                self.pending.extend_from_slice(&corrupt);
                Ok(buf.len())
            }
            Some(DiskFaultKind::FsyncLie) | None => {
                self.pending.extend_from_slice(buf);
                Ok(buf.len())
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        // Page-cache model: data moves to the platter on fsync, not flush.
        Ok(())
    }
}

impl VfsFile for FaultFile {
    fn sync_data(&mut self) -> io::Result<()> {
        if self.state.dead.load(Ordering::Relaxed) {
            return Err(dead_err());
        }
        let op = self.state.syncs.fetch_add(1, Ordering::Relaxed);
        if self.state.fault_at(op, &self.name, true) == Some(DiskFaultKind::FsyncLie) {
            self.state.lies.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        self.flush_pending()?;
        self.real.sync_data()
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.check_len_dead()?;
        self.pending.clear();
        self.real.set_len(len)
    }

    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        self.real.seek_to(pos)
    }
}

impl FaultFile {
    fn check_len_dead(&self) -> io::Result<()> {
        if self.state.dead.load(Ordering::Relaxed) {
            Err(dead_err())
        } else {
            Ok(())
        }
    }
}

impl Drop for FaultFile {
    fn drop(&mut self) {
        // A dropped handle with pending bytes behaves like the OS flushing
        // the page cache in the background — unless the power is out.
        if !self.state.dead.load(Ordering::Relaxed) {
            let _ = self.flush_pending();
        }
    }
}

fn file_name(path: &Path) -> String {
    path.file_name().and_then(|n| n.to_str()).unwrap_or("").to_string()
}

impl Vfs for FaultVfs {
    fn kind(&self) -> &'static str {
        "fault-injecting"
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.check_dead()?;
        Ok(Box::new(FaultFile {
            state: Arc::clone(&self.state),
            real: self.inner.create(path)?,
            name: file_name(path),
            pending: Vec::new(),
        }))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.check_dead()?;
        Ok(Box::new(FaultFile {
            state: Arc::clone(&self.state),
            real: self.inner.open_rw(path)?,
            name: file_name(path),
            pending: Vec::new(),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.check_dead()?;
        self.inner.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.check_dead()?;
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.check_dead()?;
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.check_dead()?;
        self.inner.create_dir_all(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.check_dead()?;
        self.inner.remove_dir_all(path)
    }

    fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>> {
        self.check_dead()?;
        self.inner.read_dir_names(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        if self.state.dead.load(Ordering::Relaxed) {
            return Err(dead_err());
        }
        // Directory fsync is subject to lies like any other sync.
        let op = self.state.syncs.fetch_add(1, Ordering::Relaxed);
        if self.state.fault_at(op, &file_name(path), true) == Some(DiskFaultKind::FsyncLie) {
            self.state.lies.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        self.inner.sync_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("manic-vfs-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn real_vfs_roundtrip() {
        let v = RealVfs;
        let path = tmp("real.bin");
        let mut f = v.create(&path).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_data().unwrap();
        drop(f);
        assert_eq!(v.read(&path).unwrap(), b"hello");
        let renamed = tmp("real2.bin");
        v.rename(&path, &renamed).unwrap();
        assert!(!v.exists(&path) && v.exists(&renamed));
        v.remove_file(&renamed).unwrap();
    }

    #[test]
    fn chaos_is_deterministic_and_spec_parses() {
        let a = DiskFaultPlan::chaos(9, &DiskFaultKind::ALL);
        let b = DiskFaultPlan::chaos(9, &DiskFaultKind::ALL);
        assert_eq!(a, b);
        assert_ne!(a, DiskFaultPlan::chaos(10, &DiskFaultKind::ALL));
        assert!(!a.events.is_empty());
        assert_eq!(DiskFaultPlan::parse_spec("9:all"), Some(a));
        assert_eq!(
            DiskFaultPlan::parse_spec("3:eio+flip"),
            Some(DiskFaultPlan::chaos(3, &[DiskFaultKind::Eio, DiskFaultKind::BitFlip]))
        );
        assert_eq!(DiskFaultPlan::parse_spec("x:eio"), None);
        assert_eq!(DiskFaultPlan::parse_spec("3:bogus"), None);
        assert_eq!(DiskFaultPlan::parse_spec("3:"), None);
    }

    #[test]
    fn pending_writes_survive_only_honest_syncs() {
        // Sync op 1 (the second sync) lies.
        let plan = DiskFaultPlan::new(vec![DiskFaultEvent::window(DiskFaultKind::FsyncLie, 1, 2)]);
        let v = FaultVfs::new(plan);
        let path = tmp("lie.bin");
        let mut f = v.create(&path).unwrap();
        f.write_all(b"durable").unwrap();
        f.sync_data().unwrap(); // honest
        f.write_all(b" lost").unwrap();
        f.sync_data().unwrap(); // lie: acknowledged, not persisted
        v.power_cut();
        drop(f); // power is out: pending bytes must NOT flush
        assert_eq!(v.stats().lies, 1);
        assert!(v.stats().dead);
        assert_eq!(std::fs::read(&path).unwrap(), b"durable");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn enospc_and_eio_windows_fire_and_count() {
        let plan = DiskFaultPlan::new(vec![
            DiskFaultEvent::window(DiskFaultKind::Enospc, 1, 2),
            DiskFaultEvent::window(DiskFaultKind::Eio, 2, 3),
        ]);
        let v = FaultVfs::new(plan);
        let path = tmp("enospc.bin");
        let mut f = v.create(&path).unwrap();
        f.write_all(b"ok").unwrap(); // op 0
        let e = f.write(b"full").unwrap_err(); // op 1
        assert!(is_enospc(&e));
        assert!(f.write(b"io").is_err()); // op 2
        f.write_all(b"ok2").unwrap(); // op 3: window passed
        f.sync_data().unwrap();
        drop(f);
        let s = v.stats();
        assert_eq!((s.enospc, s.eio), (1, 1));
        assert_eq!(std::fs::read(&path).unwrap(), b"okok2");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_write_keeps_a_prefix() {
        let plan = DiskFaultPlan::new(vec![DiskFaultEvent::window(DiskFaultKind::TornWrite, 0, 1)]);
        let v = FaultVfs::new(plan);
        let path = tmp("torn.bin");
        let mut f = v.create(&path).unwrap();
        assert!(f.write(b"abcdefgh").is_err());
        f.sync_data().unwrap();
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"abcd", "half landed");
        assert_eq!(v.stats().torn, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flip_corrupts_silently() {
        let plan = DiskFaultPlan::new(vec![DiskFaultEvent::window(DiskFaultKind::BitFlip, 0, 1)]);
        let v = FaultVfs::new(plan);
        let path = tmp("flip.bin");
        let mut f = v.create(&path).unwrap();
        f.write_all(&[0u8; 16]).unwrap(); // "succeeds"
        f.sync_data().unwrap();
        drop(f);
        let got = std::fs::read(&path).unwrap();
        assert_eq!(got.len(), 16);
        let ones: u32 = got.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1, "exactly one bit flipped");
        assert_eq!(v.stats().flips, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn path_scoped_events_skip_other_files() {
        let plan = DiskFaultPlan::new(vec![
            DiskFaultEvent::window(DiskFaultKind::Eio, 0, u64::MAX - 1).scoped("wal-")
        ]);
        let v = FaultVfs::new(plan);
        let safe = tmp("checkpoint-00000001.json");
        let mut f = v.create(&safe).unwrap();
        f.write_all(b"fine").unwrap();
        let hit = tmp("wal-0001.seg");
        let mut g = v.create(&hit).unwrap();
        assert!(g.write(b"boom").is_err());
        drop((f, g));
        let _ = std::fs::remove_file(&safe);
        let _ = std::fs::remove_file(&hit);
    }
}
