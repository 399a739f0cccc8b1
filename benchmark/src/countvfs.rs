//! A `Vfs` that forwards every call to another one and counts what the
//! durability layer asks of the disk. Passed as `DurabilityConfig::vfs` in
//! traced runs only.

use manic_vfs::{Vfs, VfsFile};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Totals across every file opened through one [`CountingVfs`]. Relaxed
/// atomics: statistics only.
#[derive(Debug, Default)]
pub struct VfsCounts {
    pub bytes_written: AtomicU64,
    /// `sync_data` + `sync_all` + `sync_dir` calls.
    pub fsyncs: AtomicU64,
    pub fsync_ns: AtomicU64,
}

impl VfsCounts {
    fn timed_sync(&self, f: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
        let started = Instant::now();
        let r = f();
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.fsync_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }
}

pub struct CountingVfs {
    inner: Arc<dyn Vfs>,
    counts: Arc<VfsCounts>,
}

impl CountingVfs {
    /// `inner` behind a counting wrapper, and the counts it feeds.
    pub fn around(inner: Arc<dyn Vfs>) -> (Arc<dyn Vfs>, Arc<VfsCounts>) {
        let counts = Arc::new(VfsCounts::default());
        (
            Arc::new(CountingVfs {
                inner,
                counts: Arc::clone(&counts),
            }),
            counts,
        )
    }

    fn wrap(&self, file: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(CountingFile {
            inner: file,
            counts: Arc::clone(&self.counts),
        })
    }
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    counts: Arc<VfsCounts>,
}

impl Write for CountingFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.counts
            .bytes_written
            .fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl VfsFile for CountingFile {
    fn sync_data(&mut self) -> io::Result<()> {
        self.counts.timed_sync(|| self.inner.sync_data())
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.counts.timed_sync(|| self.inner.sync_all())
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        self.inner.seek_to(pos)
    }
}

impl Vfs for CountingVfs {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.inner.create(path).map(|f| self.wrap(f))
    }
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.inner.open_rw(path).map(|f| self.wrap(f))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }
    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_dir_all(path)
    }
    fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>> {
        self.inner.read_dir_names(path)
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.counts.timed_sync(|| self.inner.sync_dir(path))
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}
