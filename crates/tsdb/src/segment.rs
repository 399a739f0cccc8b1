//! Append-only WAL segment files.
//!
//! A segment is a header followed by length-prefixed, checksummed records:
//!
//! ```text
//! [8-byte magic "MANICWA1"]
//! [u32 LE payload_len][u32 LE crc32(payload)][payload bytes]  × N
//! ```
//!
//! The CRC is the plain IEEE polynomial over the payload only. A crash can
//! tear the final record (short write, zeroed tail, garbage); the scanner
//! stops at the first frame whose length or checksum does not hold and
//! reports the byte offset of the last *valid* frame so recovery can
//! truncate there. Everything before that offset is trusted — segments are
//! append-only and never rewritten in place.
//!
//! Mid-file corruption (a bit rotted at rest, a torn write that later
//! frames were appended past) is handled by the *resync* scan mode used on
//! replay: instead of treating the first bad frame as the end of the log,
//! the scanner searches forward for the next byte offset that parses as a
//! valid frame (length bound + CRC match — a 2^-32 false-positive rate)
//! and quarantines the skipped range. Quarantined ranges are counted and
//! reported so replay can flag the affected time window instead of
//! silently losing everything after one bad frame.
//!
//! All file I/O goes through a [`manic_vfs::Vfs`] handle so the fault
//! harness can inject disk errors; the `*_with` constructors take an
//! explicit handle, the plain ones use the real disk.

use manic_vfs::{Vfs, VfsFile};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// File magic; bumping the format bumps the final byte.
pub const MAGIC: [u8; 8] = *b"MANICWA1";
/// Byte offset of the first record frame.
pub const HEADER_LEN: u64 = MAGIC.len() as u64;
/// Upper bound on a single payload; longer length prefixes are treated as
/// corruption (a torn length field can otherwise claim gigabytes).
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// IEEE CRC-32 (the zlib/Ethernet polynomial), slice-by-8 table-driven:
/// eight derived tables let the hot loop fold 8 input bytes per iteration
/// instead of one, which matters because every WAL byte is checksummed on
/// the write path.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, e) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        for i in 0..256usize {
            let mut c = t[0][i];
            for k in 1..8 {
                c = t[0][(c & 0xFF) as usize] ^ (c >> 8);
                t[k][i] = c;
            }
        }
        t
    });
    let mut c = !0u32;
    let mut chunks = data.chunks_exact(8);
    for w in &mut chunks {
        let lo = u32::from_le_bytes(w[0..4].try_into().unwrap()) ^ c;
        let hi = u32::from_le_bytes(w[4..8].try_into().unwrap());
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Path of segment number `seq` inside `dir`: `wal-<seq:08>.seg`.
pub fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.seg"))
}

/// All `wal-*.seg` files in `dir`, sorted by sequence number.
pub fn list_segments_with(vfs: &dyn Vfs, dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for name in vfs.read_dir_names(dir)? {
        if let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".seg"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((seq, dir.join(&name)));
        }
    }
    out.sort();
    Ok(out)
}

/// Buffered appender onto one segment file.
pub struct SegmentWriter {
    file: BufWriter<Box<dyn VfsFile>>,
    /// Byte offset the next frame will start at (header included).
    offset: u64,
}

impl SegmentWriter {
    /// Create a fresh segment (truncating any existing file) and write the
    /// header.
    pub fn create_with(vfs: &dyn Vfs, path: &Path) -> io::Result<SegmentWriter> {
        let mut file = BufWriter::new(vfs.create(path)?);
        file.write_all(&MAGIC)?;
        Ok(SegmentWriter { file, offset: HEADER_LEN })
    }

    /// Reopen an existing segment for appending, truncating it to
    /// `valid_len` first (discarding a torn tail found by [`scan_with`]).
    pub fn open_end_with(vfs: &dyn Vfs, path: &Path, valid_len: u64) -> io::Result<SegmentWriter> {
        let mut file = vfs.open_rw(path)?;
        file.set_len(valid_len)?;
        file.seek_to(valid_len)?;
        Ok(SegmentWriter { file: BufWriter::new(file), offset: valid_len })
    }

    /// Append one framed record; returns the offset *after* the frame.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        debug_assert!(payload.len() as u32 <= MAX_PAYLOAD);
        let mut hdr = [0u8; 8];
        hdr[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        hdr[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        self.file.write_all(&hdr)?;
        self.file.write_all(payload)?;
        self.offset += 8 + payload.len() as u64;
        Ok(self.offset)
    }

    /// Offset the next frame will start at.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Flush buffered frames to the OS.
    pub fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }

    /// Flush and fdatasync — the durability point. `sync_data` commits the
    /// record bytes and the file size (all a replayer reads); skipping the
    /// timestamp metadata flush of a full fsync roughly halves the cost of
    /// each group commit on journaling filesystems.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.flush()?;
        self.file.get_mut().sync_data()
    }
}

/// Result of scanning a segment from disk.
pub struct SegmentScan {
    /// `(offset_after_frame, payload)` for every intact record, in order.
    pub records: Vec<(u64, Vec<u8>)>,
    /// Byte offset of the end of the last intact frame; the file should be
    /// truncated here before further appends. In resync mode this is the
    /// offset of the *first* corrupt byte — appending past quarantined
    /// garbage is never safe.
    pub valid_len: u64,
    /// True when bytes past the last intact frame existed but did not form
    /// a valid frame (torn tail or corruption).
    pub torn: bool,
    /// True when even the header was missing or wrong.
    pub bad_header: bool,
    /// Byte ranges `[start, end)` skipped by resync: corrupt frames fenced
    /// mid-file, with intact frames recovered after each range. Empty
    /// unless scanning with `resync` and the file has mid-file corruption.
    pub quarantined: Vec<(u64, u64)>,
}

impl SegmentScan {
    /// Bytes covered by quarantined ranges.
    pub fn quarantined_bytes(&self) -> u64 {
        self.quarantined.iter().map(|&(s, e)| e - s).sum()
    }
}

/// Is there a valid frame at `pos`? Returns the offset after it.
fn frame_at(raw: &[u8], pos: usize) -> Option<usize> {
    if pos + 8 > raw.len() {
        return None;
    }
    let len = u32::from_le_bytes(raw[pos..pos + 4].try_into().unwrap());
    let want_crc = u32::from_le_bytes(raw[pos + 4..pos + 8].try_into().unwrap());
    if len > MAX_PAYLOAD || pos + 8 + len as usize > raw.len() {
        return None;
    }
    let payload = &raw[pos + 8..pos + 8 + len as usize];
    (crc32(payload) == want_crc).then_some(pos + 8 + len as usize)
}

/// Read a segment, stopping at the first torn or corrupt frame unless
/// *resyncing* past mid-file corruption: after a bad frame, search forward
/// for the next offset that parses as a valid frame and quarantine the
/// skipped range. The append path must use `resync: false` (truncate at the
/// first bad byte); replay uses `resync: true` to recover everything
/// recoverable. Records at or before `from_offset` (an offset *after* a
/// frame, as returned by [`SegmentWriter::append`]) are decoded but not
/// returned — used to skip the portion already covered by a checkpoint.
pub fn scan_with(
    vfs: &dyn Vfs,
    path: &Path,
    from_offset: u64,
    resync: bool,
) -> io::Result<SegmentScan> {
    let raw = vfs.read(path)?;
    if raw.len() < MAGIC.len() || raw[..MAGIC.len()] != MAGIC {
        return Ok(SegmentScan {
            records: Vec::new(),
            valid_len: HEADER_LEN,
            torn: !raw.is_empty(),
            bad_header: true,
            quarantined: Vec::new(),
        });
    }
    let mut records = Vec::new();
    let mut quarantined = Vec::new();
    let mut pos = HEADER_LEN as usize;
    let mut torn = false;
    let mut valid_len: Option<u64> = None;
    while pos < raw.len() {
        match frame_at(&raw, pos) {
            Some(next) => {
                if next as u64 > from_offset {
                    records.push((next as u64, raw[pos + 8..next].to_vec()));
                }
                pos = next;
            }
            None => {
                if valid_len.is_none() {
                    valid_len = Some(pos as u64);
                }
                if !resync {
                    torn = true;
                    break;
                }
                // Search for the next parseable frame boundary. One CRC
                // match is a strong signal (2^-32 on garbage) — except for
                // an empty payload, whose length and CRC are eight zero
                // bytes, which binary sample entries are full of; no writer
                // emits one, so it is never a resync point. Anything
                // skipped is quarantined, not silently dropped.
                let mut found = None;
                for c in pos + 1..raw.len().saturating_sub(8) {
                    if raw[c..c + 4] != [0; 4] && frame_at(&raw, c).is_some() {
                        found = Some(c);
                        break;
                    }
                }
                match found {
                    Some(c) => {
                        quarantined.push((pos as u64, c as u64));
                        pos = c;
                    }
                    None => {
                        torn = true;
                        break;
                    }
                }
            }
        }
    }
    Ok(SegmentScan {
        records,
        valid_len: valid_len.unwrap_or(pos as u64),
        torn,
        bad_header: false,
        quarantined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use manic_vfs::RealVfs;

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("manic-seg-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn write_scan_roundtrip() {
        let path = tmp("roundtrip.seg");
        let mut w = SegmentWriter::create_with(&RealVfs, &path).unwrap();
        let mut offsets = Vec::new();
        for payload in [b"alpha".as_slice(), b"", b"gamma rays"] {
            offsets.push(w.append(payload).unwrap());
        }
        w.sync().unwrap();
        let scan = scan_with(&RealVfs, &path, 0, false).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.valid_len, *offsets.last().unwrap());
        let payloads: Vec<&[u8]> = scan.records.iter().map(|(_, p)| p.as_slice()).collect();
        assert_eq!(payloads, vec![b"alpha".as_slice(), b"", b"gamma rays"]);
        // from_offset skips frames already applied.
        let partial = scan_with(&RealVfs, &path, offsets[0], false).unwrap();
        assert_eq!(partial.records.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_detected_and_truncatable() {
        let path = tmp("torn.seg");
        let mut w = SegmentWriter::create_with(&RealVfs, &path).unwrap();
        w.append(b"keep me").unwrap();
        let good_len = w.offset();
        w.append(b"torn away").unwrap();
        w.sync().unwrap();
        // Chop mid-way through the second frame.
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(good_len + 5).unwrap();
        drop(f);
        let scan1 = scan_with(&RealVfs, &path, 0, false).unwrap();
        assert!(scan1.torn);
        assert_eq!(scan1.valid_len, good_len);
        assert_eq!(scan1.records.len(), 1);
        // Corrupt (not just short) tails are equally fenced.
        let mut w = SegmentWriter::open_end_with(&RealVfs, &path, scan1.valid_len).unwrap();
        w.append(b"fresh").unwrap();
        w.sync().unwrap();
        let scan2 = scan_with(&RealVfs, &path, 0, false).unwrap();
        assert!(!scan2.torn);
        assert_eq!(scan2.records.len(), 2);
        assert_eq!(scan2.records[1].1, b"fresh");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resync_recovers_past_midfile_corruption() {
        let path = tmp("resync.seg");
        let mut w = SegmentWriter::create_with(&RealVfs, &path).unwrap();
        w.append(b"first").unwrap();
        let corrupt_at = w.offset();
        w.append(b"second - will be flipped").unwrap();
        let corrupt_end = w.offset();
        w.append(b"third survives").unwrap();
        w.sync().unwrap();
        drop(w);
        // Flip a payload byte in the middle frame.
        let mut raw = std::fs::read(&path).unwrap();
        raw[corrupt_at as usize + 10] ^= 0x40;
        std::fs::write(&path, &raw).unwrap();
        // Plain scan fences at the corruption.
        let plain = scan_with(&RealVfs, &path, 0, false).unwrap();
        assert!(plain.torn);
        assert_eq!(plain.records.len(), 1);
        assert_eq!(plain.valid_len, corrupt_at);
        // Resync scan quarantines the bad frame and recovers the third.
        let re = scan_with(&RealVfs, &path, 0, true).unwrap();
        assert!(!re.torn);
        assert_eq!(re.records.len(), 2);
        assert_eq!(re.records[1].1, b"third survives");
        assert_eq!(re.quarantined, vec![(corrupt_at, corrupt_end)]);
        assert_eq!(re.quarantined_bytes(), corrupt_end - corrupt_at);
        // valid_len still fences at the first corrupt byte: appends must
        // not resume past quarantined garbage.
        assert_eq!(re.valid_len, corrupt_at);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_header_rejected() {
        let path = tmp("badheader.seg");
        std::fs::write(&path, b"NOTMAGIC rest").unwrap();
        let s = scan_with(&RealVfs, &path, 0, false).unwrap();
        assert!(s.bad_header && s.torn);
        assert!(s.records.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn segment_listing_sorted() {
        let dir = std::env::temp_dir().join(format!("manic-seg-list-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for seq in [3u64, 1, 2] {
            SegmentWriter::create_with(&RealVfs, &segment_path(&dir, seq)).unwrap();
        }
        std::fs::write(dir.join("unrelated.txt"), b"x").unwrap();
        let segs = list_segments_with(&RealVfs, &dir).unwrap();
        assert_eq!(segs.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![1, 2, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
