//! Storage-fault robustness through the public API: checkpoint/WAL bit
//! flips (recover-or-flag, never a panic and never silent divergence),
//! ENOSPC mid-group-commit (graceful raw-sample shedding), checkpoint
//! generation fallback, and the refusal of another format version's dir.
//!
//! The template fixture is one finished durable run over a 4 h toy-world
//! window with several checkpoint generations on disk; each test copies it
//! and damages its own copy.

use manic_core::{
    has_checkpoint, recover_report, resume, Durable, DurabilityConfig, System, SystemConfig,
    CHECKPOINT_VERSION,
};
use manic_netsim::time::{date_to_sim, Date};
use manic_scenario::worlds::toy;
use manic_tsdb::wal::FsyncPolicy;
use manic_vfs::{DiskFaultEvent, DiskFaultKind, DiskFaultPlan, FaultVfs, RealVfs, Vfs, VfsFile};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

const SEED: u64 = 42;

fn window() -> (i64, i64) {
    let from = date_to_sim(Date::new(2017, 3, 1));
    (from, from + 4 * 3600)
}

#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    hash: u64,
    points: usize,
    verdicts: Vec<String>,
}

fn fingerprint(sys: &mut System, from: i64, to: i64) -> Fingerprint {
    let verdicts = sys.congested_far_ips(from, to);
    Fingerprint { hash: sys.store.content_hash(), points: sys.store.point_count(), verdicts }
}

struct Fixture {
    template: PathBuf,
    reference: Fingerprint,
}

/// Finished durable run (4 generations written, 3 kept) plus the uninterrupted in-memory reference fingerprint.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (from, to) = window();
        let mut ref_sys = System::new(toy(SEED), SystemConfig::default());
        ref_sys.run_packet_mode(from, to);
        let reference = fingerprint(&mut ref_sys, from, to);
        drop(ref_sys);

        let template = std::env::temp_dir()
            .join(format!("manic-disk-faults-template-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&template);
        let cfg = DurabilityConfig {
            fsync: FsyncPolicy::EveryN(8),
            checkpoint_every_rounds: 12,
            ..DurabilityConfig::default()
        };
        let mut sys = System::new(toy(SEED), SystemConfig::default());
        let mut d = Durable::create(&sys, "toy", SEED, &template, from, to, cfg)
            .expect("create durable");
        d.run_window(&mut sys, to, &|| false).expect("run window");
        d.finalize(&sys, to).expect("finalize");
        Fixture { template, reference }
    })
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create copy dir");
    for e in std::fs::read_dir(src).expect("read template").flatten() {
        let p = e.path();
        let d = dst.join(e.file_name());
        if p.is_dir() {
            copy_dir(&p, &d);
        } else {
            std::fs::copy(&p, &d).expect("copy file");
        }
    }
}

fn scratch_copy(tag: &str) -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("manic-disk-faults-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    copy_dir(&fixture().template, &dir);
    dir
}

/// Every regular file in the data dir, sorted for deterministic picks.
fn data_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for e in std::fs::read_dir(dir).expect("read data dir").flatten() {
        let p = e.path();
        if p.is_dir() {
            files.extend(data_files(&p));
        } else {
            files.push(p);
        }
    }
    files.sort();
    files
}

fn clean_cfg() -> DurabilityConfig {
    DurabilityConfig {
        fsync: FsyncPolicy::EveryN(64),
        checkpoint_every_rounds: 100_000,
        ..DurabilityConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One flipped bit anywhere in the surviving files — meta, snapshot,
    /// WAL — is either harmless (recovery still reproduces the reference
    /// exactly) or flagged in [`manic_core::StorageFindings`]; it is never
    /// a panic and never silent divergence.
    #[test]
    fn checkpoint_bit_flip_recovers_or_flags(pick in 0usize..4096, flip in 0usize..1_000_000) {
        let (from, to) = window();
        let reference = fixture().reference.clone();
        let dir = scratch_copy("flip");

        let files: Vec<PathBuf> = data_files(&dir)
            .into_iter()
            .filter(|p| std::fs::metadata(p).map(|m| m.len() > 0).unwrap_or(false))
            .collect();
        prop_assert!(!files.is_empty(), "template has no non-empty files");
        let target = &files[pick % files.len()];
        let mut bytes = std::fs::read(target).expect("read target");
        let bit = flip % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(target, &bytes).expect("write flipped");

        let report = recover_report(&dir, &RealVfs).expect("one flip is recoverable");
        let (mut sys, mut d, info) = resume(&dir, Some(clean_cfg())).expect("resume");
        prop_assert_eq!(
            report.storage.clean(), info.storage.clean(),
            "report and resume must agree on whether damage was found"
        );
        d.run_window(&mut sys, to, &|| false).expect("re-run to window end");
        let fp = fingerprint(&mut sys, from, to);
        if info.storage.clean() {
            prop_assert_eq!(
                fp, reference,
                "clean recovery must reproduce the reference exactly (flipped {:?} bit {})",
                target, bit
            );
        } else {
            // Flagged damage may cost data but never invents verdicts.
            prop_assert!(
                fp.verdicts.iter().all(|v| reference.verdicts.contains(v)),
                "verdicts {:?} outside reference {:?}", fp.verdicts, reference.verdicts
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// ENOSPC in the middle of WAL group commits: the run keeps going (raw
/// samples are shed, the in-memory system is unaffected), and a crash
/// during the degraded span recovers with at most raw-sample loss —
/// verdicts are never invented.
#[test]
fn enospc_mid_group_commit_sheds_and_recovers() {
    let (from, to) = window();
    let reference = fixture().reference.clone();
    let dir = std::env::temp_dir()
        .join(format!("manic-disk-faults-enospc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Drive the run in chunks with a group commit after each, like the CLI's
    // periodic checkpoints would. The commit barriers matter twice over:
    // appends are staged until a barrier pushes them through the writer
    // thread, and the op-counter reads must not race that thread.
    const CHUNKS: i64 = 8;
    let chunk_ends: Vec<i64> = (1..=CHUNKS).map(|i| from + (to - from) * i / CHUNKS).collect();
    let cfg_with = |vfs: Arc<dyn manic_vfs::Vfs>| DurabilityConfig {
        fsync: FsyncPolicy::EveryN(8),
        checkpoint_every_rounds: 100_000,
        vfs,
        ..DurabilityConfig::default()
    };

    // Calibrate the fault window: run the identical chunked schedule once
    // against a clean FaultVfs and read the write-op counter at create time
    // and after the final drain. With no periodic checkpoints every op in
    // between is a WAL write, so the middle third of that span hits
    // mid-run group commits while leaving commits on both sides intact.
    let (wal_lo, wal_hi) = {
        let cal = FaultVfs::new(DiskFaultPlan::default());
        let cal_dir = dir.with_extension("cal");
        let _ = std::fs::remove_dir_all(&cal_dir);
        let mut sys = System::new(toy(SEED), SystemConfig::default());
        let mut d = Durable::create(&sys, "toy", SEED, &cal_dir, from, to, cfg_with(Arc::new(cal.clone())))
            .expect("calibration create");
        let (create_ops, _) = cal.ops();
        for &t in &chunk_ends {
            d.run_window(&mut sys, t, &|| false).expect("calibration run");
            d.wal().flush_and_sync().expect("calibration commit");
        }
        let (end_ops, _) = cal.ops();
        drop(d);
        let _ = std::fs::remove_dir_all(&cal_dir);
        assert!(end_ops > create_ops, "run produced no WAL writes to calibrate against");
        let span = end_ops - create_ops;
        (create_ops + span / 3, create_ops + 2 * span.div_ceil(3))
    };

    // Device full for the middle third of the WAL write ops: early commits
    // land durably, commits inside the window fail (the log sheds and the
    // run keeps going), and once the op counter escapes the window later
    // commits succeed again. No periodic checkpoints, so shed records
    // cannot be recovered from a snapshot.
    let fvfs = FaultVfs::new(DiskFaultPlan::new(vec![DiskFaultEvent::window(
        DiskFaultKind::Enospc,
        wal_lo,
        wal_hi,
    )
    .scoped("wal")]));
    let mut sys = System::new(toy(SEED), SystemConfig::default());
    let mut d = Durable::create(&sys, "toy", SEED, &dir, from, to, cfg_with(Arc::new(fvfs.clone())))
        .expect("create durable");
    let mut commits_ok = 0u32;
    let mut commits_failed = 0u32;
    for &t in &chunk_ends {
        d.run_window(&mut sys, t, &|| false)
            .expect("ENOSPC mid-group-commit must not kill the run");
        // A commit hitting the full device is allowed to fail — that is the
        // degradation under test — but it must fail as an error, not a panic.
        match d.wal().flush_and_sync() {
            Ok(()) => commits_ok += 1,
            Err(_) => commits_failed += 1,
        }
    }
    assert!(fvfs.stats().enospc > 0, "the fault window never fired — test is vacuous");
    assert!(commits_failed > 0, "no commit overlapped the full-device span — test is vacuous");
    assert!(commits_ok > 0, "every commit failed — the window swallowed the whole run");

    // The live system never lost anything: shedding is a persistence-side
    // degradation only.
    let live = fingerprint(&mut sys, from, to);
    assert_eq!(live, reference, "in-memory state diverged under ENOSPC");

    // Crash inside/after the degraded span: recovery may miss shed raw
    // samples but must not panic, must not invent verdicts, and must not
    // exceed the reference point count.
    fvfs.power_cut();
    drop(d);
    drop(sys);
    let (mut sys2, mut d2, _info) = resume(&dir, Some(clean_cfg())).expect("resume after ENOSPC");
    d2.run_window(&mut sys2, to, &|| false).expect("finish window");
    let fp = fingerprint(&mut sys2, from, to);
    assert!(fp.points <= reference.points, "recovery invented points");
    assert!(
        fp.verdicts.iter().all(|v| reference.verdicts.contains(v)),
        "verdicts {:?} outside reference {:?}",
        fp.verdicts,
        reference.verdicts
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The newest generation's meta file in `dir`.
fn newest_generation(dir: &Path) -> PathBuf {
    data_files(dir)
        .into_iter()
        .filter(|p| {
            p.file_name()
                .map(|n| n.to_string_lossy().starts_with("checkpoint-"))
                .unwrap_or(false)
        })
        .max()
        .expect("numbered generations exist")
}

/// Destroying the newest generation's meta falls back a full generation and
/// deterministically re-executes to the reference — through the same public
/// API the CLI uses.
#[test]
fn generation_fallback_reproduces_reference() {
    let (from, to) = window();
    let reference = fixture().reference.clone();
    let dir = scratch_copy("fallback");

    std::fs::write(newest_generation(&dir), b"garbage, not a checkpoint")
        .expect("corrupt newest meta");

    let report = recover_report(&dir, &RealVfs).expect("older generation usable");
    assert_eq!(report.storage.bad_metas, 1, "the damaged meta is reported");
    let (mut sys, mut d, info) = resume(&dir, Some(clean_cfg())).expect("resume falls back");
    assert!(!info.storage.clean());
    assert_eq!(info.storage.bad_metas, 1);
    d.run_window(&mut sys, to, &|| false).expect("re-run to window end");
    let fp = fingerprint(&mut sys, from, to);
    assert_eq!(fp, reference, "fallback + deterministic re-execution reproduces the reference");
    std::fs::remove_dir_all(&dir).ok();
}

/// The crc member is required, not optional: one bit flipped in its key
/// (`crc` → `brc`, 0x63 → 0x62) once made the meta pass unchecked. It is a
/// bad meta like any other flip, and recovery falls back one generation.
#[test]
fn meta_without_its_crc_key_is_a_bad_meta() {
    let (from, to) = window();
    let reference = fixture().reference.clone();
    let dir = scratch_copy("crc-key");
    let newest = newest_generation(&dir);
    let mut bytes = std::fs::read(&newest).expect("read newest meta");
    let at = bytes.windows(6).rposition(|w| w == b"\"crc\":").expect("crc member") + 1;
    bytes[at] ^= 0x01;
    assert_eq!(&bytes[at..at + 3], b"brc");
    std::fs::write(&newest, &bytes).expect("write flipped meta");

    let report = recover_report(&dir, &RealVfs).expect("older generation usable");
    assert_eq!(report.storage.bad_metas, 1, "the keyless meta is reported");
    assert_eq!(report.rounds, 36, "generation N-1");
    let (mut sys, mut d, info) = resume(&dir, Some(clean_cfg())).expect("resume falls back");
    assert_eq!((info.rounds, info.storage.bad_metas), (36, 1), "generation 48 skipped");
    d.run_window(&mut sys, to, &|| false).expect("re-run to window end");
    assert_eq!(fingerprint(&mut sys, from, to), reference);
    std::fs::remove_dir_all(&dir).ok();
}

/// A crc-valid meta nested 100,000 `[` deep once overflowed the JSON
/// parser's stack and aborted `manic recover` and `--resume`. Past the
/// parser's nesting limit it is a bad meta like any other, and recovery
/// falls back one generation.
#[test]
fn meta_nested_past_the_parser_limit_is_a_bad_meta() {
    let (from, to) = window();
    let reference = fixture().reference.clone();
    let dir = scratch_copy("deep");
    let body = format!("{{\"version\":2,\"vps\":{}", "[".repeat(100_000));
    let crc = manic_tsdb::segment::crc32(body.as_bytes());
    std::fs::write(newest_generation(&dir), format!("{body},\"crc\":\"{crc:08x}\"}}"))
        .expect("write deep meta");

    let report = recover_report(&dir, &RealVfs).expect("older generation usable");
    assert_eq!((report.rounds, report.storage.bad_metas), (36, 1), "generation 48 skipped");
    let (mut sys, mut d, info) = resume(&dir, Some(clean_cfg())).expect("resume falls back");
    assert_eq!((info.rounds, info.storage.bad_metas), (36, 1), "generation 48 skipped");
    d.run_window(&mut sys, to, &|| false).expect("re-run to window end");
    assert_eq!(fingerprint(&mut sys, from, to), reference);
    std::fs::remove_dir_all(&dir).ok();
}

/// The `--resume` gate (`has_checkpoint`) answers from the generation
/// listing: a dir that lost its newest meta outright still holds generation
/// N-1, must not be taken for empty (a fresh start wipes it), and resumes.
#[test]
fn dir_holding_only_an_older_generation_still_resumes() {
    let (from, to) = window();
    let reference = fixture().reference.clone();
    let dir = scratch_copy("older-only");
    assert!(!has_checkpoint(&dir.join("no-such-dir"), &RealVfs));
    let wal_dir = dir.join("wal");
    assert!(!has_checkpoint(&wal_dir, &RealVfs), "a dir without generations is a fresh start");

    let newest = newest_generation(&dir);
    std::fs::remove_file(&newest).expect("lose newest meta");
    assert!(has_checkpoint(&dir, &RealVfs), "generation N-1 is still there");

    let (mut sys, mut d, info) = resume(&dir, Some(clean_cfg())).expect("resume from N-1");
    assert_eq!(info.rounds, 36, "generation N-1");
    assert!(info.store_hash_ok && info.storage.clean(), "notes: {:?}", info.storage.notes);
    d.run_window(&mut sys, to, &|| false).expect("re-run to window end");
    assert_eq!(fingerprint(&mut sys, from, to), reference);
    std::fs::remove_dir_all(&dir).ok();
}

/// A `Vfs` that serves the virtual directory `virt` from the real directory
/// `real` and nothing else: a run that reaches its data dir through it
/// finds that dir only if it asks its `Vfs`, never `std::fs`.
struct MappedVfs {
    virt: PathBuf,
    real: PathBuf,
}

impl MappedVfs {
    fn map(&self, path: &Path) -> PathBuf {
        let rest = path.strip_prefix(&self.virt).expect("path outside the mapped dir");
        self.real.join(rest)
    }
}

impl Vfs for MappedVfs {
    fn kind(&self) -> &'static str {
        "mapped"
    }
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        RealVfs.create(&self.map(path))
    }
    fn open_rw(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        RealVfs.open_rw(&self.map(path))
    }
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        RealVfs.read(&self.map(path))
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        RealVfs.rename(&self.map(from), &self.map(to))
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        RealVfs.remove_file(&self.map(path))
    }
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        RealVfs.create_dir_all(&self.map(path))
    }
    fn remove_dir_all(&self, path: &Path) -> std::io::Result<()> {
        RealVfs.remove_dir_all(&self.map(path))
    }
    fn read_dir_names(&self, path: &Path) -> std::io::Result<Vec<String>> {
        RealVfs.read_dir_names(&self.map(path))
    }
    fn sync_dir(&self, path: &Path) -> std::io::Result<()> {
        RealVfs.sync_dir(&self.map(path))
    }
    fn exists(&self, path: &Path) -> bool {
        RealVfs.exists(&self.map(path))
    }
}

/// The `--resume` gate and a fresh `Durable::create` look at the data dir
/// through the run's `Vfs`: with the dir reachable only through it, the gate
/// sees the earlier run's generations, and a fresh start leaves the files
/// and the `wal/` bytes a fresh start in an empty dir leaves — none of the
/// earlier run's WAL segments survive. (Metas differ: they carry the
/// process-wide audit trail.)
#[test]
fn fresh_start_through_the_runs_vfs_wipes_the_earlier_run() {
    let (from, to) = window();
    let contents = |dir: &Path| -> Vec<(PathBuf, Option<Vec<u8>>)> {
        let wal = dir.join("wal");
        let read = |p: &Path| p.starts_with(&wal).then(|| std::fs::read(p).unwrap());
        data_files(dir).iter().map(|p| (p.strip_prefix(dir).unwrap().to_path_buf(), read(p))).collect()
    };
    let fresh_start = |dir: &Path, vfs: Arc<dyn Vfs>| {
        let sys = System::new(toy(SEED), SystemConfig::default());
        let cfg = DurabilityConfig { vfs, ..clean_cfg() };
        Durable::create(&sys, "toy", SEED, dir, from, to, cfg).expect("fresh start");
    };
    let empty = std::env::temp_dir().join(format!("manic-disk-faults-empty-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&empty);
    fresh_start(&empty, manic_vfs::real());

    let real = scratch_copy("mapped");
    let virt = PathBuf::from("/manic-virtual-data-dir");
    assert!(!virt.exists(), "the virtual dir must not exist on disk");
    let vfs = Arc::new(MappedVfs { virt: virt.clone(), real: real.clone() });
    assert!(has_checkpoint(&virt, &*vfs), "the earlier run's generations are visible");
    fresh_start(&virt, vfs);
    assert_eq!(contents(&real), contents(&empty), "the earlier run survived the fresh start");
    std::fs::remove_dir_all(&real).ok();
    std::fs::remove_dir_all(&empty).ok();
}

/// A data dir written by the previous format version is refused as a
/// whole — by the `--resume` gate's callee and by the read-only report
/// alike, with both versions named — and not one byte of it changes: no
/// fallback past the "bad" metas, no fresh start, no WAL truncation.
#[test]
fn version_1_dir_is_refused_and_left_untouched() {
    let (new, old) = (CHECKPOINT_VERSION, CHECKPOINT_VERSION - 1);
    let dir = scratch_copy("v1");
    let metas: Vec<PathBuf> = data_files(&dir)
        .into_iter()
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("checkpoint-"))
        .collect();
    assert_eq!(metas.len(), 3, "every kept generation gets an old meta");
    for meta in &metas {
        // An old meta by hand: the same fields under the previous version,
        // with the self-checksum its writer would have appended.
        let lead = |v: i64| format!("{{\"version\":{v},");
        let text = std::fs::read_to_string(meta).expect("read meta");
        let body = text[..text.rfind(",\"crc\":\"").expect("crc field")].replacen(&lead(new), &lead(old), 1);
        assert!(body.starts_with(&lead(old)), "meta does not lead with its version");
        let crc = manic_tsdb::segment::crc32(body.as_bytes());
        std::fs::write(meta, format!("{body},\"crc\":\"{crc:08x}\"}}")).expect("write old meta");
    }
    let contents = |dir: &Path| -> Vec<(PathBuf, Vec<u8>)> {
        data_files(dir).into_iter().map(|p| (p.clone(), std::fs::read(&p).unwrap())).collect()
    };
    let before = contents(&dir);

    assert!(has_checkpoint(&dir, &RealVfs), "the CLI must take the resume path, not wipe the dir");
    let refusals = [
        resume(&dir, Some(clean_cfg())).map(|_| ()).expect_err("resume of an old dir"),
        resume(&dir, None).map(|_| ()).expect_err("resume of an old dir, checkpointed knobs"),
        recover_report(&dir, &RealVfs).map(|_| ()).expect_err("report on an old dir"),
    ];
    for err in refusals {
        assert_eq!(err.kind(), std::io::ErrorKind::Unsupported, "{err}");
        let msg = err.to_string();
        let names = |v: i64| msg.contains(&format!("version {v}"));
        assert!(names(old) && names(new), "{msg}");
        assert!(msg.contains("checkpoint-00000048.json"), "names the file it stopped at: {msg}");
    }
    assert!(contents(&dir) == before, "a refused dir must be byte-identical afterwards");
    std::fs::remove_dir_all(&dir).ok();
}

/// A device that fills up (or errors) in the middle of a snapshot: the
/// periodic checkpoint fails and is counted, the half-written `.tmp` is
/// never renamed into a generation, the previous generation still resumes
/// with its recorded hash, and the next successful checkpoint sweeps the
/// leftover away. The run itself never notices.
#[test]
fn fault_mid_snapshot_fails_the_checkpoint_and_keeps_the_previous_generation() {
    let (from, to) = window();
    let reference = fixture().reference.clone();
    const EVERY: u64 = 12;
    let round = |n: u64| from + n as i64 * 300;
    // `always` is synchronous — no WAL writer thread — so the write-op
    // counter is a pure function of the schedule and can be calibrated.
    let cfg_with = |vfs: Arc<dyn manic_vfs::Vfs>, every: u64| DurabilityConfig {
        fsync: FsyncPolicy::Always,
        checkpoint_every_rounds: every,
        vfs,
        ..DurabilityConfig::default()
    };

    // Calibrate: the same rounds against a clean FaultVfs, checkpointing by
    // hand, give the write-op span of the round-24 checkpoint.
    let (ckpt_lo, ckpt_hi) = {
        let cal = FaultVfs::new(DiskFaultPlan::default());
        let dir = std::env::temp_dir()
            .join(format!("manic-disk-faults-midsnap-cal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sys = System::new(toy(SEED), SystemConfig::default());
        let mut d =
            Durable::create(&sys, "toy", SEED, &dir, from, to, cfg_with(Arc::new(cal.clone()), 100_000))
                .expect("calibration create");
        d.run_window(&mut sys, round(EVERY), &|| false).expect("calibration run");
        d.checkpoint(&sys, round(EVERY)).expect("calibration checkpoint");
        d.run_window(&mut sys, round(2 * EVERY), &|| false).expect("calibration run");
        let lo = cal.ops().0;
        d.checkpoint(&sys, round(2 * EVERY)).expect("calibration checkpoint");
        let hi = cal.ops().0;
        drop(d);
        let _ = std::fs::remove_dir_all(&dir);
        // At least two buffered snapshot writes and the meta: the K/B
        // snapshot of the toy world is a few 8 KiB flushes, not dozens.
        assert!(hi - lo >= 3, "snapshot too small to fail in the middle of: {} write ops", hi - lo);
        (lo, hi)
    };

    let errors = manic_obs::registry().counter("manic_core_checkpoint_errors");
    for kind in [DiskFaultKind::Enospc, DiskFaultKind::Eio] {
        let dir = std::env::temp_dir()
            .join(format!("manic-disk-faults-midsnap-{}-{}", kind.as_str(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Snapshot writes only (the meta is one op at the very end), from
        // the middle of the round-24 checkpoint's span on, and for one more
        // span past its end so that an immediate retry still meets the
        // fault; the twelve rounds of `always` WAL appends before the
        // round-36 checkpoint carry the op counter far beyond that.
        let span = ckpt_hi - ckpt_lo;
        let fvfs = FaultVfs::new(DiskFaultPlan::new(vec![DiskFaultEvent::window(
            kind,
            ckpt_lo + span / 2,
            ckpt_hi + span,
        )
        .scoped("store-")]));
        let mut sys = System::new(toy(SEED), SystemConfig::default());
        let mut d = Durable::create(&sys, "toy", SEED, &dir, from, to, cfg_with(Arc::new(fvfs.clone()), EVERY))
            .expect("create durable");
        let errors0 = errors.get();

        d.run_window(&mut sys, round(2 * EVERY), &|| false)
            .expect("a failed periodic checkpoint must not kill the run");
        let stats = fvfs.stats();
        assert!(stats.enospc + stats.eio > 0, "the fault window never fired — test is vacuous");
        assert_eq!(errors.get() - errors0, 1, "run_window counts the failed checkpoint");
        assert_eq!(d.last_checkpoint().0, EVERY, "generation 12 is still the newest");
        let names = |dir: &Path| -> Vec<String> {
            data_files(dir).iter().map(|p| p.file_name().unwrap().to_string_lossy().into_owned()).collect()
        };
        let tmp = "store-00000024.seg.tmp".to_string();
        assert!(names(&dir).contains(&tmp), "the torn snapshot stays a .tmp: {:?}", names(&dir));
        assert!(
            !names(&dir).iter().any(|n| n == "store-00000024.seg" || n == "checkpoint-00000024.json"),
            "a failed snapshot must never become a generation: {:?}",
            names(&dir)
        );
        // Still inside the window: asking again fails again, as an error.
        let err = d.checkpoint(&sys, round(2 * EVERY)).expect_err("device still failing");
        assert_eq!(manic_vfs::is_enospc(&err), kind == DiskFaultKind::Enospc, "{err}");

        // A crash here resumes from generation 12, whose hash verifies.
        let crashed = dir.with_extension("crashed");
        let _ = std::fs::remove_dir_all(&crashed);
        copy_dir(&dir, &crashed);
        let report = recover_report(&crashed, &RealVfs).expect("generation 12 usable");
        assert_eq!(report.rounds, EVERY);
        assert!(report.store_hash_ok);
        let (_sys2, _d2, info) = resume(&crashed, Some(clean_cfg())).expect("resume from generation 12");
        assert_eq!(info.rounds, EVERY);
        assert!(info.store_hash_ok && info.storage.clean(), "notes: {:?}", info.storage.notes);
        std::fs::remove_dir_all(&crashed).ok();

        // The device recovers; the next periodic checkpoint lands and
        // sweeps the leftover.
        d.run_window(&mut sys, round(3 * EVERY), &|| false).expect("run on");
        assert_eq!(errors.get() - errors0, 1, "the round-36 checkpoint succeeded");
        assert_eq!(d.last_checkpoint().0, 3 * EVERY);
        assert!(!names(&dir).iter().any(|n| n.ends_with(".tmp")), "leftover swept: {:?}", names(&dir));

        d.run_window(&mut sys, to, &|| false).expect("finish window");
        d.finalize(&sys, to).expect("finalize");
        assert_eq!(fingerprint(&mut sys, from, to), reference, "the live run never noticed");
        drop((sys, d));
        std::fs::remove_dir_all(&dir).ok();
    }
}
