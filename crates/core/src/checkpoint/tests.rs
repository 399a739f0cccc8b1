use super::generations::{generation_name, snapshot_name};
use super::*;
use crate::health::HealthState;
use crate::system::SystemConfig;
use manic_netsim::time::{datetime_to_sim, Date};
use manic_scenario::worlds;
use manic_vfs::VfsFile;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// `resume` clears and refills the process-global audit trail; tests
/// that resume must not interleave.
static RESUME_LOCK: Mutex<()> = Mutex::new(());

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("manic-ckpt-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A stop predicate that fires after `n` rounds.
fn stop_after(n: usize) -> impl Fn() -> bool {
    let left = Cell::new(n);
    move || {
        if left.get() == 0 {
            true
        } else {
            left.set(left.get() - 1);
            false
        }
    }
}

fn fresh_sys(seed: u64) -> System {
    System::new(worlds::toy(seed), SystemConfig::default())
}

#[test]
fn resume_reproduces_uninterrupted_run() {
    let _guard = RESUME_LOCK.lock().unwrap();
    let dir = tmpdir("equiv");
    let from = datetime_to_sim(Date::new(2016, 6, 7), 22, 0, 0);
    let to = from + 4 * 3600; // 48 rounds

    // Reference: uninterrupted run.
    let mut reference = fresh_sys(7);
    reference.run_packet_mode(from, to);
    let ref_hash = reference.store.content_hash();

    // Durable run that "crashes" after 20 rounds.
    let mut sys = fresh_sys(7);
    let cfg = DurabilityConfig {
        fsync: FsyncPolicy::Always,
        checkpoint_every_rounds: 8,
        rotate_bytes: 1 << 20,
        ..Default::default()
    };
    let mut d = Durable::create(&sys, "toy", 7, &dir, from, to, cfg).unwrap();
    let executed = d.run_window(&mut sys, to, &stop_after(20)).unwrap();
    assert_eq!(executed, 20);
    drop((sys, d)); // crash: no finalize

    let (mut resumed, mut d2, info) = resume(&dir, None).unwrap();
    assert_eq!(info.world, "toy");
    assert_eq!(info.seed, 7);
    assert_eq!(info.rounds, 20, "stop() path checkpoints at the stop round");
    assert!(info.store_hash_ok);
    d2.run_window(&mut resumed, to, &|| false).unwrap();
    assert_eq!(
        resumed.store.content_hash(),
        ref_hash,
        "resumed run must be sample-identical to the uninterrupted one"
    );

    // Verdict equivalence: the reactive-loss trigger sees identical
    // series, so it arms identical target sets.
    let mut ref2 = reference;
    let n_ref = ref2.arm_reactive_loss(0, from, to);
    let n_res = resumed.arm_reactive_loss(0, from, to);
    assert_eq!(n_ref, n_res);
    let fars =
        |s: &System| s.vps[0].loss.targets.iter().map(|t| t.far_ip).collect::<Vec<_>>();
    assert_eq!(fars(&ref2), fars(&resumed));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_mid_interval_discards_wal_tail() {
    let _guard = RESUME_LOCK.lock().unwrap();
    let dir = tmpdir("tail");
    let from = datetime_to_sim(Date::new(2016, 6, 7), 0, 0, 0);
    let to = from + 2 * 3600;
    let mut sys = fresh_sys(3);
    let cfg = DurabilityConfig {
        fsync: FsyncPolicy::Always,
        checkpoint_every_rounds: 10,
        rotate_bytes: 1 << 20,
        ..Default::default()
    };
    let mut d = Durable::create(&sys, "toy", 3, &dir, from, to, cfg).unwrap();
    // 14 rounds: run_window checkpoints on stop, so round 14 is the
    // acknowledged frontier...
    d.run_window(&mut sys, to, &stop_after(14)).unwrap();
    // ...then the measurement loop advances 3 more rounds whose samples
    // reach only the WAL before the process dies (no new checkpoint).
    sys.run_packet_mode(d.resume_t(), d.resume_t() + 3 * ROUND_SECS);
    drop((sys, d));

    let (_resumed, d2, info) = resume(&dir, None).unwrap();
    assert_eq!(info.rounds, 14);
    assert!(info.tail_discarded > 0, "post-checkpoint samples were in the log");
    assert_eq!(d2.resume_t(), from + 14 * ROUND_SECS);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recover_report_reads_without_mutating() {
    let dir = tmpdir("recover");
    let from = 0;
    let to = 3600;
    let mut sys = fresh_sys(5);
    let mut d =
        Durable::create(&sys, "toy", 5, &dir, from, to, DurabilityConfig::default()).unwrap();
    d.run_window(&mut sys, to, &|| false).unwrap();
    d.finalize(&sys, to).unwrap();
    let newest = dir.join(generation_name(12));
    let before = std::fs::read(&newest).unwrap();
    let rep = recover_report(&dir, &manic_vfs::RealVfs).unwrap();
    assert_eq!(rep.rounds, 12);
    assert!(rep.series > 0 && rep.points > 0);
    assert!(rep.store_hash_ok);
    assert_eq!(rep.tail_records, 0, "finalize leaves no unacknowledged tail");
    assert_eq!(std::fs::read(&newest).unwrap(), before);
    let rep2 = recover_report(&dir, &manic_vfs::RealVfs).unwrap();
    assert_eq!(rep.store_hash, rep2.store_hash, "recover is idempotent");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn audit_trail_roundtrips_through_checkpoint() {
    let _guard = RESUME_LOCK.lock().unwrap();
    let dir = tmpdir("audit");
    let from = datetime_to_sim(Date::new(2016, 6, 7), 22, 0, 0);
    let to = from + 3600;
    let mut sys = fresh_sys(11);
    let mut d =
        Durable::create(&sys, "toy", 11, &dir, from, to, DurabilityConfig::default()).unwrap();
    d.run_window(&mut sys, to, &|| false).unwrap();
    sys.arm_reactive_loss(0, from, to);
    // Capture *before* finalize: other test threads may append to the
    // process-global trail concurrently, so compare on the prefix that
    // was provably serialized.
    let saved = manic_obs::audit().all();
    assert!(!saved.is_empty(), "arm_reactive_loss records verdicts");
    d.finalize(&sys, to).unwrap();

    let (_resumed, _d2, _info) = resume(&dir, None).unwrap();
    let restored = manic_obs::audit().all();
    assert!(restored.len() >= saved.len());
    for (a, b) in saved.iter().zip(&restored) {
        assert_eq!(a.t, b.t);
        assert_eq!(a.vp, b.vp);
        assert_eq!(a.link, b.link);
        assert_eq!(a.detector, b.detector);
        assert_eq!(a.congested, b.congested);
        assert_eq!(a.evidence.len(), b.evidence.len());
        for (ea, eb) in a.evidence.iter().zip(&b.evidence) {
            assert_eq!(ea.kind, eb.kind);
            assert_eq!(ea.fields, eb.fields);
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A durable run with several retained checkpoint generations: every=5
/// and a stop at round 17 leaves generations 5, 10, 15, 17, pruned to
/// the newest `keep_checkpoints = 3` (10, 15, 17).
fn run_with_generations(dir: &Path, seed: u64, to: SimTime) -> u64 {
    let from = datetime_to_sim(Date::new(2016, 6, 7), 0, 0, 0);
    let mut sys = System::new(worlds::toy(seed), SystemConfig::default());
    let cfg = DurabilityConfig {
        fsync: FsyncPolicy::Always,
        checkpoint_every_rounds: 5,
        rotate_bytes: 1 << 20,
        ..Default::default()
    };
    let mut d = Durable::create(&sys, "toy", seed, dir, from, to, cfg).unwrap();
    d.run_window(&mut sys, to, &stop_after(17)).unwrap();
    let newest = d.rounds;
    drop((sys, d)); // crash: no finalize
    newest
}

#[test]
fn resume_heals_corrupt_newest_snapshot() {
    let _guard = RESUME_LOCK.lock().unwrap();
    let dir = tmpdir("heal");
    let from = datetime_to_sim(Date::new(2016, 6, 7), 0, 0, 0);
    let to = from + 2 * 3600;
    let mut reference = fresh_sys(13);
    reference.run_packet_mode(from, to);
    let ref_hash = reference.store.content_hash();

    let newest = run_with_generations(&dir, 13, to);
    // Flip a byte inside the newest snapshot: its frame CRC no longer
    // matches, so resume must heal from the previous generation's
    // snapshot plus WAL replay.
    let snap = dir.join(snapshot_name(newest));
    let mut raw = std::fs::read(&snap).unwrap();
    let mid = raw.len() / 2;
    raw[mid] ^= 0x40;
    std::fs::write(&snap, &raw).unwrap();

    // Read-only inspection sees (and reports) the same heal.
    let rep = recover_report(&dir, &manic_vfs::RealVfs).unwrap();
    assert!(rep.storage.healed_snapshot, "recover heals: {:?}", rep.storage.notes);
    assert!(rep.store_hash_ok, "WAL intact, heal reproduces the exact store");

    let (mut resumed, mut d2, info) = resume(&dir, None).unwrap();
    assert_eq!(info.rounds, newest);
    assert!(info.storage.healed_snapshot, "healed: {:?}", info.storage.notes);
    assert_eq!(
        info.storage.fallback_generations, 0,
        "healing keeps the newest generation"
    );
    assert!(info.store_hash_ok);
    d2.run_window(&mut resumed, to, &|| false).unwrap();
    assert_eq!(
        resumed.store.content_hash(),
        ref_hash,
        "healed resume must be sample-identical to the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_falls_back_generation_on_corrupt_meta() {
    let _guard = RESUME_LOCK.lock().unwrap();
    let dir = tmpdir("fallback");
    let from = datetime_to_sim(Date::new(2016, 6, 7), 0, 0, 0);
    let to = from + 2 * 3600;
    let mut reference = fresh_sys(19);
    reference.run_packet_mode(from, to);
    let ref_hash = reference.store.content_hash();

    let newest = run_with_generations(&dir, 19, to);
    // Garbage in the newest generation's meta: resume must drop back to
    // the previous generation and re-execute forward.
    std::fs::write(dir.join(generation_name(newest)), b"{ not json").unwrap();

    let (mut resumed, mut d2, info) = resume(&dir, None).unwrap();
    assert!(info.rounds < newest, "restored an older generation");
    assert_eq!(info.storage.bad_metas, 1, "notes: {:?}", info.storage.notes);
    assert_eq!(info.storage.fallback_generations, 0, "a bad meta is not a tried generation");
    assert!(info.store_hash_ok);
    d2.run_window(&mut resumed, to, &|| false).unwrap();
    assert_eq!(
        resumed.store.content_hash(),
        ref_hash,
        "generation fallback plus re-execution reproduces the run"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn create_wipes_stale_state_and_missing_checkpoint_is_an_error() {
    let _guard = RESUME_LOCK.lock().unwrap();
    let dir = tmpdir("wipe");
    assert!(resume(&dir, None).is_err(), "no checkpoint yet");
    let sys = fresh_sys(2);
    let _d =
        Durable::create(&sys, "toy", 2, &dir, 0, 3600, DurabilityConfig::default()).unwrap();
    sys.store.write(
        &manic_tsdb::SeriesKey::with_tags("tslp", &[("vp", "x"), ("end", "far")]),
        10,
        1.0,
    );
    drop(sys);
    // A *fresh* create in the same dir starts a new history.
    let sys2 = fresh_sys(2);
    let _d2 =
        Durable::create(&sys2, "toy", 2, &dir, 0, 3600, DurabilityConfig::default()).unwrap();
    let (resumed, _d3, info) = resume(&dir, None).unwrap();
    assert_eq!(info.rounds, 0);
    assert_eq!(resumed.store.point_count(), 0, "old history wiped");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A data dir as the previous layout wrote it — the newest generation's
/// meta duplicated as `checkpoint.json` — resumes from the numbered
/// generations alone; the copy is neither read nor rewritten, and a fresh
/// `create` clears it with the rest of the old history.
#[test]
fn legacy_layout_dir_resumes_and_create_clears_the_copy() {
    let _guard = RESUME_LOCK.lock().unwrap();
    let dir = tmpdir("legacy");
    let from = datetime_to_sim(Date::new(2016, 6, 7), 0, 0, 0);
    let to = from + 2 * 3600;
    let mut reference = fresh_sys(23);
    reference.run_packet_mode(from, to);

    let newest = run_with_generations(&dir, 23, to);
    let copy = dir.join("checkpoint.json");
    std::fs::copy(dir.join(generation_name(newest)), &copy).unwrap();
    let copied = std::fs::read(&copy).unwrap();

    let (mut resumed, mut d2, info) = resume(&dir, None).unwrap();
    assert_eq!(info.rounds, newest);
    assert!(info.store_hash_ok && info.storage.clean(), "notes: {:?}", info.storage.notes);
    d2.run_window(&mut resumed, to, &|| false).unwrap();
    d2.finalize(&resumed, to).unwrap();
    assert_eq!(resumed.store.content_hash(), reference.store.content_hash());
    assert_eq!(std::fs::read(&copy).unwrap(), copied, "the copy is left alone");

    let sys = fresh_sys(23);
    Durable::create(&sys, "toy", 23, &dir, from, to, DurabilityConfig::default()).unwrap();
    assert!(!copy.exists(), "a fresh history leaves no stale copy behind");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The real filesystem, counting files opened for reading.
struct CountReads(Arc<dyn Vfs>, AtomicU64);

impl Vfs for CountReads {
    fn kind(&self) -> &'static str {
        "count-reads"
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.0.create(path)
    }
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.0.open_rw(path)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.1.fetch_add(1, Ordering::Relaxed);
        self.0.read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.0.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.0.remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.0.create_dir_all(path)
    }
    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.0.remove_dir_all(path)
    }
    fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>> {
        self.0.read_dir_names(path)
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.0.sync_dir(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.0.exists(path)
    }
}

/// Checkpoints — the first, the periodic ones that prune and GC the WAL,
/// and the final one — write; they never read a meta (or anything) back.
#[test]
fn checkpoint_opens_no_file_for_reading() {
    let dir = tmpdir("noread");
    let from = datetime_to_sim(Date::new(2016, 6, 7), 0, 0, 0);
    let to = from + 2 * 3600;
    let vfs = Arc::new(CountReads(manic_vfs::real(), AtomicU64::new(0)));
    let cfg = DurabilityConfig {
        checkpoint_every_rounds: 4,
        rotate_bytes: 16 << 10,
        vfs: vfs.clone(),
        ..Default::default()
    };
    let mut sys = fresh_sys(29);
    let mut d = Durable::create(&sys, "toy", 29, &dir, from, to, cfg).unwrap();
    d.run_window(&mut sys, to, &|| false).unwrap();
    d.finalize(&sys, to).unwrap();
    assert_eq!(vfs.1.load(Ordering::Relaxed), 0, "a checkpoint read a file back");
    let kept = generations::list_generations(&*manic_vfs::real(), &dir).unwrap();
    assert_eq!(kept.len(), 3, "pruned to the retained window: {kept:?}");
    assert!(d.wal_segments.keys().eq(kept.iter().rev().map(|(r, _)| r)));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `checkpoint_written` says where a checkpoint's time went: the store walk
/// (`snapshot_ms`) or the meta (`meta_ms`), beside the `bytes` they wrote.
#[test]
fn checkpoint_written_event_splits_snapshot_from_meta_time() {
    let dir = tmpdir("event");
    // The journal is process-global: a sim time no other test uses.
    let t0 = 31_000_001;
    let sys = fresh_sys(31);
    let _d =
        Durable::create(&sys, "toy", 31, &dir, t0, t0 + 3600, DurabilityConfig::default()).unwrap();
    let events =
        manic_obs::journal().events_where(|e| e.name == "checkpoint_written" && e.t == t0);
    assert_eq!(events.len(), 1, "create writes the round-zero checkpoint");
    for key in ["snapshot_ms", "meta_ms"] {
        match events[0].field(key) {
            Some(manic_obs::Value::F64(ms)) => assert!(ms.is_finite() && *ms >= 0.0, "{key}={ms}"),
            other => panic!("{key} missing or not a float: {other:?}"),
        }
    }
    assert!(matches!(events[0].field("bytes"), Some(manic_obs::Value::U64(b)) if *b > 0));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A store holding something the line protocol cannot carry — a non-finite
/// value, a control character in a name — fails the checkpoint with
/// `InvalidInput` instead of writing a frame that would not replay: the
/// `.tmp` is never renamed and the generation already on disk still resumes
/// with its recorded hash.
#[test]
fn unencodable_store_contents_fail_the_checkpoint_and_keep_the_old_generation() {
    let _guard = RESUME_LOCK.lock().unwrap();
    let clean = manic_tsdb::SeriesKey::with_tags("tslp", &[("vp", "x"), ("end", "far")]);
    let control = manic_tsdb::SeriesKey::with_tags("tslp", &[("vp", "x\ny"), ("end", "far")]);
    for (tag, key, v) in [("nan", &clean, f64::NAN), ("inf", &clean, f64::INFINITY), ("name", &control, 1.0)] {
        let dir = tmpdir(&format!("invalid-{tag}"));
        let sys = fresh_sys(37);
        let mut d =
            Durable::create(&sys, "toy", 37, &dir, 0, 3600, DurabilityConfig::default()).unwrap();
        sys.store.write(&clean, 10, 1.0);
        d.checkpoint(&sys, 0).expect("a clean store checkpoints");
        let snap = dir.join(snapshot_name(0));
        let good = std::fs::read(&snap).unwrap();

        sys.store.write(key, 20, v);
        let err = d.checkpoint(&sys, 0).expect_err("unencodable contents must not checkpoint");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{tag}: {err}");
        assert_eq!(std::fs::read(&snap).unwrap(), good, "{tag}: the old snapshot is untouched");
        assert!(dir.join(format!("{}.tmp", snapshot_name(0))).exists(), "{tag}: died before rename");
        drop((sys, d));

        let (resumed, _d2, info) = resume(&dir, None).unwrap();
        assert!(info.store_hash_ok, "{tag}");
        assert_eq!(resumed.store.point_count(), 1, "{tag}: the last good generation");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A meta with its `crc` recomputed over `body` (everything before the crc
/// member), as a writer would have sealed it.
fn reseal(text: &str) -> String {
    let body = &text[..text.rfind(r#","crc":""#).unwrap()];
    let crc = manic_tsdb::segment::crc32(body.as_bytes());
    format!(r#"{body},"crc":"{crc:08x}"}}"#)
}

/// The control-loop members of a meta — a task's health row with its dark
/// count, the cycle backoff and the supervisor as `[count, until]` — hold
/// only state and round-trip it exactly. Links out of `(near, far)` order
/// make the generation unusable: resume falls back to the previous one, as
/// for a missing member.
#[test]
fn derived_backoff_members_round_trip_and_are_checked_on_read() {
    use crate::health::{Backoff, CYCLE_BACKOFF};
    let _guard = RESUME_LOCK.lock().unwrap();
    let from = datetime_to_sim(Date::new(2016, 6, 7), 0, 0, 0);
    // Generation 0 holds fresh state; generation 1 a task quarantined after
    // four dark rounds, a struck VP and a failed cycle.
    let write_generations = |dir: &Path| {
        let mut sys = fresh_sys(41);
        sys.run_bdrmap_cycle(0, from);
        let cfg = DurabilityConfig::default();
        let mut d = Durable::create(&sys, "toy", 41, dir, from, from + 3600, cfg).unwrap();
        let vp = &mut sys.vps[0];
        let task = &vp.tslp.tasks[0];
        let key = (task.near_ip, task.far_ip);
        let h = vp.health.entry(key).or_default();
        for k in 0..4 {
            h.observe(false, from + k * ROUND_SECS, 1, 1);
        }
        vp.supervisor.strike(from);
        vp.cycle_backoff.fail(from, CYCLE_BACKOFF, 0.0);
        d.rounds = 1;
        d.checkpoint(&sys, from).unwrap();
        (sys, key)
    };

    let dir = tmpdir("derived");
    let (sys, key) = write_generations(&dir);
    let vp = &sys.vps[0];
    let h = &vp.health[&key];
    assert_eq!(
        (h.state, h.dark_rounds, h.backoff.count),
        (HealthState::Quarantined, 4, 1)
    );
    let meta = std::fs::read_to_string(dir.join(generation_name(1))).unwrap();
    let (n, f) = (key.0 .0, key.1 .0);
    let members = [
        format!(r#"[{n},{f},"quarantined",0,0,4,1,{}]"#, h.backoff.until),
        format!(r#""backoff":[1,{}]"#, from + 1_800),
        format!(r#""supervisor":[1,{}]"#, from + 1_800),
    ];
    for m in &members {
        assert!(meta.contains(m.as_str()), "meta lacks {m}");
    }
    let (resumed, _d, info) = resume(&dir, None).unwrap();
    assert_eq!((info.rounds, info.storage.fallback_generations), (1, 0));
    let back = &resumed.vps[0];
    assert_eq!(
        back.health, vp.health,
        "health records, dark counts included"
    );
    assert_eq!(back.supervisor, vp.supervisor);
    let cycle = Backoff {
        count: 1,
        until: from + 1_800,
    };
    assert_eq!((back.cycle_backoff, vp.cycle_backoff), (cycle, cycle));
    std::fs::remove_dir_all(&dir).unwrap();

    // Swap the first two link rows.
    let dir = tmpdir("derived-bad");
    write_generations(&dir);
    let path = dir.join(generation_name(1));
    let meta = std::fs::read_to_string(&path).unwrap();
    let at = meta.find(r#""links":["#).unwrap() + r#""links":["#.len();
    let first = at + meta[at..].find(']').unwrap() + 1;
    let second = first + 1 + meta[first + 1..].find(']').unwrap() + 1;
    let (a, b) = (&meta[at..first], &meta[first + 1..second]);
    std::fs::write(&path, reseal(&format!("{}{b},{a}{}", &meta[..at], &meta[second..]))).unwrap();
    let (_, _, info) = resume(&dir, None).unwrap();
    assert_eq!(
        (info.rounds, info.storage.fallback_generations),
        (0, 1),
        "{:?}",
        info.storage.notes
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
