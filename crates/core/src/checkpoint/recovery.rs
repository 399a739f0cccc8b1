//! Self-healing recovery: pick the newest usable generation, rebuild the
//! store it describes (healing a corrupt snapshot through an older one plus
//! WAL replay), and report everything that had to be worked around.

use super::format::Meta;
use super::generations::{generation_name, list_generations};
use super::{bad, world_by_name, DurabilityConfig, Durable};
use crate::system::{System, SystemConfig};
use manic_netsim::time::SimTime;
use manic_tsdb::wal::{replay_dir_range, replay_segment_file_with, ReplayReport};
use manic_tsdb::{Store, Wal};
use manic_vfs::Vfs;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// What self-healing recovery had to work around, for `manic recover`,
/// `/api/health`, and the torture gate. A clean resume reports all zeros.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageFindings {
    /// Checkpoint generations skipped because their meta or state was
    /// unusable (0 = the newest generation restored).
    pub fallback_generations: u64,
    /// Generation metas that failed to parse or verify.
    pub bad_metas: u64,
    /// The generation's snapshot was corrupt but was rebuilt from an older
    /// snapshot plus WAL replay up to the recorded position.
    pub healed_snapshot: bool,
    /// Mid-file corrupt WAL ranges quarantined during recovery replay.
    pub quarantined_frames: u64,
    pub quarantined_bytes: u64,
    /// GAP quality windows written over quarantined ranges.
    pub gap_windows: u64,
    /// Human-readable corruption findings, in discovery order.
    pub notes: Vec<String>,
}

impl StorageFindings {
    /// True when recovery saw no corruption at all.
    pub fn clean(&self) -> bool {
        self.fallback_generations == 0
            && self.bad_metas == 0
            && !self.healed_snapshot
            && self.quarantined_frames == 0
            && self.gap_windows == 0
    }

    fn note(&mut self, msg: impl Into<String>) {
        self.notes.push(msg.into());
    }

    fn absorb_replay(&mut self, rep: &ReplayReport) {
        self.quarantined_frames += rep.quarantined_frames;
        self.quarantined_bytes += rep.quarantined_bytes;
        self.gap_windows += rep.gap_windows.len() as u64;
    }
}

/// What a resume restored, for operator-facing reporting.
#[derive(Debug, Clone)]
pub struct ResumeInfo {
    pub world: String,
    pub seed: u64,
    /// Rounds the checkpointed run had completed.
    pub rounds: u64,
    /// Sim time at the checkpoint — re-execution continues here.
    pub t: SimTime,
    pub t_start: SimTime,
    pub t_end: SimTime,
    /// Samples and annotations restored from the snapshot segment.
    pub snapshot_records: u64,
    /// Intact post-checkpoint WAL records discarded (regenerated by
    /// deterministic re-execution).
    pub tail_discarded: u64,
    /// Restored store hash matches the one recorded at checkpoint time.
    pub store_hash_ok: bool,
    /// Wall-clock recovery time.
    pub recovery_ms: f64,
    /// Corruption self-healing recovery worked around, if any.
    pub storage: StorageFindings,
}

/// Read-only answer to "what would a resume restore?" (`manic recover`).
#[derive(Debug, Clone)]
pub struct RecoverReport {
    pub world: String,
    pub seed: u64,
    pub rounds: u64,
    pub t: SimTime,
    pub t_end: SimTime,
    /// Store contents after replaying the snapshot (what resume restores).
    pub series: usize,
    pub points: usize,
    pub store_hash: u64,
    pub store_hash_ok: bool,
    pub snapshot_records: u64,
    /// Post-checkpoint WAL tail (scanned, reported, then discarded on a
    /// real resume).
    pub tail_records: u64,
    pub tail_torn: u64,
    pub tail_decode_errors: u64,
    /// Corruption a resume would have to work around, if any.
    pub storage: StorageFindings,
}

/// Candidate generations to restore from, newest first. Unreadable metas
/// are reported in `findings`, not fatal — that is what fallback is for. A
/// meta of another format version is fatal for the whole directory
/// (`Unsupported`): it is refused as found, nothing in it is modified.
fn load_candidates(
    vfs: &dyn Vfs,
    data_dir: &Path,
    findings: &mut StorageFindings,
) -> io::Result<Vec<Meta>> {
    let mut out = Vec::new();
    for (rounds, path) in list_generations(vfs, data_dir)? {
        match vfs.read_to_string(&path).and_then(|text| Meta::parse(&text)) {
            Ok(meta) => out.push(meta),
            Err(e) if e.kind() == io::ErrorKind::Unsupported => {
                return Err(io::Error::new(
                    e.kind(),
                    format!(
                        "{} in {}: {e}; the directory was left untouched",
                        generation_name(rounds),
                        data_dir.display()
                    ),
                ));
            }
            Err(e) => {
                findings.bad_metas += 1;
                findings.note(format!("{} unusable: {e}", generation_name(rounds)));
            }
        }
    }
    if out.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no usable checkpoint in {}: {}", data_dir.display(), findings.notes.join("; ")),
        ));
    }
    Ok(out)
}

/// Replay one generation's snapshot into `store`: the replay report, and
/// whether the store now hashes to what the meta recorded.
fn replay_snapshot(
    vfs: &dyn Vfs,
    data_dir: &Path,
    meta: &Meta,
    store: &Store,
) -> io::Result<(ReplayReport, bool)> {
    let rep = replay_segment_file_with(vfs, &data_dir.join(&meta.store_file), store)?;
    Ok((rep, store.content_hash() == meta.store_hash))
}

/// Rebuild the store a checkpoint describes into a `fresh` [`Store`],
/// healing a corrupt snapshot by replaying an older generation's snapshot
/// plus the WAL forward to the checkpoint's recorded position. Returns
/// `(store, snapshot_records, hash_ok)`; errors mean this generation is
/// unusable and the caller should fall back to an older one.
fn restore_store(
    vfs: &dyn Vfs,
    data_dir: &Path,
    want: &Meta,
    older: &[Meta],
    fresh: &dyn Fn() -> Store,
    findings: &mut StorageFindings,
) -> io::Result<(Store, u64, bool)> {
    let store = fresh();
    match replay_snapshot(vfs, data_dir, want, &store) {
        Ok((rep, true)) if rep.torn_records == 0 => return Ok((store, rep.records(), true)),
        Ok((rep, hash_ok)) => findings.note(format!(
            "snapshot {} corrupt (torn={}, hash_ok={hash_ok})",
            want.store_file, rep.torn_records
        )),
        Err(e) => findings.note(format!("snapshot {} unreadable: {e}", want.store_file)),
    }
    // Heal: an older generation's intact snapshot plus the WAL from its
    // position forward to this checkpoint's position reproduces the same
    // store (modulo quarantined ranges, which are GAP-flagged).
    for donor in older {
        let s2 = fresh();
        let replayed = replay_snapshot(vfs, data_dir, donor, &s2);
        if !matches!(replayed, Ok((rep, true)) if rep.torn_records == 0) {
            findings.note(format!("heal donor {} unusable, trying older", donor.store_file));
            continue;
        }
        let tail = replay_dir_range(vfs, &data_dir.join("wal"), &s2, donor.pos, Some(want.pos))?;
        findings.absorb_replay(&tail);
        let hash_ok = s2.content_hash() == want.store_hash;
        if hash_ok || tail.corrupted() {
            // Exact reproduction, or best-effort with the loss fenced as
            // GAP windows — both beat abandoning the generation.
            findings.healed_snapshot = true;
            findings.note(format!(
                "healed snapshot {} from {} + WAL replay (hash_ok={hash_ok})",
                want.store_file, donor.store_file
            ));
            crate::obs::metrics().snapshot_heals.inc();
            return Ok((s2, tail.records(), hash_ok));
        }
        findings.note(format!(
            "heal via {} silently diverged (no corruption flagged, hash mismatch)",
            donor.store_file
        ));
    }
    Err(bad(format!(
        "generation rounds={} unrecoverable: snapshot corrupt and no heal path",
        want.rounds
    )))
}

/// Walk the fallback chain: the first candidate `attempt` can restore
/// (given the older ones to heal through) wins. Failures are noted, and
/// the number of generations skipped lands in `findings`.
fn first_usable<'a, T>(
    candidates: &'a [Meta],
    findings: &mut StorageFindings,
    mut attempt: impl FnMut(&'a Meta, &'a [Meta], &mut StorageFindings) -> io::Result<T>,
) -> io::Result<(&'a Meta, T)> {
    let mut last_err = None;
    for (i, meta) in candidates.iter().enumerate() {
        match attempt(meta, &candidates[i + 1..], findings) {
            Ok(restored) => {
                findings.fallback_generations = i as u64;
                return Ok((meta, restored));
            }
            Err(e) => {
                findings.note(format!("generation #{i} failed: {e}"));
                last_err = Some(e);
            }
        }
    }
    Err(last_err.unwrap_or_else(|| bad("no checkpoint generation was recoverable")))
}

/// Rebuild a [`System`] (and a [`Durable`] handle continuing its WAL) from
/// the last checkpoint in `data_dir`. The restored system is positioned at
/// the checkpoint: re-running from [`Durable::resume_t`] produces the same
/// congestion verdicts as a run that never crashed. `cfg_override` replaces
/// the checkpointed durability knobs (e.g. a different `--durability` on
/// restart); `None` keeps them.
///
/// Recovery is self-healing: an unreadable meta, a corrupt snapshot, or
/// corrupt VP state falls back to the next-older retained generation
/// (healing the snapshot through WAL replay when possible) instead of
/// aborting. What it worked around is reported in [`ResumeInfo::storage`].
pub fn resume(
    data_dir: &Path,
    cfg_override: Option<DurabilityConfig>,
) -> io::Result<(System, Durable, ResumeInfo)> {
    let started = std::time::Instant::now();
    let vfs: Arc<dyn Vfs> =
        cfg_override.as_ref().map(|c| Arc::clone(&c.vfs)).unwrap_or_else(manic_vfs::real);
    let mut findings = StorageFindings::default();
    let candidates = load_candidates(&*vfs, data_dir, &mut findings)?;
    let (meta, (sys, mut durable, restored)) =
        first_usable(&candidates, &mut findings, |meta, older, findings| {
            resume_generation(&*vfs, data_dir, meta, older, cfg_override.clone(), findings)
        })?;
    // Every meta that parsed is a generation the next checkpoint may keep;
    // its WAL GC reads their segments from here, not from disk.
    durable.wal_segments = candidates.iter().map(|m| (m.rounds, m.pos.segment)).collect();
    let (snapshot_records, tail_discarded, store_hash_ok) = restored;
    let recovery_ms = started.elapsed().as_secs_f64() * 1e3;
    let m = crate::obs::metrics();
    m.generation_fallbacks.add(findings.fallback_generations);
    m.recoveries.inc();
    m.recovery_ms.observe(recovery_ms);
    manic_obs::event!(
        manic_obs::INFO, "core", "recovery_complete", meta.t,
        rounds = meta.rounds,
        snapshot_records = snapshot_records,
        tail_discarded = tail_discarded,
        store_hash_ok = store_hash_ok,
        fallback_generations = findings.fallback_generations,
        healed_snapshot = findings.healed_snapshot,
    );
    let info = ResumeInfo {
        world: meta.world.clone(),
        seed: meta.seed,
        rounds: meta.rounds,
        t: meta.t,
        t_start: meta.t_start,
        t_end: meta.t_end,
        snapshot_records,
        tail_discarded,
        store_hash_ok,
        recovery_ms,
        storage: findings,
    };
    Ok((sys, durable, info))
}

/// One attempt of the fallback chain: restore everything a single
/// generation describes. Returns the system, its handle, and
/// `(snapshot_records, tail_discarded, store_hash_ok)`.
fn resume_generation(
    vfs: &dyn Vfs,
    data_dir: &Path,
    meta: &Meta,
    older: &[Meta],
    cfg_override: Option<DurabilityConfig>,
    findings: &mut StorageFindings,
) -> io::Result<(System, Durable, (u64, u64, bool))> {
    manic_obs::event!(
        manic_obs::INFO, "core", "recovery_started", meta.t,
        world = meta.world.as_str(),
        rounds = meta.rounds,
    );

    let cfg = cfg_override.unwrap_or_else(|| meta.cfg.clone());

    let world = world_by_name(&meta.world, meta.seed)?;
    let mut sys = System::new(world, SystemConfig::default());

    // Store first, rebuilt with the system's own striping and installed as
    // the system's store before the WAL is attached, so nothing of the
    // restore is journaled.
    let shards = sys.store.shard_count();
    let (store, snapshot_records, store_hash_ok) =
        restore_store(vfs, data_dir, meta, older, &|| Store::with_shards(shards), findings)?;
    sys.store = Arc::new(store);

    // Per-VP runtime state, and the process-global audit trail becomes the
    // checkpointed one.
    meta.restore_state(&mut sys)?;

    // Reopen the WAL exactly at the checkpointed position; the
    // unacknowledged tail is discarded and regenerated by re-execution.
    let (wal, tail_discarded) = Wal::open_at_with(
        &data_dir.join("wal"),
        cfg.fsync,
        cfg.rotate_bytes,
        meta.pos,
        Arc::clone(&cfg.vfs),
    )?;
    let wal = Arc::new(wal);
    sys.store.attach_wal(Arc::clone(&wal));

    let durable = Durable {
        data_dir: data_dir.to_path_buf(),
        cfg,
        wal,
        world_name: meta.world.clone(),
        seed: meta.seed,
        t_start: meta.t_start,
        t_end: meta.t_end,
        rounds: meta.rounds,
        last_checkpoint: (meta.rounds, meta.t),
        wal_segments: Default::default(),
    };
    Ok((sys, durable, (snapshot_records, tail_discarded, store_hash_ok)))
}

/// Read-only inspection of `data_dir` through `vfs` (`manic recover`):
/// replay the snapshot and scan the WAL tail into a scratch store,
/// reporting what a real resume would restore without touching anything on
/// disk.
///
/// Walks the same generation-fallback chain as [`resume`]: a corrupt meta
/// or snapshot falls back to (or heals through) older retained
/// generations, and everything worked around lands in
/// [`RecoverReport::storage`].
pub fn recover_report(data_dir: &Path, vfs: &dyn Vfs) -> io::Result<RecoverReport> {
    let mut findings = StorageFindings::default();
    let candidates = load_candidates(vfs, data_dir, &mut findings)?;
    let (meta, (store, snapshot_records, store_hash_ok)) =
        first_usable(&candidates, &mut findings, |meta, older, findings| {
            restore_store(vfs, data_dir, meta, older, &Store::new, findings)
        })?;
    // Hash before the tail replay: it describes the snapshot state the
    // meta's `store_hash` committed to, not the discardable tail.
    let store_hash = store.content_hash();
    let tail = replay_dir_range(vfs, &data_dir.join("wal"), &store, meta.pos, None)?;
    findings.absorb_replay(&tail);
    Ok(RecoverReport {
        world: meta.world.clone(),
        seed: meta.seed,
        rounds: meta.rounds,
        t: meta.t,
        t_end: meta.t_end,
        series: store.series_count(),
        points: store.point_count(),
        store_hash,
        store_hash_ok,
        snapshot_records,
        tail_records: tail.records(),
        tail_torn: tail.torn_records,
        tail_decode_errors: tail.decode_errors,
        storage: findings,
    })
}
