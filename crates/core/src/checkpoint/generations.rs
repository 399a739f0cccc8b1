//! On-disk layout of checkpoint generations in a data dir.
//!
//! Generation `<rounds>` is two files, `checkpoint-<rounds>.json` (the
//! meta, see [`super::format`]) and `store-<rounds>.seg` (the store
//! snapshot it names), both written as temp + fsync + rename. The newest
//! `keep_checkpoints` generations are retained; everything else that looks
//! like a generation file is pruned after each checkpoint.

use manic_vfs::Vfs;
use std::io;
use std::path::{Path, PathBuf};

pub(super) fn snapshot_name(rounds: u64) -> String {
    format!("store-{rounds:08}.seg")
}

pub(super) fn generation_name(rounds: u64) -> String {
    format!("checkpoint-{rounds:08}.json")
}

/// Generation metas present on disk, as `(rounds, path)` sorted newest
/// first.
pub(super) fn list_generations(vfs: &dyn Vfs, dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let names = vfs.read_dir_names(dir).map_err(|e| {
        io::Error::new(e.kind(), format!("cannot list data dir {}: {e}", dir.display()))
    })?;
    for name in names {
        if let Some(rounds) = name
            .strip_prefix("checkpoint-")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((rounds, dir.join(name)));
        }
    }
    out.sort_by_key(|c| std::cmp::Reverse(c.0));
    Ok(out)
}

/// Does `data_dir`, read through the run's `vfs`, hold a checkpoint
/// generation to resume from? This is the gate between `--resume` and a
/// fresh start, which wipes the dir: it answers from the generation
/// listing, so a dir is never declared empty while any generation (however
/// old) is still there.
pub fn has_checkpoint(data_dir: &Path, vfs: &dyn Vfs) -> bool {
    list_generations(vfs, data_dir).is_ok_and(|g| !g.is_empty())
}

/// Atomically write `bytes` at `path` (temp + fsync + rename).
pub(super) fn write_atomic(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> io::Result<()> {
    use std::io::Write as _;
    let tmp = path.with_extension("json.tmp");
    {
        let mut f = vfs.create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    vfs.rename(&tmp, path)
}

/// Prune the dir to its newest `keep` generations: older metas, and every
/// snapshot (or leftover snapshot temp) that no kept generation names.
/// Returns the rounds of the generations kept.
pub(super) fn prune(vfs: &dyn Vfs, dir: &Path, keep: usize) -> io::Result<Vec<u64>> {
    let generations = list_generations(vfs, dir)?;
    let kept: Vec<u64> = generations.iter().take(keep).map(|&(r, _)| r).collect();
    for (_, path) in generations.iter().skip(keep) {
        vfs.remove_file(path)?;
    }
    for name in vfs.read_dir_names(dir)? {
        let is_snapshot =
            name.starts_with("store-") && (name.ends_with(".seg") || name.ends_with(".tmp"));
        if is_snapshot && !kept.iter().any(|&r| name == snapshot_name(r)) {
            vfs.remove_file(&dir.join(name))?;
        }
    }
    Ok(kept)
}
