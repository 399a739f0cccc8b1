//! Disk-torture harness for the storage stack: seeded fault injection
//! against the WAL, checkpoint, and recovery paths.
//!
//! Phase 1 — in-process fault trials: each trial runs a toy-world durable
//! window through a [`FaultVfs`] whose chaos plan injects one fault kind
//! (or all five) on a seeded schedule — EIO, ENOSPC, torn writes, fsync
//! lies, and bit flips — then cuts power mid-window (unsynced page cache
//! dropped, device dead) and recovers the directory with a clean VFS. A
//! seeded subset of trials additionally flips one at-rest bit in the
//! surviving files before recovery. Gates, per trial:
//!
//!   * recovery never panics and never silently diverges: when the resumed
//!     run's final fingerprint differs from the uninterrupted reference,
//!     the recovery path must have FLAGGED the damage
//!     ([`StorageFindings`]: generation fallback, healed snapshot,
//!     quarantined WAL ranges) — except for ENOSPC trials, where shedding
//!     raw samples is the documented degraded mode;
//!   * verdicts outside flagged gaps are preserved: the resumed run's
//!     congested-link set must be a subset of the reference set (GAP
//!     windows may suppress verdicts, never invent them);
//!   * a directory with no usable checkpoint falls back to a fresh start
//!     that reproduces the reference exactly.
//!
//! Phase 2 — child-process SIGKILL combos: `manic run --storage-faults`
//! children are killed with SIGKILL at a seeded fraction of the run, then
//! `manic recover` (exit 0 clean / 3 recoverable damage) and a clean
//! `manic run --resume` must converge back to the reference summary.
//!
//! `DISK_TORTURE_TRIALS` scales phase 1 (default 50, min 5 so every fault
//! kind still runs); `DISK_TORTURE_CHILD_TRIALS` scales phase 2.
//! Exits non-zero on any violation.

use manic_core::{recover_report_with, resume, Durable, DurabilityConfig, System, SystemConfig};
use manic_netsim::noise;
use manic_netsim::time::{date_to_sim, Date};
use manic_probing::tslp::ROUND_SECS;
use manic_scenario::worlds::toy;
use manic_tsdb::FsyncPolicy;
use manic_vfs::{DiskFaultKind, DiskFaultPlan, FaultStats, FaultVfs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORLD_SEED: u64 = 42;
const TRIAL_HOURS: i64 = 24;
const CHILD_HOURS: i64 = 48;
const POLICIES: [FsyncPolicy; 3] =
    [FsyncPolicy::Always, FsyncPolicy::EveryN(8), FsyncPolicy::EveryN(64)];
const CADENCES: [u64; 3] = [6, 12, 48];
/// Fault mixes cycled across trials: every kind alone, then the full storm.
const MIXES: [&str; 6] = ["eio", "enospc", "torn", "lie", "flip", "all"];

fn env_trials(var: &str, default: usize, min: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
        .max(min)
}

/// Seeded kill point as a fraction of the window, in [0.15, 0.95].
fn kill_fraction(seed: u64) -> f64 {
    0.15 + 0.80 * (noise::mix(seed) >> 11) as f64 / (1u64 << 53) as f64
}

fn window() -> (i64, i64) {
    let from = date_to_sim(Date::new(2017, 3, 1));
    (from, from + TRIAL_HOURS * 3600)
}

#[derive(PartialEq)]
struct Fingerprint {
    hash: u64,
    series: usize,
    points: usize,
    verdicts: Vec<String>,
}

fn fingerprint(sys: &mut System, from: i64, to: i64) -> Fingerprint {
    let mut verdicts = Vec::new();
    for vi in 0..sys.vps.len() {
        sys.arm_reactive_loss(vi, from, to);
        verdicts.extend(sys.vps[vi].loss.targets.iter().map(|t| t.far_ip.to_string()));
    }
    verdicts.sort();
    verdicts.dedup();
    Fingerprint {
        hash: sys.store.content_hash(),
        series: sys.store.series_count(),
        points: sys.store.point_count(),
        verdicts,
    }
}

fn mix_kinds(mix: &str) -> Vec<DiskFaultKind> {
    if mix == "all" {
        DiskFaultKind::ALL.to_vec()
    } else {
        vec![DiskFaultKind::parse(mix).expect("known mix")]
    }
}

/// Flip one seeded bit in an at-rest file. WAL segments are always fair
/// game; checkpoint metas and snapshots only once a second generation
/// exists to fall back to (a lone generation with a flipped meta is
/// legitimately unrecoverable, which is not what this harness gates).
fn flip_at_rest(dir: &Path, seed: u64) -> Option<String> {
    let mut files: Vec<PathBuf> = Vec::new();
    if let Ok(rd) = std::fs::read_dir(dir.join("wal")) {
        files.extend(rd.flatten().map(|e| e.path()).filter(|p| p.is_file()));
    }
    let metas = std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter(|e| {
                    e.file_name().to_string_lossy().starts_with("checkpoint-")
                })
                .count()
        })
        .unwrap_or(0);
    if metas >= 2 {
        if let Ok(rd) = std::fs::read_dir(dir) {
            files.extend(rd.flatten().map(|e| e.path()).filter(|p| {
                let name = p.file_name().unwrap_or_default().to_string_lossy().to_string();
                p.is_file()
                    && (name.starts_with("checkpoint") || name.starts_with("store-"))
            }));
        }
    }
    files.sort();
    files.retain(|p| std::fs::metadata(p).map(|m| m.len() > 0).unwrap_or(false));
    if files.is_empty() {
        return None;
    }
    let pick = &files[(noise::mix(seed ^ 0xA7_BE57) as usize) % files.len()];
    let mut bytes = std::fs::read(pick).ok()?;
    let bit = (noise::mix(seed ^ 0xF11B) as usize) % (bytes.len() * 8);
    bytes[bit / 8] ^= 1 << (bit % 8);
    std::fs::write(pick, &bytes).ok()?;
    Some(pick.file_name().unwrap_or_default().to_string_lossy().to_string())
}

struct TrialOutcome {
    kind: &'static str,
    mix: &'static str,
    stats: FaultStats,
    flagged: bool,
    violation: Option<String>,
}

fn fail(mix: &'static str, stats: FaultStats, msg: String) -> TrialOutcome {
    TrialOutcome { kind: "failed", mix, stats, flagged: false, violation: Some(msg) }
}

fn run_fault_trial(root: &Path, trial: usize, reference: &Fingerprint) -> TrialOutcome {
    let mix = MIXES[trial % MIXES.len()];
    let seed = manic_bench::SEED ^ (trial as u64) << 8;
    let (from, to) = window();
    let dir = root.join(format!("t{trial:03}"));
    let _ = std::fs::remove_dir_all(&dir);

    let fvfs = FaultVfs::new(DiskFaultPlan::chaos(seed, &mix_kinds(mix)));
    let cfg = DurabilityConfig {
        fsync: POLICIES[trial % POLICIES.len()],
        checkpoint_every_rounds: CADENCES[trial % CADENCES.len()],
        vfs: Arc::new(fvfs.clone()),
        ..DurabilityConfig::default()
    };

    // Faulted leg: run to a seeded mid-window point, then cut power. Any
    // error from the durable layer is this trial's crash point; a panic is
    // an immediate violation.
    let rounds = (to - from) / ROUND_SECS;
    let kill_round = ((kill_fraction(seed) * rounds as f64) as i64).max(1);
    let mid = from + kill_round * ROUND_SECS;
    let faulted = catch_unwind(AssertUnwindSafe(|| {
        let sys = System::new(toy(WORLD_SEED), SystemConfig::default());
        match Durable::create(&sys, "toy", WORLD_SEED, &dir, from, to, cfg) {
            Err(_) => "create-failed",
            Ok(mut d) => {
                let mut sys = sys;
                let r = d.run_window(&mut sys, mid, &|| false);
                fvfs.power_cut();
                drop(d);
                if r.is_err() {
                    "died-of-fault"
                } else {
                    "power-cut-mid-window"
                }
            }
        }
    }));
    let stats = fvfs.stats();
    let phase = match faulted {
        Ok(p) => p,
        Err(_) => return fail(mix, stats, "PANIC during faulted run".into()),
    };

    let flipped = if noise::mix(seed ^ 0x0DD5).is_multiple_of(3) { flip_at_rest(&dir, seed) } else { None };

    // Recovery leg: clean VFS, long cadence (correctness, not cadence, is
    // under test). The report and the resume walk the same chain; both must
    // agree that the directory is usable.
    let clean = DurabilityConfig {
        fsync: FsyncPolicy::EveryN(64),
        checkpoint_every_rounds: 100_000,
        ..DurabilityConfig::default()
    };
    let report = recover_report_with(&dir, manic_vfs::real());
    let recovered = catch_unwind(AssertUnwindSafe(|| match resume(&dir, Some(clean)) {
        Err(e) => Err(e),
        Ok((mut sys, mut d, info)) => {
            d.run_window(&mut sys, to, &|| false)?;
            d.finalize(&sys, to)?;
            Ok((fingerprint(&mut sys, from, to), info))
        }
    }));
    let recovered = match recovered {
        Ok(r) => r,
        Err(_) => return fail(mix, stats, format!("PANIC during recovery (after {phase})")),
    };
    let _ = std::fs::remove_dir_all(&dir);

    match recovered {
        Err(resume_err) => {
            // Nothing restorable is only legitimate when the report agrees
            // (no generation survived — e.g. create itself died). The
            // fallback is then a fresh deterministic run, which the
            // reference fingerprint already is.
            if report.is_ok() {
                return fail(
                    mix,
                    stats,
                    format!("report succeeded but resume failed: {resume_err}"),
                );
            }
            TrialOutcome { kind: "fresh-fallback", mix, stats, flagged: false, violation: None }
        }
        Ok((fp, info)) => {
            let flagged = !info.storage.clean();
            if let Ok(rep) = &report {
                if rep.storage.clean() != info.storage.clean() {
                    return fail(
                        mix,
                        stats,
                        "recover report and resume disagree on findings".into(),
                    );
                }
            } else {
                return fail(mix, stats, "resume succeeded but report errored".into());
            }
            if fp == *reference {
                let kind = if flagged { "recovered-healed" } else { "recovered-exact" };
                return TrialOutcome { kind, mix, stats, flagged, violation: None };
            }
            // Divergence must be accounted for: flagged findings, or the
            // documented ENOSPC raw-sample shedding.
            let enospc_shed = stats.enospc > 0;
            if !flagged && !enospc_shed {
                return fail(
                    mix,
                    stats,
                    format!(
                        "SILENT divergence (flip={flipped:?}): hash {:016x} != {:016x}, \
                         no findings flagged",
                        fp.hash, reference.hash
                    ),
                );
            }
            if !fp.verdicts.iter().all(|v| reference.verdicts.contains(v)) {
                return fail(
                    mix,
                    stats,
                    format!(
                        "verdicts outside reference: {:?} vs {:?}",
                        fp.verdicts, reference.verdicts
                    ),
                );
            }
            TrialOutcome { kind: "recovered-degraded", mix, stats, flagged, violation: None }
        }
    }
}

// ---------------------------------------------------------------- phase 2

fn manic_binary() -> PathBuf {
    let me = std::env::current_exe().expect("current_exe");
    let bin = me.with_file_name("manic");
    if !bin.is_file() {
        eprintln!(
            "disk_torture: `manic` binary not found at {} — build it first \
             (cargo build --release -p manic-cli)",
            bin.display()
        );
        std::process::exit(2);
    }
    bin
}

fn summary_lines(stdout: &str) -> Option<(String, String)> {
    let store = stdout.lines().find(|l| l.starts_with("store:"))?.to_string();
    let verdicts = stdout.lines().find(|l| l.starts_with("verdicts:"))?.to_string();
    Some((store, verdicts))
}

fn verdict_set(line: &str) -> Vec<String> {
    line.rsplit("congested=")
        .next()
        .filter(|s| *s != "-")
        .map(|s| s.split(',').map(str::to_string).collect())
        .unwrap_or_default()
}

fn run_child_trial(
    bin: &PathBuf,
    root: &Path,
    trial: usize,
    reference: &(String, String),
    ref_secs: f64,
) -> TrialOutcome {
    let mix = MIXES[(trial + 5) % MIXES.len()];
    let seed = manic_bench::SEED ^ 0xC41D ^ trial as u64;
    let dir = root.join(format!("c{trial:02}"));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().expect("utf-8 temp path").to_string();
    let hours = CHILD_HOURS.to_string();
    let spec = format!("{seed}:{mix}");
    let stats = FaultStats::default(); // child-side injections are not observable here

    let mut child = match Command::new(bin)
        .args([
            "run", "--hours", &hours, "--data-dir", &dir_s, "--durability", "every-8",
            "--checkpoint-every", "6", "--storage-faults", &spec, "--quiet",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
    {
        Ok(c) => c,
        Err(e) => return fail(mix, stats, format!("spawn: {e}")),
    };
    std::thread::sleep(Duration::from_secs_f64(kill_fraction(seed) * ref_secs));
    let _ = child.kill();
    let _ = child.wait();

    // `manic recover`: 0 = clean, 3 = recoverable damage, anything else is
    // only acceptable when no checkpoint generation ever landed.
    let out = match Command::new(bin).args(["recover", &dir_s]).output() {
        Ok(o) => o,
        Err(e) => return fail(mix, stats, format!("recover spawn: {e}")),
    };
    let recover_text = String::from_utf8_lossy(&out.stdout).to_string();
    let code = out.status.code();
    let has_meta = std::fs::read_dir(&dir)
        .map(|rd| {
            rd.flatten()
                .any(|e| e.file_name().to_string_lossy().starts_with("checkpoint"))
        })
        .unwrap_or(false);
    let flagged = match code {
        Some(0) => false,
        Some(3) => true,
        _ if !has_meta => {
            // Faults killed the run before any checkpoint: the resume falls
            // back to a fresh start, which must still match the reference.
            false
        }
        other => {
            return fail(
                mix,
                stats,
                format!("recover exited {other:?} with metas present: {recover_text}"),
            )
        }
    };

    // Clean resume: no fault injection, converge to the window's end.
    let out = match Command::new(bin)
        .args([
            "run", "--hours", &hours, "--data-dir", &dir_s, "--resume",
            "--durability", "every-64", "--checkpoint-every", "1000", "--quiet",
        ])
        .output()
    {
        Ok(o) => o,
        Err(e) => return fail(mix, stats, format!("resume spawn: {e}")),
    };
    if !out.status.success() {
        return fail(mix, stats, format!("resume exited {:?}", out.status.code()));
    }
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    let Some((store, verdicts)) = summary_lines(&text) else {
        return fail(mix, stats, "resume printed no summary lines".into());
    };
    let _ = std::fs::remove_dir_all(&dir);

    let exact = store == reference.0 && verdicts == reference.1;
    let enospc_shed = mix == "enospc" || mix == "all";
    if exact {
        let kind = if flagged { "recovered-healed" } else { "recovered-exact" };
        return TrialOutcome { kind, mix, stats, flagged, violation: None };
    }
    if !flagged && !enospc_shed {
        return fail(
            mix,
            stats,
            format!("SILENT divergence: {store:?} != {:?}", reference.0),
        );
    }
    let want = verdict_set(&reference.1);
    if !verdict_set(&verdicts).iter().all(|v| want.contains(v)) {
        return fail(
            mix,
            stats,
            format!("verdicts outside reference: {verdicts:?} vs {:?}", reference.1),
        );
    }
    TrialOutcome { kind: "recovered-degraded", mix, stats, flagged, violation: None }
}

// ------------------------------------------------------------------- main

fn main() {
    let trials = env_trials("DISK_TORTURE_TRIALS", 50, MIXES.len());
    let child_trials = env_trials("DISK_TORTURE_CHILD_TRIALS", 6, 2);
    let root = std::env::temp_dir().join(format!("manic-disk-torture-{}", std::process::id()));
    std::fs::create_dir_all(&root).expect("create temp root");
    let mut out = String::new();
    let mut violations: Vec<String> = Vec::new();

    // Reference: one uninterrupted in-memory window. (crash_torture already
    // gates durable == in-memory for clean disks.)
    let (from, to) = window();
    let mut ref_sys = System::new(toy(WORLD_SEED), SystemConfig::default());
    ref_sys.run_packet_mode(from, to);
    let reference = fingerprint(&mut ref_sys, from, to);
    drop(ref_sys);
    out.push_str(&format!(
        "Disk torture — {trials} fault trials + {child_trials} SIGKILL children, \
         toy world, {TRIAL_HOURS} h window\n\n\
         reference: series={} points={} hash={:016x} verdicts={}\n\n",
        reference.series,
        reference.points,
        reference.hash,
        if reference.verdicts.is_empty() { "-".into() } else { reference.verdicts.join(",") },
    ));

    // Phase 1: in-process fault trials.
    let mut kinds: Vec<(&'static str, usize)> = Vec::new();
    let mut injected = FaultStats::default();
    let mut per_mix: Vec<(&'static str, u64)> = MIXES.iter().map(|m| (*m, 0u64)).collect();
    let mut flagged_trials = 0usize;
    for trial in 0..trials {
        let o = run_fault_trial(&root, trial, &reference);
        if let Some(v) = &o.violation {
            violations.push(format!("trial {trial} ({}): {v}", o.mix));
        }
        match kinds.iter_mut().find(|(k, _)| *k == o.kind) {
            Some((_, n)) => *n += 1,
            None => kinds.push((o.kind, 1)),
        }
        injected.eio += o.stats.eio;
        injected.enospc += o.stats.enospc;
        injected.torn += o.stats.torn;
        injected.lies += o.stats.lies;
        injected.flips += o.stats.flips;
        if let Some((_, n)) = per_mix.iter_mut().find(|(m, _)| *m == o.mix) {
            *n += o.stats.total();
        }
        flagged_trials += o.flagged as usize;
    }
    if injected.total() == 0 {
        violations.push("no faults were injected at all — harness is vacuous".into());
    }
    // A full-size run must exercise every fault kind; reduced CI smoke runs
    // only get the total>0 gate (few trials per mix, windows may miss).
    if trials >= 30 {
        for (name, n) in [
            ("eio", injected.eio),
            ("enospc", injected.enospc),
            ("torn", injected.torn),
            ("lie", injected.lies),
            ("flip", injected.flips),
        ] {
            if n == 0 {
                violations.push(format!("fault kind {name} never fired across {trials} trials"));
            }
        }
    }
    kinds.sort_by_key(|k| std::cmp::Reverse(k.1));
    out.push_str("fault-trial outcomes:\n");
    for (k, n) in &kinds {
        out.push_str(&format!("  {k:24} {n}\n"));
    }
    out.push_str(&format!(
        "  corruption flagged:      {flagged_trials} trials (StorageFindings non-clean)\n\
         injected faults: eio={} enospc={} torn={} lies={} flips={} (total {})\n",
        injected.eio, injected.enospc, injected.torn, injected.lies, injected.flips,
        injected.total(),
    ));
    out.push_str("injections by trial mix:\n");
    for (m, n) in &per_mix {
        out.push_str(&format!("  {m:8} {n}\n"));
    }
    out.push('\n');

    // Phase 2: SIGKILL + --storage-faults children.
    let bin = manic_binary();
    let hours = CHILD_HOURS.to_string();
    let ref_out = Command::new(&bin)
        .args(["run", "--hours", &hours, "--quiet"])
        .output()
        .expect("child reference run");
    assert!(ref_out.status.success(), "child reference run failed");
    let child_reference = summary_lines(&String::from_utf8_lossy(&ref_out.stdout))
        .expect("child reference printed no summary");

    let dref = root.join("durable-ref");
    let started = Instant::now();
    let dref_out = Command::new(&bin)
        .args([
            "run", "--hours", &hours, "--data-dir", dref.to_str().unwrap(),
            "--durability", "every-8", "--checkpoint-every", "6", "--quiet",
        ])
        .output()
        .expect("durable reference run");
    let ref_secs = started.elapsed().as_secs_f64();
    assert!(dref_out.status.success(), "durable reference run failed");
    let _ = std::fs::remove_dir_all(&dref);

    let mut child_kinds: Vec<(&'static str, usize)> = Vec::new();
    for trial in 0..child_trials {
        let o = run_child_trial(&bin, &root, trial, &child_reference, ref_secs);
        if let Some(v) = &o.violation {
            violations.push(format!("child trial {trial} ({}): {v}", o.mix));
        }
        match child_kinds.iter_mut().find(|(k, _)| *k == o.kind) {
            Some((_, n)) => *n += 1,
            None => child_kinds.push((o.kind, 1)),
        }
    }
    child_kinds.sort_by_key(|k| std::cmp::Reverse(k.1));
    out.push_str("SIGKILL-child outcomes:\n");
    for (k, n) in &child_kinds {
        out.push_str(&format!("  {k:24} {n}\n"));
    }
    out.push('\n');

    out.push_str(&format!("violations: {}\n", violations.len()));
    for v in &violations {
        out.push_str(&format!("  - {v}\n"));
    }
    out.push_str(&format!(
        "verdict: {}\n",
        if violations.is_empty() { "PASS" } else { "FAIL" }
    ));

    print!("{out}");
    manic_bench::save_result("disk_torture", &out);
    let _ = std::fs::remove_dir_all(&root);
    if !violations.is_empty() {
        std::process::exit(1);
    }
}
