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
//! Phase 2 — SIGKILLed children: `manic run --data-dir` processes killed
//! at a seeded fraction of an uninterrupted durable run timed under the
//! child's own policy and cadence (twelve such references, each of which
//! must match the in-memory run), then `manic recover` and a clean
//! `manic run --resume`. Gates, per child:
//!
//!   * clean disk: the resumed `store:`/`verdicts:` lines equal the
//!     in-memory run's byte for byte, `recover` says `hash ok` before and
//!     after the resume, and the dir keeps numbered generations only;
//!   * faulted disk (`--storage-faults`, one child per mix): phase 1's
//!     gates, with `recover` exiting 0 clean or 3 flagged.
//!
//! A kill before the first checkpoint must resume fresh and still
//! converge. The report prints the clean resumes' restart rounds as a
//! fraction of the window and fails unless one passes mid-window.
//!
//! `DISK_TORTURE_TRIALS` scales phase 1 (default 50, min 6 so every fault
//! mix still runs). Exits non-zero on any violation.

use manic_core::{recover_report, resume, Durable, DurabilityConfig, System, SystemConfig};
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
const POLICIES: [FsyncPolicy; 3] =
    [FsyncPolicy::Always, FsyncPolicy::EveryN(8), FsyncPolicy::EveryN(64)];
const CADENCES: [u64; 3] = [6, 12, 48];
/// Fault mixes cycled across trials: every kind alone, then the full storm.
const MIXES: [&str; 6] = ["eio", "enospc", "torn", "lie", "flip", "all"];

/// The SIGKILLed children's window: the `manic run` default world (toy,
/// seed 42) over one simulated week.
const CHILD_HOURS: i64 = 168;
const CHILD_POLICIES: [&str; 4] = ["always", "every-8", "every-64", "never"];
/// Clean-disk children come first, enough to cover every policy × cadence
/// several times over; one faulted child per mix follows.
const CLEAN_CHILDREN: usize = 50;
const CHILDREN: usize = CLEAN_CHILDREN + MIXES.len();
/// The clean children's kills must restart some resume at least this far
/// into the window, or they are not landing inside the runs they kill.
const MIN_MAX_RESUMED_FRACTION: f64 = 0.5;

/// Seeded kill point in [0.15, 0.95]: a fraction of the window's rounds
/// (phase 1) or of a timed uninterrupted run's wall time (phase 2).
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
    let report = recover_report(&dir, &manic_vfs::RealVfs);
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

/// The summary lines every `manic run` prints, fresh, durable or resumed:
/// (`store: ...`, `verdicts: ...`).
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

/// Child `trial`'s `(policy, cadence)`. Twelve consecutive trials cover
/// every combination once, so combination `trial % 12` names its timed
/// reference.
fn child_combo(trial: usize) -> (&'static str, u64) {
    (CHILD_POLICIES[trial % CHILD_POLICIES.len()], CADENCES[trial % CADENCES.len()])
}

/// Child `trial`'s fault mix; `none` is a clean disk.
fn child_mix(trial: usize) -> &'static str {
    trial.checked_sub(CLEAN_CHILDREN).map_or("none", |i| MIXES[i % MIXES.len()])
}

/// `manic run` over the children's window in `dir` under `(policy,
/// cadence)`, plus `extra` flags.
fn run_cmd(bin: &Path, dir: &Path, (policy, cadence): (&str, u64), extra: &[&str]) -> Command {
    let mut cmd = Command::new(bin);
    cmd.args(["run", "--hours", &CHILD_HOURS.to_string(), "--quiet", "--data-dir"])
        .arg(dir)
        .args(["--durability", policy, "--checkpoint-every", &cadence.to_string()])
        .args(extra);
    cmd
}

/// `manic recover <dir>`; `Ok(true)` when it exits 0 with `hash ok`,
/// `Ok(false)` on exit 3 (damage a resume works around).
fn recover(bin: &Path, dir: &Path) -> Result<bool, String> {
    let out = Command::new(bin)
        .arg("recover")
        .arg(dir)
        .output()
        .map_err(|e| format!("recover spawn: {e}"))?;
    let report = String::from_utf8_lossy(&out.stdout);
    match out.status.code() {
        Some(0) if report.contains("hash ok") => Ok(true),
        Some(3) => Ok(false),
        code => Err(format!("recover exited {code:?}: {report}")),
    }
}

/// Every `checkpoint*.json` in a data dir is a numbered
/// `checkpoint-<rounds>.json` generation (in particular, no
/// `checkpoint.json`). That one exists at all is `recover`'s check.
fn generations_only(dir: &Path) -> Result<(), String> {
    let names = std::fs::read_dir(dir)
        .map_err(|e| format!("read data dir: {e}"))?
        .filter_map(|e| e.ok()?.file_name().into_string().ok());
    for name in names.filter(|n| n.starts_with("checkpoint") && n.ends_with(".json")) {
        let rounds = name.strip_prefix("checkpoint-").and_then(|s| s.strip_suffix(".json"));
        if !rounds.is_some_and(|s| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit())) {
            return Err(format!("data dir holds {name}, not a numbered generation"));
        }
    }
    Ok(())
}

/// One SIGKILLed child: its outcome kind and, for a clean child the kill
/// interrupted, the round its resume restarted from as a fraction of the
/// window (0 for a fresh fallback).
fn run_child_trial(
    bin: &Path,
    dir: &Path,
    trial: usize,
    reference: &(String, String),
    ref_secs: f64,
) -> Result<(&'static str, Option<f64>), String> {
    let (combo, mix) = (child_combo(trial), child_mix(trial));
    let clean = mix == "none";
    let seed = manic_bench::SEED ^ 0xC41D ^ trial as u64;
    let spec = format!("{seed}:{mix}");
    let faults: &[&str] = if clean { &[] } else { &["--storage-faults", &spec] };

    let mut child = run_cmd(bin, dir, combo, faults)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    std::thread::sleep(Duration::from_secs_f64(kill_fraction(seed) * ref_secs));
    let completed_early = matches!(child.try_wait(), Ok(Some(_)));
    let _ = child.kill();
    let _ = child.wait();

    // Before the resume: clean disks verify, faulted ones may report
    // recoverable damage; with no generation at all the resume starts fresh.
    let flagged = match recover(bin, dir) {
        Ok(ok) if ok || !clean => !ok,
        _ if !manic_core::has_checkpoint(dir, &manic_vfs::RealVfs) => false,
        Ok(_) => return Err("recover flagged damage on a clean disk".into()),
        Err(e) => return Err(e),
    };

    // Clean resume on a long cadence: the child's cadence decides where the
    // kill can land, not whether the replayed continuation is right.
    let out = run_cmd(bin, dir, ("every-64", 1000), &["--resume"])
        .output()
        .map_err(|e| format!("resume spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("resume exited {:?}", out.status.code()));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let (store, verdicts) = summary_lines(&text).ok_or("resume printed no summary lines")?;
    let exact = store == reference.0 && verdicts == reference.1;

    if clean {
        if !exact {
            return Err(format!("clean disk diverged: {store:?} {verdicts:?} vs {reference:?}"));
        }
        generations_only(dir)?;
        if !recover(bin, dir).map_err(|e| format!("after resume: {e}"))? {
            return Err("after resume: recover flagged damage".into());
        }
        let resumed_round = text
            .lines()
            .find_map(|l| l.strip_prefix("resumed:"))
            .and_then(|l| l.split_whitespace().find_map(|t| t.strip_prefix("rounds=")))
            .map(|r| r.parse::<f64>().expect("rounds= is a number"));
        let window_rounds = (CHILD_HOURS * 3600 / ROUND_SECS) as f64;
        return Ok(match (completed_early, resumed_round) {
            (true, _) => ("completed-before-kill", None),
            (false, Some(r)) => ("resumed-from-checkpoint", Some(r / window_rounds)),
            (false, None) => ("fresh-fallback", Some(0.0)),
        });
    }

    if exact {
        return Ok((if flagged { "recovered-healed" } else { "recovered-exact" }, None));
    }
    let enospc_shed = mix == "enospc" || mix == "all";
    if !flagged && !enospc_shed {
        return Err(format!("SILENT divergence: {store:?} != {:?}", reference.0));
    }
    let want = verdict_set(&reference.1);
    if !verdict_set(&verdicts).iter().all(|v| want.contains(v)) {
        return Err(format!("verdicts outside reference: {verdicts:?} vs {:?}", reference.1));
    }
    Ok(("recovered-degraded", None))
}

// ------------------------------------------------------------------- main

/// Outcome kinds with counts, in first-seen order.
#[derive(Default)]
struct Tally(Vec<(&'static str, usize)>);

impl Tally {
    fn add(&mut self, kind: &'static str) {
        match self.0.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => self.0.push((kind, 1)),
        }
    }

    /// Most frequent first; ties keep first-seen order.
    fn render(mut self, out: &mut String, title: &str) {
        self.0.sort_by_key(|k| std::cmp::Reverse(k.1));
        out.push_str(&format!("{title}:\n"));
        for (k, n) in &self.0 {
            out.push_str(&format!("  {k:24} {n}\n"));
        }
    }
}

fn main() {
    let trials = std::env::var("DISK_TORTURE_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50)
        .max(MIXES.len());
    let root = std::env::temp_dir().join(format!("manic-disk-torture-{}", std::process::id()));
    std::fs::create_dir_all(&root).expect("create temp root");
    let mut out = String::new();
    let mut violations: Vec<String> = Vec::new();

    // Reference: one uninterrupted in-memory window.
    let (from, to) = window();
    let mut ref_sys = System::new(toy(WORLD_SEED), SystemConfig::default());
    ref_sys.run_packet_mode(from, to);
    let reference = fingerprint(&mut ref_sys, from, to);
    drop(ref_sys);
    out.push_str(&format!(
        "Disk torture — {trials} fault trials ({TRIAL_HOURS} h window) + {CHILDREN} SIGKILL \
         children ({CHILD_HOURS} h window), toy world\n\n\
         reference: series={} points={} hash={:016x} verdicts={}\n\n",
        reference.series,
        reference.points,
        reference.hash,
        if reference.verdicts.is_empty() { "-".into() } else { reference.verdicts.join(",") },
    ));

    // Phase 1: in-process fault trials.
    let mut kinds = Tally::default();
    let mut injected = FaultStats::default();
    let mut per_mix: Vec<(&'static str, u64)> = MIXES.iter().map(|m| (*m, 0u64)).collect();
    let mut flagged_trials = 0usize;
    for trial in 0..trials {
        let o = run_fault_trial(&root, trial, &reference);
        if let Some(v) = &o.violation {
            violations.push(format!("trial {trial} ({}): {v}", o.mix));
        }
        kinds.add(o.kind);
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
    kinds.render(&mut out, "fault-trial outcomes");
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

    // Phase 2: the in-memory run defines the children's expected summary;
    // every policy × cadence's uninterrupted durable run must match it and
    // times that combination's kills.
    let bin = manic_binary();
    let ref_out = Command::new(&bin)
        .args(["run", "--hours", &CHILD_HOURS.to_string(), "--quiet"])
        .output()
        .expect("child reference run");
    assert!(ref_out.status.success(), "child reference run failed");
    let child_reference = summary_lines(&String::from_utf8_lossy(&ref_out.stdout))
        .expect("child reference printed no summary");
    let combos = CHILD_POLICIES.len() * CADENCES.len();
    let mut ref_secs = Vec::with_capacity(combos);
    let mut durable_matches = 0;
    for combo in (0..combos).map(child_combo) {
        let dir = root.join("durable-ref");
        let started = Instant::now();
        let dref_out = run_cmd(&bin, &dir, combo, &[]).output().expect("durable reference run");
        ref_secs.push(started.elapsed().as_secs_f64());
        assert!(dref_out.status.success(), "durable reference run failed");
        match summary_lines(&String::from_utf8_lossy(&dref_out.stdout)) {
            Some(s) if s == child_reference => durable_matches += 1,
            s => violations.push(format!(
                "uninterrupted durable run {combo:?} diverged from in-memory: {s:?}"
            )),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    out.push_str(&format!(
        "reference:        {}\n\
         reference:        {}\n\
         durable == in-memory (uninterrupted): {durable_matches}/{combos} policy × cadence runs\n\n",
        child_reference.0, child_reference.1,
    ));

    let (mut clean_kinds, mut faulted_kinds) = (Tally::default(), Tally::default());
    let mut resumed_at: Vec<f64> = Vec::new();
    for trial in 0..CHILDREN {
        let dir = root.join(format!("c{trial:02}"));
        let o = run_child_trial(&bin, &dir, trial, &child_reference, ref_secs[trial % combos]);
        let _ = std::fs::remove_dir_all(&dir);
        let kinds = if child_mix(trial) == "none" { &mut clean_kinds } else { &mut faulted_kinds };
        match o {
            Ok((kind, frac)) => {
                kinds.add(kind);
                resumed_at.extend(frac);
            }
            Err(v) => {
                kinds.add("failed");
                let (mix, combo) = (child_mix(trial), child_combo(trial));
                violations.push(format!("child {trial} ({mix} {combo:?}): {v}"));
            }
        }
    }
    clean_kinds.render(&mut out, &format!("clean-disk children ({CLEAN_CHILDREN})"));
    resumed_at.sort_by(f64::total_cmp);
    let last = resumed_at.len().saturating_sub(1);
    let at = |q: f64| resumed_at.get((last as f64 * q) as usize).copied();
    match (at(0.0), at(0.5), at(1.0)) {
        (Some(min), Some(median), Some(max)) => {
            out.push_str(&format!(
                "  resumed round / window: min {min:.2} median {median:.2} max {max:.2}\n\n"
            ));
            if max < MIN_MAX_RESUMED_FRACTION {
                violations.push(format!(
                    "kill coverage: no resume restarted past {MIN_MAX_RESUMED_FRACTION} \
                     of the window (max {max:.2})"
                ));
            }
        }
        _ => violations.push("kill coverage: no clean child was killed mid-run".into()),
    }
    faulted_kinds.render(&mut out, "faulted children (one per mix)");
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
