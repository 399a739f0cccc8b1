//! Crash-torture harness for the durability subsystem.
//!
//! Phase 1 — SIGKILL trials: run `manic run --data-dir` as a child process,
//! kill it with SIGKILL at a seeded fraction of the expected wall time, then
//! `manic recover` and `manic run --resume` the same directory. A trial
//! passes when the resumed run's final `store:` and `verdicts:` summary
//! lines are byte-identical to an uninterrupted reference run — the store
//! hash covers every point, so a single lost or duplicated sample fails the
//! trial — and, after the resume, the data dir holds only numbered
//! `checkpoint-<rounds>.json` generations and `manic recover` still reports
//! `hash ok`. Durability policies and checkpoint cadences are cycled across
//! trials; kills that land before the first checkpoint must fall back to a
//! fresh start and still converge. Kill times are fractions of the
//! uninterrupted durable run's wall time, so they land mid-run on any
//! machine; nothing here is a timing verdict (that is `benchmark/`'s job).
//!
//! Exits non-zero on any trial violation.

use manic_netsim::noise;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const TRIALS: usize = 50;
const TRIAL_HOURS: i64 = 168;
const POLICIES: [&str; 4] = ["always", "every-8", "every-64", "never"];
const CADENCES: [u64; 3] = [6, 12, 48];

/// Uniform-ish fraction in [0.05, 0.95] from a trial seed.
fn kill_fraction(seed: u64) -> f64 {
    0.05 + 0.90 * (noise::mix(seed) >> 11) as f64 / (1u64 << 53) as f64
}

fn manic_binary() -> PathBuf {
    let me = std::env::current_exe().expect("current_exe");
    let bin = me.with_file_name("manic");
    if !bin.is_file() {
        eprintln!(
            "crash_torture: `manic` binary not found at {} — build it first \
             (cargo build --release -p manic-cli)",
            bin.display()
        );
        std::process::exit(2);
    }
    bin
}

/// The machine-parseable summary lines an uninterrupted or resumed run
/// prints: (`store: ...`, `verdicts: ...`).
fn summary_lines(stdout: &str) -> Option<(String, String)> {
    let store = stdout.lines().find(|l| l.starts_with("store:"))?.to_string();
    let verdicts = stdout.lines().find(|l| l.starts_with("verdicts:"))?.to_string();
    Some((store, verdicts))
}

fn grab_field(line: &str, key: &str) -> Option<String> {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key).map(str::to_string))
}

/// `manic recover <dir>`'s report, which must be clean (exit 0) with the
/// restored store matching the checkpoint's hash.
fn recover_hash_ok(bin: &Path, dir: &str) -> Result<String, String> {
    let out = Command::new(bin)
        .args(["recover", dir])
        .output()
        .map_err(|e| format!("recover spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    if !out.status.success() {
        return Err(format!("recover exited {:?}: {text}", out.status.code()));
    }
    if !text.contains("hash ok") {
        return Err(format!("recover did not report hash ok: {text}"));
    }
    Ok(text)
}

/// A data dir holds numbered generations only: at least one
/// `checkpoint-<rounds>.json` and no other `checkpoint*.json` (in
/// particular no `checkpoint.json`).
fn generations_only(dir: &Path) -> Result<(), String> {
    let metas: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("read data dir: {e}"))?
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("checkpoint") && n.ends_with(".json"))
        .collect();
    let numbered = |n: &str| {
        n.strip_prefix("checkpoint-")
            .and_then(|s| s.strip_suffix(".json"))
            .is_some_and(|s| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()))
    };
    if metas.is_empty() {
        return Err("data dir holds no checkpoint generation".into());
    }
    match metas.iter().find(|n| !numbered(n)) {
        Some(stray) => Err(format!("data dir holds {stray}, not a numbered generation")),
        None => Ok(()),
    }
}

struct TrialOutcome {
    kind: &'static str,
    policy: &'static str,
    cadence: u64,
    tail_records: u64,
    tail_torn: u64,
    violation: Option<String>,
}

fn run_trial(
    bin: &PathBuf,
    root: &Path,
    trial: usize,
    reference: &(String, String),
    durable_ref_secs: f64,
) -> TrialOutcome {
    let policy = POLICIES[trial % POLICIES.len()];
    let cadence = CADENCES[trial % CADENCES.len()];
    let dir = root.join(format!("t{trial:02}"));
    let _ = std::fs::remove_dir_all(&dir);
    let seed = manic_bench::SEED ^ trial as u64;
    let frac = kill_fraction(seed);

    let hours = TRIAL_HOURS.to_string();
    let cadence_s = cadence.to_string();
    let dir_s = dir.to_str().expect("utf-8 temp path").to_string();
    let fail = |msg: String| TrialOutcome {
        kind: "failed",
        policy,
        cadence,
        tail_records: 0,
        tail_torn: 0,
        violation: Some(msg),
    };

    // Spawn the run that will be killed. The binary is spawned directly (no
    // shell) so the SIGKILL hits the measurement process, not a wrapper.
    let mut child = match Command::new(bin)
        .args([
            "run", "--hours", &hours, "--data-dir", &dir_s, "--durability", policy,
            "--checkpoint-every", &cadence_s, "--quiet",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
    {
        Ok(c) => c,
        Err(e) => return fail(format!("spawn: {e}")),
    };
    std::thread::sleep(Duration::from_secs_f64(frac * durable_ref_secs));
    let completed_early = matches!(child.try_wait(), Ok(Some(_)));
    let _ = child.kill();
    let _ = child.wait();

    // Recover report: must succeed with an intact hash whenever a checkpoint
    // exists; the torn-tail accounting comes from the same scan the resume
    // path uses.
    let has_checkpoint = manic_core::has_checkpoint(&dir);
    let mut tail_records = 0;
    let mut tail_torn = 0;
    if has_checkpoint {
        let text = match recover_hash_ok(bin, &dir_s) {
            Ok(t) => t,
            Err(e) => return fail(e),
        };
        if let Some(tline) = text.lines().find(|l| l.trim_start().starts_with("wal tail:")) {
            tail_records = grab_field(tline, "records=")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            tail_torn = grab_field(tline, "torn=")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
        }
    }

    // Resume (fresh fallback when the kill landed before the first
    // checkpoint) and require byte-identical summary lines vs the reference.
    // The resume leg uses a long checkpoint cadence: the trial's (possibly
    // aggressive) cadence matters for where the kill can land, not for the
    // correctness of the replayed continuation, and a full-store snapshot
    // every 6 rounds makes 50 trials crawl.
    let out = match Command::new(bin)
        .args([
            "run", "--hours", &hours, "--data-dir", &dir_s, "--resume",
            "--durability", "every-64", "--checkpoint-every", "1000", "--quiet",
        ])
        .output()
    {
        Ok(o) => o,
        Err(e) => return fail(format!("resume spawn: {e}")),
    };
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    if !out.status.success() {
        return fail(format!("resume exited {:?}", out.status.code()));
    }
    let Some((store, verdicts)) = summary_lines(&text) else {
        return fail("resume printed no summary lines".into());
    };
    if store != reference.0 {
        return fail(format!("store mismatch: {store:?} != {:?}", reference.0));
    }
    if verdicts != reference.1 {
        return fail(format!("verdict mismatch: {verdicts:?} != {:?}", reference.1));
    }
    let resumed_line = text.lines().find(|l| l.starts_with("resumed:"));
    if let Some(l) = resumed_line {
        if grab_field(l, "hash_ok=").as_deref() == Some("false") {
            return fail("resume snapshot hash_ok=false".into());
        }
    }
    // The generation the resumed run finalized verifies against its own
    // hash, and the dir holds numbered generations only.
    if let Err(e) = generations_only(&dir) {
        return fail(e);
    }
    if let Err(e) = recover_hash_ok(bin, &dir_s) {
        return fail(format!("after resume: {e}"));
    }

    let kind = if completed_early {
        "completed-before-kill"
    } else if resumed_line.is_some() {
        "resumed-from-checkpoint"
    } else {
        "fresh-fallback"
    };
    let _ = std::fs::remove_dir_all(&dir);
    TrialOutcome { kind, policy, cadence, tail_records, tail_torn, violation: None }
}

fn main() {
    let bin = manic_binary();
    let root = std::env::temp_dir().join(format!("manic-crash-torture-{}", std::process::id()));
    std::fs::create_dir_all(&root).expect("create temp root");
    let mut out = String::new();
    let mut violations: Vec<String> = Vec::new();

    // Uninterrupted references: the in-memory run defines the expected
    // summary; a durable run must already match it (WAL on, no crash).
    let hours = TRIAL_HOURS.to_string();
    let ref_out = Command::new(&bin)
        .args(["run", "--hours", &hours, "--quiet"])
        .output()
        .expect("reference run");
    assert!(ref_out.status.success(), "reference run failed");
    let reference = summary_lines(&String::from_utf8_lossy(&ref_out.stdout))
        .expect("reference run printed no summary");

    let dref_dir = root.join("durable-ref");
    let dref_start = Instant::now();
    let dref_out = Command::new(&bin)
        .args([
            "run", "--hours", &hours, "--data-dir", dref_dir.to_str().unwrap(),
            "--checkpoint-every", "1000", "--quiet",
        ])
        .output()
        .expect("durable reference run");
    let durable_ref_secs = dref_start.elapsed().as_secs_f64();
    assert!(dref_out.status.success(), "durable reference run failed");
    let dref = summary_lines(&String::from_utf8_lossy(&dref_out.stdout))
        .expect("durable reference printed no summary");
    let durable_matches = dref == reference;
    if !durable_matches {
        violations.push(format!(
            "uninterrupted durable run diverged from in-memory run: {dref:?} vs {reference:?}"
        ));
    }
    let _ = std::fs::remove_dir_all(&dref_dir);

    out.push_str(&format!(
        "Crash torture — {TRIALS} SIGKILL trials, toy world, {TRIAL_HOURS} h window\n\n\
         reference:        {}\n\
         reference:        {}\n\
         durable == in-memory (uninterrupted): {}\n\n",
        reference.0,
        reference.1,
        if durable_matches { "yes" } else { "NO" },
    ));

    // The kill loop.
    let mut kinds: Vec<(&'static str, usize)> = Vec::new();
    let mut tail_records = 0u64;
    let mut tail_torn = 0u64;
    for trial in 0..TRIALS {
        let o = run_trial(&bin, &root, trial, &reference, durable_ref_secs);
        if let Some(v) = &o.violation {
            violations.push(format!(
                "trial {trial} ({} ckpt-every {}): {v}",
                o.policy, o.cadence
            ));
        }
        match kinds.iter_mut().find(|(k, _)| *k == o.kind) {
            Some((_, n)) => *n += 1,
            None => kinds.push((o.kind, 1)),
        }
        tail_records += o.tail_records;
        tail_torn += o.tail_torn;
    }
    kinds.sort_by_key(|k| std::cmp::Reverse(k.1));
    out.push_str("trial outcomes:\n");
    for (k, n) in &kinds {
        out.push_str(&format!("  {k:24} {n}\n"));
    }
    out.push_str(&format!(
        "  discarded WAL tail:      {tail_records} records across trials ({tail_torn} torn, all truncated)\n\n"
    ));

    out.push_str(&format!("violations: {}\n", violations.len()));
    for v in &violations {
        out.push_str(&format!("  - {v}\n"));
    }
    out.push_str(&format!(
        "verdict: {}\n",
        if violations.is_empty() { "PASS" } else { "FAIL" }
    ));

    print!("{out}");
    manic_bench::save_result("crash_torture", &out);
    let _ = std::fs::remove_dir_all(&root);
    if !violations.is_empty() {
        std::process::exit(1);
    }
}
