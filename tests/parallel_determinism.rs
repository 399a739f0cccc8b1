//! Determinism gate for the parallel round engine: the thread count is a
//! pure throughput knob. For any `--threads N`, a measurement window must
//! produce a byte-identical store (content hash, series and point counts),
//! identical congestion verdicts, and an identical durable checkpoint /
//! resume trajectory as the serial engine — with and without a chaos fault
//! schedule running against the world.
//!
//! The parallel leg's thread count defaults to 8 and can be overridden with
//! `MANIC_TEST_THREADS` so CI can sweep the matrix (2, 8, ...).

use manic_core::{
    resume, run_longitudinal_detailed, DurabilityConfig, Durable, LongitudinalConfig, System,
    SystemConfig,
};
use manic_netsim::time::{date_to_sim, datetime_to_sim, Date, SECS_PER_DAY};
use manic_netsim::{FaultEvent, FaultKind, FaultSchedule, FaultScope};
use manic_scenario::worlds::{toy, us_broadband};
use manic_scenario::World;
use manic_tsdb::wal::FsyncPolicy;
use std::path::PathBuf;

const SEED: u64 = 42;

fn test_threads() -> usize {
    std::env::var("MANIC_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(8)
}

fn sys_with_threads(threads: usize) -> System {
    sys_on(toy(SEED), threads)
}

fn sys_on(world: World, threads: usize) -> System {
    let mut sys = System::new(world, SystemConfig::default());
    sys.cfg.threads = threads;
    sys
}

fn install_chaos(sys: &mut System, from: i64, until: i64) {
    let vp_routers: Vec<_> = sys.world.vps.iter().map(|v| v.router).collect();
    let chaos =
        FaultSchedule::chaos(1312, 0.6, &sys.world.net.topo, &vp_routers, from, until);
    assert!(!chaos.is_empty(), "chaos schedule generated no events");
    for &e in chaos.events() {
        sys.world.net.fault.push(e);
    }
}

/// Sorted far-IP verdicts across every VP, as the CLI summary reports them.
fn verdicts(sys: &mut System, from: i64, to: i64) -> Vec<String> {
    let mut out = Vec::new();
    for vi in 0..sys.vps.len() {
        sys.arm_reactive_loss(vi, from, to);
        out.extend(sys.vps[vi].loss.targets.iter().map(|t| t.far_ip.to_string()));
    }
    out.sort();
    out.dedup();
    out
}

/// Content fingerprints of every VP's incremental link summaries, sorted by
/// `(vp, near, far)`. These cover the ring *content* (dense mins, quality
/// flags, presence, window position) — so equality here is strictly
/// stronger than verdict equality: the whole incremental state must match,
/// not just what the detector concluded from it.
fn summary_fingerprints(sys: &System) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for vp in &sys.vps {
        for ((near, far), s) in &vp.summaries {
            out.push((format!("{}/{near}/{far}", vp.handle.name), s.fingerprint()));
        }
    }
    out.sort();
    out
}

struct Fingerprint {
    hash: u64,
    series: usize,
    points: usize,
    verdicts: Vec<String>,
    summaries: Vec<(String, u64)>,
}

fn fingerprint(sys: &mut System, from: i64, to: i64) -> Fingerprint {
    Fingerprint {
        hash: sys.store.content_hash(),
        series: sys.store.series_count(),
        points: sys.store.point_count(),
        verdicts: verdicts(sys, from, to),
        summaries: summary_fingerprints(sys),
    }
}

fn assert_identical(serial: &Fingerprint, parallel: &Fingerprint, label: &str) {
    assert_eq!(
        serial.hash, parallel.hash,
        "{label}: store content hash diverged (serial {:016x} vs parallel {:016x})",
        serial.hash, parallel.hash
    );
    assert_eq!(serial.series, parallel.series, "{label}: series count diverged");
    assert_eq!(serial.points, parallel.points, "{label}: point count diverged");
    assert_eq!(serial.verdicts, parallel.verdicts, "{label}: verdicts diverged");
    assert!(!serial.summaries.is_empty(), "{label}: no link summaries were built");
    assert_eq!(
        serial.summaries, parallel.summaries,
        "{label}: incremental link-summary state diverged"
    );
}

/// Run `[from, to)` on `world()` at one thread and at `MANIC_TEST_THREADS`
/// and require identical fingerprints.
fn run_pair(world: fn() -> World, from: i64, to: i64, chaos: bool, label: &str) {
    let mut serial = sys_on(world(), 1);
    let mut parallel = sys_on(world(), test_threads());
    if chaos {
        install_chaos(&mut serial, from, to);
        install_chaos(&mut parallel, from, to);
    }

    let r1 = serial.run_packet_mode(from, to);
    let rn = parallel.run_packet_mode(from, to);
    assert_eq!(r1, rn, "{label}: round counts diverged");

    let f1 = fingerprint(&mut serial, from, to);
    let fn_ = fingerprint(&mut parallel, from, to);
    assert!(f1.points > 0, "{label}: serial run produced no samples");
    assert_identical(&f1, &fn_, label);
}

fn toy_world() -> World {
    toy(SEED)
}

fn toy_window() -> (i64, i64) {
    let from = date_to_sim(Date::new(2017, 3, 1));
    (from, from + 6 * 3600)
}

#[test]
fn parallel_matches_serial() {
    let (from, to) = toy_window();
    run_pair(toy_world, from, to, false, "clean world");
}

#[test]
fn parallel_matches_serial_under_chaos() {
    let (from, to) = toy_window();
    run_pair(toy_world, from, to, true, "chaos world");
}

/// The US-broadband world of the paper artifacts: every VP's startup bdrmap
/// cycle (the most uneven per-VP cost) plus a tail of steady TSLP rounds.
#[test]
fn parallel_matches_serial_on_us_world() {
    let from = datetime_to_sim(Date::new(2017, 3, 6), 20, 0, 0);
    run_pair(|| us_broadband(0x5167_C044), from, from + 2 * 3600, false, "US world");
}

/// A VP whose worker panics must not take the round down with it: the
/// engine catches the panic, discards the VP's half-staged round, and the
/// supervisor quarantines it with backoff — identically at every thread
/// count, because the injected panic is a pure function of `(router, t)`.
#[test]
fn panicking_vp_is_quarantined_and_rounds_complete() {
    let from = date_to_sim(Date::new(2017, 3, 1));
    let to = from + 6 * 3600;
    // Panic window over [from+1h, from+2h): first panic strikes the VP into
    // a 30-minute quarantine, the re-probe at +1h30 strikes again (1h
    // backoff), and the next attempt lands past the window — the VP comes
    // back and finishes the run.
    let panic_window = (from + 3600, from + 2 * 3600);

    let mut serial = sys_with_threads(1);
    let mut parallel = sys_with_threads(test_threads());
    for sys in [&mut serial, &mut parallel] {
        let router = sys.world.vps[0].router;
        sys.world.net.fault.push(FaultEvent::window(
            FaultKind::VpPanic,
            FaultScope::Router(router),
            panic_window.0,
            panic_window.1,
        ));
    }

    let r1 = serial.run_packet_mode(from, to);
    let rn = parallel.run_packet_mode(from, to);
    assert_eq!(r1, rn, "panicking VP: round counts diverged");
    assert_eq!(r1, 72, "every round of the window completed despite the panics");

    for (label, sys) in [("serial", &serial), ("parallel", &parallel)] {
        let sup = &sys.vps[0].supervisor;
        assert_eq!(sup.strikes, 2, "{label}: one strike per post-backoff attempt");
        assert!(!sup.retired, "{label}: under max_strikes, quarantined not retired");
        assert!(
            sup.may_run(to),
            "{label}: backoff expired past the window — the VP is back"
        );
        assert_eq!(sys.vps[1].supervisor.strikes, 0, "{label}: other VPs untouched");
    }

    let f1 = fingerprint(&mut serial, from, to);
    let fn_ = fingerprint(&mut parallel, from, to);
    assert!(f1.points > 0, "surviving VPs kept measuring");
    assert_identical(&f1, &fn_, "panicking VP");
}

/// The longitudinal study fans its VPs out on the round engine's executor:
/// its merged and per-VP records, order included, must not depend on the
/// thread count either.
#[test]
fn longitudinal_matches_across_threads() {
    let from = date_to_sim(Date::new(2016, 4, 1));
    let study = |threads| {
        let mut sys = sys_with_threads(1);
        let cfg = LongitudinalConfig {
            threads,
            ..LongitudinalConfig::new(from, from + 60 * SECS_PER_DAY)
        };
        run_longitudinal_detailed(&mut sys, &cfg)
    };
    let serial = study(1);
    let parallel = study(test_threads());
    assert!(
        serial.merged.iter().any(|l| !l.day_masks.is_empty()),
        "the toy study found no congested day"
    );
    assert!(serial.per_vp.len() > serial.merged.len(), "some link is seen by two VPs");
    assert_eq!(serial.merged, parallel.merged, "merged link records diverged");
    assert_eq!(serial.per_vp, parallel.per_vp, "per-VP link records diverged");
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir()
        .join(format!("manic-par-det-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Kill a parallel durable run between checkpoints, resume it serially, and
/// require the finished window to match an uninterrupted serial in-memory
/// run. Crossing thread counts across the kill is the point: the WAL tail
/// written by 8 workers must replay into the exact state 1 worker rebuilds.
#[test]
fn kill_parallel_resume_serial_matches() {
    let from = date_to_sim(Date::new(2017, 3, 1));
    let to = from + 6 * 3600;
    let mid = from + 4 * 3600 + 20 * 60; // between 12-round checkpoints
    let dcfg = DurabilityConfig {
        fsync: FsyncPolicy::EveryN(64),
        checkpoint_every_rounds: 12,
        ..DurabilityConfig::default()
    };

    // Reference: uninterrupted serial run, entirely in memory.
    let mut ref_sys = sys_with_threads(1);
    ref_sys.run_packet_mode(from, to);
    let ref_fp = fingerprint(&mut ref_sys, from, to);
    drop(ref_sys);

    // Durable run at N threads, killed mid-window with a WAL tail pending.
    let dir = tmpdir("world");
    let mut sys = sys_with_threads(test_threads());
    let mut durable = Durable::create(&sys, "toy", SEED, &dir, from, to, dcfg.clone())
        .expect("create durable");
    durable.run_window(&mut sys, mid, &|| false).expect("run to kill point");
    drop(durable);
    drop(sys);

    // Resume serially and finish the window.
    let (mut sys2, mut durable2, info) = resume(&dir, Some(dcfg)).expect("resume");
    assert!(info.store_hash_ok, "restored snapshot hash verified");
    sys2.cfg.threads = 1;
    durable2.run_window(&mut sys2, to, &|| false).expect("run to window end");
    durable2.finalize(&sys2, to).expect("final checkpoint");

    let res_fp = fingerprint(&mut sys2, from, to);
    assert_identical(&ref_fp, &res_fp, "kill@parallel/resume@serial");

    std::fs::remove_dir_all(&dir).unwrap();
}
