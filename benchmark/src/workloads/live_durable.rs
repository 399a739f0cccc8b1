//! `live_durable`: sim-5k + `steady` in packet mode with durability and
//! serving *on* — `Durable::create` on a fresh directory with
//! `DurabilityConfig::default()` (real disk, `every-64`, a checkpoint every
//! 12 rounds, 3 kept) and `Server::start` on a loopback port with
//! `ServeConfig::default()`, while one open-loop client asks the same live
//! process 100 requests a second.
//!
//! Why: it is the north-star shape. Checkpoints, the WAL, vfs and snapshot
//! publishing dominate and the measurement loop is a minority of the wall
//! time — the mirror image of `planet_packet`. It also uses tsdb
//! differently: `dump_records` and WAL appends beside `write_batch`.
//! (planet-20k cannot host this workload today: one checkpoint there takes
//! 25–183 s. `--world planet-20k` reproduces that.)
//!
//! The sim thread mirrors `manic serve`: rounds through
//! `Durable::run_window`, and every twelve of them `arm_reactive_loss` for
//! every VP and `SnapshotHub::publish_from` — paced by *sim* rounds, not by
//! the wall clock, so every run does identical work. The world is exactly
//! `build_world_full("sim-5k", TOPO_SEED)`, because that is what `resume`
//! rebuilds from the checkpoint; `--seed` drives the client's request
//! order. After the window: `finalize`, then `manic_core::resume` on the
//! directory, whose store must hash like the finalized one.

use super::{
    check_links_rows, far_ips, quiet_round_drills, set_world_metrics, RoundMeter, WindowProbe,
};
use crate::countvfs::{CountingVfs, VfsCounts};
use crate::http::Client;
use crate::stats::{describe, median, quantile};
use crate::trace::Tracer;
use crate::world::{self, TOPO_SEED};
use crate::{drills, Abort, Options, Outcome};
use manic_core::{DurabilityConfig, Durable, System};
use manic_probing::tslp::ROUND_SECS;
use manic_serve::{DurabilityStatus, ServeConfig, ServeState, Server, SnapshotHub};
use manic_worldgen::rng::Rng;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Two checkpoint periods. One checkpoint costs seconds today (it re-parses
/// every kept generation's metadata, audit trail included), so the window
/// is sized by checkpoints, not by rounds. `work_per_s` here follows
/// checkpoint cost, which grows with the points and verdicts stored, so
/// runs of different lengths must never be compared.
const ROUNDS_PER_BLOCK: u64 = 48;
/// Rounds per `arm_reactive_loss` + publish: `manic serve` does both every
/// two wall seconds, which at this workload's pace is about one checkpoint
/// period of rounds.
const CHUNK_ROUNDS: u64 = 24;
const LOOKBACK_SECS: i64 = 6 * 3600;
/// Open-loop request rate.
const RATE_HZ: u64 = 100;
/// Set-up is short here, so it is repeated and the median reported.
const SETUP_REPEATS: u64 = 3;

/// Everything one set-up builds.
struct Live {
    sys: System,
    durable: Durable,
    dir: PathBuf,
    hub: Arc<SnapshotHub>,
    status: Arc<DurabilityStatus>,
    server: Server,
    cfg: DurabilityConfig,
    vfs_counts: Option<Arc<VfsCounts>>,
}

fn never() -> bool {
    false
}

/// Bytes of every regular file under `dir`.
fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Arm the reactive level-shift detector on every VP over `[from, to)` and
/// publish a snapshot, as `manic serve`'s sim thread does. Returns
/// `(arm seconds, publish seconds)`.
fn arm_and_publish(
    live: &mut Live,
    from: i64,
    to: i64,
    t0: i64,
    id: u64,
    tr: &mut Tracer,
) -> (f64, f64) {
    let arm = tr.begin("core.arm_reactive", id);
    for vi in 0..live.sys.vps.len() {
        live.sys.arm_reactive_loss(vi, from, to);
    }
    let arm_s = tr.end(arm);
    let lookback = LOOKBACK_SECS.min(to - t0).max(1);
    let (_, publish_s) = tr.time("serve.publish", id, || {
        live.hub.publish_from(&live.sys, to, lookback)
    });
    (arm_s, publish_s)
}

fn setup(
    opts: &Options,
    world_name: &str,
    rounds: u64,
    rep: u64,
    out: &mut Outcome,
    tr: &mut Tracer,
) -> Result<Live, Abort> {
    let t0 = world::study_start();
    let built = world::build(world_name, TOPO_SEED, tr)?;
    if rep == 0 {
        set_world_metrics(out, &built);
    }
    let mut sys = built.sys;

    let dir = world::out_dir().join(format!("live-{}-{:x}-{rep}", std::process::id(), opts.seed));
    std::fs::create_dir_all(&dir)
        .map_err(|e| Abort::setup(format!("create {}: {e}", dir.display())))?;
    let (vfs, vfs_counts) = if tr.on() {
        let (vfs, counts) = CountingVfs::around(manic_vfs::real());
        (vfs, Some(counts))
    } else {
        (manic_vfs::real(), None)
    };
    let cfg = DurabilityConfig {
        vfs,
        ..DurabilityConfig::default()
    };
    let t_end = t0 + (1 + rounds) as i64 * ROUND_SECS;
    let mut durable = Durable::create(&sys, world_name, TOPO_SEED, &dir, t0, t_end, cfg.clone())
        .map_err(|e| Abort::setup(format!("Durable::create in {}: {e}", dir.display())))?;

    let hub = Arc::new(SnapshotHub::new());
    let serve_cfg = ServeConfig::default();
    let mut state = ServeState::new(Arc::clone(&hub), Arc::clone(&sys.store), &serve_cfg);
    let status = Arc::new(DurabilityStatus::new(&durable.config().fsync.to_string()));
    state.durability = Some(Arc::clone(&status));
    let server = Server::start("127.0.0.1:0", Arc::new(state), &serve_cfg)
        .map_err(|e| Abort::setup(format!("bind 127.0.0.1:0: {e}")))?;

    // Round 0: every VP's first bdrmap cycle, then the first snapshot, so
    // the client never sees the empty epoch. No verdicts yet: each
    // `arm_reactive_loss` adds an audit record per link to every later
    // checkpoint, and that cost belongs to the window.
    durable
        .run_window(&mut sys, t0 + ROUND_SECS, &never)
        .map_err(|e| Abort::setup(format!("round 0: {e}")))?;
    tr.time("serve.publish", 0, || {
        hub.publish_from(&sys, t0 + ROUND_SECS, ROUND_SECS)
    });
    Ok(Live {
        sys,
        durable,
        dir,
        hub,
        status,
        server,
        cfg,
        vfs_counts,
    })
}

fn teardown(live: Live) {
    live.server.shutdown();
    drop(live.durable);
    let _ = std::fs::remove_dir_all(&live.dir);
}

/// One request of the open-loop client.
struct Sent {
    due: Instant,
    done: Instant,
    ok: bool,
}

struct ClientLog {
    sent: Vec<Sent>,
    /// Worst lateness of the generator itself: how long after a request
    /// was due it actually went out.
    late_ms_max: f64,
}

/// Open loop at [`RATE_HZ`] on one keep-alive connection: request `k` is
/// due at `start + k / RATE_HZ` whatever happened to the ones before it,
/// and its latency counts from when it was due.
fn open_loop(
    addr: SocketAddr,
    paths: Vec<String>,
    stop: Arc<AtomicBool>,
) -> std::io::Result<ClientLog> {
    let mut client = Client::connect(addr)?;
    let mut log = ClientLog {
        sent: Vec::new(),
        late_ms_max: 0.0,
    };
    let start = Instant::now();
    let gap = Duration::from_nanos(1_000_000_000 / RATE_HZ);
    for k in 0u32.. {
        let due = start + gap * k;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        let late = Instant::now().duration_since(due).as_secs_f64() * 1e3;
        log.late_ms_max = log.late_ms_max.max(late);
        let ok = matches!(client.get(&paths[k as usize % paths.len()]), Ok(200));
        log.sent.push(Sent {
            due,
            done: Instant::now(),
            ok,
        });
    }
    Ok(log)
}

pub fn run(opts: &Options, tr: &mut Tracer) -> Result<Outcome, Abort> {
    let world_name = opts.world.as_deref().unwrap_or("sim-5k");
    let rounds = ROUNDS_PER_BLOCK * opts.blocks();
    let mut out = Outcome::new();
    let t0 = world::study_start();
    let at = |round: u64| t0 + round as i64 * ROUND_SECS;

    // ---- set-up, repeated; the last one is measured on
    let mut setups = Vec::new();
    let mut kept: Option<Live> = None;
    for rep in 0..SETUP_REPEATS {
        if let Some(previous) = kept.take() {
            teardown(previous);
        }
        let o = tr.begin("setup", rep);
        kept = Some(setup(opts, world_name, rounds, rep, &mut out, tr)?);
        setups.push(tr.end(o));
    }
    let mut live = kept.expect("SETUP_REPEATS >= 1");
    out.set("setup_s", median(&setups));

    // ---- the client: seeded order over the four endpoints
    let fars = far_ips(&live.sys);
    if fars.is_empty() {
        return Err(Abort::setup("round 0 inferred no interdomain links"));
    }
    let mut rng = Rng::new(opts.seed, 0xc11e);
    let paths: Vec<String> = (0..256)
        .flat_map(|_| {
            let far = &fars[rng.below(fars.len())];
            [
                "/api/links".to_string(),
                format!("/api/link/{far}/timeseries?bin=300&agg=min"),
                format!("/api/link/{far}/explain"),
                "/api/health".to_string(),
            ]
        })
        .collect();
    let addr = live.server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let client = {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("bench-client".into())
            .spawn(move || open_loop(addr, paths, stop))
            .map_err(|e| Abort::setup(format!("spawn client: {e}")))?
    };

    // ---- timed window
    let reg = manic_obs::registry();
    let panics = reg.counter("manic_core_vp_panics");
    let ckpt_errors = reg.counter("manic_core_checkpoint_errors");
    let ckpt_writes = reg.counter("manic_core_checkpoint_writes");
    let ckpt_bytes = reg.counter("manic_core_checkpoint_bytes");
    let served = reg.counter("manic_inference_summary_windows_served");
    let fallbacks = reg.counter("manic_inference_summary_window_fallbacks");
    let shed = || reg.sum_counters_with_prefix("manic_serve_shed");
    let (panics0, errors0, writes0, bytes0) = (
        panics.get(),
        ckpt_errors.get(),
        ckpt_writes.get(),
        ckpt_bytes.get(),
    );
    let (served0, fallbacks0, shed0) = (served.get(), fallbacks.get(), shed());
    let vfs0 = live.vfs_counts.as_ref().map(|c| {
        (
            c.bytes_written.load(Ordering::Relaxed),
            c.fsyncs.load(Ordering::Relaxed),
            c.fsync_ns.load(Ordering::Relaxed),
        )
    });
    let mut meter = RoundMeter::new();
    let (mut arm_s, mut publish_ms) = (0.0, Vec::new());
    let probe = WindowProbe::open(tr);
    let window = tr.begin("window", 0);
    let mut failure = None;
    for i in 1..=rounds {
        let before = meter.before();
        let (done, secs) = tr.time("core.round", i, || {
            live.durable.run_window(&mut live.sys, at(i + 1), &never)
        });
        meter.after(before, secs);
        match done {
            Ok(1) => {}
            other => {
                failure = Some(format!("round {i}: run_window returned {other:?}"));
                break;
            }
        }
        live.status.note_progress(live.durable.rounds());
        let (cr, ct) = live.durable.last_checkpoint();
        live.status.note_checkpoint(cr, ct);
        if i % CHUNK_ROUNDS == 0 {
            let from = at(i + 1 - CHUNK_ROUNDS);
            let (a, p) = arm_and_publish(&mut live, from, at(i + 1), t0, i, tr);
            arm_s += a;
            publish_ms.push(p * 1e3);
        }
    }
    let window_s = tr.end(window);
    stop.store(true, Ordering::Release);
    let client = client.join();
    if let Some(reason) = failure {
        teardown(live);
        let done = meter.log.len() as u64;
        return Err(Abort {
            attempted: rounds,
            failed: rounds - done + 1,
            reason,
        });
    }
    let requests = match client {
        Ok(Ok(log)) => log,
        failed => {
            teardown(live);
            let reason = match failed {
                Ok(Err(e)) => format!("client could not connect: {e}"),
                _ => "client thread panicked".to_string(),
            };
            return Err(Abort::setup(reason));
        }
    };
    probe.close(tr, &mut out, rounds as f64, window_s);

    // ---- output check while the server is still up: /api/links parses
    // and has one row per link of the current snapshot.
    check_links_rows(&mut out, addr, &live.hub);

    // ---- finalize, measure the directory, resume
    let reached = live.durable.resume_t();
    let (finalized, finalize_s) = tr.time("core.finalize", 0, || {
        live.durable.finalize(&live.sys, reached)
    });
    if let Err(e) = finalized {
        teardown(live);
        return Err(Abort::setup(format!("finalize: {e}")));
    }
    let disk = dir_bytes(&live.dir).unwrap_or(0);
    let points = live.sys.store.point_count();
    let hash = live.sys.store.content_hash();
    live.server.shutdown();
    let Live {
        mut sys,
        durable,
        dir,
        hub,
        cfg,
        vfs_counts,
        ..
    } = live;

    // ---- end-to-end
    let lat_ms: Vec<f64> = requests
        .sent
        .iter()
        .map(|s| s.done.duration_since(s.due).as_secs_f64() * 1e3)
        .collect();
    let bad_requests = requests.sent.iter().filter(|s| !s.ok).count() as u64;
    let checkpoints = ckpt_writes.get() - writes0 + ckpt_errors.get() - errors0;
    out.set("work_per_s", rounds as f64 / window_s);
    out.set("op_p50_ms", meter.quiet_p50_ms());
    out.attempted = rounds * sys.vps.len() as u64 + checkpoints + requests.sent.len() as u64;
    out.failed = (panics.get() - panics0) + (ckpt_errors.get() - errors0) + bad_requests;
    meter.describe(&mut out);
    out.note(format!(
        "requests, open loop {RATE_HZ}/s from due time: {}; generator late by at most {:.3} ms",
        describe(&lat_ms, "ms"),
        requests.late_ms_max
    ));
    out.note(format!(
        "store hash {hash:016x}, {points} points, {disk} B on disk after finalize = {:.3} B/point",
        disk as f64 / points.max(1) as f64
    ));
    out.check(
        "requests answered",
        !requests.sent.is_empty(),
        requests.sent.len(),
    );

    if tr.on() {
        for s in &requests.sent {
            tr.import("client.request", 0, s.due, s.done);
        }
        meter.set_layer_metrics(&mut out, window_s);
        let ckpt_ms: Vec<f64> = meter
            .log
            .iter()
            .map(|r| r.checkpoint_ms)
            .filter(|&ms| ms > 0.0)
            .collect();
        out.set("core.checkpoint_s", ckpt_ms.iter().sum::<f64>() / 1e3);
        out.set(
            "core.checkpoint_ms_first",
            ckpt_ms.first().copied().unwrap_or(0.0),
        );
        out.set(
            "core.checkpoint_ms_last",
            ckpt_ms.last().copied().unwrap_or(0.0),
        );
        out.set("core.checkpoint_bytes", (ckpt_bytes.get() - bytes0) as f64);
        out.set("core.finalize_s", finalize_s);
        out.set("core.arm_reactive_s", arm_s);
        out.set("inference.windows_served", (served.get() - served0) as f64);
        out.set(
            "inference.window_fallbacks",
            (fallbacks.get() - fallbacks0) as f64,
        );
        out.set("serve.publish_ms", median(&publish_ms));
        let snap = hub.current();
        out.set(
            "serve.snapshot_bytes",
            (snap.links_json.len() + snap.health_json.len()) as f64,
        );
        out.set("serve.req_p50_ms", median(&lat_ms));
        out.set("serve.req_p99_ms", quantile(&lat_ms, 0.99));
        out.set("serve.gen_late_ms_max", requests.late_ms_max);
        out.set("serve.shed", (shed() - shed0) as f64);
        if let (Some(c), Some((b0, f0, ns0))) = (&vfs_counts, vfs0) {
            out.set(
                "vfs.bytes_written",
                (c.bytes_written.load(Ordering::Relaxed) - b0) as f64,
            );
            out.set("vfs.fsyncs", (c.fsyncs.load(Ordering::Relaxed) - f0) as f64);
            out.set(
                "vfs.fsync_s",
                (c.fsync_ns.load(Ordering::Relaxed) - ns0) as f64 / 1e9,
            );
        }
        out.set(
            "vfs.disk_bytes_per_point",
            disk as f64 / points.max(1) as f64,
        );
        let t = at(rounds + 1);
        let round = quiet_round_drills(&mut out, &mut sys, t, meter.quiet_p50_ms() / 1e3, tr);
        let (dump_s, hash_s) = drills::store_scans(&sys.store, tr);
        out.set("tsdb.dump_records_s", dump_s);
        out.set("tsdb.content_hash_s", hash_s);
        out.set(
            "inference.levelshift_us_per_window",
            drills::levelshift(&sys, t0, tr),
        );
        match drills::wal(&sys, &round, &dir.join("wal-drill"), tr) {
            Ok(w) => {
                out.set("tsdb.wal_bytes_per_point", w.bytes_per_point);
                out.set("tsdb.wal_append_ns_per_point", w.append_ns_per_point);
                out.set("tsdb.wal_sync_ms_p50", w.sync_ms_p50);
            }
            Err(e) => out.check("wal drill", false, e),
        }
    }

    // ---- resume from the finalized directory, with the old process state
    // (store, WAL writer) gone as it would be after a restart
    drop((sys, durable));
    let (resumed, resume_s) = tr.time("core.resume", 0, || manic_core::resume(&dir, Some(cfg)));
    match &resumed {
        Ok((rsys, _, info)) => {
            let rhash = rsys.store.content_hash();
            out.check(
                "resumed store hash equals finalized",
                rhash == hash && info.store_hash_ok && info.storage.clean(),
                format!(
                    "finalized {hash:016x}, resumed {rhash:016x}, {} rounds",
                    info.rounds
                ),
            );
        }
        Err(e) => out.check("resume", false, e),
    }
    drop(resumed);
    if tr.on() {
        out.set("core.resume_s", resume_s);
    }
    if out.correct {
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        out.note(format!("data dir kept for inspection: {}", dir.display()));
    }
    Ok(out)
}
