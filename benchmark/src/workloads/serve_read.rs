//! `serve_read`: sim-5k + `steady`, 72 warm-up rounds, `arm_reactive_loss`,
//! one publish — then the simulation is **idle** and one closed-loop
//! keep-alive client (no pipelining: the next request goes out when the
//! last reply is in) reads from a server with the default configuration.
//! Client and server threads share one CPU, so that a reply is a context
//! switch and not a wake-up of a halted vCPU (see `run`).
//!
//! Why: it isolates serve (parse, admit, cache, render, write) and tsdb
//! *reads*. netsim, probing, bdrmap and core do nothing, so an engine change
//! must read "no change" here, and a tsdb layout change that speeds writes
//! but slows range scans shows as a loss here.
//!
//! The seeded request mix varies what the serving layer's behaviour depends
//! on — how much work requests share and the working set against the
//! 256-entry response cache: 55 % `/api/links` (pre-rendered), 15 %
//! timeseries over a hot set of 32 far IPs (cache hits), 15 % timeseries
//! over every far IP × `bin ∈ {300, 900, 3600}` (working set ≫ cache:
//! misses → `Store::downsample`), 10 % explain over the hot set, 5 %
//! `/api/health` + `/metrics`. The bench thread re-publishes a snapshot
//! every two seconds: the epoch bump invalidates the cache, the write side
//! of the serving layer beside its reads.

use super::{check_links_rows, far_ips, set_world_metrics, WindowProbe};
use crate::http::Client;
use crate::stats::{describe, median, quantile};
use crate::trace::{pin_to_one_cpu, Tracer};
use crate::{drills, world, Abort, Options, Outcome};
use manic_probing::tslp::ROUND_SECS;
use manic_serve::{ServeConfig, ServeState, Server, SnapshotHub};
use manic_worldgen::rng::Rng;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WARMUP_ROUNDS: i64 = 72;
const LOOKBACK_SECS: i64 = 6 * 3600;
const HOT_SET: usize = 32;
const REPUBLISH_EVERY: Duration = Duration::from_secs(2);
const COLD_BINS: [u32; 3] = [300, 900, 3600];

/// One request kind of the mix, with the share of requests it gets (‰).
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Links,
    TimeseriesHot,
    TimeseriesCold,
    Explain,
    Health,
    Metrics,
}

const MIX: [(Kind, u32); 6] = [
    (Kind::Links, 550),
    (Kind::TimeseriesHot, 150),
    (Kind::TimeseriesCold, 150),
    (Kind::Explain, 100),
    (Kind::Health, 25),
    (Kind::Metrics, 25),
];

struct Reply {
    start: Instant,
    done: Instant,
    ok: bool,
}

fn draw(rng: &mut Rng, fars: &[String]) -> String {
    let mut roll = rng.below(1000) as u32;
    let mut kind = Kind::Links;
    for (k, share) in MIX {
        if roll < share {
            kind = k;
            break;
        }
        roll -= share;
    }
    let hot = &fars[rng.below(HOT_SET.min(fars.len()))];
    match kind {
        Kind::Links => "/api/links".into(),
        Kind::TimeseriesHot => format!("/api/link/{hot}/timeseries?bin=300&agg=min"),
        Kind::TimeseriesCold => {
            let far = &fars[rng.below(fars.len())];
            let bin = COLD_BINS[rng.below(COLD_BINS.len())];
            format!("/api/link/{far}/timeseries?bin={bin}&agg=min")
        }
        Kind::Explain => format!("/api/link/{hot}/explain"),
        Kind::Health => "/api/health".into(),
        Kind::Metrics => "/metrics".into(),
    }
}

/// Closed loop on one keep-alive connection until `deadline`.
fn closed_loop(
    addr: SocketAddr,
    fars: Vec<String>,
    seed: u64,
    deadline: Instant,
) -> std::io::Result<Vec<Reply>> {
    let mut client = Client::connect(addr)?;
    let mut rng = Rng::new(seed, 0xc105ed);
    let mut log = Vec::with_capacity(1 << 18);
    loop {
        let start = Instant::now();
        if start >= deadline {
            return Ok(log);
        }
        let ok = matches!(client.get(&draw(&mut rng, &fars)), Ok(200));
        log.push(Reply {
            start,
            done: Instant::now(),
            ok,
        });
    }
}

pub fn run(opts: &Options, tr: &mut Tracer) -> Result<Outcome, Abort> {
    let world_name = opts.world.as_deref().unwrap_or("sim-5k");
    let mut out = Outcome::new();
    let t0 = world::study_start();
    let now = t0 + WARMUP_ROUNDS * ROUND_SECS;

    // ---- set-up: world, warm-up rounds, verdicts, first snapshot, server
    let setup = tr.begin("setup", 0);
    let built = world::build(world_name, opts.seed, tr)?;
    set_world_metrics(&mut out, &built);
    let mut sys = built.sys;
    tr.time("core.warmup", 0, || sys.run_packet_mode(t0, now));
    tr.time("core.arm_reactive", 0, || {
        for vi in 0..sys.vps.len() {
            sys.arm_reactive_loss(vi, t0, now);
        }
    });
    let hub = Arc::new(SnapshotHub::new());
    tr.time("serve.publish", 0, || {
        hub.publish_from(&sys, now, LOOKBACK_SECS)
    });
    // One closed-loop connection has one runnable thread at a time, client
    // or server. Left to the scheduler the two land on different vCPUs and
    // every reply first wakes a halted vCPU through the hypervisor, which on
    // a shared host costs anything from 20 µs to 2 ms (600 to 13,000 req/s
    // within ten minutes, same code). On one CPU a reply is a context switch.
    match pin_to_one_cpu() {
        Some(cpu) => out.note(format!("server and client threads pinned to cpu {cpu}")),
        None => out.note("could not pin to one cpu; request times include vCPU wake-ups"),
    }
    let cfg = ServeConfig::default();
    let state = Arc::new(ServeState::new(
        Arc::clone(&hub),
        Arc::clone(&sys.store),
        &cfg,
    ));
    let server = Server::start("127.0.0.1:0", Arc::clone(&state), &cfg)
        .map_err(|e| Abort::setup(format!("bind 127.0.0.1:0: {e}")))?;
    out.set("setup_s", tr.end(setup));
    let fars = far_ips(&sys);
    if fars.is_empty() {
        server.shutdown();
        return Err(Abort::setup("warm-up inferred no interdomain links"));
    }

    // ---- timed window: the client reads, this thread re-publishes
    let reg = manic_obs::registry();
    let sent = reg.counter("manic_netsim_probes_sent");
    let hits = reg.counter("manic_serve_cache_hits");
    let misses = reg.counter("manic_serve_cache_misses");
    let shed = || reg.sum_counters_with_prefix("manic_serve_shed");
    let (sent0, hits0, misses0, shed0) = (sent.get(), hits.get(), misses.get(), shed());
    let points0 = sys.store.point_count();
    let addr = server.local_addr();
    let probe = WindowProbe::open(tr);
    let window = tr.begin("window", 0);
    let deadline = Instant::now() + Duration::from_secs(opts.seconds);
    let client = {
        let (fars, seed) = (fars.clone(), opts.seed);
        std::thread::Builder::new()
            .name("bench-client".into())
            .spawn(move || closed_loop(addr, fars, seed, deadline))
    };
    let mut publish_ms = Vec::new();
    let mut next_publish = Instant::now() + REPUBLISH_EVERY;
    while next_publish < deadline {
        std::thread::sleep(next_publish.saturating_duration_since(Instant::now()));
        let id = publish_ms.len() as u64 + 1;
        let (_, secs) = tr.time("serve.publish", id, || {
            hub.publish_from(&sys, now, LOOKBACK_SECS)
        });
        publish_ms.push(secs * 1e3);
        next_publish += REPUBLISH_EVERY;
    }
    let replies = match client.map(|h| h.join()) {
        Ok(Ok(Ok(log))) => log,
        failed => {
            server.shutdown();
            let reason = match failed {
                Err(e) => format!("spawn client: {e}"),
                Ok(Ok(Err(e))) => format!("client could not connect: {e}"),
                _ => "client thread panicked".to_string(),
            };
            return Err(Abort::setup(reason));
        }
    };
    let window_s = tr.end(window);
    probe.close(tr, &mut out, replies.len() as f64, window_s);

    // ---- end-to-end
    let lat_ms: Vec<f64> = replies
        .iter()
        .map(|r| r.done.duration_since(r.start).as_secs_f64() * 1e3)
        .collect();
    let (p50_ms, p99_ms) = (median(&lat_ms), quantile(&lat_ms, 0.99));
    out.set("work_per_s", replies.len() as f64 / window_s);
    out.set("op_p50_ms", p50_ms);
    out.attempted = replies.len() as u64;
    out.failed = replies.iter().filter(|r| !r.ok).count() as u64;
    out.note(format!(
        "requests, closed loop, 1 connection: {}, p99={p99_ms:.4} ms",
        describe(&lat_ms, "ms")
    ));

    // ---- output checks
    out.check("requests answered", !replies.is_empty(), replies.len());
    out.check(
        "no probes sent and no points written while serving",
        sent.get() == sent0 && sys.store.point_count() == points0,
        format!(
            "probes +{}, points +{}",
            sent.get() - sent0,
            sys.store.point_count() - points0
        ),
    );
    check_links_rows(&mut out, addr, &hub);
    out.note(format!("store hash {:016x}", sys.store.content_hash()));

    if tr.on() {
        for (i, r) in replies.iter().enumerate() {
            tr.import("client.request", i as u64, r.start, r.done);
        }
        let (d_hits, d_misses) = (hits.get() - hits0, misses.get() - misses0);
        out.set(
            "serve.cache_hit_share",
            d_hits as f64 / (d_hits + d_misses).max(1) as f64,
        );
        out.set("serve.shed", (shed() - shed0) as f64);
        out.set("serve.publish_ms", median(&publish_ms));
        let snap = hub.current();
        out.set(
            "serve.snapshot_bytes",
            (snap.links_json.len() + snap.health_json.len()) as f64,
        );
        out.set("serve.req_p50_ms", p50_ms);
        out.set("serve.req_p99_ms", p99_ms);
        out.set("tsdb.points", sys.store.point_count() as f64);
        out.set("tsdb.series", sys.store.series_count() as f64);
        out.set("tsdb.downsample_us_p50", drills::downsample(&sys, now, tr));
        // A fresh epoch: every key the handle drill sees first is a miss.
        hub.publish_from(&sys, now, LOOKBACK_SECS);
        let h = drills::serve_handles(&state, &fars, tr);
        out.set("serve.handle_us.links", h.links);
        out.set("serve.handle_us.timeseries_hit", h.timeseries_hit);
        out.set("serve.handle_us.timeseries_miss", h.timeseries_miss);
        out.set("serve.handle_us.explain", h.explain);
        out.set("serve.handle_us.health", h.health);
        out.set("serve.handle_us.metrics", h.metrics);
        out.set("obs.render_prom_us", drills::obs_render(tr));
        // What the loopback round trip adds to the handler: the request
        // p50 is a `/api/links` (55 % of the mix), so compare it to that
        // handler's own time.
        out.set("serve.wire_overhead_us", p50_ms * 1e3 - h.links);
    }
    server.shutdown();
    Ok(out)
}
