//! Per-layer drills: after a traced run's timed window closes, drive one
//! layer at a time through its public function on the workload's own
//! `System` (whose state the window just produced) and time it from
//! outside. Nothing here runs in an untraced run.

use crate::stats::median;
use crate::trace::{alloc_counts, Tracer};
use manic_core::System;
use manic_inference::{detect_level_shifts_masked, AutocorrConfig, LinkSummary, DEFAULT_REJECT};
use manic_netsim::time::{SimTime, SECS_PER_DAY};
use manic_netsim::{ProbeSpec, SimState};
use manic_probing::tslp::{synthesize_task, End, TslpSample, ROUND_SECS};
use manic_serve::http::read_request;
use manic_serve::{api, Request, ServeState};
use manic_tsdb::{quality, Aggregate, FsyncPolicy, Point, SeriesKey, Store, Wal};
use manic_worldgen::rng::Rng;
use std::hint::black_box;
use std::path::Path;
use std::sync::OnceLock;

/// The samples of one TSLP round on every VP, as `probe_round_masked`
/// returned them.
pub struct RoundSamples {
    per_vp: Vec<Vec<(usize, TslpSample)>>,
    pub secs: f64,
    pub probes: u64,
}

impl RoundSamples {
    pub fn ns_per_probe(&self) -> f64 {
        self.secs * 1e9 / self.probes.max(1) as f64
    }
}

/// Repetitions of each quiet-round drill; the median is reported.
const REPS: i64 = 5;

/// probing: unmasked TSLP rounds on every VP from `t` on; the median
/// round's seconds and the last round's samples.
pub fn tslp_round(sys: &mut System, t: SimTime, tr: &mut Tracer) -> RoundSamples {
    let System { world, vps, .. } = sys;
    let mut secs = Vec::new();
    let mut per_vp = Vec::new();
    for r in 0..REPS {
        let o = tr.begin("probing.tslp_round", r as u64);
        per_vp = vps
            .iter_mut()
            .map(|vp| {
                vp.tslp
                    .probe_round_masked(&world.net, &mut vp.sim, t + r * ROUND_SECS, |_| true)
            })
            .collect();
        secs.push(tr.end(o));
    }
    let probes = per_vp.iter().map(|s: &Vec<_>| s.len() as u64).sum();
    RoundSamples {
        per_vp,
        secs: median(&secs),
        probes,
    }
}

/// One round's answered samples as the engine's commit would batch them:
/// per task, the near run and the far run.
fn batches<'a>(sys: &'a System, round: &RoundSamples) -> Vec<(&'a SeriesKey, End, Vec<Point>)> {
    let mut out = Vec::new();
    for (vp, samples) in sys.vps.iter().zip(&round.per_vp) {
        let mut i = 0;
        while i < samples.len() {
            let ti = samples[i].0;
            let (mut near, mut far) = (Vec::new(), Vec::new());
            while i < samples.len() && samples[i].0 == ti {
                let s = samples[i].1;
                if let Some(v) = s.rtt_ms {
                    match s.end {
                        End::Near => near.push(Point { t: s.t, v }),
                        End::Far => far.push(Point { t: s.t, v }),
                    }
                }
                i += 1;
            }
            for (end, pts) in [(End::Near, near), (End::Far, far)] {
                if !pts.is_empty() {
                    out.push((vp.tslp.key(ti, end), end, pts));
                }
            }
        }
    }
    out
}

pub struct TsdbWrite {
    pub secs: f64,
    pub ns_per_point: f64,
    pub annotate_ns: f64,
}

/// tsdb: replay one round's samples through `Store::write_batch` on a store
/// striped like the system's — once untimed, so every series exists as it
/// does mid-run, then timed on the following rounds — and annotate each
/// series once.
pub fn tsdb_write(sys: &System, round: &RoundSamples, t: SimTime, tr: &mut Tracer) -> TsdbWrite {
    let store = Store::with_shards(sys.store.shard_count());
    let mut batches = batches(sys, round);
    let points: usize = batches.iter().map(|b| b.2.len()).sum();
    let mut secs = Vec::new();
    for r in 0..=REPS {
        let o = tr.begin("tsdb.write_batch", r as u64);
        for (key, _, pts) in &batches {
            store.write_batch(key, pts);
        }
        let s = tr.end(o);
        if r > 0 {
            secs.push(s);
        }
        batches
            .iter_mut()
            .flat_map(|b| b.2.iter_mut())
            .for_each(|p| p.t += ROUND_SECS);
    }
    let o = tr.begin("tsdb.annotate", 0);
    for (key, _, _) in &batches {
        store.annotate(key, t, t + ROUND_SECS, quality::SUSPECT_RATE_LIMITED);
    }
    let annotate_s = tr.end(o);
    black_box(store.point_count());
    let secs = median(&secs);
    TsdbWrite {
        secs,
        ns_per_point: secs * 1e9 / points.max(1) as f64,
        annotate_ns: annotate_s * 1e9 / batches.len().max(1) as f64,
    }
}

/// inference: advance one ring per far series by a bin and fold a round's
/// far samples into it, as the commit does. Returns `(seconds, ns/sample)`.
pub fn summary_fold(sys: &System, round: &RoundSamples, t: SimTime, tr: &mut Tracer) -> (f64, f64) {
    let window = sys.cfg.summary_window_bins;
    let far: Vec<_> = batches(sys, round)
        .into_iter()
        .filter(|b| b.1 == End::Far)
        .collect();
    let mut rings: Vec<LinkSummary> = far
        .iter()
        .map(|_| LinkSummary::new(t, window, ROUND_SECS))
        .collect();
    let samples: usize = far.iter().map(|b| b.2.len()).sum();
    let mut secs = Vec::new();
    for r in 1..=REPS {
        let shift = r * ROUND_SECS;
        let o = tr.begin("inference.summary_fold", r as u64);
        for (ring, (_, _, pts)) in rings.iter_mut().zip(&far) {
            ring.advance_to(t + shift);
            for p in pts {
                ring.observe_sample(p.t + shift - ROUND_SECS, p.v);
            }
        }
        secs.push(tr.end(o));
    }
    black_box(&rings);
    let secs = median(&secs);
    (secs, secs * 1e9 / samples.max(1) as f64)
}

/// netsim: seeded `Network::send_probe` calls from VPs towards the far
/// TTLs of their tasks. Returns `(ns/probe, allocations/probe)`.
pub fn send_probe(sys: &System, seed: u64, t: SimTime, tr: &mut Tracer) -> (f64, f64) {
    const PROBES: u64 = 200_000;
    let mut rng = Rng::new(seed, 0x5e4d);
    let vps: Vec<_> = sys
        .vps
        .iter()
        .filter(|v| !v.tslp.tasks.is_empty())
        .collect();
    if vps.is_empty() {
        return (0.0, 0.0);
    }
    let specs: Vec<ProbeSpec> = (0..4096)
        .map(|_| {
            let vp = vps[rng.below(vps.len())];
            let task = &vp.tslp.tasks[rng.below(vp.tslp.tasks.len())];
            let dest = task.dests[rng.below(task.dests.len())];
            ProbeSpec {
                src: vp.handle.router,
                src_addr: vp.handle.addr,
                dst: dest.dst,
                ttl: dest.far_ttl,
                flow_id: task.flow_id,
            }
        })
        .collect();
    let mut state = SimState::new();
    let (a0, _) = alloc_counts();
    let o = tr.begin("netsim.send_probe", 0);
    for i in 0..PROBES {
        let spec = specs[i as usize % specs.len()];
        black_box(
            sys.world
                .net
                .send_probe(&mut state, spec, t + (i / 100) as i64),
        );
    }
    let secs = tr.end(o);
    let (a1, _) = alloc_counts();
    (secs * 1e9 / PROBES as f64, (a1 - a0) as f64 / PROBES as f64)
}

/// bdrmap: re-run the cycle on sixteen evenly spaced VPs; median ms per VP.
/// Replaces those VPs' probing sets, so it runs last.
pub fn bdrmap_cycles(sys: &mut System, t: SimTime, tr: &mut Tracer) -> f64 {
    let n = sys.vps.len();
    let step = (n / 16).max(1);
    let ms: Vec<f64> = (0..n)
        .step_by(step)
        .map(|vi| {
            tr.time("bdrmap.cycle", vi as u64, || sys.run_bdrmap_cycle(vi, t))
                .1
                * 1e3
        })
        .collect();
    median(&ms)
}

/// The first `n` probing tasks across VPs, with their VP.
fn first_tasks(sys: &System, n: usize) -> Vec<(&manic_core::VpRuntime, &manic_probing::TslpTask)> {
    sys.vps
        .iter()
        .flat_map(|vp| vp.tslp.tasks.iter().map(move |t| (vp, t)))
        .take(n)
        .collect()
}

/// inference: the masked level-shift detector on 30-day, 8,640-bin far
/// series synthesized for real tasks; median µs per window.
pub fn levelshift(sys: &System, from: SimTime, tr: &mut Tracer) -> f64 {
    let to = from + 30 * SECS_PER_DAY;
    let us: Vec<f64> = first_tasks(sys, 24)
        .into_iter()
        .map(|(vp, task)| {
            let s = synthesize_task(&sys.world.net, &vp.handle, task, from, to, ROUND_SECS);
            let qual = vec![0; s.far.len()];
            let (eps, secs) = tr.time("inference.levelshift", 0, || {
                detect_level_shifts_masked(&s.far, &qual, DEFAULT_REJECT, &sys.cfg.levelshift)
            });
            black_box(eps);
            secs * 1e6
        })
        .collect();
    median(&us)
}

/// inference: `autocorr::analyze_window` on 50-day series synthesized for
/// real tasks; median µs per window.
pub fn autocorr(sys: &System, from: SimTime, tr: &mut Tracer) -> f64 {
    let cfg = AutocorrConfig::default();
    let to = from + cfg.window_days as i64 * SECS_PER_DAY;
    let us: Vec<f64> = first_tasks(sys, 48)
        .into_iter()
        .map(|(vp, task)| {
            let s = synthesize_task(&sys.world.net, &vp.handle, task, from, to, 900);
            let (r, secs) = tr.time("inference.autocorr_window", 0, || {
                manic_inference::analyze_window(&s.near, &s.far, &cfg)
            });
            black_box(r);
            secs * 1e6
        })
        .collect();
    median(&us)
}

/// probing: `synthesize_window` for every VP over the study window, as
/// `run_longitudinal` does. Returns `(seconds, bins synthesized)`.
pub fn synth(sys: &System, from: SimTime, to: SimTime, tr: &mut Tracer) -> (f64, u64) {
    let mut bins = 0u64;
    let o = tr.begin("probing.synthesize", 0);
    for vp in sys.vps.iter().filter(|v| v.active && v.bdrmap.is_some()) {
        let series = vp.tslp.synthesize_window(&sys.world.net, from, to, 900);
        bins += series
            .iter()
            .map(|s| (s.near.len() + s.far.len()) as u64)
            .sum::<u64>();
        black_box(series);
    }
    (tr.end(o), bins)
}

/// tsdb: the two whole-store scans a checkpoint makes. Returns
/// `(dump_records seconds, content_hash seconds)`.
pub fn store_scans(store: &Store, tr: &mut Tracer) -> (f64, f64) {
    let (recs, dump_s) = tr.time("tsdb.dump_records", 0, || store.dump_records());
    black_box(recs.len());
    let (hash, hash_s) = tr.time("tsdb.content_hash", 0, || store.content_hash());
    black_box(hash);
    (dump_s, hash_s)
}

pub struct WalDrill {
    pub bytes_per_point: f64,
    pub append_ns_per_point: f64,
    pub sync_ms_p50: f64,
}

/// tsdb: twenty rounds of one round's samples through `Wal::append_samples`
/// and `flush_and_sync`, on the real disk under `dir`, with the durable
/// run's own policy and rotation.
pub fn wal(
    sys: &System,
    round: &RoundSamples,
    dir: &Path,
    tr: &mut Tracer,
) -> std::io::Result<WalDrill> {
    const ROUNDS: i64 = 20;
    let d = manic_core::DurabilityConfig::default();
    let wal = Wal::open_with(
        dir,
        FsyncPolicy::EveryN(64),
        d.rotate_bytes,
        manic_vfs::real(),
    )?;
    let batches = batches(sys, round);
    let tokens: Vec<OnceLock<u32>> = batches.iter().map(|_| OnceLock::new()).collect();
    let points = ROUNDS as usize * batches.iter().map(|b| b.2.len()).sum::<usize>();
    let wal_bytes = manic_obs::registry().counter("manic_tsdb_wal_bytes");
    let bytes0 = wal_bytes.get();
    let (mut append_s, mut sync_ms) = (0.0, Vec::new());
    for r in 0..ROUNDS {
        let o = tr.begin("tsdb.wal_append", r as u64);
        for ((key, _, pts), token) in batches.iter().zip(&tokens) {
            let shifted: Vec<Point> = pts
                .iter()
                .map(|p| Point {
                    t: p.t + r * ROUND_SECS,
                    v: p.v,
                })
                .collect();
            wal.append_samples(key, token, &shifted);
        }
        append_s += tr.end(o);
        let (synced, secs) = tr.time("tsdb.wal_sync", r as u64, || wal.flush_and_sync());
        synced?;
        sync_ms.push(secs * 1e3);
    }
    let bytes = wal_bytes.get() - bytes0;
    drop(wal);
    Ok(WalDrill {
        bytes_per_point: bytes as f64 / points.max(1) as f64,
        append_ns_per_point: append_s * 1e9 / points.max(1) as f64,
        sync_ms_p50: median(&sync_ms),
    })
}

/// tsdb: `downsample_dense_into` over the last six hours at 300 s, once per
/// far series; median µs.
pub fn downsample(sys: &System, now: SimTime, tr: &mut Tracer) -> f64 {
    let mut bins = Vec::new();
    let mut us = Vec::new();
    for vp in &sys.vps {
        for ti in 0..vp.tslp.tasks.len() {
            let key = vp.tslp.key(ti, End::Far);
            let ((), secs) = tr.time("tsdb.downsample", us.len() as u64, || {
                sys.store.downsample_dense_into(
                    key,
                    now - 6 * 3600,
                    now,
                    ROUND_SECS,
                    Aggregate::Min,
                    &mut bins,
                )
            });
            black_box(&bins);
            us.push(secs * 1e6);
        }
    }
    median(&us)
}

/// A `GET target` as the server's own parser reads it off the wire.
fn get(target: &str) -> Request {
    let head = format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n");
    read_request(&mut head.as_bytes()).expect("a well-formed request line")
}

/// Median µs of `api::handle` over `reqs`; every reply must be a 200.
fn handle_us(state: &ServeState, name: &'static str, reqs: &[Request], tr: &mut Tracer) -> f64 {
    let us: Vec<f64> = reqs
        .iter()
        .enumerate()
        .map(|(i, req)| {
            let (resp, secs) = tr.time(name, i as u64, || api::handle(state, req));
            assert_eq!(resp.status, 200, "{name}: {} {}", req.path, req.raw_query);
            black_box(resp.body.len());
            secs * 1e6
        })
        .collect();
    median(&us)
}

pub struct ServeHandles {
    pub links: f64,
    pub timeseries_hit: f64,
    pub timeseries_miss: f64,
    pub explain: f64,
    pub health: f64,
    pub metrics: f64,
}

/// serve: in-process `api::handle` medians per endpoint. `fars` are the far
/// IPs of monitored links. The caller publishes a fresh epoch first, so
/// every first sight of a key is a cache miss.
pub fn serve_handles(state: &ServeState, fars: &[String], tr: &mut Tracer) -> ServeHandles {
    let repeat = |r: Request, n: usize| vec![r; n];
    let ts = |far: &str, bin: u32| get(&format!("/api/link/{far}/timeseries?bin={bin}&agg=min"));
    // Distinct keys: each is rendered (`Store::downsample`), none is reused.
    let misses: Vec<Request> = fars.iter().take(200).map(|f| ts(f, 900)).collect();
    // One key, rendered once outside the sample, then served from the cache.
    let hot = ts(&fars[0], 300);
    api::handle(state, &hot);
    let explains: Vec<Request> = fars
        .iter()
        .take(200)
        .map(|f| get(&format!("/api/link/{f}/explain")))
        .collect();
    ServeHandles {
        links: handle_us(
            state,
            "serve.handle.links",
            &repeat(get("/api/links"), 200),
            tr,
        ),
        timeseries_miss: handle_us(state, "serve.handle.timeseries_miss", &misses, tr),
        timeseries_hit: handle_us(state, "serve.handle.timeseries_hit", &repeat(hot, 200), tr),
        explain: handle_us(state, "serve.handle.explain", &explains, tr),
        health: handle_us(
            state,
            "serve.handle.health",
            &repeat(get("/api/health"), 100),
            tr,
        ),
        metrics: handle_us(
            state,
            "serve.handle.metrics",
            &repeat(get("/metrics"), 100),
            tr,
        ),
    }
}

/// obs: median µs of rendering the whole registry as Prometheus text.
pub fn obs_render(tr: &mut Tracer) -> f64 {
    let us: Vec<f64> = (0..50)
        .map(|i| {
            let (text, secs) = tr.time("obs.render_prometheus", i, || {
                manic_obs::registry().render_prometheus()
            });
            black_box(text.len());
            secs * 1e6
        })
        .collect();
    median(&us)
}
