//! Inference throughput: incremental `LinkSummary` maintenance vs. the
//! full-rescan baseline, gated at >= 5x on planet-20k with a 30-day window.
//!
//! Leg A (the headline number) synthesizes a deterministic per-link min-RTT
//! history for every ground-truth interconnect of a worldgen planet —
//! diurnal evening congestion on some links, rate-limit quality masks on
//! others — writes it to a columnar `Store`, backfills one `LinkSummary`
//! per link (the checkpoint-resume path), then times two ways of answering
//! "is this link congested right now?" for a day of fresh rounds:
//!
//! * **incremental** — fold the round's samples into the ring and call
//!   [`LinkSummary::refresh`]: O(new bins) sentinel scan, exact detector
//!   only on arm/disarm transitions;
//! * **baseline** — what `arm_reactive_loss` did before this PR: a dense
//!   store rescan of the whole window plus a full detector run per link.
//!
//! The speedup is `incremental link-rounds/s / baseline link-rounds/s` and
//! must clear 5x. Before any timing is trusted, a verification pass proves
//! the ring *is* the store: per-link dense windows (mins and quality flags)
//! must match bit-for-bit (FNV-hashed, hard fail on divergence), and exact
//! ring-served verdicts must equal batch detection on the store scan.
//!
//! Leg B re-asserts PR 5's guarantee now that summaries ride along in the
//! round commit: packet-mode runs at 1/2/4/8 threads must produce identical
//! store hashes, verdicts, and summary fingerprints.
//!
//! Knobs (CI smoke uses a smaller world): `INFER_WORLD` (default
//! `planet-20k`), `INFER_DAYS` (window length, default 30), `INFER_ROUNDS`
//! (timed rounds, default 288 = one day), `INFER_BASE_SAMPLES` (baseline
//! rescans to time, default 1000).

use manic_bench::{save_result, SEED};
use manic_core::{System, SystemConfig};
use manic_inference::{
    detect_level_shifts_masked, LevelShiftConfig, LinkSummary, DEFAULT_REJECT,
};
use manic_netsim::time::{date_to_sim, Date};
use manic_scenario::worlds::toy;
use manic_stats::{fnv1a, FNV1A_OFFSET};
use manic_tsdb::quality::SUSPECT_RATE_LIMITED;
use manic_tsdb::{Aggregate, Point, SeriesKey, Store};
use manic_worldgen::build_world;
use std::fmt::Write as _;
use std::time::Instant;

const BIN: i64 = 300;
const BINS_PER_DAY: i64 = 288;
const REQUIRED_SPEEDUP: f64 = 5.0;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Deterministic per-(link, bin) min-RTT sample: per-link base, bounded
/// hash noise, and a 25 ms evening plateau on every 16th link — big enough
/// and long enough (4 h = 48 bins) that the level-shift detector must fire.
fn synth(li: usize, b: i64) -> f64 {
    let h = (li as u64 ^ 0x9E37_79B9_7F4A_7C15).wrapping_mul(0x100_0000_01b3)
        ^ (b as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    let noise = (h % 1024) as f64 / 512.0;
    let base = 20.0 + (li % 23) as f64;
    let hour = b.rem_euclid(BINS_PER_DAY) / 12;
    let evening = li.is_multiple_of(16) && (18..22).contains(&hour);
    base + noise + if evening { 25.0 } else { 0.0 }
}

/// FNV-1a over one dense window (presence, min bits, quality flags).
fn window_hash(mut h: u64, bins: &[Option<f64>], qual: &[u8]) -> u64 {
    for (v, &q) in bins.iter().zip(qual) {
        h = fnv1a(h, &[v.is_some() as u8, q]);
        if let Some(v) = v {
            h = fnv1a(h, &v.to_bits().to_le_bytes());
        }
    }
    h
}

struct ThreadRun {
    threads: usize,
    wall_s: f64,
    hash: u64,
    verdicts: Vec<String>,
    summaries: Vec<(String, u64)>,
}

/// Leg B: one packet-mode run of the toy world — store hash, verdicts, and
/// the fingerprint of every incremental summary the commit path maintained.
fn thread_run(threads: usize, from: i64, to: i64) -> ThreadRun {
    let mut sys = System::new(toy(SEED), SystemConfig::default());
    sys.cfg.threads = threads;
    let started = Instant::now();
    sys.run_packet_mode(from, to);
    let wall_s = started.elapsed().as_secs_f64();
    let mut verdicts: Vec<String> = Vec::new();
    for vi in 0..sys.vps.len() {
        sys.arm_reactive_loss(vi, from, to);
        verdicts.extend(sys.vps[vi].loss.targets.iter().map(|t| t.far_ip.to_string()));
    }
    verdicts.sort();
    verdicts.dedup();
    let mut summaries = Vec::new();
    for vp in &sys.vps {
        for ((near, far), s) in &vp.summaries {
            summaries.push((format!("{}/{near}/{far}", vp.handle.name), s.fingerprint()));
        }
    }
    summaries.sort();
    ThreadRun { threads, wall_s, hash: sys.store.content_hash(), verdicts, summaries }
}

fn main() {
    let world_name =
        std::env::var("INFER_WORLD").unwrap_or_else(|_| "planet-20k".to_string());
    let days = env_usize("INFER_DAYS", 30);
    let rounds = env_usize("INFER_ROUNDS", BINS_PER_DAY as usize);
    let window_bins = days * BINS_PER_DAY as usize;
    let cfg = LevelShiftConfig::default();

    // --- Build the world: the gt_links roster is the link population. ---
    let t_build = Instant::now();
    let world = build_world(&world_name, SEED).expect("build INFER_WORLD");
    let build_s = t_build.elapsed().as_secs_f64();
    let links = world.gt_links.len();
    assert!(links > 0, "world {world_name} has no ground-truth links");

    // --- Untimed: synthesize `days` of history into the columnar store. ---
    let t_hist = Instant::now();
    let store = Store::new();
    let keys: Vec<SeriesKey> = (0..links)
        .map(|li| {
            SeriesKey::with_tags(
                "tslp",
                &[("vp", "bench"), ("link", &li.to_string()), ("end", "far")],
            )
        })
        .collect();
    let hist_bins = window_bins as i64;
    let mut pts: Vec<Point> = Vec::with_capacity(window_bins);
    for (li, key) in keys.iter().enumerate() {
        pts.clear();
        for b in 0..hist_bins {
            pts.push(Point { t: b * BIN + 11, v: synth(li, b) });
        }
        store.write_batch(key, &pts);
        if li.is_multiple_of(7) {
            // Rate-limit suspicion over the early-morning hours of every
            // fifth day: the detectors must mask these bins on both paths.
            for d in (0..days as i64).step_by(5) {
                let f = (d * BINS_PER_DAY + 24) * BIN;
                store.annotate(key, f, f + 36 * BIN, SUSPECT_RATE_LIMITED);
            }
        }
    }
    let hist_s = t_hist.elapsed().as_secs_f64();

    // --- Backfill one summary per link (the checkpoint-resume path). ---
    let t_back = Instant::now();
    let mut summaries: Vec<LinkSummary> = keys
        .iter()
        .map(|k| LinkSummary::backfilled(&store, k, hist_bins * BIN, window_bins, BIN))
        .collect();
    let backfill_s = t_back.elapsed().as_secs_f64();

    // --- Timed leg 1: incremental maintenance + refresh, per link-round. ---
    let carried0 = manic_obs::registry()
        .counter("manic_inference_summary_verdicts_carried")
        .get();
    let mut congested_hits = 0u64;
    let t_inc = Instant::now();
    for r in 0..rounds {
        let b = hist_bins + r as i64;
        let t0 = b * BIN;
        let annotate_round = r == rounds / 2;
        for (li, (key, s)) in keys.iter().zip(summaries.iter_mut()).enumerate() {
            s.advance_to(t0 + BIN);
            if annotate_round && li.is_multiple_of(7) {
                store.annotate(key, t0, t0 + BIN, SUSPECT_RATE_LIMITED);
                s.observe_flags(t0, t0 + BIN, SUSPECT_RATE_LIMITED);
            }
            let v = synth(li, b);
            store.write(key, t0 + 11, v);
            s.observe_sample(t0 + 11, v);
            let to = s.hi_bin() * BIN;
            congested_hits += s.refresh(to - hist_bins * BIN, to, &cfg) as u64;
        }
    }
    let inc_s = t_inc.elapsed().as_secs_f64();
    let link_rounds = links * rounds;
    let inc_rate = link_rounds as f64 / inc_s;
    let exact_analyses: u64 = summaries.iter().map(|s| s.analyses).sum();
    let carried = manic_obs::registry()
        .counter("manic_inference_summary_verdicts_carried")
        .get()
        - carried0;

    // --- Timed leg 2: the pre-PR baseline — full store rescan + detector
    // per link, sampled and extrapolated to a rate. ---
    let to_f = (hist_bins + rounds as i64) * BIN;
    let from_f = to_f - hist_bins * BIN;
    let base_samples = env_usize("INFER_BASE_SAMPLES", 1000).min(link_rounds).max(1);
    let (mut bins, mut qual) = (Vec::new(), Vec::new());
    let mut base_episodes = 0usize;
    let t_base = Instant::now();
    for i in 0..base_samples {
        let li = (i * 37) % links;
        store.downsample_dense_into(&keys[li], from_f, to_f, BIN, Aggregate::Min, &mut bins);
        store.quality_dense_into(&keys[li], from_f, to_f, BIN, &mut qual);
        base_episodes += detect_level_shifts_masked(&bins, &qual, DEFAULT_REJECT, &cfg).len();
    }
    let base_s = t_base.elapsed().as_secs_f64();
    let base_rate = base_samples as f64 / base_s;
    let speedup = inc_rate / base_rate;

    // --- Verify: the ring IS the store. Dense windows bit-identical for
    // every link (hashed), exact verdicts identical on a spread of links
    // including every congested one. Hard fail on any divergence. ---
    let (mut ring_bins, mut ring_qual) = (Vec::new(), Vec::new());
    let (mut hash_ring, mut hash_store) = (FNV1A_OFFSET, FNV1A_OFFSET);
    let mut verdict_links = 0usize;
    for (li, (key, s)) in keys.iter().zip(summaries.iter_mut()).enumerate() {
        assert!(s.can_serve(from_f, to_f), "link {li}: ring cannot serve final window");
        s.dense_into(from_f, to_f, &mut ring_bins, &mut ring_qual);
        store.downsample_dense_into(key, from_f, to_f, BIN, Aggregate::Min, &mut bins);
        store.quality_dense_into(key, from_f, to_f, BIN, &mut qual);
        assert!(
            ring_bins == bins && ring_qual == qual,
            "link {li}: ring diverged from store over [{from_f}, {to_f})"
        );
        hash_ring = window_hash(hash_ring, &ring_bins, &ring_qual);
        hash_store = window_hash(hash_store, &bins, &qual);
        if li.is_multiple_of(5) || li.is_multiple_of(16) {
            let ring_eps = s.analyze_exact(from_f, to_f, &cfg);
            let store_eps = detect_level_shifts_masked(&bins, &qual, DEFAULT_REJECT, &cfg);
            assert!(
                ring_eps == store_eps,
                "link {li}: incremental verdict diverged from batch detection"
            );
            verdict_links += 1;
        }
    }
    assert_eq!(
        hash_ring, hash_store,
        "aggregate dense-window hash diverged between ring and store"
    );

    // --- Leg B: thread-count determinism with summaries in the commit. ---
    let from_b = date_to_sim(Date::new(2017, 3, 1));
    let to_b = from_b + 6 * 3600;
    let truns: Vec<ThreadRun> =
        [1usize, 2, 4, 8].iter().map(|&n| thread_run(n, from_b, to_b)).collect();
    let tbase = &truns[0];
    assert!(!tbase.summaries.is_empty(), "serial run built no link summaries");
    let threads_ok = truns.iter().all(|r| {
        r.hash == tbase.hash && r.verdicts == tbase.verdicts && r.summaries == tbase.summaries
    });

    // --- Report. ---
    let mut txt = String::new();
    let _ = writeln!(
        txt,
        "inference_throughput: {world_name}, seed {SEED:#x}, {links} links, \
         {days}-day window ({window_bins} bins), {rounds} timed rounds"
    );
    let _ = writeln!(
        txt,
        "setup: build {build_s:.2}s, history {hist_s:.2}s ({} pts), backfill {backfill_s:.2}s",
        store.point_count()
    );
    let _ = writeln!(
        txt,
        "incremental: {link_rounds} link-rounds in {inc_s:.3}s = {inc_rate:.0} links/s \
         ({exact_analyses} exact analyses, {carried} carried, {congested_hits} congested hits)"
    );
    let _ = writeln!(
        txt,
        "baseline:    {base_samples} full rescans in {base_s:.3}s = {base_rate:.0} links/s \
         ({base_episodes} episodes)"
    );
    let _ = writeln!(
        txt,
        "speedup: {speedup:.1}x (gate >= {REQUIRED_SPEEDUP}x) — {}",
        if speedup >= REQUIRED_SPEEDUP { "ok" } else { "BELOW GATE" }
    );
    let _ = writeln!(
        txt,
        "verify: {links} dense windows bit-identical (hash {hash_ring:016x}), \
         {verdict_links} verdicts identical"
    );
    for r in &truns {
        let _ = writeln!(
            txt,
            "threads {}: wall {:.2}s hash {:016x} summaries {} {}",
            r.threads,
            r.wall_s,
            r.hash,
            r.summaries.len(),
            if r.hash == tbase.hash && r.summaries == tbase.summaries {
                "ok"
            } else {
                "DIVERGED"
            }
        );
    }

    print!("{txt}"); // ALLOW_PRINT: bench output
    save_result("inference_throughput", &txt);

    let trows: Vec<String> = truns
        .iter()
        .map(|r| {
            format!(
                "    {{\"threads\": {}, \"wall_s\": {:.4}, \"store_hash\": \"{:016x}\", \
                 \"summaries\": {}, \"identical_to_serial\": {}}}",
                r.threads,
                r.wall_s,
                r.hash,
                r.summaries.len(),
                r.hash == tbase.hash && r.verdicts == tbase.verdicts
                    && r.summaries == tbase.summaries
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"inference_throughput\",\n  \"world\": \"{world_name}\",\n  \
         \"seed\": \"{SEED:#x}\",\n  \"links\": {links},\n  \"window_days\": {days},\n  \
         \"window_bins\": {window_bins},\n  \"timed_rounds\": {rounds},\n  \
         \"incremental\": {{\"link_rounds\": {link_rounds}, \"wall_s\": {inc_s:.4}, \
         \"links_per_s\": {inc_rate:.2}, \"exact_analyses\": {exact_analyses}, \
         \"carried_verdicts\": {carried}, \"backfill_s\": {backfill_s:.4}}},\n  \
         \"baseline\": {{\"samples\": {base_samples}, \"wall_s\": {base_s:.4}, \
         \"links_per_s\": {base_rate:.2}}},\n  \
         \"speedup\": {speedup:.2},\n  \"required_speedup\": {REQUIRED_SPEEDUP},\n  \
         \"verify\": {{\"dense_links\": {links}, \"dense_hash\": \"{hash_ring:016x}\", \
         \"verdict_links\": {verdict_links}, \"identical\": true}},\n  \
         \"threads_deterministic\": {threads_ok},\n  \"threads\": [\n{}\n  ],\n  \
         \"pass\": {}\n}}\n",
        trows.join(",\n"),
        threads_ok && speedup >= REQUIRED_SPEEDUP
    );
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::write(root.join("BENCH_inference_throughput.json"), &json)
        .expect("write BENCH_inference_throughput.json");

    assert!(
        threads_ok,
        "store hash / verdicts / summary fingerprints diverged across thread counts"
    );
    assert!(
        speedup >= REQUIRED_SPEEDUP,
        "incremental inference speedup {speedup:.1}x below the {REQUIRED_SPEEDUP}x gate"
    );
}
