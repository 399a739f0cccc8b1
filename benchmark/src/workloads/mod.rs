//! The four workloads. Each module's doc comment says why it exists and
//! which layers it stresses and which it bypasses.

pub mod live_durable;
pub mod planet_packet;
pub mod serve_read;
pub mod study_fluid;

use crate::http::Client;
use crate::stats::{describe, median};
use crate::trace::{alloc_counts, cpu_times, peak_rss_mb, set_alloc_counting, Tracer};
use crate::{Abort, Options, Outcome};
use manic_core::System;
use manic_obs::{Counter, Histogram};
use manic_serve::SnapshotHub;
use std::net::SocketAddr;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PlanetPacket,
    LiveDurable,
    ServeRead,
    StudyFluid,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PlanetPacket,
        Workload::LiveDurable,
        Workload::ServeRead,
        Workload::StudyFluid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanetPacket => "planet_packet",
            Workload::LiveDurable => "live_durable",
            Workload::ServeRead => "serve_read",
            Workload::StudyFluid => "study_fluid",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Run one workload. The trace file, if any, is the caller's to write.
pub fn run(opts: &Options, tr: &mut Tracer) -> Result<Outcome, Abort> {
    let mut out = match opts.workload {
        Workload::PlanetPacket => planet_packet::run(opts, tr),
        Workload::LiveDurable => live_durable::run(opts, tr),
        Workload::ServeRead => serve_read::run(opts, tr),
        Workload::StudyFluid => study_fluid::run(opts, tr),
    }?;
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("obs.journal_events", manic_obs::journal().len() as f64);
    out.set("trace.spans", tr.span_count() as f64);
    Ok(out)
}

/// Process readings bracketing a timed window: CPU time, allocations, and
/// what the tracer itself cost.
pub(crate) struct WindowProbe {
    cpu: (f64, f64),
    allocs: (u64, u64),
    spans: usize,
}

impl WindowProbe {
    /// Open the window; switches allocation counting on in a traced run.
    pub(crate) fn open(tr: &Tracer) -> Self {
        set_alloc_counting(tr.on());
        WindowProbe {
            cpu: cpu_times(),
            allocs: alloc_counts(),
            spans: tr.span_count(),
        }
    }

    /// Close the window of `work` units that took `wall_s` and record the
    /// `proc.*` and `trace.overhead_share` metrics.
    pub(crate) fn close(self, tr: &Tracer, out: &mut Outcome, work: f64, wall_s: f64) {
        let (user, sys) = cpu_times();
        let (allocs, bytes) = alloc_counts();
        let (d_allocs, d_bytes) = (allocs - self.allocs.0, bytes - self.allocs.1);
        out.set("proc.cpu_user_s", user - self.cpu.0);
        out.set("proc.cpu_sys_s", sys - self.cpu.1);
        out.set("proc.allocs_per_work", d_allocs as f64 / work.max(1.0));
        out.set(
            "proc.alloc_mb_per_work",
            d_bytes as f64 / 1e6 / work.max(1.0),
        );
        if tr.on() {
            // Tracing costs one begin/end pair per span and two relaxed
            // adds per counted allocation; both are counted here and priced
            // by calibration, because the wall-clock difference between a
            // traced and an untraced run is below this box's run-to-run
            // noise.
            const COUNTED_ALLOC_NS: f64 = 2.0;
            let spans = (tr.span_count() - self.spans) as f64;
            let cost_ns = spans * Tracer::span_cost_ns() + d_allocs as f64 * COUNTED_ALLOC_NS;
            out.set("trace.overhead_share", cost_ns / 1e9 / wall_s.max(1e-9));
        }
    }
}

/// Far-end IPs of every probing task, deduplicated, in VP and task order.
pub(crate) fn far_ips(sys: &System) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    sys.vps
        .iter()
        .flat_map(|vp| vp.tslp.tasks.iter().map(|t| t.far_ip))
        .filter(|ip| seen.insert(*ip))
        .map(|ip| ip.to_string())
        .collect()
}

/// Output check of both serving workloads: `/api/links` from the live server
/// parses (vendored `serde_json`) and has one row per link of the current
/// snapshot.
pub(crate) fn check_links_rows(out: &mut Outcome, addr: SocketAddr, hub: &SnapshotHub) {
    let rows_want = hub.current().links.len();
    let rows_got = Client::connect(addr)
        .and_then(|mut c| c.get("/api/links").map(|_| c.body))
        .ok()
        .and_then(|body| String::from_utf8(body).ok())
        .and_then(|text| serde_json::from_str(&text).ok())
        .and_then(|v| v.get("links").and_then(|l| l.as_array()).map(Vec::len));
    out.check(
        "/api/links parses with one row per snapshot link",
        rows_got == Some(rows_want) && rows_want > 0,
        format!("got {rows_got:?}, snapshot has {rows_want}"),
    );
}

/// Worldgen and scenario metrics every workload's set-up produces.
pub(crate) fn set_world_metrics(out: &mut Outcome, built: &crate::world::Built) {
    out.set("worldgen.compile_s", built.compile_s);
    out.set("worldgen.graph_bytes", built.stats.graph_mem_bytes as f64);
    out.set("worldgen.interconnects", built.stats.interconnects as f64);
    out.set("scenario.install_s", built.install_s);
    out.note(format!("world fingerprint {:016x}", built.fingerprint));
}

/// What one timed round did, seen from outside: wall time and deltas of the
/// program's own counters read at the call's two boundaries.
pub(crate) struct Round {
    /// Wall seconds of the call, minus any checkpoint it wrote.
    pub secs: f64,
    pub cycles: u64,
    pub probes: u64,
    pub hops: u64,
    pub commit_ms: f64,
    /// Milliseconds of checkpoint writing inside the call (durable runs).
    pub checkpoint_ms: f64,
}

/// Counter readings taken before a round call.
pub(crate) struct Before(u64, u64, u64, f64, f64);

/// Reads the round engine's counters around each round call and keeps the
/// per-round log both packet workloads derive their `core.*`, `bdrmap.*`
/// and `netsim.*` metrics from.
pub(crate) struct RoundMeter {
    cycles: Counter,
    sent: Counter,
    forwarded: Counter,
    commit: Histogram,
    checkpoint: Histogram,
    pub log: Vec<Round>,
}

impl RoundMeter {
    pub(crate) fn new() -> Self {
        let r = manic_obs::registry();
        RoundMeter {
            cycles: r.counter("manic_bdrmap_cycles"),
            sent: r.counter("manic_netsim_probes_sent"),
            forwarded: r.counter("manic_netsim_packets_forwarded"),
            commit: r.histogram("manic_core_commit_ms"),
            checkpoint: r.histogram("manic_core_checkpoint_write_ms"),
            log: Vec::new(),
        }
    }

    pub(crate) fn before(&self) -> Before {
        Before(
            self.cycles.get(),
            self.sent.get(),
            self.forwarded.get(),
            self.commit.sum_ms(),
            self.checkpoint.sum_ms(),
        )
    }

    /// Log a round call that took `secs`.
    pub(crate) fn after(&mut self, b: Before, secs: f64) {
        let checkpoint_ms = self.checkpoint.sum_ms() - b.4;
        self.log.push(Round {
            secs: secs - checkpoint_ms / 1e3,
            cycles: self.cycles.get() - b.0,
            probes: self.sent.get() - b.1,
            hops: self.forwarded.get() - b.2,
            commit_ms: self.commit.sum_ms() - b.3,
            checkpoint_ms,
        });
    }

    fn ms(rounds: &[&Round]) -> Vec<f64> {
        rounds.iter().map(|r| r.secs * 1e3).collect()
    }

    /// Median wall ms of the rounds in which no VP re-ran bdrmap: a TSLP
    /// round plus its commit. Falls back to all rounds if none was quiet.
    pub(crate) fn quiet_p50_ms(&self) -> f64 {
        let quiet: Vec<&Round> = self.log.iter().filter(|r| r.cycles == 0).collect();
        let all: Vec<&Round> = self.log.iter().collect();
        median(&Self::ms(if quiet.is_empty() { &all } else { &quiet }))
    }

    /// Human-readable timings with their sample counts.
    pub(crate) fn describe(&self, out: &mut Outcome) {
        let all: Vec<&Round> = self.log.iter().collect();
        let quiet: Vec<&Round> = self.log.iter().filter(|r| r.cycles == 0).collect();
        out.note(format!(
            "round wall, all rounds: {}",
            describe(&Self::ms(&all), "ms")
        ));
        out.note(format!(
            "round wall, no bdrmap cycle: {}",
            describe(&Self::ms(&quiet), "ms")
        ));
    }

    /// The ledger's counted half: classify the window's rounds by whether
    /// `manic_bdrmap_cycles` advanced and sum the deltas.
    pub(crate) fn set_layer_metrics(&self, out: &mut Outcome, window_s: f64) {
        let (cycle, quiet): (Vec<&Round>, Vec<&Round>) =
            self.log.iter().partition(|r| r.cycles > 0);
        let n = self.log.len().max(1) as f64;
        let cycle_s: f64 = cycle.iter().map(|r| r.secs).sum();
        let quiet_s: f64 = quiet.iter().map(|r| r.secs).sum();
        let quiet_probes: u64 = quiet.iter().map(|r| r.probes).sum();
        let quiet_hops: u64 = quiet.iter().map(|r| r.hops).sum();
        let all: Vec<&Round> = self.log.iter().collect();
        out.set(
            "bdrmap.cycles_in_window",
            self.log.iter().map(|r| r.cycles).sum::<u64>() as f64,
        );
        out.set("core.cycle_rounds", cycle.len() as f64);
        out.set("core.cycle_rounds_s", cycle_s);
        out.set("core.quiet_round_ms_p50", self.quiet_p50_ms());
        out.set(
            "core.round_ms_max",
            Self::ms(&all).into_iter().fold(0.0, f64::max),
        );
        out.set(
            "core.commit_ms_per_round",
            self.log.iter().map(|r| r.commit_ms).sum::<f64>() / n,
        );
        out.set(
            "netsim.probes_per_round",
            quiet_probes as f64 / quiet.len().max(1) as f64,
        );
        out.set(
            "netsim.hops_per_probe",
            quiet_hops as f64 / quiet_probes.max(1) as f64,
        );
        let checkpoint_s = self.log.iter().map(|r| r.checkpoint_ms).sum::<f64>() / 1e3;
        out.note(format!(
            "window {window_s:.3} s: {} rounds with a bdrmap cycle {cycle_s:.3} s + {} quiet \
             rounds {quiet_s:.3} s + checkpoints {checkpoint_s:.3} s + the rest {:.3} s",
            cycle.len(),
            quiet.len(),
            window_s - cycle_s - quiet_s - checkpoint_s
        ));
    }
}

/// The timed drills of a quiet round's layers, on the state the window
/// left: probing, tsdb write, summary fold, and what they leave
/// unattributed of `quiet_round_s`. Returns the round's samples for the
/// workload's own drills.
pub(crate) fn quiet_round_drills(
    out: &mut Outcome,
    sys: &mut System,
    t: i64,
    quiet_round_s: f64,
    tr: &mut Tracer,
) -> crate::drills::RoundSamples {
    use crate::drills;
    out.set("tsdb.points", sys.store.point_count() as f64);
    out.set("tsdb.series", sys.store.series_count() as f64);
    out.set(
        "bdrmap.links_inferred",
        sys.vps.iter().map(|v| v.tslp.tasks.len()).sum::<usize>() as f64,
    );
    let round = drills::tslp_round(sys, t, tr);
    out.set("probing.tslp_round_s", round.secs);
    out.set("probing.tslp_ns_per_probe", round.ns_per_probe());
    let write = drills::tsdb_write(sys, &round, t, tr);
    out.set("tsdb.write_ns_per_point", write.ns_per_point);
    out.set("tsdb.annotate_ns", write.annotate_ns);
    let (fold_s, fold_ns) = drills::summary_fold(sys, &round, t, tr);
    out.set("inference.fold_ns_per_sample", fold_ns);
    // What a quiet round spends outside the three layers timed above:
    // health bookkeeping, staging, summary creation, the engine's own loop.
    // It sizes the later in-program tracing issue.
    let attributed = round.secs + write.secs + fold_s;
    out.set(
        "core.round_unattributed_share",
        1.0 - attributed / quiet_round_s.max(1e-9),
    );
    round
}
