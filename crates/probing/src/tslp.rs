//! The Time-Series Latency Probes driver (§3.1).
//!
//! For each inferred interdomain link, the prober holds up to three
//! destinations such that both the near and far end of the link sit on the
//! forward path toward them, preferring destinations inside the neighbor's
//! address space. Every five minutes it sends TTL-limited probes that expire
//! at the near and far interfaces, keeping the flow identifier constant per
//! link so ECMP keeps the forward path pinned. Destinations are only
//! replaced when they lose visibility of the link (§3.1's probing-state
//! stability rule).
//!
//! The fluid fast path ([`TslpProber::synthesize_window`]) skips the
//! packets: it resolves each task's probe paths once, evaluates every
//! (link, direction) those paths cross once per bin into a column, and
//! folds each path's columns into the min-RTT and response probability
//! its probes would have seen. That column engine ([`fold_paths`]) is the
//! fluid model of every prober: loss synthesis (`loss.rs`) reduces the
//! same fold.

use crate::path::{probe_path, ProbePath, VpHandle};
use crate::scheduler::RateBudget;
use crate::traceroute::Traceroute;
use manic_netsim::noise::{self, BinColumn};
use manic_netsim::time::{SimTime, SECS_PER_DAY};
use manic_netsim::topo::Direction;
use manic_netsim::{
    FaultScope, FlowRoute, Ipv4, LinkId, Network, ProbeSpec, ProbeStatus, SimState,
};
use manic_tsdb::{SeriesKey, Store, TagSet};
use std::collections::HashMap;
use std::ops::Range;

/// Which end of the link a sample measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum End {
    Near,
    Far,
}

impl End {
    pub fn tag(self) -> &'static str {
        match self {
            End::Near => "near",
            End::Far => "far",
        }
    }

    /// Index into per-task `[near, far]` pairs (the cached key array).
    pub fn index(self) -> usize {
        matches!(self, End::Far) as usize
    }
}

/// A destination used to probe one link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TslpDest {
    pub dst: Ipv4,
    /// TTL that expires at the near interface on the path to `dst`.
    pub near_ttl: u8,
    /// TTL that expires at the far interface (== near_ttl + 1 in practice).
    pub far_ttl: u8,
}

/// Probing state for one interdomain link.
#[derive(Debug, Clone)]
pub struct TslpTask {
    /// The near-end target (host network border router interface).
    pub near_ip: Ipv4,
    /// The far-end target (neighbor border interface on the link).
    pub far_ip: Ipv4,
    /// Up to three destinations behind the link.
    pub dests: Vec<TslpDest>,
    /// Constant flow identifier (the ICMP checksum TSLP holds fixed).
    pub flow_id: u16,
}

impl TslpTask {
    /// Stable series label for the link; the paper labels links by far IP.
    pub fn link_label(&self) -> String {
        self.far_ip.to_string()
    }
}

/// One measurement produced by a probing round.
#[derive(Debug, Clone, Copy)]
pub struct TslpSample {
    pub t: SimTime,
    pub end: End,
    /// RTT if a response arrived from the *expected* interface.
    pub rtt_ms: Option<f64>,
    /// True when a response arrived but from an unexpected address —
    /// evidence the route no longer crosses the link (visibility loss).
    pub mismatched: bool,
}

/// Per-VP TSLP driver.
pub struct TslpProber {
    pub vp: VpHandle,
    pub tasks: Vec<TslpTask>,
    /// Cached `[near, far]` tsdb keys per task, rebuilt whenever the task
    /// set changes — the round hot path must not re-format key strings.
    keys: Vec<[SeriesKey; 2]>,
    /// One route per destination, in task and destination order: resolved
    /// by the destination's first probe and replayed by its near and far
    /// probes of every round until the routing epoch changes. Emptied with
    /// the keys whenever the task set changes; never checkpointed — a
    /// resumed prober resolves them again on its first round.
    routes: Vec<FlowRoute>,
    budget: RateBudget,
    metrics: crate::obs::VpTslpMetrics,
}

/// Probing interval (§3.1: every five minutes).
pub const ROUND_SECS: i64 = 300;
/// TSLP probing budget per VP (§3.1: 100 packets per second).
pub const TSLP_PPS: f64 = 100.0;
/// Per-probe timeout: a reply slower than this is treated as loss (scamper's
/// default wait). Guards against pathological simulated paths (heavy clock
/// skew, saturated reply queues) poisoning min-RTT series.
pub const PROBE_TIMEOUT_MS: f64 = 3_000.0;

impl TslpProber {
    pub fn new(vp: VpHandle, start: SimTime) -> Self {
        let metrics = crate::obs::VpTslpMetrics::for_vp(&vp.name);
        TslpProber {
            vp,
            tasks: Vec::new(),
            keys: Vec::new(),
            routes: Vec::new(),
            budget: RateBudget::new(TSLP_PPS, start),
            metrics,
        }
    }

    /// Replace the task set wholesale (checkpoint restore), rebuilding the
    /// cached series keys.
    pub fn set_tasks(&mut self, tasks: Vec<TslpTask>) {
        self.tasks = tasks;
        self.rebuild_keys();
    }

    /// The cached tsdb key for `(task, end)`. Valid as long as the task set
    /// was installed through [`Self::update_targets`]/[`Self::set_tasks`].
    pub fn key(&self, ti: usize, end: End) -> &SeriesKey {
        debug_assert_eq!(self.keys.len(), self.tasks.len(), "stale key cache");
        &self.keys[ti][end.index()]
    }

    /// Rebuild the per-task caches for a new task set: the series keys, and
    /// no routes until the next round resolves them.
    fn rebuild_keys(&mut self) {
        self.routes.clear();
        let vp = &self.vp.name;
        self.keys = self
            .tasks
            .iter()
            .map(|t| [series_key(vp, t, End::Near), series_key(vp, t, End::Far)])
            .collect();
    }

    /// Install/update the probing set from fresh link→destination candidates
    /// (the output of a bdrmap cycle). Existing destinations are kept while
    /// they remain candidates; lost ones are replaced (§3.1).
    pub fn update_targets(&mut self, candidates: Vec<TslpTask>) {
        let mut next = Vec::with_capacity(candidates.len());
        for mut cand in candidates {
            if let Some(old) = self
                .tasks
                .iter()
                .find(|t| t.near_ip == cand.near_ip && t.far_ip == cand.far_ip)
            {
                // Keep surviving old destinations, in their old order.
                let mut kept: Vec<TslpDest> = old
                    .dests
                    .iter()
                    .filter(|d| cand.dests.iter().any(|c| c.dst == d.dst))
                    .cloned()
                    .collect();
                for c in &cand.dests {
                    if kept.len() >= 3 {
                        break;
                    }
                    if !kept.iter().any(|k| k.dst == c.dst) {
                        kept.push(*c);
                    }
                }
                cand.dests = kept;
                cand.flow_id = old.flow_id;
            }
            cand.dests.truncate(3);
            next.push(cand);
        }
        self.tasks = next;
        self.rebuild_keys();
    }

    /// Execute one five-minute probing round in packet mode, writing samples
    /// into `store` and returning them for probing-state bookkeeping.
    pub fn probe_round(
        &mut self,
        net: &Network,
        state: &mut SimState,
        round_start: SimTime,
        store: &Store,
    ) -> Vec<(usize, TslpSample)> {
        let out = self.probe_round_masked(net, state, round_start, |_| true);
        for &(ti, sample) in &out {
            if let Some(rtt) = sample.rtt_ms {
                store.write(self.key(ti, sample.end), sample.t, rtt);
            }
        }
        out
    }

    /// [`Self::probe_round`] restricted to tasks the health machine wants
    /// probed this round: `mask(ti)` decides per task index. Skipped tasks
    /// consume no probing budget and produce no samples — the caller is
    /// responsible for annotating the resulting gap in the tsdb. Samples are
    /// returned, not persisted: in the parallel engine the caller stages them
    /// and commits in VP order (see `manic-core`'s engine module).
    pub fn probe_round_masked(
        &mut self,
        net: &Network,
        state: &mut SimState,
        round_start: SimTime,
        mask: impl Fn(usize) -> bool,
    ) -> Vec<(usize, TslpSample)> {
        let m = &self.metrics;
        m.rounds.inc();
        // Per-probe counts accumulate in locals and flush once per round:
        // one atomic add per counter per round instead of one per probe
        // keeps the instrumented hot path cheap (the benchmark's
        // `probing.tslp_ns_per_probe` times it).
        let (mut sent, mut answered, mut timed_out, mut mism, mut lost, mut skipped) =
            (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
        let dests = self.tasks.iter().map(|t| t.dests.len()).sum::<usize>();
        let mut out = Vec::with_capacity(2 * dests);
        // `tasks` is public: a set edited in place keeps one slot per
        // destination, and a slot holding another flow re-resolves.
        self.routes.resize_with(dests, FlowRoute::default);
        let (budget, routes) = (&mut self.budget, &mut self.routes);
        let mut slot = 0;
        for (ti, task) in self.tasks.iter().enumerate() {
            let slots = slot..slot + task.dests.len();
            slot = slots.end;
            if !mask(ti) {
                skipped += 1;
                continue;
            }
            for (dest, route) in task.dests.iter().zip(&mut routes[slots]) {
                for (end, ttl, expect) in [
                    (End::Near, dest.near_ttl, task.near_ip),
                    (End::Far, dest.far_ttl, task.far_ip),
                ] {
                    let t = budget.next_slot(round_start);
                    let status = net.send_probe_via(
                        state,
                        route,
                        ProbeSpec {
                            src: self.vp.router,
                            src_addr: self.vp.addr,
                            dst: dest.dst,
                            ttl,
                            flow_id: task.flow_id,
                        },
                        t,
                    );
                    sent += 1;
                    let sample = match status {
                        ProbeStatus::TimeExceeded { from, rtt_ms }
                        | ProbeStatus::EchoReply { from, rtt_ms } => {
                            if rtt_ms > PROBE_TIMEOUT_MS {
                                // Reply arrived after the per-probe timeout:
                                // counted as loss, like a real prober would.
                                timed_out += 1;
                                TslpSample { t, end, rtt_ms: None, mismatched: false }
                            } else if from == expect {
                                answered += 1;
                                m.rtt_ms.observe(rtt_ms);
                                TslpSample { t, end, rtt_ms: Some(rtt_ms), mismatched: false }
                            } else {
                                mism += 1;
                                TslpSample { t, end, rtt_ms: None, mismatched: true }
                            }
                        }
                        _ => {
                            lost += 1;
                            TslpSample { t, end, rtt_ms: None, mismatched: false }
                        }
                    };
                    out.push((ti, sample));
                }
            }
        }
        m.probes_sent.add(sent);
        m.answered.add(answered);
        m.timed_out.add(timed_out);
        m.mismatched.add(mism);
        m.lost.add(lost);
        m.tasks_skipped.add(skipped);
        out
    }

    /// Fluid fast path: synthesize the dense min-per-bin series each end of
    /// each task would exhibit over `[from, to)`, without per-probe work.
    ///
    /// Paths are resolved once at `from` (the caller re-synthesizes per
    /// bdrmap cycle, mirroring the production probing-state update cadence).
    pub fn synthesize_window(
        &self,
        net: &Network,
        from: SimTime,
        to: SimTime,
        bin_secs: i64,
    ) -> Vec<TaskSeries> {
        synthesize(net, &self.vp, &self.tasks, from, to, bin_secs)
    }
}

/// Dense per-bin series for one task.
#[derive(Debug, Clone)]
pub struct TaskSeries {
    pub near_ip: Ipv4,
    pub far_ip: Ipv4,
    pub link_label: String,
    pub from: SimTime,
    pub bin_secs: i64,
    pub near: Vec<Option<f64>>,
    pub far: Vec<Option<f64>>,
}

/// Synthesize one task's series (see [`TslpProber::synthesize_window`]).
pub fn synthesize_task(
    net: &Network,
    vp: &VpHandle,
    task: &TslpTask,
    from: SimTime,
    to: SimTime,
    bin_secs: i64,
) -> TaskSeries {
    let mut series = synthesize(net, vp, std::slice::from_ref(task), from, to, bin_secs);
    series.pop().expect("one series per task")
}

/// Window span whose link columns are held at once. A week of 900 s bins
/// keeps the columns of an average planet-20k VP (173 link directions) near
/// 1.9 MB; its whole 60-day study window would take about 16 MB per worker.
const CHUNK_SECS: i64 = 7 * SECS_PER_DAY;

/// One resolved probe path of a task, as the column engine folds it.
struct ColPath {
    end: End,
    /// Destinations of the task that share this exact route.
    mult: i32,
    pp: ProbePath,
    /// Its links' column indices in `route`, in route order: forward, then
    /// reply.
    cols: Range<usize>,
}

/// TSLP's reduction of the column engine ([`fold_paths`]): did at least
/// one of a bin's probes get through? If so the bin holds the min RTT.
fn synthesize(
    net: &Network,
    vp: &VpHandle,
    tasks: &[TslpTask],
    from: SimTime,
    to: SimTime,
    bin_secs: i64,
) -> Vec<TaskSeries> {
    assert!(bin_secs % ROUND_SECS == 0, "bin must be a multiple of the probing round");
    crate::obs::metrics().synth_tasks.add(tasks.len() as u64);
    let nbins = bin_count(from, to, bin_secs);
    let mut series: Vec<TaskSeries> = tasks
        .iter()
        .map(|task| TaskSeries {
            near_ip: task.near_ip,
            far_ip: task.far_ip,
            link_label: task.link_label(),
            from,
            bin_secs,
            near: vec![None; nbins],
            far: vec![None; nbins],
        })
        .collect();
    let vp_stream = noise::mix(vp.name.bytes().fold(0u64, |a, b| a.wrapping_mul(31) + b as u64));
    // The response draw's `mix(b)`, shared by every (task, end).
    let draw: Vec<u64> = (0..nbins as u64).map(noise::mix).collect();
    let (offered_pps, probes) = (1.0 / ROUND_SECS as f64, (bin_secs / ROUND_SECS) as i32);
    fold_paths(net, vp, tasks, from, to, bin_secs, offered_pps, probes, |ti, end, bins, best, miss| {
        let s = &mut series[ti];
        let stream = vp_stream ^ ((s.far_ip.0 as u64) << 8) ^ matches!(end, End::Far) as u64;
        let out = if end == End::Near { &mut s.near } else { &mut s.far };
        for (i, &mb) in draw[bins.clone()].iter().enumerate() {
            if !noise::bernoulli_mixed(net.seed ^ 0x7515, stream, mb, miss[i]) {
                out[bins.start + i] = Some(best[i]);
            }
        }
    });
    series
}

/// Bins of `bin_secs` that cover `[from, to)`.
pub(crate) fn bin_count(from: SimTime, to: SimTime, bin_secs: i64) -> usize {
    assert!(to >= from, "synthesis window ends at {to}, before it starts at {from}");
    (((to - from) + bin_secs - 1) / bin_secs) as usize
}

/// The column engine behind TSLP synthesis ([`TslpProber::synthesize_window`],
/// [`synthesize_task`]) and loss synthesis
/// ([`LossProber::synthesize_window`](crate::LossProber::synthesize_window)).
///
/// Resolves each task's probe paths at `from` and folds each (task, end)
/// with a path over the bins of `[from, to)`, a chunk at a time: `reduce`
/// gets the task's index, the end, the chunk's bins and, per bin, `best`,
/// the minimum RTT over the end's paths, and `miss`, the probability that
/// none of `probes` probes per path (per destination sharing it) got an
/// answer, each offered at `offered_pps` to its responder.
///
/// Each distinct (link, direction) the VP's paths cross gets one column:
/// its queue delay `q` and delivery factor `f` (0 where the link is down,
/// else `1 − loss − extra loss`, floored at 0) per bin. A path's minimum
/// RTT and delivery probability are its columns folded in route order from
/// `base_ms` plus the clock skew and 1.0 — the order the per-bin walk adds
/// and multiplies in, so every value is bit for bit what it gives
/// (`tests/fluid_columns.rs`).
///
/// Columns are filled a [`CHUNK_SECS`] span at a time. Per chunk:
/// - one [`BinColumn`] holds the hash terms that depend only on the bin
///   (demand noise and queue jitter's `mix(bin)`), so each link's column
///   pays only its own seeded mixes ([`Network::link_states_into`]);
/// - fault and responder queries are piecewise constant in time, so each
///   is asked once per run of bins over which it cannot change
///   ([`FaultSchedule::stable_until`](manic_netsim::FaultSchedule::stable_until),
///   `ProbePath::responder_stable_until`) and its answer fills the run: a
///   link's `link_blocked`/`extra_loss`, a path's clock skew and its
///   responder's probability. On an empty schedule a run is the whole
///   chunk, but for a flaky responder's window edges.
///
/// Planet-20k's 60-day study (200 VPs, 89.9 M bins) synthesizes in 2.4 s
/// on 2 shared vCPUs, against 3.8 s with per-column hashes and per-bin
/// queries; under `FaultSchedule::chaos(0.5)` in 3.0 s, against 9.4 s.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fold_paths(
    net: &Network,
    vp: &VpHandle,
    tasks: &[TslpTask],
    from: SimTime,
    to: SimTime,
    bin_secs: i64,
    offered_pps: f64,
    probes: i32,
    mut reduce: impl FnMut(usize, End, Range<usize>, &[f64], &[f64]),
) {
    let nbins = bin_count(from, to, bin_secs);
    let mut links: Vec<(LinkId, Direction)> = Vec::new();
    let mut col_of: HashMap<(LinkId, Direction), usize> = HashMap::new();
    let mut route: Vec<usize> = Vec::new();
    let mut paths: Vec<ColPath> = Vec::new();
    // Each task's paths, as a range of `paths`.
    let mut spans: Vec<Range<usize>> = Vec::with_capacity(tasks.len());
    // Resolve the path per destination and end, deduplicating identical
    // paths within a task (the three destinations of a task normally share
    // the TTL-limited path prefix, so only the multiplicity differs).
    for task in tasks {
        let first = paths.len();
        for dest in &task.dests {
            for (end, ttl, expect) in [
                (End::Near, dest.near_ttl, task.near_ip),
                (End::Far, dest.far_ttl, task.far_ip),
            ] {
                let pp = probe_path(net, vp, dest.dst, ttl, task.flow_id, from);
                let Some(pp) = pp.filter(|p| p.route.responder_addr == expect) else { continue };
                match paths[first..].iter_mut().find(|p| p.end == end && p.pp.route == pp.route) {
                    Some(existing) => existing.mult += 1,
                    None => {
                        let start = route.len();
                        for &ld in pp.route.forward.iter().chain(&pp.route.reply) {
                            route.push(*col_of.entry(ld).or_insert_with(|| {
                                links.push(ld);
                                links.len() - 1
                            }));
                        }
                        paths.push(ColPath { end, mult: 1, pp, cols: start..route.len() });
                    }
                }
            }
        }
        spans.push(first..paths.len());
    }
    let chunk = ((CHUNK_SECS / bin_secs) as usize).clamp(1, nbins.max(1));
    // Column `c` of a chunk is `q[c * chunk..][..n]` (and the same in `f`).
    let (mut q, mut f) = (vec![0.0; links.len() * chunk], vec![0.0; links.len() * chunk]);
    let (mut rtt, mut p) = (vec![0.0; chunk], vec![0.0; chunk]);
    let (mut best, mut miss) = (vec![0.0; chunk], vec![0.0; chunk]);
    let mut bins = BinColumn::default();
    for b0 in (0..nbins).step_by(chunk) {
        let n = chunk.min(nbins - b0);
        bins.fill(from + b0 as i64 * bin_secs + bin_secs / 2, bin_secs, n);
        for (c, &(l, d)) in links.iter().enumerate() {
            let (qc, fc) = (&mut q[c * chunk..][..n], &mut f[c * chunk..][..n]);
            net.link_states_into(l, d, &bins, qc, fc);
            // Loss becomes the delivery factor in place.
            for (run, t) in bins.runs(|t| net.fault.stable_until(&net.topo, FaultScope::Link(l), t)) {
                if net.fault.link_blocked(&net.topo, l, t) {
                    fc[run].fill(0.0);
                } else {
                    let extra = net.fault.extra_loss(l, t);
                    for x in &mut fc[run] {
                        *x = (1.0 - *x - extra).max(0.0);
                    }
                }
            }
        }
        for (ti, span) in spans.iter().enumerate() {
            for end in [End::Near, End::Far] {
                let mut any_path = false;
                best[..n].fill(f64::INFINITY);
                miss[..n].fill(1.0);
                for path in paths[span.clone()].iter().filter(|c| c.end == end) {
                    any_path = true;
                    let pp = &path.pp;
                    let src = FaultScope::Router(pp.src);
                    for (run, t) in bins.runs(|t| net.fault.stable_until(&net.topo, src, t)) {
                        rtt[run.clone()].fill(pp.base_ms + net.fault.clock_skew_ms(pp.src, t));
                        p[run].fill(1.0);
                    }
                    for &c in &route[path.cols.clone()] {
                        let (qc, fc) = (&q[c * chunk..][..n], &f[c * chunk..][..n]);
                        for (((r, pr), qi), fi) in rtt[..n].iter_mut().zip(&mut p[..n]).zip(qc).zip(fc) {
                            *r += qi;
                            *pr *= fi;
                        }
                    }
                    let k = probes * path.mult;
                    for (run, t) in bins.runs(|t| pp.responder_stable_until(net, t)) {
                        let rp = pp.responder_prob(net, t, offered_pps);
                        for i in run {
                            miss[i] *= (1.0 - p[i] * rp).powi(k);
                            best[i] = best[i].min(rtt[i]);
                        }
                    }
                }
                if any_path {
                    reduce(ti, end, b0..b0 + n, &best[..n], &miss[..n]);
                }
            }
        }
    }
}

/// The tsdb series key for one (vp, link, end).
pub fn series_key(vp: &str, task: &TslpTask, end: End) -> SeriesKey {
    SeriesKey::new(
        "tslp",
        TagSet::from_pairs([
            ("vp", vp.to_string()),
            ("link", task.link_label()),
            ("end", end.tag().to_string()),
        ]),
    )
}

/// Build TSLP tasks from traceroutes, given the inferred interdomain links.
///
/// `links` are `(near_ip, far_ip)` pairs from border mapping;
/// `in_neighbor_space(dst, far_ip)` says whether a destination lies in the
/// link neighbor's address space (preferred, §3.1).
pub fn select_targets(
    traces: &[Traceroute],
    links: &[(Ipv4, Ipv4)],
    in_neighbor_space: impl Fn(Ipv4, Ipv4) -> bool,
) -> Vec<TslpTask> {
    // `(addr, trace, hop)` for the first hop at which each trace saw each
    // address, sorted — so a link looks only at the traces through its two
    // ends, not at every hop of every trace.
    let mut seen = Vec::with_capacity(traces.iter().map(|tr| tr.hops.len()).sum());
    for (ti, tr) in traces.iter().enumerate() {
        seen.extend(tr.hops.iter().enumerate().filter_map(|(hi, h)| Some((h.addr?, ti, hi))));
    }
    seen.sort_unstable();
    seen.dedup_by_key(|&mut (addr, ti, _)| (addr, ti));
    let seen_at = |addr: Ipv4| {
        let from = seen.partition_point(|e| e.0 < addr);
        &seen[from..from + seen[from..].partition_point(|e| e.0 == addr)]
    };
    let mut tasks = Vec::new();
    for &(near_ip, far_ip) in links {
        let mut preferred: Vec<TslpDest> = Vec::new();
        let mut fallback: Vec<TslpDest> = Vec::new();
        let mut flow_id = None;
        let fars = seen_at(far_ip);
        for &(_, ti, ni) in seen_at(near_ip) {
            // The far end must first show up on the very next hop.
            let Ok(at) = fars.binary_search_by_key(&ti, |e| e.1) else { continue };
            let fi = fars[at].2;
            if fi != ni + 1 {
                continue;
            }
            let tr = &traces[ti];
            let dest = TslpDest {
                dst: tr.dst,
                near_ttl: tr.hops[ni].ttl,
                far_ttl: tr.hops[fi].ttl,
            };
            flow_id.get_or_insert(tr.flow_id);
            if in_neighbor_space(tr.dst, far_ip) {
                preferred.push(dest);
            } else {
                fallback.push(dest);
            }
        }
        let mut dests = preferred;
        dests.extend(fallback);
        dests.dedup_by_key(|d| d.dst);
        dests.truncate(3);
        if dests.is_empty() {
            // The link stays unprobed this cycle — account for it instead of
            // dropping it silently.
            crate::obs::metrics().links_without_dests.inc();
        } else {
            tasks.push(TslpTask {
                near_ip,
                far_ip,
                dests,
                flow_id: flow_id.unwrap_or(((near_ip.0 ^ far_ip.0) & 0xFFFF) as u16),
            });
        }
    }
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(ip: &str) -> Ipv4 {
        ip.parse().unwrap()
    }

    fn mk_trace(dst: &str, hops: &[&str]) -> Traceroute {
        Traceroute {
            dst: d(dst),
            flow_id: 7,
            t: 0,
            hops: hops
                .iter()
                .enumerate()
                .map(|(i, h)| crate::traceroute::TracerouteHop {
                    ttl: (i + 1) as u8,
                    addr: if h.is_empty() { None } else { Some(d(h)) },
                    rtt_ms: Some(1.0),
                })
                .collect(),
            reached: true,
        }
    }

    #[test]
    fn select_prefers_neighbor_space() {
        let near = "10.0.1.9";
        let far = "10.1.200.2";
        let traces = vec![
            mk_trace("10.9.0.1", &["10.0.0.1", near, far, "10.9.0.1"]), // not neighbor space
            mk_trace("10.1.64.1", &["10.0.0.1", near, far, "10.1.64.1"]), // neighbor space
        ];
        let tasks = select_targets(&traces, &[(d(near), d(far))], |dst, _| {
            dst.octets()[1] == 1
        });
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].dests[0].dst, d("10.1.64.1"), "neighbor-space dest first");
        assert_eq!(tasks[0].dests.len(), 2);
        assert_eq!(tasks[0].dests[0].near_ttl, 2);
        assert_eq!(tasks[0].dests[0].far_ttl, 3);
    }

    #[test]
    fn select_requires_adjacent_hops() {
        let traces = vec![mk_trace(
            "10.9.0.1",
            &["10.0.0.1", "10.0.1.9", "10.5.5.5", "10.1.200.2", "10.9.0.1"],
        )];
        let tasks =
            select_targets(&traces, &[(d("10.0.1.9"), d("10.1.200.2"))], |_, _| false);
        assert!(tasks.is_empty(), "non-adjacent near/far must not qualify");
    }

    #[test]
    fn select_caps_at_three() {
        let near = "10.0.1.9";
        let far = "10.1.200.2";
        let traces: Vec<Traceroute> = (0..6)
            .map(|i| mk_trace(&format!("10.1.64.{i}"), &["10.0.0.1", near, far, &format!("10.1.64.{i}")]))
            .collect();
        let tasks = select_targets(&traces, &[(d(near), d(far))], |_, _| true);
        assert_eq!(tasks[0].dests.len(), 3);
    }

    #[test]
    fn update_targets_keeps_stable_dests() {
        let vp = VpHandle { name: "vp".into(), router: manic_netsim::RouterId(0), addr: d("10.0.0.2") };
        let mut prober = TslpProber::new(vp, 0);
        let mk = |dsts: &[&str]| TslpTask {
            near_ip: d("10.0.1.9"),
            far_ip: d("10.1.200.2"),
            dests: dsts
                .iter()
                .map(|s| TslpDest { dst: d(s), near_ttl: 2, far_ttl: 3 })
                .collect(),
            flow_id: 7,
        };
        prober.update_targets(vec![mk(&["10.1.64.1", "10.1.64.2", "10.1.64.3"])]);
        // New cycle offers different candidates, with 64.2 still visible.
        prober.update_targets(vec![mk(&["10.1.64.9", "10.1.64.2", "10.1.64.8"])]);
        let dests: Vec<Ipv4> = prober.tasks[0].dests.iter().map(|d| d.dst).collect();
        // 64.2 survives (and stays ordered before the new ones it precedes).
        assert!(dests.contains(&d("10.1.64.2")));
        assert_eq!(dests.len(), 3);
        assert_eq!(prober.tasks[0].flow_id, 7, "flow id stable across cycles");
    }

    #[test]
    #[should_panic(expected = "synthesis window ends at 0, before it starts at 1800")]
    fn synthesize_refuses_a_reversed_window() {
        let w = manic_scenario::worlds::toy(1);
        let vp = w.vp("acme-nyc");
        let vp = VpHandle { name: vp.name.clone(), router: vp.router, addr: vp.addr };
        // Two bins back: the bin count would be negative.
        TslpProber::new(vp, 0).synthesize_window(&w.net, 1800, 0, 900);
    }

    #[test]
    fn series_key_shape() {
        let task = TslpTask {
            near_ip: d("10.0.1.9"),
            far_ip: d("10.1.200.2"),
            dests: vec![],
            flow_id: 1,
        };
        let k = series_key("acme-nyc", &task, End::Far);
        assert_eq!(k.to_string(), "tslp,end=far,link=10.1.200.2,vp=acme-nyc");
    }
}
