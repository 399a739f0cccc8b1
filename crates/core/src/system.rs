//! System orchestration: VPs, probing state, measurement scheduling.

use crate::health::{Backoff, HealthState, TaskHealth, VpSupervisor};
use manic_bdrmap::{infer, BdrmapResult};
use manic_inference::{detect_level_shifts_masked, LevelShiftConfig, DEFAULT_REJECT};
use manic_netsim::time::SimTime;
use manic_netsim::{Ipv4, SimState};
use manic_probing::loss::LossTarget;
use manic_probing::tslp::{select_targets, End, TslpProber, ROUND_SECS};
use manic_probing::{ally_test, trace, LossProber, Traceroute, VpHandle};
use manic_scenario::World;
use manic_tsdb::{quality, Aggregate, SeriesSlot, Store};
use std::collections::HashMap;

/// Days between bdrmap cycles (the paper: a full cycle takes 1-3 days).
pub(crate) const BDRMAP_CYCLE_DAYS: i64 = 2;
/// Maximum links under concurrent loss probing (budget bound).
const MAX_LOSS_TARGETS: usize = 30;
/// Traceroute attempts per hop in a bdrmap cycle.
const TRACE_ATTEMPTS: u32 = 2;

/// System-wide configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Level-shift configuration for reactive loss triggering (§3.3).
    pub levelshift: LevelShiftConfig,
    /// Reactive probing-set updates (§3.2's future work, implemented): when
    /// a task's far end stops answering from the expected interface for
    /// this many consecutive rounds (its `TaskHealth::dark_rounds`),
    /// re-run the VP's bdrmap cycle immediately instead of waiting for the
    /// scheduled one. Zero disables.
    pub reactive_mismatch_rounds: u32,
    /// Worker threads for the round engine. 1 = serial; anything higher
    /// fans each round's VPs out across that many threads. Every value
    /// produces byte-identical stores (see DESIGN.md §5g), so this is purely
    /// a throughput knob.
    pub threads: usize,
    /// Length of each task's incremental [`manic_inference::LinkSummary`]
    /// window, in five-minute bins (8640 = 30 days — the longest window
    /// the reactive level-shift path analyzes; a summary only stores the
    /// bins since its first sample). Detection windows inside it are
    /// served without rescanning the store.
    pub summary_window_bins: usize,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            levelshift: LevelShiftConfig::default(),
            reactive_mismatch_rounds: 3,
            threads: 1,
            summary_window_bins: 8640,
        }
    }
}

/// Per-VP runtime state.
pub struct VpRuntime {
    pub handle: VpHandle,
    pub asn: manic_netsim::AsNumber,
    pub tslp: TslpProber,
    pub loss: LossProber,
    /// Simulation state (rate limiter buckets etc.) for this VP's TSLP and
    /// loss probes; a bdrmap cycle runs on a [`SimState::fork`] of it.
    pub sim: SimState,
    /// Latest border-mapping result.
    pub bdrmap: Option<BdrmapResult>,
    /// Incremental far-end series summaries, one per probing task, updated
    /// from each round's committed staged ops (see
    /// [`manic_inference::LinkSummary`]). Created lazily at commit time by
    /// store backfill, so they never need checkpointing.
    pub summaries: std::collections::HashMap<(Ipv4, Ipv4), manic_inference::LinkSummary>,
    /// The store slots of each task's `[near, far]` series, index-aligned
    /// with `tslp.tasks`, so the commit writes without hashing a key.
    /// Emptied whenever a task set is installed (a bdrmap cycle, a
    /// checkpoint restore) and resolved by the next commit
    /// ([`Self::resolve_slots`]): a cycle that no round follows — the
    /// longitudinal study's — adds nothing to the store.
    pub(crate) slots: Vec<[SeriesSlot; 2]>,
    /// When the probing set was last refreshed.
    pub last_cycle: Option<SimTime>,
    /// Per-task health records — machine state, dark-round count and
    /// quarantine backoff — keyed by (near, far). Reset on every bdrmap
    /// cycle (a fresh probing set gets a fresh chance).
    pub health: std::collections::HashMap<(Ipv4, Ipv4), TaskHealth>,
    /// Bounded-retry schedule for failed (empty) bdrmap cycles
    /// (`health::CYCLE_BACKOFF`).
    pub cycle_backoff: Backoff,
    /// Worker supervision: strikes from caught panics, and the quarantine
    /// they impose.
    pub supervisor: VpSupervisor,
    /// Per-task outcome flags of the round in progress, reused across
    /// rounds (see `System::round_with_health`).
    pub(crate) round_flags: Vec<u8>,
    /// Whether the VP is currently hosted. §3: "Due to the volunteer-based
    /// nature of Ark VP hosting, there is churn in the set of usable VPs"
    /// (86 over the study, 63 by December 2017). Retired VPs stop probing;
    /// their historical data stays in the store.
    pub active: bool,
}

impl VpRuntime {
    /// Resolve every task's near and far series key
    /// ([`TslpProber::key`]) to its slot in `store`. Creating a slot changes
    /// nothing a store reader sees.
    pub(crate) fn resolve_slots(&mut self, store: &Store) {
        let tslp = &self.tslp;
        self.slots.clear();
        self.slots.extend(
            (0..tslp.tasks.len())
                .map(|ti| [End::Near, End::Far].map(|end| store.slot(tslp.key(ti, end)))),
        );
    }

    /// The store slot of task `ti`'s `end` series: the series
    /// [`TslpProber::key`]`(ti, end)` names, in the system's store. Panics
    /// until a commit has resolved the task set installed last.
    pub fn slot(&self, ti: usize, end: End) -> SeriesSlot {
        self.slots[ti][end.index()]
    }
}

/// One dashboard row: the current state of one probed interdomain link.
#[derive(Debug, Clone)]
pub struct LinkStatus {
    pub vp: String,
    pub near_ip: Ipv4,
    pub far_ip: Ipv4,
    pub neighbor: Option<manic_netsim::AsNumber>,
    pub rel: manic_bdrmap::infer::LinkRel,
    /// Most recent far-end min-RTT sample in the lookback window, ms.
    pub far_latest_ms: Option<f64>,
    /// Minimum far-end RTT over the lookback window (the baseline).
    pub far_baseline_ms: Option<f64>,
    pub near_latest_ms: Option<f64>,
    /// Latest far-end sample exceeds baseline + 7 ms (the §4.2 elevation
    /// criterion applied live).
    pub elevated: bool,
}

/// One row of the serving layer's health report: the health-machine state
/// of one probing task (tasks the machine has never had to act on report
/// `Healthy`).
#[derive(Debug, Clone)]
pub struct TaskHealthStatus {
    pub vp: String,
    pub vp_active: bool,
    pub near_ip: Ipv4,
    pub far_ip: Ipv4,
    pub state: HealthState,
}

/// The assembled measurement system.
pub struct System {
    pub world: World,
    /// Shared so a serving layer can read series concurrently with the
    /// measurement loop; `Store`'s methods take `&self`, so existing
    /// `sys.store.…` call sites are unaffected by the `Arc`.
    pub store: std::sync::Arc<Store>,
    pub vps: Vec<VpRuntime>,
    pub cfg: SystemConfig,
    /// Provenance of the world this system runs — `(library name,
    /// determinism fingerprint)` — surfaced by the serving layer's health
    /// report. `None` for worlds built outside the library resolver.
    pub world_label: Option<(String, u64)>,
}

impl System {
    /// Build a system over a compiled world, one runtime per VP.
    pub fn new(world: World, cfg: SystemConfig) -> Self {
        let vps = world
            .vps
            .iter()
            .map(|vp| VpRuntime {
                handle: VpHandle { name: vp.name.clone(), router: vp.router, addr: vp.addr },
                asn: vp.asn,
                tslp: TslpProber::new(
                    VpHandle { name: vp.name.clone(), router: vp.router, addr: vp.addr },
                    0,
                ),
                loss: LossProber::new(
                    VpHandle { name: vp.name.clone(), router: vp.router, addr: vp.addr },
                    0,
                ),
                sim: SimState::new(),
                bdrmap: None,
                summaries: std::collections::HashMap::new(),
                slots: Vec::new(),
                last_cycle: None,
                health: std::collections::HashMap::new(),
                cycle_backoff: Backoff::default(),
                supervisor: VpSupervisor::default(),
                round_flags: Vec::new(),
                active: true,
            })
            .collect();
        // Stripe the store to the world's scale: the far-link keyspace
        // grows with the ground-truth roster (near/far x tslp/loss series
        // per observed link), so planetary worlds get wider stripes while
        // the hand-built worlds keep the classic layout.
        let shards = manic_tsdb::recommended_shards(4 * world.gt_links.len());
        System {
            world,
            store: std::sync::Arc::new(Store::with_shards(shards)),
            vps,
            cfg,
            world_label: None,
        }
    }

    /// Attach the world-provenance label surfaced in health reports.
    pub fn set_world_label(&mut self, name: &str, fingerprint: u64) {
        self.world_label = Some((name.to_string(), fingerprint));
    }

    /// Run one full bdrmap cycle for VP `vi` at time `t`: traceroute to every
    /// routed prefix, alias resolution, border inference, probing-set update.
    pub fn run_bdrmap_cycle(&mut self, vi: usize, t: SimTime) -> usize {
        Self::bdrmap_cycle_for(&self.world, &mut self.vps[vi], t)
    }

    /// [`Self::run_bdrmap_cycle`] against explicit borrows, so the engine can
    /// drive one VP's cycle from a worker thread while other VPs run theirs.
    /// Touches only `vp`, the read-only world, and process-wide obs sinks —
    /// every store-visible effect goes through the staged commit path.
    pub(crate) fn bdrmap_cycle_for(
        world: &World,
        vp: &mut VpRuntime,
        t: SimTime,
    ) -> usize {
        // Traceroute to every routed prefix (two destinations each for flow
        // diversity across parallel links).
        // Traces are paced across the cycle (production bdrmap spreads a
        // full cycle over 1-3 days at 100 pps), so token-bucket ICMP rate
        // limiters recover between visits instead of blacking out whole
        // swaths of the topology. That clock runs hours ahead of the TSLP
        // rounds, so the cycle is a driver of its own, like the Ally oracle
        // below: its buckets are its own, and only the noise-draw counter
        // goes back to the VP.
        let mut sim = vp.sim.fork();
        let mut traces: Vec<Traceroute> = Vec::new();
        let mut when = t;
        for (i, &(_, asn)) in world.artifacts.routed_prefixes().iter().enumerate() {
            if asn == vp.asn {
                continue;
            }
            for k in 0..2u32 {
                let dst = world.host_addr(asn, k);
                let flow = (i as u16).wrapping_mul(7).wrapping_add(k as u16);
                traces.push(trace(
                    &world.net,
                    &mut sim,
                    &vp.handle,
                    dst,
                    flow,
                    when,
                    40,
                    TRACE_ATTEMPTS,
                ));
                when += 30;
            }
        }
        vp.sim.join(sim);
        // Border inference with a live Ally oracle.
        let net = &world.net;
        let handle = vp.handle.clone();
        let mut alias_state = SimState::new();
        // Ally probes are as lossy as any other probe; retry a few times
        // (spaced out, like scamper) before reporting indeterminate.
        let mut alias_at = t;
        let mut oracle = |a: Ipv4, b: Ipv4| {
            for _ in 0..3 {
                alias_at += 5;
                if let Some(v) = ally_test(net, &mut alias_state, &handle, a, b, alias_at) {
                    return Some(v);
                }
            }
            // All retries exhausted: the pair stays ungrouped this cycle.
            crate::obs::metrics().ally_indeterminate.inc();
            None
        };
        let result = infer(&traces, &world.artifacts, vp.asn, &mut oracle);

        // TSLP probing-state update (§3.1): keep stable destinations.
        let links: Vec<(Ipv4, Ipv4)> =
            result.links.iter().map(|l| (l.near_ip, l.far_ip)).collect();
        let artifacts = &world.artifacts;
        // Neighbor behind each far address: of the links sharing one, the
        // first in link order speaks for it.
        let mut far_as_of: HashMap<Ipv4, manic_netsim::AsNumber> = HashMap::new();
        for l in &result.links {
            far_as_of.entry(l.far_ip).or_insert(l.far_as);
        }
        let tasks = select_targets(&traces, &links, |dst, far_ip| {
            match (artifacts.origin(dst), far_as_of.get(&far_ip)) {
                (Some(o), Some(&n)) => o == n,
                _ => false,
            }
        });
        // Diff against the previous probing set: links entering and leaving
        // the VP's view are the paper's "probing-state stability" signal.
        let old_keys: std::collections::HashSet<(Ipv4, Ipv4)> =
            vp.tslp.tasks.iter().map(|k| (k.near_ip, k.far_ip)).collect();
        let new_keys: std::collections::HashSet<(Ipv4, Ipv4)> =
            tasks.iter().map(|k| (k.near_ip, k.far_ip)).collect();
        let discovered = new_keys.difference(&old_keys).count();
        let lost = old_keys.difference(&new_keys).count();
        vp.tslp.update_targets(tasks);
        vp.slots.clear();
        vp.bdrmap = Some(result);
        // Summaries follow the probing set: tasks that survived re-selection
        // keep their ring (series continuity), dropped tasks free theirs,
        // new tasks backfill lazily at the next commit.
        vp.summaries.retain(|k, _| new_keys.contains(k));
        vp.last_cycle = Some(t);
        // A fresh probing set clears all health state, dark counts included:
        // retired tasks that survived re-selection get probed again from
        // scratch.
        vp.health.clear();
        let m = crate::obs::metrics();
        m.bdrmap_cycles.inc();
        m.bdrmap_links_discovered.add(discovered as u64);
        m.bdrmap_links_lost.add(lost as u64);
        manic_obs::event!(
            manic_obs::INFO, "core", "bdrmap_cycle", t,
            vp = vp.handle.name.as_str(),
            traces = traces.len(),
            links = vp.tslp.tasks.len(),
            discovered = discovered,
            lost = lost,
        );
        vp.tslp.tasks.len()
    }

    /// Run packet-mode measurement from `from` to `to`: bdrmap cycles on
    /// their cadence and a TSLP round every five minutes, all landing in the
    /// tsdb. Returns the number of TSLP rounds executed.
    ///
    /// Hardened control loop: VP retirement is polled from the fault
    /// schedule, empty bdrmap cycles retry on an exponential backoff instead
    /// of waiting a full cycle, unhealthy tasks are skipped per their health
    /// machine (their windows annotated `QUARANTINED|GAP`), and suspect
    /// sample windows (renumbered responder, far-dark-while-near-fine) are
    /// annotated so inference masks them.
    ///
    /// With `cfg.threads > 1` each round's VPs are fanned out across that
    /// many threads (`crate::engine`); the store contents are byte-identical
    /// for every thread count.
    pub fn run_packet_mode(&mut self, from: SimTime, to: SimTime) -> usize {
        crate::engine::run_rounds(self, from, to)
    }

    /// One TSLP round for one VP under the health machine: skip tasks whose
    /// machine says not to probe, fold far-end outcomes back in, and stage
    /// the round's samples and quality annotations into `stage` — nothing is
    /// written to the store here, so the engine can run VPs concurrently and
    /// commit their staged results in VP-index order.
    pub(crate) fn round_with_health(
        vp: &mut VpRuntime,
        net: &manic_netsim::Network,
        cfg: &SystemConfig,
        t: SimTime,
        stage: &mut crate::engine::StagedOps,
    ) {
        // What this round saw of each task, indexed like `vp.tslp.tasks`.
        const PROBE: u8 = 1;
        const FAR_SEEN: u8 = 1 << 1;
        const FAR_OK: u8 = 1 << 2;
        const NEAR_OK: u8 = 1 << 3;
        const FAR_MISMATCHED: u8 = 1 << 4;
        let flags = &mut vp.round_flags;
        flags.clear();
        flags.extend(vp.tslp.tasks.iter().map(|task| {
            let probe = vp
                .health
                .get(&(task.near_ip, task.far_ip))
                .is_none_or(|h| h.should_probe(t));
            if probe { PROBE } else { 0 }
        }));
        // Skipped tasks get their window flagged: a gap the prober chose.
        for (ti, &f) in flags.iter().enumerate() {
            if f & PROBE == 0 {
                stage.gap(ti, t);
            }
        }
        let samples =
            vp.tslp
                .probe_round_masked(net, &mut vp.sim, t, |ti| flags[ti] & PROBE != 0);
        for &(ti, s) in &samples {
            if let Some(rtt) = s.rtt_ms {
                stage.sample(ti, s.end, s.t, rtt);
            }
            let answered = s.rtt_ms.is_some();
            flags[ti] |= match s.end {
                End::Far => {
                    FAR_SEEN
                        | if answered { FAR_OK } else { 0 }
                        | if s.mismatched { FAR_MISMATCHED } else { 0 }
                }
                End::Near if answered => NEAR_OK,
                End::Near => 0,
            };
        }

        let mut refresh = false;
        for (ti, task) in vp.tslp.tasks.iter().enumerate() {
            let f = flags[ti];
            if f & FAR_SEEN == 0 {
                continue;
            }
            let ok = f & FAR_OK != 0;
            let key = (task.near_ip, task.far_ip);
            // Jitter stream per task so quarantined tasks re-probe
            // desynchronized rather than in lockstep bursts.
            let stream = task.far_ip.0 as u64 ^ ((task.near_ip.0 as u64) << 32);
            let h = vp.health.entry(key).or_default();
            let before = h.state;
            h.observe(ok, t, net.seed, stream);
            let after = h.state;
            // A task dark for long enough warrants a reactive bdrmap cycle.
            refresh |= cfg.reactive_mismatch_rounds > 0
                && h.dark_rounds >= cfg.reactive_mismatch_rounds;
            if after != before {
                crate::obs::metrics().health_transition(after).inc();
                let lvl = match after {
                    HealthState::Quarantined | HealthState::Retired => manic_obs::WARN,
                    _ => manic_obs::INFO,
                };
                manic_obs::event!(
                    lvl, "core", "health_transition", t,
                    vp = vp.handle.name.as_str(),
                    near = task.near_ip.to_string(),
                    far = task.far_ip.to_string(),
                    from = before.as_str(),
                    to = after.as_str(),
                );
            }
            if f & FAR_MISMATCHED != 0 {
                // Response from the wrong address: renumbering or a moved
                // route. Samples were already discarded; flag the window so
                // any adjacent inference treats it as untrustworthy.
                stage.annotate(ti, End::Far, t, t + ROUND_SECS, quality::RENUMBERED);
            } else if !ok && f & NEAR_OK != 0 {
                // Far end dark while the near end (same path prefix, same
                // probes) answers: the classic ICMP rate-limiting signature
                // (§5.2), not path loss.
                stage.annotate(ti, End::Far, t, t + ROUND_SECS, quality::SUSPECT_RATE_LIMITED);
            }
        }
        if refresh {
            // Reactive update (§3.2): refresh the probing set now.
            vp.last_cycle = None;
        }
    }

    /// §3.3 reactive selection: pick links whose far-end TSLP series shows a
    /// level shift within `[from, to)`, restricted to peers/providers (or
    /// any link when the relationship is unknown to the static list), and
    /// arm the loss prober with them.
    pub fn arm_reactive_loss(&mut self, vi: usize, from: SimTime, to: SimTime) -> usize {
        use manic_bdrmap::infer::LinkRel;
        let vp = &mut self.vps[vi];
        let mut targets = Vec::new();
        let Some(bdr) = &vp.bdrmap else { return 0 };
        // Dense-window scratch, reused across tasks (one allocation per
        // call instead of two per link).
        let mut bins: Vec<Option<f64>> = Vec::new();
        let mut qual: Vec<manic_tsdb::quality::QualityFlags> = Vec::new();
        for (ti, task) in vp.tslp.tasks.iter().enumerate() {
            let tkey = (task.near_ip, task.far_ip);
            let Some(link) = bdr.link(task.near_ip, task.far_ip) else { continue };
            if link.rel == LinkRel::Customer {
                continue; // §3.3: only peers and providers
            }
            let key = vp.tslp.key(ti, End::Far);
            // Serve the dense window from the task's incremental summary
            // when it covers `[from, to)`; fall back to a store rescan
            // otherwise (window predates the ring, or no commit has run
            // yet). The summary content is provably identical to the store
            // scan — checked here in debug builds on every served window.
            let served = match vp.summaries.get(&tkey) {
                Some(s) if s.can_serve(from, to) => {
                    s.dense_into(from, to, &mut bins, &mut qual);
                    true
                }
                _ => false,
            };
            if served {
                #[cfg(debug_assertions)]
                {
                    let store_bins =
                        self.store.downsample_dense(key, from, to, ROUND_SECS, Aggregate::Min);
                    let store_qual = self.store.quality_dense(key, from, to, ROUND_SECS);
                    debug_assert_eq!(
                        bins, store_bins,
                        "summary ring diverged from store (bins) for {key:?}"
                    );
                    debug_assert_eq!(
                        qual, store_qual,
                        "summary ring diverged from store (quality) for {key:?}"
                    );
                }
            } else {
                manic_inference::note_summary_fallback();
                self.store
                    .downsample_dense_into(key, from, to, ROUND_SECS, Aggregate::Min, &mut bins);
                self.store.quality_dense_into(key, from, to, ROUND_SECS, &mut qual);
            }
            // Quality-masked detection: windows the control loop flagged
            // (quarantine gaps, renumbering, suspected rate limiting) must
            // yield *no inference*, not a fabricated level shift.
            let shifts =
                detect_level_shifts_masked(&bins, &qual, DEFAULT_REJECT, &self.cfg.levelshift);
            // Audit every verdict — congested or not — with the evidence it
            // rests on, so `manic obs explain <far-ip>` can reconstruct it.
            let masked_bins = qual.iter().filter(|&&q| q & DEFAULT_REJECT != 0).count();
            let flags_in_force =
                qual.iter().fold(0, |acc, &q| acc | (q & DEFAULT_REJECT));
            let m = crate::obs::metrics();
            let mut evidence = vec![
                manic_obs::Evidence::new(
                    "masked_bins",
                    vec![
                        ("masked", manic_obs::Value::from(masked_bins)),
                        ("total", manic_obs::Value::from(bins.len())),
                    ],
                ),
                manic_obs::Evidence::new(
                    "quality_flags",
                    vec![("flags", manic_obs::Value::from(flags_in_force as u64))],
                ),
            ];
            for ep in &shifts {
                evidence.push(manic_obs::Evidence::new(
                    "level_shift",
                    vec![
                        ("start_t", manic_obs::Value::from(from + ep.start as i64 * ROUND_SECS)),
                        ("end_t", manic_obs::Value::from(from + ep.end as i64 * ROUND_SECS)),
                        ("duration_bins", manic_obs::Value::from(ep.end - ep.start)),
                        ("baseline_ms", manic_obs::Value::from(ep.baseline)),
                        ("level_ms", manic_obs::Value::from(ep.level)),
                    ],
                ));
            }
            let congested = !shifts.is_empty();
            if congested { m.verdicts_congested.inc() } else { m.verdicts_clean.inc() }
            manic_obs::audit().record(manic_obs::AuditRecord {
                t: to,
                vp: vp.handle.name.clone(),
                near: task.near_ip.to_string(),
                link: task.far_ip.to_string(),
                detector: "levelshift",
                congested,
                evidence,
            });
            if shifts.is_empty() {
                continue;
            }
            let Some(dest) = task.dests.first() else { continue };
            targets.push(LossTarget {
                near_ip: task.near_ip,
                far_ip: task.far_ip,
                dst: dest.dst,
                near_ttl: dest.near_ttl,
                far_ttl: dest.far_ttl,
                flow_id: task.flow_id,
            });
            if targets.len() >= MAX_LOSS_TARGETS {
                break;
            }
        }
        let n = targets.len();
        vp.loss.set_targets(targets);
        n
    }

    /// The run's verdicts: [`System::arm_reactive_loss`] over `[from, to)` on
    /// every VP, and the far IPs armed, as text, sorted and deduplicated.
    pub fn congested_far_ips(&mut self, from: SimTime, to: SimTime) -> Vec<String> {
        let mut out = Vec::new();
        for vi in 0..self.vps.len() {
            self.arm_reactive_loss(vi, from, to);
            out.extend(self.vps[vi].loss.targets.iter().map(|t| t.far_ip.to_string()));
        }
        out.sort();
        out.dedup();
        out
    }

    /// One row of the near-real-time link dashboard (the paper's Grafana
    /// front-end view, contribution 4). Records an `elevation` audit
    /// verdict per task — this is the interactive dashboard path.
    pub fn snapshot(&self, vi: usize, now: SimTime, lookback: SimTime) -> Vec<LinkStatus> {
        self.link_statuses(vi, now, lookback, true)
    }

    /// The dashboard rows of one VP, optionally without the audit-trail
    /// side effect. The serving layer rebuilds its read snapshot on a
    /// periodic cadence and must not flood the audit trail with one
    /// `elevation` record per link per rebuild; the interactive dashboard
    /// (`snapshot`) still records every verdict it shows.
    pub fn link_statuses(
        &self,
        vi: usize,
        now: SimTime,
        lookback: SimTime,
        record_audit: bool,
    ) -> Vec<LinkStatus> {
        use manic_bdrmap::infer::LinkRel;
        let vp = &self.vps[vi];
        let mut out = Vec::new();
        for (ti, task) in vp.tslp.tasks.iter().enumerate() {
            let read = |end: End| {
                let key = vp.tslp.key(ti, end);
                let pts = self.store.query(key, now - lookback, now + 1);
                let latest = pts.last().map(|p| p.v);
                let baseline = pts
                    .iter()
                    .map(|p| p.v)
                    .fold(f64::INFINITY, f64::min);
                (latest, baseline.is_finite().then_some(baseline))
            };
            let (far_latest, far_baseline) = read(End::Far);
            let (near_latest, _) = read(End::Near);
            let elevated = match (far_latest, far_baseline) {
                (Some(l), Some(b)) => l > b + 7.0,
                _ => false,
            };
            if record_audit {
                // Every dashboard verdict is auditable: record the live
                // §4.2 elevation evidence (latest vs. lookback baseline
                // + 7 ms).
                manic_obs::audit().record(manic_obs::AuditRecord {
                    t: now,
                    vp: vp.handle.name.clone(),
                    near: task.near_ip.to_string(),
                    link: task.far_ip.to_string(),
                    detector: "elevation",
                    congested: elevated,
                    evidence: vec![manic_obs::Evidence::new(
                        "elevation",
                        vec![
                            ("far_latest_ms", manic_obs::Value::from(far_latest.unwrap_or(f64::NAN))),
                            ("far_baseline_ms", manic_obs::Value::from(far_baseline.unwrap_or(f64::NAN))),
                            ("threshold_ms", manic_obs::Value::from(7.0)),
                            ("lookback_s", manic_obs::Value::from(lookback)),
                        ],
                    )],
                });
            }
            let rel = vp
                .bdrmap
                .as_ref()
                .and_then(|b| b.link(task.near_ip, task.far_ip))
                .map(|l| (l.far_as, l.rel));
            out.push(LinkStatus {
                vp: vp.handle.name.clone(),
                near_ip: task.near_ip,
                far_ip: task.far_ip,
                neighbor: rel.map(|(a, _)| a),
                rel: rel.map(|(_, r)| r).unwrap_or(LinkRel::Unknown),
                far_latest_ms: far_latest,
                far_baseline_ms: far_baseline,
                near_latest_ms: near_latest,
                elevated,
            });
        }
        out
    }

    /// Dashboard rows across every VP (active and retired — retired VPs'
    /// history remains queryable), with no audit side effects. This is the
    /// serving layer's snapshot-export entry point.
    pub fn all_link_statuses(&self, now: SimTime, lookback: SimTime) -> Vec<LinkStatus> {
        (0..self.vps.len())
            .flat_map(|vi| self.link_statuses(vi, now, lookback, false))
            .collect()
    }

    /// Health-machine state of every probing task across every VP. Tasks
    /// the machine never acted on report `Healthy`.
    pub fn health_report(&self) -> Vec<TaskHealthStatus> {
        let mut out = Vec::new();
        for vp in &self.vps {
            for task in &vp.tslp.tasks {
                let state = vp
                    .health
                    .get(&(task.near_ip, task.far_ip))
                    .map(|h| h.state)
                    .unwrap_or(HealthState::Healthy);
                out.push(TaskHealthStatus {
                    vp: vp.handle.name.clone(),
                    vp_active: vp.active,
                    near_ip: task.near_ip,
                    far_ip: task.far_ip,
                    state,
                });
            }
        }
        out
    }

    /// Retire a VP (host churn): it stops probing; its history remains.
    pub fn retire_vp(&mut self, vi: usize) {
        self.vps[vi].active = false;
    }

    /// Number of currently active VPs.
    pub fn active_vps(&self) -> usize {
        self.vps.iter().filter(|v| v.active).count()
    }

    /// Index of a VP by name.
    pub fn vp_index(&self, name: &str) -> usize {
        self.vps
            .iter()
            .position(|v| v.handle.name == name)
            .unwrap_or_else(|| panic!("unknown VP {name}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manic_netsim::time::{datetime_to_sim, Date};
    use manic_probing::tslp::series_key;
    use manic_scenario::worlds::{toy, toy_asns};

    #[test]
    fn bdrmap_cycle_builds_probing_state() {
        let mut sys = System::new(toy(1), SystemConfig::default());
        let n = sys.run_bdrmap_cycle(0, 0);
        assert!(n >= 3, "tasks for transit + 2 peers + customer, got {n}");
        let vp = &sys.vps[0];
        assert!(vp.bdrmap.is_some());
        // Every task has 1-3 destinations with far_ttl == near_ttl + 1.
        for task in &vp.tslp.tasks {
            assert!(!task.dests.is_empty() && task.dests.len() <= 3);
            for d in &task.dests {
                assert_eq!(d.far_ttl, d.near_ttl + 1);
            }
        }
    }

    #[test]
    fn packet_mode_fills_store() {
        let mut sys = System::new(toy(1), SystemConfig::default());
        let from = datetime_to_sim(Date::new(2016, 6, 7), 0, 0, 0);
        let rounds = sys.run_packet_mode(from, from + 3600);
        assert_eq!(rounds, 12);
        assert!(sys.store.series_count() > 0);
        // The far series of the congested link has ~1 sample per round per dest.
        let vp = &sys.vps[0];
        let gt = &sys.world.links_between(toy_asns::ACME, toy_asns::CDNCO)[0];
        let task = vp
            .tslp
            .tasks
            .iter()
            .find(|t| t.far_ip == gt.far_addr_from(toy_asns::ACME))
            .expect("task for the congested link");
        let key = series_key(&vp.handle.name, task, End::Far);
        let pts = sys.store.query(&key, from, from + 3600);
        assert!(pts.len() >= 12, "{} far samples", pts.len());
    }

    #[test]
    fn reactive_loss_arms_on_congested_link() {
        let mut sys = System::new(toy(1), SystemConfig::default());
        // Evening with the scripted 4h congestion window (9pm NYC = 02 UTC).
        let from = datetime_to_sim(Date::new(2016, 6, 7), 22, 0, 0);
        let to = from + 8 * 3600;
        sys.run_packet_mode(from, to);
        let n = sys.arm_reactive_loss(0, from, to);
        assert!(n >= 1, "congested peering should trigger loss probing");
        // The congested link is among the targets.
        let gt = &sys.world.links_between(toy_asns::ACME, toy_asns::CDNCO)[0];
        let far = gt.far_addr_from(toy_asns::ACME);
        assert!(sys.vps[0].loss.targets.iter().any(|t| t.far_ip == far));
    }

    #[test]
    fn snapshot_flags_the_congested_link_live() {
        let mut sys = System::new(toy(1), SystemConfig::default());
        // Evening: the cdnco peering is congested.
        let from = datetime_to_sim(Date::new(2016, 6, 7), 22, 0, 0);
        let to = from + 5 * 3600;
        sys.run_packet_mode(from, to);
        let rows = sys.snapshot(0, to - 300, 4 * 3600);
        assert!(!rows.is_empty());
        let gt = &sys.world.links_between(toy_asns::ACME, toy_asns::CDNCO)[0];
        let far = gt.far_addr_from(toy_asns::ACME);
        let hot = rows.iter().find(|r| r.far_ip == far).expect("dashboard row");
        assert!(hot.elevated, "{hot:?}");
        assert!(hot.far_latest_ms.unwrap() > hot.far_baseline_ms.unwrap() + 7.0);
        // The clean vidco peering is not elevated.
        let clean_far = sys.world.links_between(toy_asns::ACME, toy_asns::VIDCO)[0]
            .far_addr_from(toy_asns::ACME);
        if let Some(clean) = rows.iter().find(|r| r.far_ip == clean_far) {
            assert!(!clean.elevated, "{clean:?}");
        }
        // Relationship attribution present.
        assert_eq!(hot.neighbor, Some(toy_asns::CDNCO));
    }

    #[test]
    fn quiet_period_arms_nothing() {
        let mut sys = System::new(toy(1), SystemConfig::default());
        // 06:00-14:00 UTC = 1am-9am NYC: no congestion scripted.
        let from = datetime_to_sim(Date::new(2016, 6, 7), 6, 0, 0);
        let to = from + 8 * 3600;
        sys.run_packet_mode(from, to);
        let n = sys.arm_reactive_loss(0, from, to);
        assert_eq!(n, 0, "no level shifts in quiet hours");
    }
}
