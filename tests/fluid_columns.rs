//! The fluid fast path's column engine against the per-bin walks it
//! replaced.
//!
//! One engine evaluates each (link, direction) a VP's paths cross once per
//! bin into a column and folds every path from its columns in route order;
//! TSLP synthesis (`TslpProber::synthesize_window`) and loss synthesis
//! (`LossProber::synthesize_window`) each reduce its fold. The references
//! below are the bodies they replaced, kept verbatim: [`ref_rtt_and_prob`]
//! is the model of one path at one instant that `ProbePath::rtt_and_prob`
//! was, [`ref_synthesize_task`] calls it for every (end, path, bin) and
//! [`ref_loss_window`] for every (target, window, end). Engine and
//! references must agree bit for bit on random worlds
//! (`crates/netsim/tests/support/path_reference.rs`) whose links carry
//! random diurnal demand and whose routers are sometimes flaky responders,
//! with and without injected faults, over windows that start off midnight
//! and mostly cross a month boundary: TSLP at 300 s and 900 s bins over
//! windows that end inside a column chunk or past it, loss over windows
//! that always cross one. A further property holds each load model's
//! batched `utilization_into` to its pointwise `utilization`. The engine
//! reads each fault query once per run of bins up to
//! `FaultSchedule::stable_until`; a last property holds that bound to the
//! queries second by second.

#[path = "../crates/netsim/tests/support/path_reference.rs"]
mod reference;

use manic_netsim::noise::{self, BinColumn};
use manic_netsim::time::{month_start, SimTime, SECS_PER_DAY};
use manic_netsim::traffic::{ConstantLoad, DiurnalDemand, LoadModel, MonthScale};
use manic_netsim::{
    FaultEvent, FaultKind, FaultSchedule, FaultScope, IfaceId, Ipv4, LinkId, Network, ProbeSpec,
    RouterId, SimState,
};
use manic_probing::loss::{LossSample, LossTarget, PROBES_PER_SEC, WINDOW_SECS};
use manic_probing::tslp::{
    synthesize_task, End, TaskSeries, TslpDest, TslpProber, TslpTask, ROUND_SECS,
};
use manic_probing::{probe_path, LossProber, ProbePath, VpHandle};
use manic_scenario::worlds::{toy, toy_asns};
use proptest::prelude::*;
use reference::{random_world, RandomWorld, Rng, START};
use std::sync::Arc;

/// The responder's contribution to delivery probability, as
/// `ProbePath::responder_prob` computes it: ICMP profile behaviour plus
/// injected faults (silence, reboot blackout, renumbering).
fn ref_responder_prob(pp: &ProbePath, net: &Network, t: SimTime, offered_pps: f64) -> f64 {
    let (responder, addr) = (pp.route.responder, pp.route.responder_addr);
    if net.fault.icmp_suppressed(responder, t)
        || net.fault.silent_addr(&net.topo, addr, t)
        || net.fault.renumbered(&net.topo, addr, t) != addr
    {
        return 0.0;
    }
    let prof = &net.topo.router(responder).icmp;
    let mut p = 1.0 - prof.unresponsive_prob;
    if let Some(flaky) = prof.flaky {
        if flaky.is_flaky_now(net.seed, responder.0 as u64, t) {
            p *= 1.0 - flaky.drop_prob;
        }
    }
    if let Some((limit, _)) = net.icmp_rate_limit(responder, t) {
        if offered_pps > limit {
            p *= limit / offered_pps;
        }
    }
    p
}

/// The fluid model of a probe sent at `t`, in one pass over the path — the
/// body of the former `ProbePath::rtt_and_prob`:
///
/// * the minimum RTT it could observe: baseline plus the standing queue
///   delay on every link crossed in either direction;
/// * the probability that it yields a response: per-link delivery on
///   both path legs times the responder's steady-state ICMP response
///   probability under `offered_pps` probes per second directed at it.
fn ref_rtt_and_prob(pp: &ProbePath, net: &Network, t: SimTime, offered_pps: f64) -> (f64, f64) {
    let mut rtt = pp.base_ms + net.fault.clock_skew_ms(pp.src, t);
    let mut p = 1.0;
    for &(l, d) in pp.route.forward.iter().chain(&pp.route.reply) {
        let s = net.link_state(l, d, t);
        rtt += s.queue_ms;
        if net.fault.link_blocked(&net.topo, l, t) {
            p = 0.0;
        } else {
            p *= (1.0 - s.loss - net.fault.extra_loss(l, t)).max(0.0);
        }
    }
    (rtt, p * ref_responder_prob(pp, net, t, offered_pps))
}

/// The per-bin synthesis the column engine replaced, verbatim but for its
/// metrics counter.
fn ref_synthesize_task(
    net: &Network,
    vp: &VpHandle,
    task: &TslpTask,
    from: SimTime,
    to: SimTime,
    bin_secs: i64,
) -> TaskSeries {
    assert!(bin_secs % ROUND_SECS == 0, "bin must be a multiple of the probing round");
    let probes_per_bin = (bin_secs / ROUND_SECS) as i32;
    // Resolve the path per destination and end, deduplicating identical
    // paths (the three destinations of a task normally share the TTL-limited
    // path prefix, so only the multiplicity differs).
    let mut paths: Vec<(End, ProbePath, i32)> = Vec::new();
    for dest in &task.dests {
        for (end, ttl, expect) in [
            (End::Near, dest.near_ttl, task.near_ip),
            (End::Far, dest.far_ttl, task.far_ip),
        ] {
            let pp = probe_path(net, vp, dest.dst, ttl, task.flow_id, from);
            if let Some(pp) = pp.filter(|p| p.route.responder_addr == expect) {
                match paths.iter_mut().find(|(e, p, _)| *e == end && p.route == pp.route) {
                    Some(existing) => existing.2 += 1,
                    None => paths.push((end, pp, 1)),
                }
            }
        }
    }
    let nbins = ((to - from) + bin_secs - 1) / bin_secs;
    let mut near = vec![None; nbins as usize];
    let mut far = vec![None; nbins as usize];
    let vp_stream = noise::mix(vp.name.bytes().fold(0u64, |a, b| a.wrapping_mul(31) + b as u64));
    for b in 0..nbins {
        let t_mid = from + b * bin_secs + bin_secs / 2;
        for (end, out) in [(End::Near, &mut near), (End::Far, &mut far)] {
            let mut best: Option<f64> = None;
            let mut miss_prob = 1.0f64;
            let mut any_path = false;
            for (_, pp, mult) in paths.iter().filter(|(e, _, _)| *e == end) {
                any_path = true;
                let (rtt, p) = ref_rtt_and_prob(pp, net, t_mid, 1.0 / ROUND_SECS as f64);
                miss_prob *= (1.0 - p).powi(probes_per_bin * mult);
                best = Some(best.map_or(rtt, |x: f64| x.min(rtt)));
            }
            if !any_path {
                continue;
            }
            // Did at least one probe in the bin get through?
            let stream = vp_stream
                ^ ((task.far_ip.0 as u64) << 8)
                ^ matches!(end, End::Far) as u64;
            if !noise::bernoulli(net.seed ^ 0x7515, stream, b as u64, miss_prob) {
                out[b as usize] = best;
            }
        }
    }
    TaskSeries {
        near_ip: task.near_ip,
        far_ip: task.far_ip,
        link_label: task.link_label(),
        from,
        bin_secs,
        near,
        far,
    }
}

/// The per-window loss synthesis the column engine replaced, verbatim:
/// `LossProber::synthesize_window` for `targets` probed from `vp`.
fn ref_loss_window(
    net: &Network,
    vp: &VpHandle,
    targets: &[LossTarget],
    from: SimTime,
    to: SimTime,
) -> Vec<(usize, Vec<LossSample>)> {
    let mut out = Vec::new();
    for (ti, tgt) in targets.iter().enumerate() {
        let mut paths: Vec<(End, ProbePath)> = Vec::new();
        for (end, ttl, expect) in [
            (End::Near, tgt.near_ttl, tgt.near_ip),
            (End::Far, tgt.far_ttl, tgt.far_ip),
        ] {
            let pp = probe_path(net, vp, tgt.dst, ttl, tgt.flow_id, from);
            if let Some(pp) = pp.filter(|p| p.route.responder_addr == expect) {
                paths.push((end, pp));
            }
        }
        let mut samples = Vec::new();
        let n = (WINDOW_SECS * PROBES_PER_SEC as i64) as f64;
        let mut w = from;
        while w < to {
            let t_mid = w + WINDOW_SECS / 2;
            for (end, pp) in &paths {
                let (_, p) = ref_rtt_and_prob(pp, net, t_mid, PROBES_PER_SEC as f64);
                let p_loss = 1.0 - p;
                let stream = ((tgt.far_ip.0 as u64) << 2)
                    | matches!(end, End::Far) as u64
                    | ((ti as u64) << 40);
                let g = noise::gaussian(net.seed ^ 0x0010_55AA, stream, w as u64);
                let lost =
                    (n * p_loss + (n * p_loss * (1.0 - p_loss)).sqrt() * g).round().clamp(0.0, n);
                samples.push((
                    *end,
                    LossSample {
                        window_start: w,
                        end: *end,
                        sent: n as u32,
                        lost: lost as u32,
                    },
                ));
            }
            w += WINDOW_SECS;
        }
        out.push((ti, samples.into_iter().map(|(_, s)| s).collect()));
    }
    out
}

/// A diurnal demand that often crosses the queue model's onset, in a
/// timezone from −12 to +14, with a monthly scale that changes on
/// `month`'s first day and one of several weekend factors.
fn random_demand(rng: &mut Rng, month: u32) -> DiurnalDemand {
    DiurnalDemand {
        base: 0.4 + 0.5 * rng.unit(),
        amplitude: 0.6 * rng.unit(),
        peak_hour: 24.0 * rng.unit(),
        peak_width: 1.0 + 3.0 * rng.unit(),
        tz_offset_hours: rng.below(27) as i8 - 12,
        weekend_factor: [0.5, 0.9, 1.0, 1.4][rng.below(4)],
        monthly: MonthScale::new(vec![(0, 0.5 + rng.unit()), (month, 0.5 + rng.unit())]),
        noise_amp: 0.05 * rng.unit(),
        noise_seed: rng.draw(),
    }
}

/// Up to six tasks toward the world's destinations: each names the near
/// and far responders of one (destination, TTL) at `from`, and takes one
/// or two more destinations, which may repeat it (a shared route) or
/// answer from elsewhere (filtered out).
fn random_tasks(world: &RandomWorld, rng: &mut Rng, from: SimTime) -> Vec<TslpTask> {
    let vp = VpHandle { name: "vp".into(), router: world.vp, addr: world.vp_addr };
    let mut tasks = Vec::new();
    for _ in 0..6 {
        let dst = world.dsts[rng.below(world.dsts.len())];
        let (ttl, flow_id) = (1 + rng.below(5) as u8, [1, 2, 3, 700][rng.below(4)]);
        let answer = |ttl| probe_path(&world.net, &vp, dst, ttl, flow_id, from);
        let (Some(near), Some(far)) = (answer(ttl), answer(ttl + 1)) else { continue };
        let mut dests = vec![TslpDest { dst, near_ttl: ttl, far_ttl: ttl + 1 }];
        for _ in 0..1 + rng.below(2) {
            let dest = if rng.chance(0.4) {
                dests[0]
            } else {
                let ttl = 1 + rng.below(5) as u8;
                TslpDest { dst: world.dsts[rng.below(world.dsts.len())], near_ttl: ttl, far_ttl: ttl + 1 }
            };
            dests.push(dest);
        }
        tasks.push(TslpTask {
            near_ip: near.route.responder_addr,
            far_ip: far.route.responder_addr,
            dests,
            flow_id,
        });
    }
    tasks
}

fn bits(v: &[Option<f64>]) -> Vec<Option<u64>> {
    v.iter().map(|x| x.map(f64::to_bits)).collect()
}

/// What one case covered: bins with a sample and bins without one (for
/// loss, windows that lost no probe and windows that lost some).
#[derive(Default)]
struct Seen {
    answered: usize,
    lost: usize,
}

/// One case's world: a random world with random demand on most link
/// directions and, at `chaos > 0`, a fault schedule over the whole window.
/// The window opens off midnight one to three days before a month boundary
/// and runs from `min_secs` up to ten days, so it ends inside the first
/// 7-day column chunk or the second. Returns the world, the window and the
/// case's generator, from which the probes are drawn.
fn case(seed: u64, chaos: f64, min_secs: i64) -> (RandomWorld, SimTime, SimTime, Rng) {
    let mut world = random_world(seed, 8, 0.0);
    let mut rng = Rng(seed ^ 0xC01);
    let month = 1 + rng.below(22) as u32;
    for l in 0..world.net.topo.links.len() {
        let link = world.net.topo.link_mut(LinkId(l as u32));
        for load in [&mut link.load_ab, &mut link.load_ba] {
            *load = rng
                .chance(0.85)
                .then(|| Arc::new(random_demand(&mut rng, month)) as Arc<dyn LoadModel>);
        }
    }
    let from = month_start(month) - SECS_PER_DAY * (1 + rng.below(3) as i64)
        - rng.below(SECS_PER_DAY as usize) as i64;
    let to = from + min_secs + rng.below((10 * SECS_PER_DAY - min_secs + 1) as usize) as i64;
    world.net.fault =
        FaultSchedule::chaos(rng.draw(), chaos, &world.net.topo, &[world.vp], from, to);
    if chaos > 0.0 {
        // Chaos skews a VP clock for the whole window; a skew that starts
        // and ends inside it shows whether skew is read per bin.
        let start = from + rng.below((to - from) as usize) as i64;
        let until = start + 1 + rng.below(SECS_PER_DAY as usize) as i64;
        let skew = FaultKind::ClockSkew { ms: 0.5 + 2.5 * rng.unit() };
        world.net.fault.push(FaultEvent::window(skew, FaultScope::Router(world.vp), start, until));
        // Chaos limits ICMP to 5 pps or more, which neither prober's offered
        // rate reaches; a limit from 0.001 to 1 pps on every other router
        // for a while shows which rate a responder is read at (loss offers
        // 1 pps, TSLP one probe per round).
        for r in 1..world.net.topo.routers.len() {
            let start = from + rng.below((to - from) as usize) as i64;
            let until = start + 1 + rng.below(2 * SECS_PER_DAY as usize) as i64;
            let pps = 10f64.powf(-3.0 + 3.0 * rng.unit());
            let limit = FaultKind::IcmpRateLimit { pps, burst: 1.0 };
            let scope = FaultScope::Router(RouterId(r as u32));
            world.net.fault.push(FaultEvent::window(limit, scope, start, until));
        }
    }
    (world, from, to, rng)
}

/// One TSLP case: up to six tasks on a [`case`] world, synthesized at
/// `bin_secs` by the column engine and by the per-bin walk.
fn check(seed: u64, chaos: f64, bin_secs: i64) -> Result<Seen, String> {
    let (world, from, to, mut rng) = case(seed, chaos, 1);
    let tasks = random_tasks(&world, &mut rng, from);
    let vp = VpHandle { name: "vp".into(), router: world.vp, addr: world.vp_addr };
    let mut prober = TslpProber::new(vp.clone(), from);
    prober.set_tasks(tasks.clone());
    let engine = prober.synthesize_window(&world.net, from, to, bin_secs);
    let mut seen = Seen::default();
    for (ti, (task, got)) in tasks.iter().zip(&engine).enumerate() {
        let want = ref_synthesize_task(&world.net, &vp, task, from, to, bin_secs);
        if bits(&got.near) != bits(&want.near) || bits(&got.far) != bits(&want.far) {
            return Err(format!("task {ti} {task:?}: column engine differs from the per-bin walk"));
        }
        let one = synthesize_task(&world.net, &vp, task, from, to, bin_secs);
        if bits(&one.near) != bits(&want.near) || bits(&one.far) != bits(&want.far) {
            return Err(format!("task {ti}: synthesize_task differs from the per-bin walk"));
        }
        for s in [&want.near, &want.far] {
            seen.answered += s.iter().flatten().count();
            seen.lost += s.iter().filter(|x| x.is_none()).count();
        }
    }
    Ok(seen)
}

/// One loss case: a target per task of [`random_tasks`] on a [`case`]
/// world whose window crosses a column chunk, through one of the task's
/// destinations (the first answers from both ends; another may answer
/// from elsewhere, which leaves an end unprobed), synthesized by
/// `LossProber` and by the per-window walk.
fn check_loss(seed: u64, chaos: f64) -> Result<Seen, String> {
    let (world, from, to, mut rng) = case(seed, chaos, 7 * SECS_PER_DAY + 1);
    let targets: Vec<LossTarget> = random_tasks(&world, &mut rng, from)
        .into_iter()
        .map(|task| {
            let dest = task.dests[if rng.chance(0.7) { 0 } else { rng.below(task.dests.len()) }];
            LossTarget {
                near_ip: task.near_ip,
                far_ip: task.far_ip,
                dst: dest.dst,
                near_ttl: dest.near_ttl,
                far_ttl: dest.far_ttl,
                flow_id: task.flow_id,
            }
        })
        .collect();
    let vp = VpHandle { name: "vp".into(), router: world.vp, addr: world.vp_addr };
    let mut prober = LossProber::new(vp.clone(), from);
    prober.set_targets(targets.clone());
    let got = prober.synthesize_window(&world.net, from, to);
    let want = ref_loss_window(&world.net, &vp, &targets, from, to);
    let fields = |s: &LossSample| (s.window_start, s.end, s.sent, s.lost);
    if got.len() != want.len() {
        return Err(format!("{} targets synthesized, {} expected", got.len(), want.len()));
    }
    let mut seen = Seen::default();
    for ((gi, g), (wi, w)) in got.iter().zip(&want) {
        if gi != wi || g.iter().map(fields).ne(w.iter().map(fields)) {
            let target = &targets[*wi];
            return Err(format!("target {wi} {target:?}: loss engine differs from the per-window walk"));
        }
        seen.answered += w.iter().filter(|s| s.lost == 0).count();
        seen.lost += w.iter().filter(|s| s.lost > 0).count();
    }
    Ok(seen)
}

/// Models under the second property: a random diurnal demand (the one
/// batched walk) and a constant load (the default loop).
fn random_models(rng: &mut Rng, month: u32) -> Vec<Arc<dyn LoadModel>> {
    vec![Arc::new(random_demand(rng, month)), Arc::new(ConstantLoad(rng.unit() * 1.5))]
}

/// One "stable until" case: a random world under `FaultSchedule::chaos`
/// over six hours from [`START`], plus a route flap planted on a random
/// link and a reboot with a rebuild tail on a random non-VP router. Each
/// draw asks `stable_until` about one scope at one instant — inside the
/// flap, inside the rebuild tail, around the reboot on an incident link, or
/// anywhere — and requires the scope's queries to answer at every second
/// up to the bound (or an hour on) as they do at the instant.
fn check_stable_until(seed: u64, chaos: f64) -> Result<(), String> {
    let mut world = random_world(seed, 8, 0.0);
    let mut rng = Rng(seed ^ 0x57AB);
    let (from, to) = (START, START + 6 * 3600);
    let topo = &world.net.topo;
    let mut fault = FaultSchedule::chaos(rng.draw(), chaos, topo, &[world.vp], from, to);
    let flapped = LinkId(rng.below(topo.links.len()) as u32);
    let flap_from = from + rng.below(3600) as i64;
    let (up_secs, down_secs) = (300 + rng.below(600) as i64, 30 + rng.below(90) as i64);
    let flap = FaultKind::RouteFlap { up_secs, down_secs };
    fault.push(FaultEvent::window(flap, FaultScope::Link(flapped), flap_from, flap_from + 7200));
    let rebooted = RouterId(1 + rng.below(topo.routers.len() - 1) as u32);
    let (down_from, rebuild_secs) = (from + rng.below(3 * 3600) as i64, 300 + rng.below(300) as i64);
    let down_until = down_from + 120 + rng.below(780) as i64;
    let reboot = FaultKind::RouterReboot { rebuild_secs };
    fault.push(FaultEvent::window(reboot, FaultScope::Router(rebooted), down_from, down_until));
    let incident: Vec<LinkId> = topo
        .links
        .iter()
        .filter(|l| l.ifaces.iter().any(|&i| topo.iface(i).router == rebooted))
        .map(|l| l.id)
        .collect();
    world.net.fault = fault;
    let (topo, fault) = (&world.net.topo, &world.net.fault);
    let answers = |scope: FaultScope, t: SimTime| -> Vec<u64> {
        match scope {
            FaultScope::Link(l) => {
                vec![fault.link_blocked(topo, l, t) as u64, fault.extra_loss(l, t).to_bits()]
            }
            FaultScope::Router(r) => {
                let limit = fault.icmp_limit(r, t).map(|(pps, burst)| (pps.to_bits(), burst.to_bits()));
                let (has, pps, burst) = limit.map_or((0, 0, 0), |(p, b)| (1, p, b));
                vec![fault.clock_skew_ms(r, t).to_bits(), fault.icmp_suppressed(r, t) as u64, has, pps, burst]
            }
            FaultScope::Iface(i) => {
                let addr = topo.iface(i).addr;
                vec![fault.silent_addr(topo, addr, t) as u64, fault.renumbered(topo, addr, t).0 as u64]
            }
            FaultScope::Global => unreachable!("every scope is an entity's"),
        }
    };
    for _ in 0..16 {
        let anywhere = from - 600 + rng.below((to - from + 1200) as usize) as i64;
        let (scope, t) = match rng.below(4) {
            0 => (FaultScope::Link(flapped), flap_from + rng.below(7200) as i64),
            1 => (FaultScope::Router(rebooted), down_until + rng.below(rebuild_secs as usize) as i64),
            2 => {
                let l = incident[rng.below(incident.len())];
                (FaultScope::Link(l), down_from - 300 + rng.below(1500) as i64)
            }
            _ => match rng.below(3) {
                0 => (FaultScope::Link(LinkId(rng.below(topo.links.len()) as u32)), anywhere),
                1 => (FaultScope::Router(RouterId(rng.below(topo.routers.len()) as u32)), anywhere),
                _ => (FaultScope::Iface(IfaceId(rng.below(topo.ifaces.len()) as u32)), anywhere),
            },
        };
        let until = fault.stable_until(topo, scope, t);
        if until <= t {
            return Err(format!("{scope:?} at {t}: stable until {until}, not after it"));
        }
        let want = answers(scope, t);
        if let Some(s) = (t..until.min(t + 3600)).find(|&s| answers(scope, s) != want) {
            return Err(format!("{scope:?}: stable from {t} until {until}, but changes at {s}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `FaultSchedule::stable_until` is a sound bound: after `t`, and no
    /// query of the scope changes before it.
    #[test]
    fn stable_until_bounds_fault_queries(seed in any::<u64>(), chaos in 0usize..2) {
        let outcome = check_stable_until(seed, [0.5, 1.0][chaos]);
        prop_assert!(outcome.is_ok(), "{}", outcome.err().unwrap_or_default());
    }

    /// The column engine (`synthesize_window` and `synthesize_task`) equals
    /// the per-bin `rtt_and_prob` walk bit for bit, faulted or not.
    #[test]
    fn column_engine_matches_per_bin_walk(
        seed in any::<u64>(),
        chaos in 0usize..3,
        bin in 0usize..2,
    ) {
        let outcome = check(seed, [0.0, 0.5, 1.0][chaos], [300, 900][bin]);
        prop_assert!(outcome.is_ok(), "{}", outcome.err().unwrap_or_default());
    }

    /// `LossProber::synthesize_window` equals the per-window
    /// `rtt_and_prob` walk it replaced, sample for sample, faulted or not.
    #[test]
    fn loss_engine_matches_per_window_walk(seed in any::<u64>(), chaos in 0usize..3) {
        let outcome = check_loss(seed, [0.0, 0.5, 1.0][chaos]);
        prop_assert!(outcome.is_ok(), "{}", outcome.err().unwrap_or_default());
    }

    /// `utilization_into` is `utilization` at every step, bit for bit: at
    /// steps that divide a day into at most one slot per noise bin (the
    /// batched walk, which reads the column's noise terms, also where a
    /// step splits a noise bin) and at ones that do not divide a day or
    /// cut it finer (the pointwise fallback), across a month boundary,
    /// local and UTC midnights and weekends.
    #[test]
    fn utilization_into_matches_pointwise(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let month = 1 + rng.below(22) as u32;
        // Noise-bin aligned half the time, so entries can land on midnight.
        let offset = if rng.chance(0.5) { 0 } else { rng.below(300) as i64 };
        let t0 = month_start(month) - 300 * rng.below(5 * 288) as i64 - offset;
        for model in random_models(&mut rng, month) {
            for step in [300, 900, 3600, 450, 1500, 100] {
                let n = (10 * SECS_PER_DAY / step) as usize;
                let (mut col, mut batched) = (BinColumn::default(), vec![f64::NAN; n]);
                col.fill(t0, step, n);
                model.utilization_into(&col, &mut batched);
                for (i, u) in batched.iter().enumerate() {
                    let t = t0 + i as i64 * step;
                    let want = model.utilization(t);
                    prop_assert_eq!(u.to_bits(), want.to_bits(), "step {} at t {}", step, t);
                }
            }
        }
    }
}

/// On an empty schedule no query can change: every scope's run is all of
/// time, so the column engine asks each fault query once per chunk.
#[test]
fn empty_schedule_is_stable_forever() {
    let world = random_world(7, 8, 0.0);
    let (topo, fault) = (&world.net.topo, &world.net.fault);
    let scopes = [
        FaultScope::Global,
        FaultScope::Link(LinkId(0)),
        FaultScope::Router(world.vp),
        FaultScope::Iface(IfaceId(0)),
    ];
    for scope in scopes {
        for t in [SimTime::MIN, -1, 0, START, SimTime::MAX - 1] {
            assert_eq!(fault.stable_until(topo, scope, t), SimTime::MAX, "{scope:?} at {t}");
        }
    }
}

/// The generated cases are not vacuous: both fault-free and faulted worlds
/// yield sampled bins and bins without a sample, and the loss cases yield
/// windows that lost probes and windows that lost none.
#[test]
fn oracle_cases_sample_and_lose() {
    let mut loss = Seen::default();
    for chaos in [0.0, 1.0] {
        let mut seen = Seen::default();
        for seed in 0..6 {
            let s = check(seed, chaos, 900).unwrap();
            seen.answered += s.answered;
            seen.lost += s.lost;
            let s = check_loss(seed, chaos).unwrap();
            loss.answered += s.answered;
            loss.lost += s.lost;
        }
        assert!(seen.answered > 1000 && seen.lost > 20, "chaos {chaos}: {} answered, {} lost", seen.answered, seen.lost);
    }
    let (clean, lossy) = (loss.answered, loss.lost);
    assert!(clean > 1000 && lossy > 1000, "loss windows: {clean} clean, {lossy} lossy");
}

/// Toy's VP and a destination behind one of its interdomain links, whose
/// far end answers at TTL 4.
fn toy_far_end() -> (manic_scenario::World, VpHandle, Ipv4) {
    let w = toy(1);
    let vp = w.vp("acme-nyc");
    let vp = VpHandle { name: vp.name.clone(), router: vp.router, addr: vp.addr };
    let dst = w.host_addr(toy_asns::CDNCO, 0);
    (w, vp, dst)
}

/// The engine's min RTT at an instant — one destination, one bin centred
/// on it — is within 3 ms of the least of 30 packet-mode probes.
#[test]
fn min_rtt_close_to_observed_min() {
    let (w, vp, dst) = toy_far_end();
    let answer = |ttl| probe_path(&w.net, &vp, dst, ttl, 9, 0).expect("path exists").route;
    let dests = vec![TslpDest { dst, near_ttl: 3, far_ttl: 4 }];
    let (near_ip, far_ip) = (answer(3).responder_addr, answer(4).responder_addr);
    let task = TslpTask { near_ip, far_ip, dests, flow_id: 9 };
    let fast = synthesize_task(&w.net, &vp, &task, -900, 900, 1800).far[0].expect("answered");
    let mut st = SimState::new();
    let mut min_obs = f64::INFINITY;
    for i in 0..30 {
        let spec = ProbeSpec { src: vp.router, src_addr: vp.addr, dst, ttl: 4, flow_id: 9 };
        if let Some(r) = w.net.send_probe(&mut st, spec, i).rtt() {
            min_obs = min_obs.min(r);
        }
    }
    assert!(min_obs.is_finite());
    assert!((min_obs - fast).abs() < 3.0, "packet min {min_obs} vs fast {fast}");
}

/// The per-instant model's response probability stays in [0, 1]; the loss
/// property holds the engine's miss probability to one minus it.
#[test]
fn response_prob_in_unit_interval() {
    let (w, vp, dst) = toy_far_end();
    let pp = probe_path(&w.net, &vp, dst, 4, 9, 0).unwrap();
    for t in [0i64, 100_000, 1_000_000] {
        let (_, p) = ref_rtt_and_prob(&pp, &w.net, t, 1.0);
        assert!((0.0..=1.0).contains(&p), "p={p}");
    }
}
