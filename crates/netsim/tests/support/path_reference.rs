//! The hop-by-hop reference for probe fate, and the random worlds and
//! probe sequences the oracles run it on. No tests: `../path_oracle.rs`
//! holds the properties that compare `Network::send_probe` and
//! `Network::probe_route_into` to it, and the root package's
//! `tests/fluid_columns.rs` builds its worlds here, so each test binary runs
//! each property once.
//!
//! `send_probe` resolves a flow's forward path once, replays every probe of
//! the flow over it, and routes replies along a memoized sink tree. The
//! reference here is the implementation it replaced, kept verbatim in
//! behaviour and written against the crate's public surface only: it
//! re-derives every hop of every probe — FIB lookup, ECMP pick, termination
//! test — and keeps its own draw counter and rate-limiter buckets. The two
//! must agree bit for bit on every `ProbeStatus` *and* on the exported
//! simulation state after every probe, whatever the topology, routing epoch,
//! TTL or fault schedule. `ref_probe_route` is the same walk with nothing
//! lost: the links a probe and its reply cross and who answers, which
//! `probe_route_into` (and through it the fluid fast path and record route) must
//! reproduce without touching the draw counter or the limiters.

// Each including binary uses a different part of the module.
#![allow(dead_code)]

use manic_netsim::fib::ecmp_pick;
use manic_netsim::icmp::FlakyProfile;
use manic_netsim::noise;
use manic_netsim::time::SimTime;
use manic_netsim::topo::Direction;
use manic_netsim::traffic::ConstantLoad;
use manic_netsim::{
    AsNumber, FaultSchedule, Fib, IcmpProfile, IfaceId, Ipv4, LinkId, LinkKind, LoadModel,
    Network, Prefix, ProbeSpec, ProbeStatus, QueueModel, RateLimiter, RouterId, SimState,
    Topology,
};
use std::collections::HashMap;
use std::sync::Arc;

const MAX_HOPS: usize = 64;

/// The reference's counterpart of `SimState`: the draw counter and the
/// rate-limiter buckets, nothing derived.
#[derive(Default)]
pub struct RefState {
    counter: u64,
    limiters: HashMap<RouterId, RateLimiter>,
}

impl RefState {
    fn next(&mut self) -> u64 {
        self.counter += 1;
        self.counter
    }

    /// Same shape as `SimState::export`.
    pub fn export(&self) -> (u64, Vec<(u32, u64, i64)>) {
        let mut limiters: Vec<(u32, u64, i64)> = self
            .limiters
            .iter()
            .map(|(r, l)| {
                let (tokens, last) = l.to_parts();
                (r.0, tokens.to_bits(), last)
            })
            .collect();
        limiters.sort();
        (self.counter, limiters)
    }
}

fn forward_hop(
    net: &Network,
    cur: RouterId,
    dst: Ipv4,
    src_for_hash: Ipv4,
    flow_id: u16,
    t: SimTime,
) -> Option<(LinkId, Direction, RouterId, Ipv4)> {
    let group = net.fib(cur, t).lookup(dst)?;
    let egress = ecmp_pick(group, flow_id, src_for_hash, dst, cur.0 as u64);
    let link = net.topo.iface(egress).link?;
    let dir = net.topo.link_direction(link, egress);
    let peer = net.topo.peer_iface(egress).expect("connected iface has a peer");
    Some((link, dir, peer.router, peer.addr))
}

fn cross(net: &Network, link: LinkId, dir: Direction, t: SimTime, st: &mut RefState) -> Option<f64> {
    if net.fault.link_blocked(&net.topo, link, t) {
        return None;
    }
    let ls = net.link_state(link, dir, t);
    let p = ls.loss + net.fault.extra_loss(link, t);
    if p > 0.0 && noise::bernoulli(net.seed ^ 0x10_55, link.0 as u64, st.next(), p) {
        return None;
    }
    Some(net.topo.link(link).prop_delay_ms + ls.queue_ms)
}

fn reply_path_delay(
    net: &Network,
    from: RouterId,
    from_addr: Ipv4,
    to_addr: Ipv4,
    flow_id: u16,
    t: SimTime,
    st: &mut RefState,
) -> Option<f64> {
    let mut cur = from;
    let mut total = 0.0;
    for _ in 0..MAX_HOPS {
        if net.topo.terminates(cur, to_addr) {
            return Some(total);
        }
        let (link, dir, next, _) = forward_hop(net, cur, to_addr, from_addr, flow_id, t)?;
        total += cross(net, link, dir, t, st)?;
        cur = next;
    }
    None
}

fn icmp_generate(net: &Network, router: RouterId, t: SimTime, st: &mut RefState) -> Option<f64> {
    if net.fault.icmp_suppressed(router, t) {
        return None;
    }
    let prof = &net.topo.router(router).icmp;
    let salt = router.0 as u64;
    if prof.unresponsive_prob > 0.0
        && noise::bernoulli(net.seed ^ 0x1C_3F, salt, st.next(), prof.unresponsive_prob)
    {
        return None;
    }
    if let Some(flaky) = prof.flaky {
        if flaky.is_flaky_now(net.seed, salt, t)
            && noise::bernoulli(net.seed ^ 0xF1A7, salt, st.next(), flaky.drop_prob)
        {
            return None;
        }
    }
    let limit = match (prof.rate_limit_pps, net.fault.icmp_limit(router, t)) {
        (Some(own), Some((inj, ib))) if inj < own => Some((inj, ib)),
        (Some(own), _) => Some((own, prof.rate_limit_burst)),
        (None, inj) => inj,
    };
    if let Some((pps, burst)) = limit {
        let rl = st.limiters.entry(router).or_insert_with(|| RateLimiter::new(burst, t));
        if !rl.allow(pps, burst, t) {
            return None;
        }
    }
    let mut delay = prof.base_ms;
    if prof.slow_path_prob > 0.0
        && noise::bernoulli(net.seed ^ 0x51_0E, salt, st.next(), prof.slow_path_prob)
    {
        delay += prof.slow_path_ms * (0.5 + 0.5 * noise::uniform(net.seed ^ 0x51_0F, salt, st.next()));
    }
    Some(delay)
}

/// One probe, forwarded hop by hop.
pub fn ref_send_probe(net: &Network, st: &mut RefState, spec: ProbeSpec, t: SimTime) -> ProbeStatus {
    let mut cur = spec.src;
    let mut fwd = 0.0;
    let mut ttl = spec.ttl;
    if ttl == 0 {
        return ProbeStatus::Lost;
    }
    let skew = net.fault.clock_skew_ms(spec.src, t);
    for _ in 0..MAX_HOPS {
        if net.topo.terminates(cur, spec.dst) && cur != spec.src {
            if net.fault.silent_addr(&net.topo, spec.dst, t) {
                return ProbeStatus::Lost;
            }
            let Some(gen) = icmp_generate(net, cur, t, st) else { return ProbeStatus::Lost };
            let Some(rev) =
                reply_path_delay(net, cur, spec.dst, spec.src_addr, spec.flow_id, t, st)
            else {
                return ProbeStatus::Lost;
            };
            let from = net.fault.renumbered(&net.topo, spec.dst, t);
            return ProbeStatus::EchoReply { from, rtt_ms: fwd + gen + rev + skew };
        }
        let Some((link, dir, next, ingress)) =
            forward_hop(net, cur, spec.dst, spec.src_addr, spec.flow_id, t)
        else {
            return ProbeStatus::Unroutable;
        };
        let Some(delay) = cross(net, link, dir, t, st) else { return ProbeStatus::Lost };
        fwd += delay;
        cur = next;
        ttl -= 1;
        if ttl == 0 && !net.topo.terminates(cur, spec.dst) {
            if net.fault.silent_addr(&net.topo, ingress, t) {
                return ProbeStatus::Lost;
            }
            let Some(gen) = icmp_generate(net, cur, t, st) else { return ProbeStatus::Lost };
            let Some(rev) =
                reply_path_delay(net, cur, ingress, spec.src_addr, spec.flow_id, t, st)
            else {
                return ProbeStatus::Lost;
            };
            let from = net.fault.renumbered(&net.topo, ingress, t);
            return ProbeStatus::TimeExceeded { from, rtt_ms: fwd + gen + rev + skew };
        }
    }
    ProbeStatus::Lost
}

/// What a probe crosses and who answers it, re-derived hop by hop: the
/// forward links up to the answering hop, the responder and the address it
/// answers from, and the reply's links back to the prober.
#[derive(Debug, PartialEq)]
pub struct RefRoute {
    pub forward: Vec<(LinkId, Direction)>,
    pub responder: RouterId,
    pub responder_addr: Ipv4,
    pub reply: Vec<(LinkId, Direction)>,
}

/// The links of `reply_path_delay`'s walk: hashed, like a packet's reply,
/// on the address the answer comes from.
fn ref_reply_links(
    net: &Network,
    from: RouterId,
    from_addr: Ipv4,
    to_addr: Ipv4,
    flow_id: u16,
    t: SimTime,
) -> Option<Vec<(LinkId, Direction)>> {
    let (mut cur, mut links) = (from, Vec::new());
    for _ in 0..MAX_HOPS {
        if net.topo.terminates(cur, to_addr) {
            return Some(links);
        }
        let (link, dir, next, _) = forward_hop(net, cur, to_addr, from_addr, flow_id, t)?;
        links.push((link, dir));
        cur = next;
    }
    None
}

/// `ref_send_probe`'s walk with nothing lost. `None` where no answer can
/// come back: a zero TTL, a dead end (`ref_send_probe`'s `Unroutable`), a
/// loop before the TTL runs out, or a reply that cannot route home.
pub fn ref_probe_route(net: &Network, spec: ProbeSpec, t: SimTime) -> Option<RefRoute> {
    let answered = |forward, responder, responder_addr| {
        let (to, flow) = (spec.src_addr, spec.flow_id);
        let reply = ref_reply_links(net, responder, responder_addr, to, flow, t)?;
        Some(RefRoute { forward, responder, responder_addr, reply })
    };
    let (mut cur, mut ttl, mut forward) = (spec.src, spec.ttl, Vec::new());
    if ttl == 0 {
        return None;
    }
    for _ in 0..MAX_HOPS {
        if net.topo.terminates(cur, spec.dst) && cur != spec.src {
            return answered(forward, cur, spec.dst);
        }
        let (link, dir, next, ingress) =
            forward_hop(net, cur, spec.dst, spec.src_addr, spec.flow_id, t)?;
        forward.push((link, dir));
        cur = next;
        ttl -= 1;
        if ttl == 0 && !net.topo.terminates(cur, spec.dst) {
            return answered(forward, cur, ingress);
        }
    }
    None
}

/// `ProbeStatus` with its floats as bits, so equality is exact.
pub fn status_bits(s: ProbeStatus) -> (u8, u32, u64) {
    match s {
        ProbeStatus::TimeExceeded { from, rtt_ms } => (0, from.0, rtt_ms.to_bits()),
        ProbeStatus::EchoReply { from, rtt_ms } => (1, from.0, rtt_ms.to_bits()),
        ProbeStatus::Lost => (2, 0, 0),
        ProbeStatus::Unroutable => (3, 0, 0),
    }
}

/// Send `probes` through both implementations, each on a fresh state, and
/// require equal outcomes and equal exported state after every probe.
pub fn assert_matches_reference(net: &Network, probes: &[(ProbeSpec, SimTime)]) -> Result<(), String> {
    let mut sim = SimState::new();
    let mut reference = RefState::default();
    for (i, &(spec, t)) in probes.iter().enumerate() {
        let got = net.send_probe(&mut sim, spec, t);
        let want = ref_send_probe(net, &mut reference, spec, t);
        if status_bits(got) != status_bits(want) {
            return Err(format!("probe {i} {spec:?} at {t}: got {got:?}, reference {want:?}"));
        }
        if sim.export() != reference.export() {
            return Err(format!("probe {i} {spec:?} at {t}: simulation state diverged"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- worlds

/// A `noise::GAMMA`-stepped state fed through `noise::mix`, so a world is a
/// pure function of its seed.
pub struct Rng(pub u64);

impl Rng {
    pub fn draw(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(noise::GAMMA);
        noise::mix(self.0)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.draw() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        noise::unit(self.draw())
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// When the second routing epoch of a [`RandomWorld`] activates.
pub const EPOCH: SimTime = 1_000_040;
/// When its probe sequences start.
pub const START: SimTime = 1_000_000;

pub struct RandomWorld {
    pub net: Network,
    /// The prober: router 0 and its first interface address.
    pub vp: RouterId,
    pub vp_addr: Ipv4,
    /// Destinations worth probing: host-prefix space, interface addresses,
    /// and one address nothing routes.
    pub dsts: Vec<Ipv4>,
}

/// A small random network: a connected multigraph (parallel links make ECMP
/// groups), random ICMP profiles (a fifth of them flaky) and link loads,
/// host prefixes, and two routing epochs whose FIBs mostly follow shortest
/// paths but sometimes point anywhere (loops) or nowhere (dead ends). `chaos > 0` installs a
/// `FaultSchedule::chaos` of that intensity over the probing window.
pub fn random_world(seed: u64, routers: usize, chaos: f64) -> RandomWorld {
    let mut rng = Rng(seed);
    // Flaky windows draw from a stream of their own, so the rest of a world
    // is what it was before routers could be flaky.
    let mut flaky = Rng(seed ^ 0xF1A6);
    let mut topo = Topology::new();
    for i in 0..routers {
        let mut icmp = IcmpProfile::default();
        if i > 0 {
            // A daily UTC window from 12:00 or 13:00 to 14:00–16:00: it
            // covers the packet probes from START (13:46 UTC) and has edges
            // inside every multi-day fluid window.
            if flaky.chance(0.2) {
                icmp.flaky = Some(FlakyProfile {
                    day_prob: 0.7,
                    drop_prob: 0.5 + 0.5 * flaky.unit(),
                    window_start_hour: 12 + flaky.below(2) as u8,
                    window_end_hour: 14 + flaky.below(3) as u8,
                });
            }
            if rng.chance(0.3) {
                icmp.rate_limit_pps = Some(1.0 + rng.unit() * 20.0);
                icmp.rate_limit_burst = 1.0 + rng.unit() * 4.0;
            }
            if rng.chance(0.2) {
                icmp.unresponsive_prob = 0.3;
            }
            if rng.chance(0.3) {
                icmp.slow_path_prob = 0.5;
                icmp.slow_path_ms = 5.0;
            }
        }
        topo.add_router(AsNumber(100 + (i % 3) as u32), format!("r{i}"), "nyc", -5, icmp);
    }
    // A chain keeps the graph connected; the extra pairs add cycles and
    // parallel links.
    let mut pairs: Vec<(usize, usize)> = (1..routers).map(|i| (i - 1, i)).collect();
    for _ in 0..routers {
        let a = rng.below(routers);
        let b = (a + 1 + rng.below(routers - 1)) % routers;
        pairs.push((a, b));
    }
    // neighbors[r] = (egress iface on r, router behind it)
    let mut neighbors: Vec<Vec<(IfaceId, usize)>> = vec![Vec::new(); routers];
    let mut dsts = Vec::new();
    for (l, &(a, b)) in pairs.iter().enumerate() {
        let ia = topo.add_iface(RouterId(a as u32), Ipv4::new(10, 1, l as u8, 1));
        let ib = topo.add_iface(RouterId(b as u32), Ipv4::new(10, 1, l as u8, 2));
        let load = |rng: &mut Rng| -> Option<Arc<dyn LoadModel>> {
            rng.chance(0.5).then(|| Arc::new(ConstantLoad(0.3 + rng.unit())) as Arc<dyn LoadModel>)
        };
        let (ab, ba) = (load(&mut rng), load(&mut rng));
        topo.connect(ia, ib, LinkKind::Internal, 0.5 + 4.0 * rng.unit(), 1000.0, QueueModel::default(), ab, ba);
        neighbors[a].push((ia, b));
        neighbors[b].push((ib, a));
        if a != 0 && b != 0 {
            dsts.push(Ipv4::new(10, 1, l as u8, 1 + rng.below(2) as u8));
        }
    }
    let vp = RouterId(0);
    let vp_addr = topo.iface(topo.router(vp).ifaces[0]).addr;

    // What the FIBs route: (prefix, router that owns it).
    let mut targets: Vec<(Prefix, usize)> = vec![(Prefix::host(vp_addr), 0)];
    for k in 0..3u8 {
        let owner = 1 + rng.below(routers - 1);
        let prefix = Prefix::new(Ipv4::new(10, 9, k, 0), 24);
        topo.add_host_prefix(prefix, RouterId(owner as u32));
        targets.push((prefix, owner));
        dsts.push(Ipv4::new(10, 9, k, 1 + rng.below(200) as u8));
    }
    for (l, &(a, _)) in pairs.iter().enumerate().take(3) {
        targets.push((Prefix::new(Ipv4::new(10, 1, l as u8, 0), 24), a));
    }
    dsts.push(Ipv4::new(172, 16, 0, 1));

    let fibs_of = |rng: &mut Rng| -> Vec<Fib> {
        let mut fibs = vec![Fib::new(); routers];
        for &(prefix, owner) in &targets {
            // Hop distance to the owner.
            let mut dist = vec![usize::MAX; routers];
            dist[owner] = 0;
            let mut queue = std::collections::VecDeque::from([owner]);
            while let Some(r) = queue.pop_front() {
                for &(_, n) in &neighbors[r] {
                    if dist[n] == usize::MAX {
                        dist[n] = dist[r] + 1;
                        queue.push_back(n);
                    }
                }
            }
            for r in (0..routers).filter(|&r| r != owner) {
                let group: Vec<IfaceId> = match rng.below(10) {
                    0 => continue,
                    1 => (0..1 + rng.below(2))
                        .map(|_| neighbors[r][rng.below(neighbors[r].len())].0)
                        .collect(),
                    _ => neighbors[r]
                        .iter()
                        .filter(|&&(_, n)| dist[n] + 1 == dist[r])
                        .map(|&(i, _)| i)
                        .collect(),
                };
                fibs[r].insert(prefix, group);
            }
        }
        for (r, fib) in fibs.iter_mut().enumerate() {
            if rng.chance(0.3) {
                let egress = neighbors[r][rng.below(neighbors[r].len())].0;
                fib.insert(Prefix::new(Ipv4::new(0, 0, 0, 0), 0), vec![egress]);
            }
        }
        fibs
    };
    let (first, second) = (fibs_of(&mut rng), fibs_of(&mut rng));
    let fault = if chaos > 0.0 {
        FaultSchedule::chaos(rng.draw(), chaos, &topo, &[vp], START - 100, START + 400)
    } else {
        FaultSchedule::new()
    };
    let mut net = Network::new(topo, first, rng.draw());
    net.add_epoch(EPOCH, second);
    net.fault = fault;
    RandomWorld { net, vp, vp_addr, dsts }
}

/// A probe sequence over `world` in nondecreasing time from [`START`] across
/// [`EPOCH`]: runs of one flow with rising or repeated TTLs (what a
/// traceroute or a TSLP destination sends) between jumps to another
/// destination, flow, TTL in `0..=70`, or — rarely — another prober.
pub fn random_probes(world: &RandomWorld, rng: &mut Rng, n: usize) -> Vec<(ProbeSpec, SimTime)> {
    let topo = &world.net.topo;
    let last = RouterId(topo.routers.len() as u32 - 1);
    let other = (last, topo.iface(topo.router(last).ifaces[0]).addr);
    let mut t = START;
    let mut spec =
        ProbeSpec { src: world.vp, src_addr: world.vp_addr, dst: world.dsts[0], ttl: 1, flow_id: 1 };
    let mut out = Vec::new();
    while out.len() < n {
        if rng.chance(0.6) {
            spec.ttl = spec.ttl.saturating_add(rng.below(2) as u8);
        } else {
            (spec.src, spec.src_addr) =
                if rng.chance(0.1) { other } else { (world.vp, world.vp_addr) };
            spec.dst = world.dsts[rng.below(world.dsts.len())];
            spec.flow_id = [1, 2, 3, 700][rng.below(4)];
            spec.ttl = if rng.chance(0.7) { 1 + rng.below(8) } else { rng.below(71) } as u8;
        }
        t += [0, 0, 0, 1, 5, 30][rng.below(6)];
        // A prober that owns the destination has nothing to measure (and
        // the reference's TTL arithmetic is undefined if such a probe loops
        // back to it).
        if !topo.terminates(spec.src, spec.dst) {
            out.push((spec, t));
        }
    }
    out
}
