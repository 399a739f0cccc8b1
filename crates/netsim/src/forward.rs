//! Packet forwarding: probe execution over the topology.
//!
//! This is the part of the substrate the measurement tools talk to. A probe
//! is forwarded hop by hop: each router performs a longest-prefix-match
//! lookup, picks an ECMP group member by flow hash, and the packet crosses
//! the link paying propagation plus the standing-queue delay of the link's
//! current direction-specific load (and a loss draw against its drop
//! probability). TTL expiry raises an ICMP time-exceeded from the expiring
//! router's *ingress* interface — the address TSLP and traceroute observe —
//! subject to that router's ICMP profile (slow path, rate limiting,
//! unresponsiveness). Replies are themselves routed hop by hop, so
//! asymmetric return paths and return-path congestion behave exactly as the
//! paper describes (§7).
//!
//! Where a packet goes depends only on its flow and the routing epoch, so
//! that part is derived once and reused: a [`FlowRoute`] holds a flow's
//! forward path (`ResolvedPath`) and, per TTL, who answers and the links
//! the answer takes home, found through the next hops of replies toward the
//! prober (`SinkTree`). What happens to a packet on the way — load, loss,
//! faults, ICMP behaviour — is evaluated per probe, in path order, by
//! replaying the route (DESIGN.md §5l). [`Network::send_probe`] resolves
//! into one scratch route; a caller that probes the same flows round after
//! round keeps a route per flow and sends through
//! [`Network::send_probe_via`]. [`Network::probe_route_into`] reads the same
//! route without a draw, so the fluid fast path and the record-route option
//! see exactly the links the packets cross.

use crate::fault::FaultSchedule;
use crate::fib::{ecmp_pick, Fib};
use crate::icmp::RateLimiter;
use crate::ip::Ipv4;
use crate::noise::{self, IdMap};
use crate::queue::LinkState;
use crate::time::SimTime;
use crate::topo::{Direction, LinkId, RouterId, Topology};
use std::ops::Range;

/// Maximum hops a packet may take before we declare a forwarding loop.
const MAX_HOPS: usize = 64;

/// A probe to inject.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSpec {
    /// Source host (a router that terminates traffic).
    pub src: RouterId,
    /// Source address (must belong to `src`).
    pub src_addr: Ipv4,
    pub dst: Ipv4,
    pub ttl: u8,
    /// Flow identifier (the ICMP checksum TSLP keeps constant, §3.1).
    pub flow_id: u16,
}

/// Outcome of a probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbeStatus {
    /// TTL expired; ICMP time-exceeded received.
    TimeExceeded { from: Ipv4, rtt_ms: f64 },
    /// Destination answered.
    EchoReply { from: Ipv4, rtt_ms: f64 },
    /// Probe or reply lost (queue drop, rate limiting, unresponsive router).
    Lost,
    /// No route to the destination.
    Unroutable,
}

impl ProbeStatus {
    pub fn rtt(&self) -> Option<f64> {
        match *self {
            ProbeStatus::TimeExceeded { rtt_ms, .. } | ProbeStatus::EchoReply { rtt_ms, .. } => {
                Some(rtt_ms)
            }
            _ => None,
        }
    }

    pub fn responder(&self) -> Option<Ipv4> {
        match *self {
            ProbeStatus::TimeExceeded { from, .. } | ProbeStatus::EchoReply { from, .. } => {
                Some(from)
            }
            _ => None,
        }
    }
}

/// One hop of a deterministic path walk (no loss draws).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopObservation {
    pub router: RouterId,
    /// Ingress interface address at this router (what a traceroute sees).
    pub ingress_addr: Ipv4,
    pub link: LinkId,
    pub direction: Direction,
    /// Whether `router` terminates the walk's destination (a local
    /// interface address or one of its host prefixes).
    pub terminates: bool,
}

/// How a path walk ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum PathEnd {
    /// Stopped at the caller's hop bound; `Network::resolve_path` extends
    /// the walk from the last hop when a probe needs more.
    #[default]
    Truncated,
    /// The last hop's router terminates the destination.
    Terminated,
    /// The last router has no route to the destination.
    DeadEnd,
    /// [`MAX_HOPS`] hops without terminating: a forwarding loop.
    Loop,
}

/// The forward path of one probe flow: a function of `(src, src_addr, dst,
/// flow_id)` and the routing epoch, resolved hop by hop once and replayed
/// for every probe that shares the key — the TTLs of one traceroute, the
/// near and far probe of one TSLP destination, the retries of either.
/// Holds routing only: link load, loss and every fault are evaluated when a
/// probe is replayed over it.
#[derive(Debug, Default)]
struct ResolvedPath {
    /// What `hops` was resolved for; `None` before the first resolution.
    key: Option<PathKey>,
    hops: Vec<HopObservation>,
    end: PathEnd,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PathKey {
    src: RouterId,
    src_addr: Ipv4,
    dst: Ipv4,
    flow_id: u16,
    /// Index of the routing epoch the hops were resolved under.
    epoch: usize,
}

/// Who answers a probe over its resolved path ([`ResolvedPath::answer`]).
#[derive(Debug, Clone, Copy)]
enum Answer {
    ZeroTtl,
    /// `router` answers from `addr`: a time-exceeded from the expiry hop's
    /// ingress interface when `expired`, else an echo from the destination.
    From { router: RouterId, addr: Ipv4, expired: bool },
    Unroutable,
    Loop,
}

impl ResolvedPath {
    /// The one answer rule, for [`Network::send_probe_via`] and
    /// [`Network::probe_route_into`] alike: how a probe of `spec` over this
    /// path is answered, and how many hops it crosses first. A time-exceeded
    /// at hop `ttl` unless that hop terminates the destination (a loop back
    /// through the source runs on), else the path's end decides.
    fn answer(&self, spec: &ProbeSpec) -> (usize, Answer) {
        let ttl = spec.ttl as usize;
        if ttl == 0 {
            return (0, Answer::ZeroTtl);
        }
        if let Some(hop) = self.hops.get(ttl - 1).filter(|h| !h.terminates) {
            let (router, addr) = (hop.router, hop.ingress_addr);
            return (ttl, Answer::From { router, addr, expired: true });
        }
        let answer = match (self.end, self.hops.last()) {
            (PathEnd::Terminated, Some(last)) => {
                Answer::From { router: last.router, addr: spec.dst, expired: false }
            }
            (PathEnd::DeadEnd, _) => Answer::Unroutable,
            (PathEnd::Loop, _) => Answer::Loop,
            _ => unreachable!("resolve_path walks to the probe's TTL or the path's end"),
        };
        (self.hops.len(), answer)
    }
}

/// How one TTL of a flow is answered over its [`ResolvedPath`], and the way
/// the answer takes home: all a probe's replay reads besides the hops.
#[derive(Debug, Clone)]
struct Leg {
    ttl: u8,
    /// Forward hops crossed before the answer.
    crossings: usize,
    answer: Answer,
    /// The answer's crossings back to the prober, in order: a range of
    /// [`FlowRoute::reply`]. Empty unless the answer is [`Answer::From`].
    reply: Range<usize>,
    /// Whether the reply is delivered after crossing `reply`; `false` when
    /// it dead-ends or loops on the way.
    delivered: bool,
}

/// The route of one probe flow under one routing epoch: its resolved
/// forward path and, for each TTL probed so far, the answer and the reply
/// leg. Derived from the network alone — every draw, fault and load is
/// evaluated when a probe is replayed over it — so a caller that sends the
/// same flows again and again (TSLP's destinations, round after round)
/// keeps one per flow: [`Network::send_probe_via`] re-resolves it only when
/// the flow or the routing epoch differs from what it holds. Memory grows
/// with the TTLs probed over one flow, never with the probes sent.
#[derive(Debug, Default)]
pub struct FlowRoute {
    path: ResolvedPath,
    legs: Vec<Leg>,
    /// Every leg's reply crossings, back to back.
    reply: Vec<(LinkId, Direction)>,
}

/// What [`Network::send_probe`] would cross and who would answer, were
/// nothing lost on the way ([`Network::probe_route_into`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProbeRoute {
    /// Links the probe crosses up to the answering hop, in order.
    pub forward: Vec<(LinkId, Direction)>,
    pub responder: RouterId,
    /// The address the answer comes from and its reply hashes on (before
    /// any renumbering fault rewrites it).
    pub responder_addr: Ipv4,
    /// Links the answer crosses back to the prober, in order.
    pub reply: Vec<(LinkId, Direction)>,
}

/// Reusable buffers for path walks. Owned by [`SimState`] so every
/// measurement driver gets an arena that lives as long as its probing state:
/// once the vectors reach their high-water mark, `send_probe` and
/// `record_route_into` stop allocating entirely (asserted by
/// `tests/alloc_lean.rs`). Deliberately excluded from checkpoint
/// serialization — everything here is re-derived from the network on demand.
#[derive(Debug, Default)]
struct PathScratch {
    /// The route `record_route_into` read last.
    route: ProbeRoute,
    /// Route of the flow `send_probe` or `probe_route_into` served last.
    flow: FlowRoute,
    /// Next hops of the replies routed last.
    sink: SinkTree,
}

/// One memoized step of a reply toward the root of a [`SinkTree`]: the link
/// to leave on and the direction to cross it in, or [`SinkStep::DELIVER`]
/// at a router that terminates the destination. Packed into four bytes —
/// every vantage point keeps a tree, a thousand-odd routers each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SinkStep(u32);

impl SinkStep {
    const DELIVER: SinkStep = SinkStep(u32::MAX);
    /// Set on a link id when the link is crossed B→A.
    const B_TO_A: u32 = 1 << 31;

    fn forward(link: LinkId, dir: Direction) -> Self {
        assert!(link.0 < Self::B_TO_A - 1, "link id must leave the top bit free");
        SinkStep(link.0 | if dir == Direction::BtoA { Self::B_TO_A } else { 0 })
    }

    /// The crossing to make, or `None` to deliver here.
    fn crossing(self) -> Option<(LinkId, Direction)> {
        let dir = if self.0 & Self::B_TO_A == 0 { Direction::AtoB } else { Direction::BtoA };
        (self != Self::DELIVER).then_some((LinkId(self.0 & !Self::B_TO_A), dir))
    }
}

/// Replies to one vantage point all route toward its address, so their
/// paths form a tree rooted there. The tree is filled lazily, only at the
/// routers replies actually visit and only where the FIB offers a single
/// next hop — an ECMP group hashes on the responding interface, so those
/// routers are looked up live. Valid for one destination under one routing
/// epoch; emptied when either changes.
#[derive(Debug, Default)]
struct SinkTree {
    /// `(destination, routing epoch index)` the steps lead toward.
    root: Option<(Ipv4, usize)>,
    steps: IdMap<RouterId, SinkStep>,
}

/// Mutable simulation state: ICMP rate limiter buckets and the draw counter
/// feeding probe-level randomness. One `SimState` per measurement driver;
/// probes must be issued in nondecreasing time order for rate limiting to be
/// meaningful (the drivers do). Each driver owns its buckets: a driver on
/// its own clock — a bdrmap cycle paced hours ahead of the TSLP round it
/// runs in — probes through a [`Self::fork`], so its timestamps never reach
/// the buckets of the driver it forked from.
#[derive(Debug, Default)]
pub struct SimState {
    limiters: IdMap<RouterId, RateLimiter>,
    counter: u64,
    /// Reusable buffers for allocation-lean path walks.
    scratch: PathScratch,
}

impl SimState {
    pub fn new() -> Self {
        SimState::default()
    }

    fn next(&mut self) -> u64 {
        self.counter += 1;
        self.counter
    }

    /// A driver of its own that continues this one's noise draws: no
    /// limiter buckets, this state's draw counter (and its scratch buffers,
    /// to spare the allocation). Hand it back with [`Self::join`].
    pub fn fork(&mut self) -> SimState {
        SimState {
            limiters: IdMap::default(),
            counter: self.counter,
            scratch: std::mem::take(&mut self.scratch),
        }
    }

    /// Take back a [`Self::fork`]'s draw counter and scratch buffers, so the
    /// next fork does not replay its draws. Its limiter buckets are dropped.
    pub fn join(&mut self, fork: SimState) {
        self.counter = fork.counter;
        self.scratch = fork.scratch;
    }

    /// Checkpoint serialization: the draw counter plus every limiter bucket
    /// as `(router, tokens_bits, last)`, sorted by router for determinism.
    /// Token levels travel as `f64::to_bits` so the round trip is exact.
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

    /// Rebuild from [`Self::export`] output. A resumed driver continues the
    /// exact noise-draw and rate-limit sequence of the checkpointed one.
    pub fn import(counter: u64, limiters: &[(u32, u64, i64)]) -> SimState {
        SimState {
            counter,
            limiters: limiters
                .iter()
                .map(|&(r, bits, last)| {
                    (RouterId(r), RateLimiter::from_parts(f64::from_bits(bits), last))
                })
                .collect(),
            scratch: PathScratch::default(),
        }
    }
}

/// The queue-jitter noise stream of one link direction.
fn link_stream(link: LinkId, dir: Direction) -> u64 {
    (link.0 as u64) << 1 | matches!(dir, Direction::BtoA) as u64
}

/// The simulated network: an immutable topology plus time-versioned routing.
///
/// Routing tables are organized as *epochs*: `(activation_time, per-router
/// FIBs)`. Most scenarios install a single epoch; routing-change experiments
/// (the probing-set staleness the paper handles in §3.2) add more.
pub struct Network {
    pub topo: Topology,
    epochs: Vec<(SimTime, Vec<Fib>)>,
    pub seed: u64,
    /// Fault injection: a deterministic schedule of timed failures (extra
    /// loss, interface silence, router reboots, ICMP rate-limit tightening,
    /// route flaps, renumbering, clock skew) consumed on every probe.
    /// Empty in normal operation; robustness tests install events (the old
    /// global drop knob is `FaultKind::ExtraLoss` at `FaultScope::Global`).
    pub fault: FaultSchedule,
}

impl Network {
    /// Create a network with an initial routing epoch active from t=-inf.
    pub fn new(topo: Topology, fibs: Vec<Fib>, seed: u64) -> Self {
        assert_eq!(fibs.len(), topo.routers.len(), "one FIB per router");
        Network { topo, epochs: vec![(SimTime::MIN, fibs)], seed, fault: FaultSchedule::new() }
    }

    /// Install a new routing epoch activating at `t` (must be the latest).
    pub fn add_epoch(&mut self, t: SimTime, fibs: Vec<Fib>) {
        assert_eq!(fibs.len(), self.topo.routers.len(), "one FIB per router");
        assert!(
            self.epochs.last().is_none_or(|(t0, _)| *t0 < t),
            "epochs must be appended in increasing time order"
        );
        self.epochs.push((t, fibs));
    }

    /// Index of the routing epoch active at `t`.
    fn epoch_at(&self, t: SimTime) -> usize {
        self.epochs.partition_point(|(t0, _)| *t0 <= t) - 1
    }

    fn fibs_at(&self, t: SimTime) -> &[Fib] {
        &self.epochs[self.epoch_at(t)].1
    }

    /// FIB of one router at time `t` (diagnostics).
    pub fn fib(&self, router: RouterId, t: SimTime) -> &Fib {
        &self.fibs_at(t)[router.0 as usize]
    }

    /// Ground truth: the state of `link` in direction `dir` at `t`.
    ///
    /// Analysis code must NOT call this — it exists for the §5.4
    /// operator-validation harness, the NDT throughput model, and tests.
    pub fn link_state(&self, link: LinkId, dir: Direction, t: SimTime) -> LinkState {
        let l = self.topo.link(link);
        match l.load(dir) {
            Some(m) => l.queue.state(m.utilization(t), self.seed, link_stream(link, dir), t),
            None => LinkState::idle(),
        }
    }

    /// One column of [`Self::link_state`]: entry `i` of `queue_ms` and
    /// `loss` is the state at `col.at(i)`, bit for bit, computed through the
    /// load model's batched
    /// [`LoadModel::utilization_into`](crate::traffic::LoadModel::utilization_into)
    /// and the column's shared per-bin hash terms. The fluid fast path reads
    /// a link's columns instead of calling `link_state` once per probe path
    /// crossing it.
    pub fn link_states_into(
        &self,
        link: LinkId,
        dir: Direction,
        col: &noise::BinColumn,
        queue_ms: &mut [f64],
        loss: &mut [f64],
    ) {
        assert!(queue_ms.len() == col.len() && loss.len() == col.len(), "one column length");
        let l = self.topo.link(link);
        let Some(m) = l.load(dir) else {
            let idle = LinkState::idle();
            queue_ms.fill(idle.queue_ms);
            loss.fill(idle.loss);
            return;
        };
        // Utilization lands in `queue_ms` and is replaced in place.
        m.utilization_into(col, queue_ms);
        let stream = link_stream(link, dir);
        for ((q, p), &mb) in queue_ms.iter_mut().zip(loss.iter_mut()).zip(col.mixed()) {
            let s = l.queue.state_mixed(*q, self.seed, stream, mb);
            (*q, *p) = (s.queue_ms, s.loss);
        }
    }

    /// Deterministic next-hop decision at `cur` for `dst` under flow
    /// `flow_id`: the hop taken and the size of the ECMP group it was picked
    /// from. `None` when `cur` has no route.
    fn forward_hop(
        &self,
        fibs: &[Fib],
        cur: RouterId,
        dst: Ipv4,
        src_for_hash: Ipv4,
        flow_id: u16,
    ) -> Option<(HopObservation, usize)> {
        let group = fibs[cur.0 as usize].lookup(dst)?;
        let egress = ecmp_pick(group, flow_id, src_for_hash, dst, cur.0 as u64);
        let link = self.topo.iface(egress).link?;
        let peer = self.topo.peer_iface(egress).expect("connected iface has a peer");
        let hop = HopObservation {
            router: peer.router,
            ingress_addr: peer.addr,
            link,
            direction: self.topo.link_direction(link, egress),
            terminates: self.topo.terminates(peer.router, dst),
        };
        Some((hop, group.len()))
    }

    /// The one path walker: extend `hops` — a prefix, possibly empty, of the
    /// walk from `src` toward `dst` — until the path ends or holds `limit`
    /// hops.
    ///
    /// A router that terminates `dst` ends the walk, except `src` itself: a
    /// probe is forwarded away from its source even when the source owns
    /// the destination.
    #[allow(clippy::too_many_arguments)]
    fn walk(
        &self,
        fibs: &[Fib],
        src: RouterId,
        src_for_hash: Ipv4,
        dst: Ipv4,
        flow_id: u16,
        limit: usize,
        hops: &mut Vec<HopObservation>,
    ) -> PathEnd {
        let (mut cur, mut terminated) =
            hops.last().map_or((src, false), |h| (h.router, h.terminates));
        // A loop that re-enters a terminating `src` lets a probe outrun its
        // TTL (nothing expires there), so such a walk ignores `limit`.
        let mut unbounded = hops.iter().any(|h| h.terminates);
        loop {
            if hops.len() >= MAX_HOPS {
                return PathEnd::Loop;
            }
            if terminated && cur != src {
                return PathEnd::Terminated;
            }
            if hops.len() >= limit && !unbounded {
                return PathEnd::Truncated;
            }
            let Some((hop, _)) = self.forward_hop(fibs, cur, dst, src_for_hash, flow_id) else {
                return PathEnd::DeadEnd;
            };
            hops.push(hop);
            (cur, terminated) = (hop.router, hop.terminates);
            unbounded |= terminated;
        }
    }

    /// Make `path` hold the forward path of flow `key`, at least as far as
    /// `ttl` hops (or to its end). Hops already resolved for the same flow
    /// and epoch are kept, so the TTLs of one traceroute walk the path once
    /// between them.
    fn resolve_path(&self, key: PathKey, ttl: u8, path: &mut ResolvedPath) {
        if path.key != Some(key) {
            path.key = Some(key);
            path.hops.clear();
            path.end = PathEnd::Truncated;
        }
        if path.end == PathEnd::Truncated && path.hops.len() < ttl as usize {
            path.end = self.walk(
                &self.epochs[key.epoch].1,
                key.src,
                key.src_addr,
                key.dst,
                key.flow_id,
                ttl as usize,
                &mut path.hops,
            );
        }
    }

    /// The one resolver: make `route` hold the leg of `spec` under the
    /// routing epoch active at `t` and return its index. A route of another
    /// flow or epoch starts over; a TTL it has not answered yet extends the
    /// forward path as far as it needs ([`Self::resolve_path`]), takes the
    /// answer rule's verdict and walks the reply home through the sink tree
    /// of `state`, a reply that never arrives included. Draw-free.
    fn resolve(
        &self,
        state: &mut SimState,
        route: &mut FlowRoute,
        spec: &ProbeSpec,
        t: SimTime,
    ) -> usize {
        let (src, src_addr, dst, flow_id) = (spec.src, spec.src_addr, spec.dst, spec.flow_id);
        let key = PathKey { src, src_addr, dst, flow_id, epoch: self.epoch_at(t) };
        if route.path.key != Some(key) {
            route.legs.clear();
            route.reply.clear();
        } else if let Some(i) = route.legs.iter().position(|l| l.ttl == spec.ttl) {
            return i;
        }
        self.resolve_path(key, spec.ttl, &mut route.path);
        let (crossings, answer) = route.path.answer(spec);
        let start = route.reply.len();
        let delivered = match answer {
            Answer::From { router, addr, .. } => {
                let (sink, to, flow) = (&mut state.scratch.sink, spec.src_addr, spec.flow_id);
                self.reply_walk(sink, key.epoch, router, addr, to, flow, &mut route.reply)
            }
            _ => false,
        };
        let reply = start..route.reply.len();
        route.legs.push(Leg { ttl: spec.ttl, crossings, answer, reply, delivered });
        route.legs.len() - 1
    }

    /// Walk the forward path from `src` toward `dst` without loss draws.
    ///
    /// Used by ground-truth inspection and the TCP-flow models, which need
    /// the links a flow crosses; a probe's route is [`Self::probe_route_into`].
    /// The walk stops at the terminating router, at a routing dead end, or
    /// after the 64-hop loop guard.
    pub fn forward_path(
        &self,
        src: RouterId,
        dst: Ipv4,
        flow_id: u16,
        t: SimTime,
    ) -> Vec<HopObservation> {
        let mut out = Vec::new();
        self.forward_path_into(src, dst, flow_id, t, &mut out);
        out
    }

    /// [`Self::forward_path`] into a caller-owned buffer (cleared first).
    /// With a reused buffer, steady-state walks allocate nothing.
    pub fn forward_path_into(
        &self,
        src: RouterId,
        dst: Ipv4,
        flow_id: u16,
        t: SimTime,
        out: &mut Vec<HopObservation>,
    ) {
        out.clear();
        // Unlike a probe, a plain walk from a router that owns `dst` is
        // already there.
        if self.topo.terminates(src, dst) {
            return;
        }
        let src_addr = self
            .topo
            .router(src)
            .ifaces
            .first()
            .map(|&i| self.topo.iface(i).addr)
            .unwrap_or(Ipv4::UNSPECIFIED);
        self.walk(self.fibs_at(t), src, src_addr, dst, flow_id, MAX_HOPS, out);
    }

    /// Cross one link: returns `Some(one-way delay in ms)` or `None` if the
    /// packet is dropped.
    ///
    /// Successful crossings are tallied into `crossed` (a per-probe local)
    /// rather than a counter here: a probe crosses ~10-20 links, and one
    /// `packets_forwarded.add(crossed)` per probe keeps the instrumented hot
    /// path inside the <5% overhead budget. The fault-blocked counter stays
    /// inline — it only fires when a fault is actually eating packets.
    fn cross(
        &self,
        link: LinkId,
        dir: Direction,
        t: SimTime,
        state: &mut SimState,
        crossed: &mut u64,
    ) -> Option<f64> {
        let l = self.topo.link(link);
        if self.fault.link_blocked(&self.topo, link, t) {
            crate::obs::metrics().fault_link_blocked.inc();
            return None;
        }
        let ls = self.link_state(link, dir, t);
        let p = ls.loss + self.fault.extra_loss(link, t);
        if p > 0.0 && noise::bernoulli(self.seed ^ 0x10_55, link.0 as u64, state.next(), p) {
            return None;
        }
        *crossed += 1;
        Some(l.prop_delay_ms + ls.queue_ms)
    }

    /// Where a reply toward `to_addr` goes from `cur`: from the sink tree
    /// when it knows, else looked up and — where the FIB leaves no choice —
    /// remembered. `None` when `cur` has no route.
    #[allow(clippy::too_many_arguments)]
    fn sink_step(
        &self,
        sink: &mut SinkTree,
        fibs: &[Fib],
        cur: RouterId,
        to_addr: Ipv4,
        from_addr: Ipv4,
        flow_id: u16,
    ) -> Option<SinkStep> {
        if let Some(&step) = sink.steps.get(&cur) {
            return Some(step);
        }
        let (step, single_path) = if self.topo.terminates(cur, to_addr) {
            (SinkStep::DELIVER, true)
        } else {
            let (hop, group) = self.forward_hop(fibs, cur, to_addr, from_addr, flow_id)?;
            (SinkStep::forward(hop.link, hop.direction), group == 1)
        };
        if single_path {
            sink.steps.insert(cur, step);
        }
        Some(step)
    }

    /// Walk a reply from `from`, answering from `from_addr`, back to
    /// `to_addr` under routing epoch `epoch`: next hops from `sink`, each
    /// crossing appended to `out` in path order. Returns whether the reply
    /// is delivered; `false` when it dead-ends or loops, after the crossings
    /// it made on the way.
    #[allow(clippy::too_many_arguments)]
    fn reply_walk(
        &self,
        sink: &mut SinkTree,
        epoch: usize,
        from: RouterId,
        from_addr: Ipv4,
        to_addr: Ipv4,
        flow_id: u16,
        out: &mut Vec<(LinkId, Direction)>,
    ) -> bool {
        if sink.root != Some((to_addr, epoch)) {
            sink.root = Some((to_addr, epoch));
            sink.steps.clear();
        }
        let fibs = &self.epochs[epoch].1;
        let mut cur = from;
        for _ in 0..MAX_HOPS {
            let Some(step) = self.sink_step(sink, fibs, cur, to_addr, from_addr, flow_id) else {
                return false;
            };
            let Some((link, dir)) = step.crossing() else { return true };
            out.push((link, dir));
            cur = self.topo.link_head(link, dir);
        }
        false
    }

    /// The ICMP rate limit `(pps, burst)` in force at `router` at `t`: the
    /// router's own profile, unless an injected limit is tighter (the
    /// smaller pps wins). `None` when neither limits it.
    #[inline]
    pub fn icmp_rate_limit(&self, router: RouterId, t: SimTime) -> Option<(f64, f64)> {
        let prof = &self.topo.router(router).icmp;
        match (prof.rate_limit_pps, self.fault.icmp_limit(router, t)) {
            (Some(own), Some((inj, ib))) if inj < own => Some((inj, ib)),
            (Some(own), _) => Some((own, prof.rate_limit_burst)),
            (None, inj) => inj,
        }
    }

    /// Generate an ICMP response at `router`: applies unresponsiveness,
    /// rate limiting, and slow-path delay. Returns the generation delay.
    fn icmp_generate(
        &self,
        router: RouterId,
        t: SimTime,
        state: &mut SimState,
    ) -> Option<f64> {
        let m = crate::obs::metrics();
        if self.fault.icmp_suppressed(router, t) {
            m.icmp_suppressed_fault.inc();
            return None;
        }
        let prof = &self.topo.router(router).icmp;
        if prof.unresponsive_prob > 0.0
            && noise::bernoulli(self.seed ^ 0x1C_3F, router.0 as u64, state.next(), prof.unresponsive_prob)
        {
            m.icmp_unresponsive.inc();
            return None;
        }
        if let Some(flaky) = prof.flaky {
            if flaky.is_flaky_now(self.seed, router.0 as u64, t)
                && noise::bernoulli(self.seed ^ 0xF1A7, router.0 as u64, state.next(), flaky.drop_prob)
            {
                m.icmp_flaky_drop.inc();
                return None;
            }
        }
        if let Some((pps, burst)) = self.icmp_rate_limit(router, t) {
            let rl = state
                .limiters
                .entry(router)
                .or_insert_with(|| RateLimiter::new(burst, t));
            if !rl.allow(pps, burst, t) {
                m.icmp_rate_limited.inc();
                return None;
            }
        }
        let mut delay = prof.base_ms;
        if prof.slow_path_prob > 0.0
            && noise::bernoulli(self.seed ^ 0x51_0E, router.0 as u64, state.next(), prof.slow_path_prob)
        {
            m.icmp_slow_path.inc();
            delay += prof.slow_path_ms
                * (0.5 + 0.5 * noise::uniform(self.seed ^ 0x51_0F, router.0 as u64, state.next()));
        }
        m.icmp_generated.inc();
        Some(delay)
    }

    /// Where a probe of `spec` sent at `t` goes and who answers it, read
    /// without a draw off the route [`Self::send_probe`] resolves (the
    /// scratch route of `state`), into `route` (legs cleared first). Returns
    /// whether an answer can come back — not for a zero TTL, a dead end or
    /// loop before the TTL runs out, or a reply that cannot route home; on
    /// `false` the route is meaningless.
    pub fn probe_route_into(
        &self,
        state: &mut SimState,
        spec: ProbeSpec,
        t: SimTime,
        route: &mut ProbeRoute,
    ) -> bool {
        route.forward.clear();
        route.reply.clear();
        let mut flow = std::mem::take(&mut state.scratch.flow);
        let leg = self.resolve(state, &mut flow, &spec, t);
        let leg = &flow.legs[leg];
        let forward = &flow.path.hops[..leg.crossings];
        route.forward.extend(forward.iter().map(|h| (h.link, h.direction)));
        let answered = match leg.answer {
            Answer::From { router, addr, .. } => {
                (route.responder, route.responder_addr) = (router, addr);
                route.reply.extend_from_slice(&flow.reply[leg.reply.clone()]);
                leg.delivered
            }
            _ => false,
        };
        state.scratch.flow = flow;
        answered
    }

    /// A probe's route with the IP record-route option: the *egress*
    /// interface address of each link crossed, forward leg then reply leg,
    /// capped at the option's nine slots. Deterministic (no loss draws) —
    /// callers combine it with [`Self::send_probe`] when delivery odds
    /// matter. `None` where [`Self::probe_route_into`] finds no answer.
    pub fn record_route(
        &self,
        src: RouterId,
        src_addr: Ipv4,
        dst: Ipv4,
        ttl: u8,
        flow_id: u16,
        t: SimTime,
    ) -> Option<Vec<Ipv4>> {
        let mut state = SimState::new();
        let mut slots = Vec::new();
        self.record_route_into(&mut state, src, src_addr, dst, ttl, flow_id, t, &mut slots)
            .then_some(slots)
    }

    /// [`Self::record_route`] through the reusable buffers of `state` and a
    /// caller-owned slot buffer (cleared first). Returns whether an answer
    /// comes back; on `false` the slots are empty. Steady-state calls
    /// allocate nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn record_route_into(
        &self,
        state: &mut SimState,
        src: RouterId,
        src_addr: Ipv4,
        dst: Ipv4,
        ttl: u8,
        flow_id: u16,
        t: SimTime,
        slots: &mut Vec<Ipv4>,
    ) -> bool {
        const RR_SLOTS: usize = 9;
        slots.clear();
        let mut route = std::mem::take(&mut state.scratch.route);
        let spec = ProbeSpec { src, src_addr, dst, ttl, flow_id };
        let routed = self.probe_route_into(state, spec, t, &mut route);
        if routed {
            let egress = |&(link, dir): &(LinkId, Direction)| {
                let [a, b] = self.topo.link(link).ifaces;
                self.topo.iface(if dir == Direction::AtoB { a } else { b }).addr
            };
            slots.extend(route.forward.iter().chain(&route.reply).take(RR_SLOTS).map(egress));
        }
        state.scratch.route = route;
        routed
    }

    /// Inject one probe at time `t` and resolve its fate: resolve the
    /// flow's route into the scratch of `state` (a no-op when the probes
    /// before it were of the same flow and epoch, this TTL among them),
    /// then replay the probe over it.
    /// For a one-off flow — a traceroute, an alias probe — this is the
    /// whole story; see [`Self::send_probe_via`] for flows probed again.
    ///
    /// Every exit increments exactly one outcome metric, so
    /// `manic_netsim_probes_sent` always equals the sum of the echo-reply,
    /// time-exceeded, unroutable, and per-reason dropped counters — the
    /// conservation invariant `tests/obs_conservation.rs` asserts.
    pub fn send_probe(&self, state: &mut SimState, spec: ProbeSpec, t: SimTime) -> ProbeStatus {
        // `mem::take` swaps in an empty route without allocating, so the
        // route and the rest of `state` can be borrowed independently.
        let mut flow = std::mem::take(&mut state.scratch.flow);
        let status = self.send_probe_via(state, &mut flow, spec, t);
        state.scratch.flow = flow;
        status
    }

    /// [`Self::send_probe`] over a caller-kept `route`: the route is
    /// re-resolved only when it holds another flow or routing epoch than
    /// `spec` at `t`, or not yet this TTL, and the probe is then replayed
    /// over it exactly as `send_probe` replays its scratch route — the same
    /// outcome and the same draws from `state`, bit for bit. A prober that
    /// keeps one route per destination it probes every round walks no FIB
    /// between routing changes.
    pub fn send_probe_via(
        &self,
        state: &mut SimState,
        route: &mut FlowRoute,
        spec: ProbeSpec,
        t: SimTime,
    ) -> ProbeStatus {
        let m = crate::obs::metrics();
        m.probes_sent.inc();
        let leg = self.resolve(state, route, &spec, t);
        let mut crossed = 0u64;
        let status = self.replay(route, &route.legs[leg], state, &spec, t, m, &mut crossed);
        m.packets_forwarded.add(crossed);
        status
    }

    /// Answer a probe from `addr` on `router` — a time-exceeded from the
    /// expiry hop's ingress interface, or an echo reply from the
    /// destination address — and bring the answer home over `reply`, its
    /// resolved crossings, `delivered` saying whether it arrives after them.
    /// Returns the source address the answer carries, the ICMP generation
    /// delay and the reply-leg delay; `None` (after counting the reason)
    /// when no answer arrives.
    #[allow(clippy::too_many_arguments)]
    fn respond(
        &self,
        router: RouterId,
        addr: Ipv4,
        reply: &[(LinkId, Direction)],
        delivered: bool,
        t: SimTime,
        state: &mut SimState,
        m: &crate::obs::Metrics,
        crossed: &mut u64,
    ) -> Option<(Ipv4, f64, f64)> {
        if self.fault.silent_addr(&self.topo, addr, t) {
            m.drop_silent_addr.inc();
            return None;
        }
        let Some(gen) = self.icmp_generate(router, t, state) else {
            m.drop_icmp_denied.inc();
            return None;
        };
        let mut rev = 0.0;
        for &(link, dir) in reply {
            let Some(delay) = self.cross(link, dir, t, state, crossed) else {
                m.drop_reply_lost.inc();
                return None;
            };
            rev += delay;
        }
        if !delivered {
            m.drop_reply_lost.inc();
            return None;
        }
        // Renumbering rewrites the source address the reply carries; the
        // reply still routes from the real interface.
        Some((self.fault.renumbered(&self.topo, addr, t), gen, rev))
    }

    /// Send one probe of `spec` along `leg` of its resolved `route`: cross
    /// each link up to the answering hop under the load, loss and faults of
    /// time `t`, then have the answer generated and brought home. Reads the
    /// route only: no routing happens here (`ci/lint_probe_route.sh`).
    #[allow(clippy::too_many_arguments)]
    fn replay(
        &self,
        route: &FlowRoute,
        leg: &Leg,
        state: &mut SimState,
        spec: &ProbeSpec,
        t: SimTime,
        m: &crate::obs::Metrics,
        crossed: &mut u64,
    ) -> ProbeStatus {
        // A VP with a skewed clock reports every RTT offset by the skew.
        let skew = self.fault.clock_skew_ms(spec.src, t);
        let mut fwd = 0.0;
        for hop in &route.path.hops[..leg.crossings] {
            let Some(delay) = self.cross(hop.link, hop.direction, t, state, crossed) else {
                m.drop_forward_loss.inc();
                return ProbeStatus::Lost;
            };
            fwd += delay;
        }
        match leg.answer {
            Answer::ZeroTtl => {
                m.drop_zero_ttl.inc();
                ProbeStatus::Lost
            }
            Answer::From { router, addr, expired } => {
                let reply = &route.reply[leg.reply.clone()];
                let Some((from, gen, rev)) =
                    self.respond(router, addr, reply, leg.delivered, t, state, m, crossed)
                else {
                    return ProbeStatus::Lost;
                };
                let rtt_ms = fwd + gen + rev + skew;
                if expired {
                    m.time_exceeded.inc();
                    ProbeStatus::TimeExceeded { from, rtt_ms }
                } else {
                    m.echo_reply.inc();
                    ProbeStatus::EchoReply { from, rtt_ms }
                }
            }
            Answer::Unroutable => {
                m.unroutable.inc();
                ProbeStatus::Unroutable
            }
            Answer::Loop => {
                m.drop_routing_loop.inc();
                ProbeStatus::Lost
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::icmp::IcmpProfile;
    use crate::ip::Prefix;
    use crate::queue::QueueModel;
    use crate::topo::{AsNumber, IfaceId, LinkKind};
    use crate::traffic::ConstantLoad;
    use std::sync::Arc;

    pub(super) fn ip(s: &str) -> Ipv4 {
        s.parse().unwrap()
    }

    /// Chain: host(vp) -- r1 -- r2 ==interdomain== r3 -- dsthost(10.9.0.0/24)
    /// The r2--r3 link gets a configurable load model in the r2->r3 direction
    /// via `fwd_util` and in the r3->r2 (reply) direction via `rev_util`.
    pub(super) fn chain(fwd_util: f64, rev_util: f64) -> (Network, RouterId) {
        let mut t = Topology::new();
        let vp = t.add_router(AsNumber(100), "vp", "nyc", -5, IcmpProfile::default());
        let r1 = t.add_router(AsNumber(100), "r1", "nyc", -5, IcmpProfile::default());
        let r2 = t.add_router(AsNumber(100), "r2", "nyc", -5, IcmpProfile::default());
        let r3 = t.add_router(AsNumber(200), "r3", "nyc", -5, IcmpProfile::default());
        let dst = t.add_router(AsNumber(200), "dst", "nyc", -5, IcmpProfile::default());

        let vp0 = t.add_iface(vp, ip("10.0.0.10"));
        let r1a = t.add_iface(r1, ip("10.0.0.1"));
        let r1b = t.add_iface(r1, ip("10.0.1.1"));
        let r2a = t.add_iface(r2, ip("10.0.1.2"));
        let r2b = t.add_iface(r2, ip("10.0.2.1"));
        let r3a = t.add_iface(r3, ip("10.0.2.2"));
        let r3b = t.add_iface(r3, ip("10.0.3.1"));
        let d0 = t.add_iface(dst, ip("10.0.3.2"));

        t.connect(vp0, r1a, LinkKind::Access, 0.5, 1000.0, QueueModel::default(), None, None);
        t.connect(r1b, r2a, LinkKind::Internal, 2.0, 10_000.0, QueueModel::default(), None, None);
        t.connect(
            r2b,
            r3a,
            LinkKind::Interdomain,
            5.0,
            10_000.0,
            QueueModel { jitter_ms: 0.0, overload_elasticity: 1.0, ..QueueModel::default() },
            Some(Arc::new(ConstantLoad(fwd_util))),
            Some(Arc::new(ConstantLoad(rev_util))),
        );
        t.connect(r3b, d0, LinkKind::Access, 0.5, 1000.0, QueueModel::default(), None, None);
        t.add_host_prefix("10.9.0.0/24".parse().unwrap(), dst);

        // FIBs: everything toward 10.9/24 goes right; replies go left.
        let n = t.routers.len();
        let mut fibs = vec![Fib::new(); n];
        let dstp: Prefix = "10.9.0.0/24".parse().unwrap();
        let left: Prefix = "10.0.0.0/16".parse().unwrap();
        fibs[vp.0 as usize].insert(dstp, vec![vp0]);
        fibs[vp.0 as usize].insert("10.0.0.0/8".parse().unwrap(), vec![vp0]);
        fibs[r1.0 as usize].insert(dstp, vec![r1b]);
        fibs[r1.0 as usize].insert(Prefix::host(ip("10.0.0.10")), vec![r1a]);
        fibs[r1.0 as usize].insert("10.0.2.0/24".parse().unwrap(), vec![r1b]);
        fibs[r2.0 as usize].insert(dstp, vec![r2b]);
        fibs[r2.0 as usize].insert(left, vec![r2a]);
        fibs[r3.0 as usize].insert(dstp, vec![r3b]);
        fibs[r3.0 as usize].insert(left, vec![r3a]);
        fibs[dst.0 as usize].insert(left, vec![d0]);

        (Network::new(t, fibs, 7), vp)
    }

    fn probe(net: &Network, vp: RouterId, ttl: u8) -> ProbeStatus {
        probe_at(net, vp, ttl, 0)
    }

    pub(super) fn probe_at(net: &Network, vp: RouterId, ttl: u8, t: SimTime) -> ProbeStatus {
        let mut st = SimState::new();
        net.send_probe(
            &mut st,
            ProbeSpec { src: vp, src_addr: ip("10.0.0.10"), dst: ip("10.9.0.5"), ttl, flow_id: 42 },
            t,
        )
    }

    #[test]
    fn traceroute_hops_in_order() {
        let (net, vp) = chain(0.1, 0.1);
        // TTL 1 expires at r1 (ingress 10.0.0.1), TTL 2 at r2 (10.0.1.2),
        // TTL 3 at r3 (10.0.2.2), TTL 4+ reaches the destination.
        match probe(&net, vp, 1) {
            ProbeStatus::TimeExceeded { from, .. } => assert_eq!(from, ip("10.0.0.1")),
            other => panic!("ttl1: {other:?}"),
        }
        match probe(&net, vp, 2) {
            ProbeStatus::TimeExceeded { from, .. } => assert_eq!(from, ip("10.0.1.2")),
            other => panic!("ttl2: {other:?}"),
        }
        match probe(&net, vp, 3) {
            ProbeStatus::TimeExceeded { from, .. } => assert_eq!(from, ip("10.0.2.2")),
            other => panic!("ttl3: {other:?}"),
        }
        match probe(&net, vp, 10) {
            ProbeStatus::EchoReply { from, .. } => assert_eq!(from, ip("10.9.0.5")),
            other => panic!("ttl10: {other:?}"),
        }
    }

    #[test]
    fn rtt_grows_with_distance() {
        let (net, vp) = chain(0.1, 0.1);
        let r1 = probe(&net, vp, 1).rtt().unwrap();
        let r2 = probe(&net, vp, 2).rtt().unwrap();
        let r3 = probe(&net, vp, 3).rtt().unwrap();
        assert!(r1 < r2 && r2 < r3, "{r1} {r2} {r3}");
        // r3 crosses the 5ms link twice more than r2 (forward + reply).
        assert!(r3 - r2 > 9.0, "expected ~10ms gap, got {}", r3 - r2);
    }

    #[test]
    fn reverse_direction_congestion_inflates_far_rtt_only() {
        // Congest the interdomain link in the r3->r2 (reply) direction, as a
        // real eyeball-bound content flow would. The near-side probe (ttl 2)
        // never crosses that link; the far-side probe's *reply* does.
        let (quiet, vp) = chain(0.1, 0.1);
        let (congested, _) = chain(0.1, 1.1);
        let near_q = probe(&quiet, vp, 2).rtt().unwrap();
        let near_c = probe(&congested, vp, 2).rtt().unwrap();
        let far_q = probe(&quiet, vp, 3).rtt().unwrap();
        let mut far_c = None;
        // Overload drops ~9% of replies; retry until one gets through.
        let mut st = SimState::new();
        for i in 0..50 {
            let s = congested.send_probe(
                &mut st,
                ProbeSpec {
                    src: vp,
                    src_addr: ip("10.0.0.10"),
                    dst: ip("10.9.0.5"),
                    ttl: 3,
                    flow_id: 42,
                },
                i,
            );
            if let Some(r) = s.rtt() {
                far_c = Some(r);
                break;
            }
        }
        let far_c = far_c.expect("at least one far probe should survive");
        assert!((near_q - near_c).abs() < 2.0, "near end unaffected");
        assert!(far_c > far_q + 30.0, "far RTT elevated by standing queue: {far_q} -> {far_c}");
    }

    #[test]
    fn forward_direction_congestion_inflates_far_rtt() {
        let (congested, vp) = chain(1.2, 0.1);
        let mut st = SimState::new();
        let mut got = None;
        for i in 0..100 {
            let s = congested.send_probe(
                &mut st,
                ProbeSpec {
                    src: vp,
                    src_addr: ip("10.0.0.10"),
                    dst: ip("10.9.0.5"),
                    ttl: 3,
                    flow_id: 42,
                },
                i,
            );
            if let Some(r) = s.rtt() {
                got = Some(r);
                break;
            }
        }
        assert!(got.expect("some probe survives") > 40.0);
    }

    #[test]
    fn overload_drops_probes() {
        let (congested, vp) = chain(2.0, 0.1); // 50% forward loss
        let mut st = SimState::new();
        let lost = (0..200)
            .filter(|&i| {
                congested
                    .send_probe(
                        &mut st,
                        ProbeSpec {
                            src: vp,
                            src_addr: ip("10.0.0.10"),
                            dst: ip("10.9.0.5"),
                            ttl: 3,
                            flow_id: 42,
                        },
                        i,
                    )
                    .rtt()
                    .is_none()
            })
            .count();
        assert!(lost > 60 && lost < 140, "expected ~50% loss, saw {lost}/200");
    }

    #[test]
    fn unroutable_and_zero_ttl() {
        let (net, vp) = chain(0.1, 0.1);
        let mut st = SimState::new();
        let s = net.send_probe(
            &mut st,
            ProbeSpec { src: vp, src_addr: ip("10.0.0.10"), dst: ip("172.16.0.1"), ttl: 5, flow_id: 1 },
            0,
        );
        // VP's default 10/8 route forwards it, then r1 has no route.
        assert!(matches!(s, ProbeStatus::Unroutable), "{s:?}");
        assert_eq!(probe(&net, vp, 0), ProbeStatus::Lost);
    }

    #[test]
    fn forward_path_lists_links() {
        let (net, vp) = chain(0.1, 0.1);
        let path = net.forward_path(vp, ip("10.9.0.5"), 42, 0);
        assert_eq!(path.len(), 4);
        assert_eq!(path[0].ingress_addr, ip("10.0.0.1"));
        assert_eq!(path[2].ingress_addr, ip("10.0.2.2"));
        assert_eq!(path[3].ingress_addr, ip("10.0.3.2"));
        assert_eq!(net.topo.link(path[2].link).kind, LinkKind::Interdomain);
    }

    #[test]
    fn path_is_walked_once_per_flow_and_epoch() {
        let (mut net, vp) = chain(0.1, 0.1);
        // A second epoch with the same routes: only the epoch changes.
        let fibs = (0..net.topo.routers.len() as u32).map(|r| net.fib(RouterId(r), 0).clone());
        let fibs: Vec<Fib> = fibs.collect();
        net.add_epoch(1000, fibs);
        let mut st = SimState::new();
        // Hops held after the probe (a fresh walk stops at the probe's TTL,
        // so the count tells it from an extension), how the walk ended, and
        // how many TTLs the route has answered.
        let mut send = |ttl, flow_id, t| {
            let (src_addr, dst) = (ip("10.0.0.10"), ip("10.9.0.5"));
            net.send_probe(&mut st, ProbeSpec { src: vp, src_addr, dst, ttl, flow_id }, t);
            let flow = &st.scratch.flow;
            (flow.path.hops.len(), flow.path.end, flow.legs.len())
        };
        // A traceroute's TTLs extend one walk hop by hop, a leg per TTL...
        assert_eq!(send(1, 42, 0), (1, PathEnd::Truncated, 1));
        assert_eq!(send(2, 42, 0), (2, PathEnd::Truncated, 2));
        assert_eq!(send(3, 42, 5), (3, PathEnd::Truncated, 3));
        // ...a TTL sent before replays its leg, a lower new one reads a
        // prefix of the walk, and the end is found once.
        assert_eq!(send(2, 42, 5), (3, PathEnd::Truncated, 3));
        assert_eq!(send(9, 42, 5), (4, PathEnd::Terminated, 4));
        assert_eq!(send(1, 42, 9), (4, PathEnd::Terminated, 4));
        assert_eq!(send(4, 42, 9), (4, PathEnd::Terminated, 5));
        // Another flow or another routing epoch starts over.
        assert_eq!(send(1, 43, 9), (1, PathEnd::Truncated, 1));
        assert_eq!(send(2, 43, 999), (2, PathEnd::Truncated, 2));
        assert_eq!(send(2, 43, 1000), (2, PathEnd::Truncated, 1));
        // A caller-kept route — the near and far TTL of one destination —
        // is resolved by its first round and replayed by the next ones
        // while other flows come and go on the scratch route: the legs keep
        // the order of the first round, though later rounds send far first.
        // The epoch starts it over in the order of that round.
        let mut kept = FlowRoute::default();
        let (src_addr, dst) = (ip("10.0.0.10"), ip("10.9.0.5"));
        for t in [0, 300, 600, 900, 1200] {
            let ttls = if t == 0 { [2, 3] } else { [3, 2] };
            for ttl in ttls {
                let spec = ProbeSpec { src: vp, src_addr, dst, ttl, flow_id: 42 };
                assert!(net.send_probe_via(&mut st, &mut kept, spec, t).rtt().is_some());
                net.send_probe(&mut st, ProbeSpec { flow_id: 7, ..spec }, t);
            }
            let epoch = kept.path.key.expect("resolved").epoch;
            let legs: Vec<u8> = kept.legs.iter().map(|l| l.ttl).collect();
            let want = if epoch == 0 { [2, 3] } else { [3, 2] };
            assert_eq!((epoch, kept.path.hops.len(), legs), (t as usize / 1000, 3, want.to_vec()));
        }
    }

    #[test]
    fn routing_epochs_switch_paths() {
        let (mut net, vp) = chain(0.1, 0.1);
        // New epoch at t=1000: drop the route to the destination at r1.
        let mut fibs: Vec<Fib> = (0..net.topo.routers.len()).map(|_| Fib::new()).collect();
        fibs[vp.0 as usize].insert("10.0.0.0/8".parse().unwrap(), vec![IfaceId(0)]);
        net.add_epoch(1000, fibs);
        assert!(probe(&net, vp, 4).rtt().is_some());
        let mut st = SimState::new();
        let late = net.send_probe(
            &mut st,
            ProbeSpec { src: vp, src_addr: ip("10.0.0.10"), dst: ip("10.9.0.5"), ttl: 4, flow_id: 42 },
            2000,
        );
        assert!(matches!(late, ProbeStatus::Unroutable), "{late:?}");
    }

    #[test]
    fn rate_limited_router_drops_excess() {
        let (mut net, vp) = chain(0.1, 0.1);
        // Make r2 rate-limit to 1 pps with burst 2.
        net.topo.routers[2].icmp = IcmpProfile {
            rate_limit_pps: Some(1.0),
            rate_limit_burst: 2.0,
            ..IcmpProfile::default()
        };
        let mut st = SimState::new();
        let mut ok = 0;
        for _ in 0..10 {
            let s = net.send_probe(
                &mut st,
                ProbeSpec { src: vp, src_addr: ip("10.0.0.10"), dst: ip("10.9.0.5"), ttl: 2, flow_id: 9 },
                0, // all at the same instant
            );
            if s.rtt().is_some() {
                ok += 1;
            }
        }
        assert_eq!(ok, 2, "only the burst passes");
    }

    #[test]
    fn silent_router_never_answers() {
        let (mut net, vp) = chain(0.1, 0.1);
        net.topo.routers[1].icmp = IcmpProfile::silent();
        for _ in 0..5 {
            assert_eq!(probe(&net, vp, 1), ProbeStatus::Lost);
        }
        // But it still forwards.
        assert!(probe(&net, vp, 2).rtt().is_some());
    }
}

#[cfg(test)]
mod fault_tests {
    use super::tests::{chain, ip, probe_at};
    use super::*;
    use crate::fault::{FaultEvent, FaultKind, FaultScope};
    use crate::topo::IfaceId;

    #[test]
    fn iface_silence_eats_probes_for_its_window_only() {
        let (mut net, vp) = chain(0.1, 0.1);
        // Silence r2's ingress iface 10.0.1.2 (iface index 3) over [100, 200).
        net.fault.push(FaultEvent::window(
            FaultKind::IfaceSilence,
            FaultScope::Iface(IfaceId(3)),
            100,
            200,
        ));
        assert!(probe_at(&net, vp, 2, 50).rtt().is_some(), "before the window");
        assert_eq!(probe_at(&net, vp, 2, 150), ProbeStatus::Lost, "inside it");
        assert!(probe_at(&net, vp, 2, 250).rtt().is_some(), "after it");
        // Forwarding through the silent interface is unaffected.
        assert!(probe_at(&net, vp, 3, 150).rtt().is_some());
    }

    #[test]
    fn reboot_blacks_out_then_rebuilds_then_recovers() {
        let (mut net, vp) = chain(0.1, 0.1);
        // r2 (router index 2) down over [1000, 1120), rebuilding until 1420.
        net.fault.push(FaultEvent::window(
            FaultKind::RouterReboot { rebuild_secs: 300 },
            FaultScope::Router(RouterId(2)),
            1000,
            1120,
        ));
        // Down: nothing beyond r1 is reachable (r2 forwards nothing).
        assert!(probe_at(&net, vp, 1, 1050).rtt().is_some(), "r1 unaffected");
        assert_eq!(probe_at(&net, vp, 2, 1050), ProbeStatus::Lost);
        assert_eq!(probe_at(&net, vp, 10, 1050), ProbeStatus::Lost, "transit dead");
        // Rebuild: forwarding is back but r2's control plane stays dark.
        assert_eq!(probe_at(&net, vp, 2, 1200), ProbeStatus::Lost, "ICMP silent");
        assert!(probe_at(&net, vp, 3, 1200).rtt().is_some(), "forwards again");
        assert!(probe_at(&net, vp, 10, 1200).rtt().is_some());
        // Fully recovered.
        assert!(probe_at(&net, vp, 2, 1500).rtt().is_some());
    }

    #[test]
    fn renumber_reports_the_alias() {
        let (mut net, vp) = chain(0.1, 0.1);
        let alias = ip("192.168.0.7");
        net.fault.push(FaultEvent::window(
            FaultKind::Renumber { alias },
            FaultScope::Iface(IfaceId(3)), // 10.0.1.2, r2's ingress
            100,
            200,
        ));
        match probe_at(&net, vp, 2, 150) {
            ProbeStatus::TimeExceeded { from, .. } => assert_eq!(from, alias),
            other => panic!("{other:?}"),
        }
        match probe_at(&net, vp, 2, 250) {
            ProbeStatus::TimeExceeded { from, .. } => assert_eq!(from, ip("10.0.1.2")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn injected_rate_limit_tightens_unlimited_router() {
        let (mut net, vp) = chain(0.1, 0.1);
        net.fault.push(FaultEvent::always(
            FaultKind::IcmpRateLimit { pps: 1.0, burst: 2.0 },
            FaultScope::Router(RouterId(2)),
        ));
        let mut st = SimState::new();
        let ok = (0..10)
            .filter(|_| {
                net.send_probe(
                    &mut st,
                    ProbeSpec {
                        src: vp,
                        src_addr: ip("10.0.0.10"),
                        dst: ip("10.9.0.5"),
                        ttl: 2,
                        flow_id: 9,
                    },
                    0, // all at the same instant
                )
                .rtt()
                .is_some()
            })
            .count();
        assert_eq!(ok, 2, "only the injected burst passes");
    }

    #[test]
    fn clock_skew_offsets_reported_rtt() {
        let (clean, vp) = chain(0.1, 0.1);
        let (mut skewed, _) = chain(0.1, 0.1);
        skewed.fault.push(FaultEvent::always(
            FaultKind::ClockSkew { ms: 25.0 },
            FaultScope::Router(vp),
        ));
        let base = probe_at(&clean, vp, 2, 0).rtt().unwrap();
        let off = probe_at(&skewed, vp, 2, 0).rtt().unwrap();
        assert!((off - base - 25.0).abs() < 1e-9, "{base} -> {off}");
    }

    #[test]
    fn route_flap_takes_the_link_down_periodically() {
        let (mut net, vp) = chain(0.1, 0.1);
        // Flap the interdomain r2--r3 link (LinkId 2): 60s up, 60s down.
        net.fault.push(FaultEvent::window(
            FaultKind::RouteFlap { up_secs: 60, down_secs: 60 },
            FaultScope::Link(LinkId(2)),
            0,
            100_000,
        ));
        assert!(probe_at(&net, vp, 10, 30).rtt().is_some(), "up phase");
        assert_eq!(probe_at(&net, vp, 10, 90), ProbeStatus::Lost, "down phase");
        assert!(probe_at(&net, vp, 10, 130).rtt().is_some(), "up again");
        // The near side of the link never crosses it.
        assert!(probe_at(&net, vp, 2, 90).rtt().is_some());
    }
}

#[cfg(test)]
mod rr_tests {
    use super::*;
    use crate::icmp::IcmpProfile;
    use crate::ip::Prefix;
    use crate::queue::QueueModel;
    use crate::topo::{AsNumber, LinkKind};

    fn ip(s: &str) -> Ipv4 {
        s.parse().unwrap()
    }

    /// A long chain of 12 routers so the RR option's nine slots overflow.
    fn long_chain() -> (Network, RouterId, Ipv4) {
        let mut t = Topology::new();
        let n = 12;
        let mut routers = Vec::new();
        for i in 0..n {
            routers.push(t.add_router(
                AsNumber(100),
                format!("r{i}"),
                "nyc",
                -5,
                IcmpProfile::default(),
            ));
        }
        let mut fibs = vec![Fib::new(); n];
        let dstp: Prefix = "10.9.0.0/24".parse().unwrap();
        let backp: Prefix = "10.0.0.0/16".parse().unwrap();
        for i in 0..n - 1 {
            let a = t.add_iface(routers[i], ip(&format!("10.0.{i}.1")));
            let b = t.add_iface(routers[i + 1], ip(&format!("10.0.{i}.2")));
            t.connect(a, b, LinkKind::Internal, 1.0, 1000.0, QueueModel::default(), None, None);
            fibs[i].insert(dstp, vec![a]);
            fibs[i + 1].insert(backp, vec![b]);
        }
        t.add_host_prefix(dstp, routers[n - 1]);
        let src_addr = ip("10.0.0.1");
        (Network::new(t, fibs, 5), routers[0], src_addr)
    }

    #[test]
    fn record_route_caps_at_nine_slots() {
        let (net, src, src_addr) = long_chain();
        let slots = net
            .record_route(src, src_addr, ip("10.9.0.5"), 32, 1, 0)
            .expect("routable");
        assert_eq!(slots.len(), 9, "IP RR option holds nine addresses");
    }

    #[test]
    fn record_route_unroutable_is_none() {
        let (net, src, src_addr) = long_chain();
        assert!(net.record_route(src, src_addr, ip("172.16.0.1"), 32, 1, 0).is_none());
    }

    #[test]
    fn fault_injection_is_off_by_default_and_scales() {
        let (net, src, src_addr) = long_chain();
        let mut st = SimState::new();
        // Clean by default (base loss only): nearly all probes answered.
        let ok = (0..100)
            .filter(|&i| {
                net.send_probe(
                    &mut st,
                    ProbeSpec { src, src_addr, dst: ip("10.9.0.5"), ttl: 32, flow_id: 1 },
                    i,
                )
                .rtt()
                .is_some()
            })
            .count();
        assert!(ok >= 98, "{ok}/100");
        // With a 5% per-crossing fault over ~22 crossings, most probes die.
        let mut faulty = net;
        faulty.fault.push(crate::fault::FaultEvent::always(
            crate::fault::FaultKind::ExtraLoss { prob: 0.05 },
            crate::fault::FaultScope::Global,
        ));
        let mut st = SimState::new();
        let ok = (0..100)
            .filter(|&i| {
                faulty
                    .send_probe(
                        &mut st,
                        ProbeSpec { src, src_addr, dst: ip("10.9.0.5"), ttl: 32, flow_id: 1 },
                        i,
                    )
                    .rtt()
                    .is_some()
            })
            .count();
        assert!(ok < 70, "{ok}/100 under fault injection");
    }
}
