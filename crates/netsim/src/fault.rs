//! Deterministic fault injection.
//!
//! The paper's measurement system lived with a hostile substrate: VP churn
//! (86 hosted VPs over the study, 63 left by December 2017, §3), routers that
//! tighten ICMP rate limiting without notice (64-85% of loss-probe responses
//! corrupted, §5.2), interfaces that fall silent or get renumbered, and
//! routing that flaps underneath a pinned probing set (§3.2). The robustness
//! of the control loop is only testable if the simulator can produce those
//! failures on demand — deterministically, so a failing chaos run replays
//! bit-for-bit from its seed.
//!
//! A [`FaultSchedule`] is a list of timed [`FaultEvent`]s, each a
//! [`FaultKind`] applied to a [`FaultScope`] over a `[from, until)` window.
//! The schedule is pure state: every query is a pure function of `(event
//! list, t)`, which keeps the fluid fast path valid (the same bin queried
//! twice sees the same faults). `Network` consumes it in packet mode
//! (`cross`, `icmp_generate`, `send_probe`) and the probing layer consumes it
//! in fluid mode (the column engine behind TSLP and loss synthesis);
//! the measurement control loop polls [`FaultSchedule::vp_retired`] for
//! host churn. Every query is piecewise constant in time:
//! [`FaultSchedule::stable_until`] gives the first instant at which any
//! query about a link, router or interface can change — the nearest event
//! `from`/`until`, end of a reboot's rebuild tail or flap phase edge — so
//! the column engine asks each query once per run of bins and fills the
//! run from that answer. On an empty schedule a run is the whole column
//! chunk. The queries are `#[inline]`: packet mode asks them per probe and
//! hop, and inlined, a schedule without that kind of event costs a bit
//! test rather than a call.

use crate::ip::Ipv4;
use crate::noise;
use crate::time::SimTime;
use crate::topo::{IfaceId, LinkId, RouterId, Topology};

/// What part of the world a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScope {
    /// Everywhere (only meaningful for [`FaultKind::ExtraLoss`] and
    /// [`FaultKind::ClockSkew`]).
    Global,
    Router(RouterId),
    Iface(IfaceId),
    Link(LinkId),
}

/// The failure modes the substrate can inject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Additional per-crossing drop probability on the scoped link(s). The
    /// old global `fault_drop_prob` knob is this kind at
    /// [`FaultScope::Global`].
    ExtraLoss { prob: f64 },
    /// The scoped interface stops sourcing ICMP (an ACL or filter change):
    /// probes expiring there are silently eaten. Forwarding is unaffected.
    IfaceSilence,
    /// The scoped router is down for the event window (no forwarding, no
    /// ICMP), then forwards but keeps its control plane busy — ICMP silent —
    /// for `rebuild_secs` after the window closes (FIB rebuild).
    RouterReboot { rebuild_secs: i64 },
    /// Tighten ICMP rate limiting on the scoped router below its profile
    /// (the §5.2 artifact arriving mid-study).
    IcmpRateLimit { pps: f64, burst: f64 },
    /// Square-wave outage of the scoped link: `up_secs` up then `down_secs`
    /// down, repeating from the event start for its whole window.
    RouteFlap { up_secs: i64, down_secs: i64 },
    /// Responses from the scoped interface are sourced from `alias` instead
    /// of the configured address (renumbering): TSLP sees a mismatched
    /// responder and must treat the sample as visibility loss.
    Renumber { alias: Ipv4 },
    /// The VP hosted at the scoped router withdraws (§3 host churn). The
    /// substrate does not act on this; the measurement control loop polls
    /// [`FaultSchedule::vp_retired`].
    VpRetirement,
    /// Clock error at the scoped source router: every RTT it reports gains a
    /// constant offset.
    ClockSkew { ms: f64 },
    /// The measurement worker for the VP hosted at the scoped router crashes
    /// (panics) when it runs a round inside the window — a stand-in for the
    /// probing process dying on a hostile host. The substrate does not act
    /// on this; the round engine polls [`FaultSchedule::vp_panics`] and its
    /// supervisor turns the panic into quarantine instead of a dead run.
    VpPanic,
}

/// One timed fault: `kind` applied to `scope` over `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    pub kind: FaultKind,
    pub scope: FaultScope,
    pub from: SimTime,
    /// Exclusive end of the window.
    pub until: SimTime,
}

impl FaultEvent {
    /// An event active for all of simulated time.
    pub fn always(kind: FaultKind, scope: FaultScope) -> Self {
        FaultEvent { kind, scope, from: SimTime::MIN, until: SimTime::MAX }
    }

    /// An event active over `[from, until)`.
    pub fn window(kind: FaultKind, scope: FaultScope, from: SimTime, until: SimTime) -> Self {
        assert!(from < until, "empty fault window");
        FaultEvent { kind, scope, from, until }
    }

    #[inline]
    fn active(&self, t: SimTime) -> bool {
        self.from <= t && t < self.until
    }

    /// The first instant after `t` at which this event's effect can change:
    /// its `from` or `until`, a reboot's end of rebuild, or — inside a flap
    /// — the next phase edge. `SimTime::MAX` when none lies after `t`.
    fn next_edge(&self, t: SimTime) -> SimTime {
        let mut edges = [self.from, self.until, SimTime::MAX];
        match self.kind {
            FaultKind::RouterReboot { rebuild_secs } => {
                edges[2] = self.until.saturating_add(rebuild_secs);
            }
            FaultKind::RouteFlap { up_secs, down_secs } if self.active(t) => {
                let period = (up_secs + down_secs).max(1);
                let phase = (t - self.from).rem_euclid(period);
                let left = if phase < up_secs { up_secs - phase } else { period - phase };
                edges[2] = t.saturating_add(left);
            }
            _ => {}
        }
        edges.into_iter().filter(|&e| e > t).min().unwrap_or(SimTime::MAX)
    }
}

impl FaultKind {
    /// One bit per variant, for the schedule's "does any event of this kind
    /// exist at all" fast path.
    fn bit(&self) -> u16 {
        match self {
            FaultKind::ExtraLoss { .. } => 1 << 0,
            FaultKind::IfaceSilence => 1 << 1,
            FaultKind::RouterReboot { .. } => 1 << 2,
            FaultKind::IcmpRateLimit { .. } => 1 << 3,
            FaultKind::RouteFlap { .. } => 1 << 4,
            FaultKind::Renumber { .. } => 1 << 5,
            FaultKind::VpRetirement => 1 << 6,
            FaultKind::ClockSkew { .. } => 1 << 7,
            FaultKind::VpPanic => 1 << 8,
        }
    }
}

/// A deterministic, seedable schedule of faults.
///
/// Queries are hot: the fluid fast path asks about every (link, bin) pair of
/// a multi-month study, so a chaos schedule on a country-scale topology (a
/// thousand-plus events) cannot be a linear scan per query. Events are
/// bucketed by scoped entity at `push` time — queries touch only the global
/// bucket plus the bucket(s) of the entity asked about, which chaos keeps at
/// O(1) events each. The buckets are derived state; semantically every query
/// is still a pure function of `(event list, t)`.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
    /// Indices into `events` with [`FaultScope::Global`].
    global: Vec<usize>,
    /// Indices bucketed by scoped entity id (entity ids are dense).
    by_router: Vec<Vec<usize>>,
    by_iface: Vec<Vec<usize>>,
    by_link: Vec<Vec<usize>>,
    /// Union of [`FaultKind::bit`] over all events.
    kinds: u16,
}

fn bucket(buckets: &mut Vec<Vec<usize>>, id: usize) -> &mut Vec<usize> {
    if buckets.len() <= id {
        buckets.resize_with(id + 1, Vec::new);
    }
    &mut buckets[id]
}

impl FaultSchedule {
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    pub fn push(&mut self, event: FaultEvent) {
        let idx = self.events.len();
        match event.scope {
            FaultScope::Global => self.global.push(idx),
            FaultScope::Router(r) => bucket(&mut self.by_router, r.0 as usize).push(idx),
            FaultScope::Iface(i) => bucket(&mut self.by_iface, i.0 as usize).push(idx),
            FaultScope::Link(l) => bucket(&mut self.by_link, l.0 as usize).push(idx),
        }
        self.kinds |= event.kind.bit();
        self.events.push(event);
    }

    /// All events in push order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    #[inline]
    fn has(&self, kind_bit: u16) -> bool {
        self.kinds & kind_bit != 0
    }

    /// Events scoped to `router` itself.
    #[inline]
    fn router_scoped(&self, r: RouterId) -> impl Iterator<Item = &FaultEvent> {
        self.by_router.get(r.0 as usize).into_iter().flatten().map(|&i| &self.events[i])
    }

    /// Events that cover `router`: global plus router-scoped.
    #[inline]
    fn covering_router(&self, r: RouterId) -> impl Iterator<Item = &FaultEvent> {
        self.global.iter().map(|&i| &self.events[i]).chain(self.router_scoped(r))
    }

    /// Events that cover `iface`: global plus iface-scoped.
    #[inline]
    fn covering_iface(&self, i: IfaceId) -> impl Iterator<Item = &FaultEvent> {
        self.global
            .iter()
            .chain(self.by_iface.get(i.0 as usize).into_iter().flatten())
            .map(|&i| &self.events[i])
    }

    /// Events that cover `link`: global plus link-scoped.
    #[inline]
    fn covering_link(&self, l: LinkId) -> impl Iterator<Item = &FaultEvent> {
        self.global
            .iter()
            .chain(self.by_link.get(l.0 as usize).into_iter().flatten())
            .map(|&i| &self.events[i])
    }

    /// The first instant after `t` (`< SimTime::MAX`) at which a query about
    /// `scope` can answer differently: the nearest edge of an event that
    /// covers it. A link's queries are `link_blocked` (its endpoint routers'
    /// reboots count too) and `extra_loss`; a router's `clock_skew_ms`,
    /// `icmp_suppressed`, `icmp_limit`, `vp_retired` and `vp_panics`; an
    /// interface's `iface_silent`, and `silent_addr` and `renumbered` of its
    /// address. [`FaultScope::Global`] bounds every query. Each answer is
    /// constant over `[t, stable_until)`, so the fluid fast path asks once
    /// per run of bins rather than once per bin; on an empty schedule the
    /// run never ends (`SimTime::MAX`).
    pub fn stable_until(&self, topo: &Topology, scope: FaultScope, t: SimTime) -> SimTime {
        let edge = |e: &FaultEvent| e.next_edge(t);
        let earliest = match scope {
            FaultScope::Global => self.events.iter().map(edge).min(),
            FaultScope::Router(r) => self.covering_router(r).map(edge).min(),
            FaultScope::Iface(i) => self.covering_iface(i).map(edge).min(),
            FaultScope::Link(l) => {
                let ends = topo.link(l).ifaces.map(|i| topo.iface(i).router);
                let reboots = ends
                    .into_iter()
                    .flat_map(|r| self.router_scoped(r))
                    .filter(|e| matches!(e.kind, FaultKind::RouterReboot { .. }));
                self.covering_link(l).chain(reboots).map(edge).min()
            }
        };
        earliest.unwrap_or(SimTime::MAX)
    }

    /// Extra drop probability on one crossing of `link` at `t` (summed over
    /// active [`FaultKind::ExtraLoss`] events covering the link).
    #[inline]
    pub fn extra_loss(&self, link: LinkId, t: SimTime) -> f64 {
        if !self.has(FaultKind::ExtraLoss { prob: 0.0 }.bit()) {
            return 0.0;
        }
        self.covering_link(link)
            .filter(|e| e.active(t))
            .map(|e| match e.kind {
                FaultKind::ExtraLoss { prob } => prob,
                _ => 0.0,
            })
            .sum()
    }

    /// Is `link` hard-down at `t`? True inside the down phase of a covering
    /// [`FaultKind::RouteFlap`], or while either endpoint router is in the
    /// down window of a [`FaultKind::RouterReboot`].
    #[inline]
    pub fn link_blocked(&self, topo: &Topology, link: LinkId, t: SimTime) -> bool {
        if self.has(FaultKind::RouteFlap { up_secs: 0, down_secs: 0 }.bit()) {
            for e in self.covering_link(link) {
                if let FaultKind::RouteFlap { up_secs, down_secs } = e.kind {
                    if e.active(t) {
                        let phase = (t - e.from).rem_euclid((up_secs + down_secs).max(1));
                        if phase >= up_secs {
                            return true;
                        }
                    }
                }
            }
        }
        if self.has(FaultKind::RouterReboot { rebuild_secs: 0 }.bit()) {
            // Router-scoped reboots only: a reboot blocks the links incident
            // to the rebooting router, which a global scope does not name.
            let l = topo.link(link);
            for r in [topo.iface(l.ifaces[0]).router, topo.iface(l.ifaces[1]).router] {
                let down = self
                    .router_scoped(r)
                    .any(|e| matches!(e.kind, FaultKind::RouterReboot { .. }) && e.active(t));
                if down {
                    return true;
                }
            }
        }
        false
    }

    /// Is ICMP generation at `router` suppressed at `t`? True through a
    /// reboot's down window *and* its FIB-rebuild tail.
    #[inline]
    pub fn icmp_suppressed(&self, router: RouterId, t: SimTime) -> bool {
        if !self.has(FaultKind::RouterReboot { rebuild_secs: 0 }.bit()) {
            return false;
        }
        self.covering_router(router).any(|e| match e.kind {
            FaultKind::RouterReboot { rebuild_secs } => {
                e.from <= t && t < e.until.saturating_add(rebuild_secs)
            }
            _ => false,
        })
    }

    /// The tightest injected ICMP rate limit on `router` at `t`, if any.
    /// Callers combine it with the router's own profile by taking the
    /// smaller pps.
    #[inline]
    pub fn icmp_limit(&self, router: RouterId, t: SimTime) -> Option<(f64, f64)> {
        if !self.has(FaultKind::IcmpRateLimit { pps: 0.0, burst: 0.0 }.bit()) {
            return None;
        }
        self.covering_router(router)
            .filter(|e| e.active(t))
            .filter_map(|e| match e.kind {
                FaultKind::IcmpRateLimit { pps, burst } => Some((pps, burst)),
                _ => None,
            })
            .min_by(|a, b| a.0.total_cmp(&b.0))
    }

    /// Is the scoped interface silent at `t`?
    pub fn iface_silent(&self, iface: IfaceId, t: SimTime) -> bool {
        self.has(FaultKind::IfaceSilence.bit())
            && self.covering_iface(iface).any(|e| {
                matches!(e.kind, FaultKind::IfaceSilence) && e.active(t)
            })
    }

    /// Is the interface holding `addr` silent at `t`? False for addresses
    /// that are not interface addresses (host-prefix space).
    #[inline]
    pub fn silent_addr(&self, topo: &Topology, addr: Ipv4, t: SimTime) -> bool {
        if !self.has(FaultKind::IfaceSilence.bit()) {
            return false;
        }
        topo.iface_by_addr(addr)
            .is_some_and(|i| self.iface_silent(i.id, t))
    }

    /// Source address a response from the interface holding `addr` carries
    /// at `t`: the renumbered alias when a [`FaultKind::Renumber`] event
    /// covers it, else `addr` unchanged.
    #[inline]
    pub fn renumbered(&self, topo: &Topology, addr: Ipv4, t: SimTime) -> Ipv4 {
        if !self.has(FaultKind::Renumber { alias: Ipv4(0) }.bit()) {
            return addr;
        }
        let Some(iface) = topo.iface_by_addr(addr) else { return addr };
        // First covering event in push order wins, as for a linear scan.
        let mut first: Option<(usize, Ipv4)> = None;
        for bkt in [
            self.global.as_slice(),
            self.by_iface.get(iface.id.0 as usize).map_or(&[][..], Vec::as_slice),
        ] {
            for &i in bkt {
                let e = &self.events[i];
                if let FaultKind::Renumber { alias } = e.kind {
                    if e.active(t) && first.is_none_or(|(fi, _)| i < fi) {
                        first = Some((i, alias));
                    }
                }
            }
        }
        first.map_or(addr, |(_, alias)| alias)
    }

    /// Total clock-skew offset (ms) on RTTs reported by probes sourced at
    /// `router` at `t`.
    #[inline]
    pub fn clock_skew_ms(&self, router: RouterId, t: SimTime) -> f64 {
        if !self.has(FaultKind::ClockSkew { ms: 0.0 }.bit()) {
            return 0.0;
        }
        self.covering_router(router)
            .filter(|e| e.active(t))
            .map(|e| match e.kind {
                FaultKind::ClockSkew { ms } => ms,
                _ => 0.0,
            })
            .sum()
    }

    /// Has the VP hosted at `router` withdrawn by `t`? (Retirement is
    /// one-way: true from the event start onward, ignoring `until`.)
    pub fn vp_retired(&self, router: RouterId, t: SimTime) -> bool {
        self.has(FaultKind::VpRetirement.bit())
            && self.covering_router(router).any(|e| {
                matches!(e.kind, FaultKind::VpRetirement) && t >= e.from
            })
    }

    /// Does the worker for the VP hosted at `router` panic if it runs a
    /// round at `t`?
    pub fn vp_panics(&self, router: RouterId, t: SimTime) -> bool {
        self.has(FaultKind::VpPanic.bit())
            && self.covering_router(router).any(|e| {
                matches!(e.kind, FaultKind::VpPanic) && e.active(t)
            })
    }

    /// Generate a chaos schedule over `[from, until)`: every fault kind,
    /// scattered across the topology with frequency scaled by `intensity`
    /// (0 = none; 1 = heavy). Deterministic in `(seed, intensity, topology,
    /// window)`. `vp_routers` are the host routers eligible for VP
    /// retirement.
    pub fn chaos(
        seed: u64,
        intensity: f64,
        topo: &Topology,
        vp_routers: &[RouterId],
        from: SimTime,
        until: SimTime,
    ) -> FaultSchedule {
        let mut s = FaultSchedule::new();
        if intensity <= 0.0 || until <= from {
            return s;
        }
        let span = until - from;
        let at = |u: f64| from + (u * span as f64) as i64;
        // Background path noise everywhere, for the whole window.
        s.push(FaultEvent::window(
            FaultKind::ExtraLoss { prob: 0.015 * intensity },
            FaultScope::Global,
            from,
            until,
        ));
        for r in &topo.routers {
            let rid = r.id.0 as u64;
            if noise::bernoulli(seed ^ 0xFA01, rid, 0, 0.15 * intensity) {
                let start = at(noise::uniform(seed ^ 0xFA02, rid, 0));
                let down = 120 + (noise::uniform(seed ^ 0xFA03, rid, 0) * 780.0) as i64;
                let rebuild = 300 + (noise::uniform(seed ^ 0xFA04, rid, 0) * 300.0) as i64;
                s.push(FaultEvent::window(
                    FaultKind::RouterReboot { rebuild_secs: rebuild },
                    FaultScope::Router(r.id),
                    start,
                    (start + down).min(until).max(start + 1),
                ));
            }
            if noise::bernoulli(seed ^ 0xFA05, rid, 0, 0.2 * intensity) {
                let start = at(noise::uniform(seed ^ 0xFA06, rid, 0));
                let dur = 7_200 + (noise::uniform(seed ^ 0xFA07, rid, 0) * 21_600.0) as i64;
                let pps = 5.0 + noise::uniform(seed ^ 0xFA08, rid, 0) * 45.0;
                s.push(FaultEvent::window(
                    FaultKind::IcmpRateLimit { pps, burst: 5.0 },
                    FaultScope::Router(r.id),
                    start,
                    (start + dur).min(until).max(start + 1),
                ));
            }
        }
        for ifc in topo.ifaces.iter().filter(|i| i.link.is_some()) {
            let iid = ifc.id.0 as u64;
            if noise::bernoulli(seed ^ 0xFA10, iid, 0, 0.10 * intensity) {
                let start = at(noise::uniform(seed ^ 0xFA11, iid, 0));
                let dur = 3_600 + (noise::uniform(seed ^ 0xFA12, iid, 0) * 10_800.0) as i64;
                s.push(FaultEvent::window(
                    FaultKind::IfaceSilence,
                    FaultScope::Iface(ifc.id),
                    start,
                    (start + dur).min(until).max(start + 1),
                ));
            }
            if noise::bernoulli(seed ^ 0xFA13, iid, 0, 0.05 * intensity) {
                let start = at(noise::uniform(seed ^ 0xFA14, iid, 0));
                // Alias in 192.168/16: guaranteed outside the 10/8 space the
                // scenario worlds number from, so it never collides with a
                // real interface.
                let alias = Ipv4(0xC0A8_0000 | (ifc.id.0 & 0xFFFF));
                s.push(FaultEvent::window(
                    FaultKind::Renumber { alias },
                    FaultScope::Iface(ifc.id),
                    start,
                    until,
                ));
            }
        }
        for l in &topo.links {
            let lid = l.id.0 as u64;
            if noise::bernoulli(seed ^ 0xFA20, lid, 0, 0.08 * intensity) {
                let start = at(noise::uniform(seed ^ 0xFA21, lid, 0));
                let dur = 1_800 + (noise::uniform(seed ^ 0xFA22, lid, 0) * 5_400.0) as i64;
                let up = 300 + (noise::uniform(seed ^ 0xFA23, lid, 0) * 600.0) as i64;
                let down = 30 + (noise::uniform(seed ^ 0xFA24, lid, 0) * 90.0) as i64;
                s.push(FaultEvent::window(
                    FaultKind::RouteFlap { up_secs: up, down_secs: down },
                    FaultScope::Link(l.id),
                    start,
                    (start + dur).min(until).max(start + 1),
                ));
            }
        }
        for (k, &r) in vp_routers.iter().enumerate() {
            let rid = r.0 as u64;
            if noise::bernoulli(seed ^ 0xFA30, rid, k as u64, 0.15 * intensity) {
                s.push(FaultEvent {
                    kind: FaultKind::VpRetirement,
                    scope: FaultScope::Router(r),
                    from: at(0.25 + 0.5 * noise::uniform(seed ^ 0xFA31, rid, k as u64)),
                    until: SimTime::MAX,
                });
            }
            if noise::bernoulli(seed ^ 0xFA32, rid, k as u64, 0.10 * intensity) {
                s.push(FaultEvent::window(
                    FaultKind::ClockSkew {
                        ms: 0.5 + 2.5 * noise::uniform(seed ^ 0xFA33, rid, k as u64),
                    },
                    FaultScope::Router(r),
                    from,
                    until,
                ));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::icmp::IcmpProfile;
    use crate::queue::QueueModel;
    use crate::topo::{AsNumber, LinkKind};

    fn tiny_topo() -> Topology {
        let mut t = Topology::new();
        let r1 = t.add_router(AsNumber(10), "r1", "nyc", -5, IcmpProfile::default());
        let r2 = t.add_router(AsNumber(20), "r2", "nyc", -5, IcmpProfile::default());
        let r3 = t.add_router(AsNumber(20), "r3", "nyc", -5, IcmpProfile::default());
        let i1 = t.add_iface(r1, "10.0.0.1".parse().unwrap());
        let i2 = t.add_iface(r2, "10.0.0.2".parse().unwrap());
        let i3 = t.add_iface(r2, "10.0.1.1".parse().unwrap());
        let i4 = t.add_iface(r3, "10.0.1.2".parse().unwrap());
        t.connect(i1, i2, LinkKind::Interdomain, 1.0, 1000.0, QueueModel::default(), None, None);
        t.connect(i3, i4, LinkKind::Internal, 1.0, 1000.0, QueueModel::default(), None, None);
        t
    }

    #[test]
    fn extra_loss_scoping_and_windows() {
        let mut s = FaultSchedule::new();
        s.push(FaultEvent::window(
            FaultKind::ExtraLoss { prob: 0.1 },
            FaultScope::Global,
            100,
            200,
        ));
        s.push(FaultEvent::always(
            FaultKind::ExtraLoss { prob: 0.05 },
            FaultScope::Link(LinkId(1)),
        ));
        assert_eq!(s.extra_loss(LinkId(0), 50), 0.0, "before the window");
        assert_eq!(s.extra_loss(LinkId(0), 150), 0.1);
        assert_eq!(s.extra_loss(LinkId(0), 200), 0.0, "until is exclusive");
        assert!((s.extra_loss(LinkId(1), 150) - 0.15).abs() < 1e-12, "scopes sum");
        assert_eq!(s.extra_loss(LinkId(1), 500), 0.05);
    }

    #[test]
    fn reboot_blocks_incident_links_then_suppresses_icmp() {
        let topo = tiny_topo();
        let mut s = FaultSchedule::new();
        // r2 (router index 1) reboots over [1000, 1300), rebuilds until 1900.
        s.push(FaultEvent::window(
            FaultKind::RouterReboot { rebuild_secs: 600 },
            FaultScope::Router(RouterId(1)),
            1000,
            1300,
        ));
        // Both links touch r2, so both are blocked during the down window.
        assert!(!s.link_blocked(&topo, LinkId(0), 999));
        assert!(s.link_blocked(&topo, LinkId(0), 1000));
        assert!(s.link_blocked(&topo, LinkId(1), 1299));
        assert!(!s.link_blocked(&topo, LinkId(0), 1300), "forwarding back after down");
        // ICMP stays dark through the rebuild tail.
        assert!(s.icmp_suppressed(RouterId(1), 1100));
        assert!(s.icmp_suppressed(RouterId(1), 1899));
        assert!(!s.icmp_suppressed(RouterId(1), 1900));
        // Other routers unaffected.
        assert!(!s.icmp_suppressed(RouterId(0), 1100));
    }

    #[test]
    fn route_flap_square_wave() {
        let topo = tiny_topo();
        let mut s = FaultSchedule::new();
        s.push(FaultEvent::window(
            FaultKind::RouteFlap { up_secs: 60, down_secs: 30 },
            FaultScope::Link(LinkId(0)),
            0,
            10_000,
        ));
        assert!(!s.link_blocked(&topo, LinkId(0), 0));
        assert!(!s.link_blocked(&topo, LinkId(0), 59));
        assert!(s.link_blocked(&topo, LinkId(0), 60));
        assert!(s.link_blocked(&topo, LinkId(0), 89));
        assert!(!s.link_blocked(&topo, LinkId(0), 90), "next up phase");
        assert!(s.link_blocked(&topo, LinkId(0), 90 + 60));
        // Other link unaffected; outside the window the flap stops.
        assert!(!s.link_blocked(&topo, LinkId(1), 60));
        assert!(!s.link_blocked(&topo, LinkId(0), 10_000 + 60));
    }

    #[test]
    fn icmp_limit_takes_tightest() {
        let mut s = FaultSchedule::new();
        s.push(FaultEvent::always(
            FaultKind::IcmpRateLimit { pps: 50.0, burst: 10.0 },
            FaultScope::Router(RouterId(0)),
        ));
        s.push(FaultEvent::window(
            FaultKind::IcmpRateLimit { pps: 5.0, burst: 2.0 },
            FaultScope::Router(RouterId(0)),
            100,
            200,
        ));
        assert_eq!(s.icmp_limit(RouterId(0), 0), Some((50.0, 10.0)));
        assert_eq!(s.icmp_limit(RouterId(0), 150), Some((5.0, 2.0)));
        assert_eq!(s.icmp_limit(RouterId(1), 150), None);
    }

    #[test]
    fn silence_and_renumber_resolve_by_address() {
        let topo = tiny_topo();
        let addr: Ipv4 = "10.0.0.2".parse().unwrap();
        let alias: Ipv4 = "192.168.0.9".parse().unwrap();
        let mut s = FaultSchedule::new();
        s.push(FaultEvent::window(FaultKind::IfaceSilence, FaultScope::Iface(IfaceId(1)), 0, 100));
        s.push(FaultEvent::window(
            FaultKind::Renumber { alias },
            FaultScope::Iface(IfaceId(1)),
            200,
            300,
        ));
        assert!(s.silent_addr(&topo, addr, 50));
        assert!(!s.silent_addr(&topo, addr, 100));
        assert!(!s.silent_addr(&topo, "10.0.0.1".parse().unwrap(), 50));
        // Non-interface (host-prefix) addresses are never silent.
        assert!(!s.silent_addr(&topo, "10.99.0.1".parse().unwrap(), 50));
        assert_eq!(s.renumbered(&topo, addr, 250), alias);
        assert_eq!(s.renumbered(&topo, addr, 150), addr, "outside the window");
        let other: Ipv4 = "10.0.0.1".parse().unwrap();
        assert_eq!(s.renumbered(&topo, other, 250), other, "unscoped iface unchanged");
    }

    #[test]
    fn retirement_is_one_way_and_skew_sums() {
        let mut s = FaultSchedule::new();
        s.push(FaultEvent {
            kind: FaultKind::VpRetirement,
            scope: FaultScope::Router(RouterId(2)),
            from: 500,
            until: SimTime::MAX,
        });
        s.push(FaultEvent::always(FaultKind::ClockSkew { ms: 1.5 }, FaultScope::Global));
        s.push(FaultEvent::always(FaultKind::ClockSkew { ms: 0.5 }, FaultScope::Router(RouterId(2))));
        assert!(!s.vp_retired(RouterId(2), 499));
        assert!(s.vp_retired(RouterId(2), 500));
        assert!(s.vp_retired(RouterId(2), i64::MAX - 1));
        assert!(!s.vp_retired(RouterId(0), 1000));
        assert!((s.clock_skew_ms(RouterId(2), 0) - 2.0).abs() < 1e-12);
        assert!((s.clock_skew_ms(RouterId(0), 0) - 1.5).abs() < 1e-12);
    }

    /// The scope buckets are an index, not a semantics change: every query
    /// must agree with a brute-force linear scan over the event list.
    #[test]
    fn bucketed_queries_match_linear_scan() {
        let topo = tiny_topo();
        let mut s = FaultSchedule::chaos(13, 1.0, &topo, &[RouterId(0), RouterId(2)], 0, 40_000);
        // Global-scoped events of every globally-meaningful kind, so the
        // global bucket participates in each query.
        s.push(FaultEvent::window(
            FaultKind::ExtraLoss { prob: 0.02 },
            FaultScope::Global,
            5_000,
            20_000,
        ));
        s.push(FaultEvent::window(FaultKind::ClockSkew { ms: 0.7 }, FaultScope::Global, 0, 30_000));
        s.push(FaultEvent::window(FaultKind::IfaceSilence, FaultScope::Global, 8_000, 9_000));
        s.push(FaultEvent::window(
            FaultKind::Renumber { alias: "192.168.9.9".parse().unwrap() },
            FaultScope::Iface(IfaceId(2)),
            2_000,
            12_000,
        ));

        let active = |e: &FaultEvent, t: SimTime| e.from <= t && t < e.until;
        let covers_router = |e: &FaultEvent, r: RouterId| {
            matches!(e.scope, FaultScope::Global) || e.scope == FaultScope::Router(r)
        };
        let covers_iface = |e: &FaultEvent, i: IfaceId| {
            matches!(e.scope, FaultScope::Global) || e.scope == FaultScope::Iface(i)
        };
        let covers_link = |e: &FaultEvent, l: LinkId| {
            matches!(e.scope, FaultScope::Global) || e.scope == FaultScope::Link(l)
        };

        for t in (0..45_000).step_by(371) {
            for l in [LinkId(0), LinkId(1)] {
                let loss: f64 = s
                    .events()
                    .iter()
                    .filter(|e| active(e, t) && covers_link(e, l))
                    .map(|e| match e.kind {
                        FaultKind::ExtraLoss { prob } => prob,
                        _ => 0.0,
                    })
                    .sum();
                assert!((s.extra_loss(l, t) - loss).abs() < 1e-12, "extra_loss {l:?} t={t}");

                let blocked = s.events().iter().any(|e| match e.kind {
                    FaultKind::RouteFlap { up_secs, down_secs }
                        if active(e, t) && covers_link(e, l) =>
                    {
                        (t - e.from).rem_euclid((up_secs + down_secs).max(1)) >= up_secs
                    }
                    FaultKind::RouterReboot { .. } => match e.scope {
                        FaultScope::Router(r) if active(e, t) => {
                            let lk = topo.link(l);
                            topo.iface(lk.ifaces[0]).router == r
                                || topo.iface(lk.ifaces[1]).router == r
                        }
                        _ => false,
                    },
                    _ => false,
                });
                assert_eq!(s.link_blocked(&topo, l, t), blocked, "link_blocked {l:?} t={t}");
            }

            for r in [RouterId(0), RouterId(1), RouterId(2)] {
                let suppressed = s.events().iter().any(|e| match e.kind {
                    FaultKind::RouterReboot { rebuild_secs } => {
                        covers_router(e, r)
                            && e.from <= t
                            && t < e.until.saturating_add(rebuild_secs)
                    }
                    _ => false,
                });
                assert_eq!(s.icmp_suppressed(r, t), suppressed, "icmp_suppressed {r:?} t={t}");

                let limit = s
                    .events()
                    .iter()
                    .filter(|e| active(e, t) && covers_router(e, r))
                    .filter_map(|e| match e.kind {
                        FaultKind::IcmpRateLimit { pps, burst } => Some((pps, burst)),
                        _ => None,
                    })
                    .min_by(|a, b| a.0.total_cmp(&b.0));
                assert_eq!(s.icmp_limit(r, t), limit, "icmp_limit {r:?} t={t}");

                let skew: f64 = s
                    .events()
                    .iter()
                    .filter(|e| active(e, t) && covers_router(e, r))
                    .map(|e| match e.kind {
                        FaultKind::ClockSkew { ms } => ms,
                        _ => 0.0,
                    })
                    .sum();
                assert!((s.clock_skew_ms(r, t) - skew).abs() < 1e-12, "clock_skew {r:?} t={t}");

                let retired = s.events().iter().any(|e| {
                    matches!(e.kind, FaultKind::VpRetirement) && covers_router(e, r) && t >= e.from
                });
                assert_eq!(s.vp_retired(r, t), retired, "vp_retired {r:?} t={t}");
            }

            for i in [IfaceId(0), IfaceId(1), IfaceId(2), IfaceId(3)] {
                let silent = s.events().iter().any(|e| {
                    matches!(e.kind, FaultKind::IfaceSilence) && covers_iface(e, i) && active(e, t)
                });
                assert_eq!(s.iface_silent(i, t), silent, "iface_silent {i:?} t={t}");

                let addr = topo.iface(i).addr;
                let renum = s
                    .events()
                    .iter()
                    .find_map(|e| match e.kind {
                        FaultKind::Renumber { alias } if active(e, t) && covers_iface(e, i) => {
                            Some(alias)
                        }
                        _ => None,
                    })
                    .unwrap_or(addr);
                assert_eq!(s.renumbered(&topo, addr, t), renum, "renumbered {i:?} t={t}");
            }
        }
    }

    #[test]
    fn chaos_is_deterministic_and_scales_with_intensity() {
        let topo = tiny_topo();
        let vps = [RouterId(0)];
        let a = FaultSchedule::chaos(7, 1.0, &topo, &vps, 0, 86_400);
        let b = FaultSchedule::chaos(7, 1.0, &topo, &vps, 0, 86_400);
        assert_eq!(a.events(), b.events(), "same seed reproduces bit-for-bit");
        let c = FaultSchedule::chaos(8, 1.0, &topo, &vps, 0, 86_400);
        assert_ne!(a.events(), c.events(), "different seed differs");
        assert!(FaultSchedule::chaos(7, 0.0, &topo, &vps, 0, 86_400).is_empty());
        // Intensity monotonicity over a pool of seeds (event draws share the
        // same uniforms, so per-seed counts can only grow with intensity).
        for seed in 0..20 {
            let lo = FaultSchedule::chaos(seed, 0.2, &topo, &vps, 0, 86_400).len();
            let hi = FaultSchedule::chaos(seed, 1.0, &topo, &vps, 0, 86_400).len();
            assert!(hi >= lo, "seed {seed}: {hi} < {lo}");
        }
        // All chaos windows sit inside the requested horizon (retirements
        // are open-ended by design).
        for e in a.events() {
            assert!(e.from >= 0 && e.from < 86_400, "{e:?}");
            if !matches!(e.kind, FaultKind::VpRetirement) {
                assert!(e.until <= 86_400, "{e:?}");
            }
        }
    }
}
