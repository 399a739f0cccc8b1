//! Deterministic probe-path computation and the fluid fast path.
//!
//! A TTL-limited probe's fate is a function of (a) the deterministic
//! forward/reply path under the current routing and flow id, and (b) the
//! time-varying state of each link crossed. The packet-mode prober rolls the
//! dice per probe; the fast path instead computes, per time bin, the
//! *statistic the prober would have recorded*:
//!
//! * min-filtered RTT: both inference algorithms start by taking the minimum
//!   latency per bin to discard jitter and slow-path outliers (§4.1, §4.2),
//!   and the minimum over a bin equals base path delay plus the standing
//!   queue delay (the standing queue delays every packet, so the min cannot
//!   dodge it);
//! * response probability: the product of per-link delivery probabilities
//!   along forward and reply paths, times the responder's ICMP behaviour —
//!   from which per-window loss fractions are synthesized.
//!
//! Both modes route a probe the same way: [`probe_path`] is
//! `Network::probe_route_into` — the forward path `send_probe` resolves, its
//! answer rule, and its reply sink tree, which hashes a reply's ECMP choices
//! on the answering address — plus the baseline delay. `tests/path_oracle.rs`
//! holds the route to a hop-by-hop reference on random worlds with reply
//! ECMP. Using the fast path then changes runtime, not distribution shape;
//! the equivalence is tested in `tests/fast_vs_packet.rs`.
//!
//! The fluid model of a path over time is the column engine in `tslp.rs`:
//! it evaluates each link a VP's paths cross once per bin and folds every
//! path from those columns, for TSLP and loss synthesis alike, and for a
//! single path at a single instant as a one-bin, one-destination
//! `tslp::synthesize_task`. `tests/fluid_columns.rs` keeps it bit for bit
//! to a per-bin reference walk over these paths.

use manic_netsim::time::SimTime;
use manic_netsim::{FaultScope, Ipv4, Network, ProbeRoute, ProbeSpec, RouterId, SimState};

/// A vantage point as the probing layer sees it.
#[derive(Debug, Clone)]
pub struct VpHandle {
    pub name: String,
    pub router: RouterId,
    pub addr: Ipv4,
}

/// The resolved path of one TTL-limited probe under fixed routing.
#[derive(Debug, Clone)]
pub struct ProbePath {
    /// The VP router the probe is sourced from (clock-skew faults key on it).
    pub src: RouterId,
    /// Both legs and who answers, as the packets would take them.
    pub route: ProbeRoute,
    /// Propagation + ICMP-generation baseline, ms (no queueing).
    pub base_ms: f64,
}

impl ProbePath {
    /// The responder's contribution to delivery probability: ICMP profile
    /// behaviour plus injected faults (silence, reboot blackout, renumbering
    /// — a response from an unexpected alias is no valid sample).
    pub(crate) fn responder_prob(&self, net: &Network, t: SimTime, offered_pps: f64) -> f64 {
        let (responder, addr) = (self.route.responder, self.route.responder_addr);
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

    /// The first instant after `t` at which [`Self::responder_prob`] can
    /// change: the nearest edge of the responder router's faults, of the
    /// answering interface's faults and of its flaky window.
    pub(crate) fn responder_stable_until(&self, net: &Network, t: SimTime) -> SimTime {
        let (responder, addr) = (self.route.responder, self.route.responder_addr);
        let mut until = net.fault.stable_until(&net.topo, FaultScope::Router(responder), t);
        if let Some(iface) = net.topo.iface_by_addr(addr) {
            until = until.min(net.fault.stable_until(&net.topo, FaultScope::Iface(iface.id), t));
        }
        if let Some(flaky) = net.topo.router(responder).icmp.flaky {
            until = until.min(flaky.stable_until(t));
        }
        until
    }
}

/// Resolve the path of a probe from `vp` toward `dst` expiring after `ttl`
/// hops (or reaching the destination if it terminates sooner): its
/// `Network::probe_route_into` plus the baseline delay.
///
/// Returns `None` where no answer can come back: a zero TTL, a routing dead
/// end or loop before the TTL runs out, or a reply that cannot route home.
pub fn probe_path(
    net: &Network,
    vp: &VpHandle,
    dst: Ipv4,
    ttl: u8,
    flow_id: u16,
    t: SimTime,
) -> Option<ProbePath> {
    let spec = ProbeSpec { src: vp.router, src_addr: vp.addr, dst, ttl, flow_id };
    let mut route = ProbeRoute::default();
    net.probe_route_into(&mut SimState::new(), spec, t, &mut route).then_some(())?;
    let mut base_ms = net.topo.router(route.responder).icmp.base_ms;
    for &(l, _) in route.forward.iter().chain(&route.reply) {
        base_ms += net.topo.link(l).prop_delay_ms;
    }
    Some(ProbePath { src: vp.router, route, base_ms })
}

#[cfg(test)]
mod tests {
    use super::*;
    use manic_scenario::worlds::{toy, toy_asns};

    fn vp_of(w: &manic_scenario::World, name: &str) -> VpHandle {
        let vp = w.vp(name);
        VpHandle { name: vp.name.clone(), router: vp.router, addr: vp.addr }
    }

    #[test]
    fn path_matches_probe_responder() {
        let w = toy(1);
        let vp = vp_of(&w, "acme-nyc");
        let dst = w.host_addr(toy_asns::CDNCO, 0);
        for ttl in 1..8 {
            let Some(pp) = probe_path(&w.net, &vp, dst, ttl, 9, 0) else { continue };
            // Fire an actual probe with high retries to dodge random loss.
            let mut st = manic_netsim::SimState::new();
            for i in 0..20 {
                let s = w.net.send_probe(
                    &mut st,
                    manic_netsim::ProbeSpec {
                        src: vp.router,
                        src_addr: vp.addr,
                        dst,
                        ttl,
                        flow_id: 9,
                    },
                    i * 3,
                );
                if let Some(from) = s.responder() {
                    assert_eq!(from, pp.route.responder_addr, "ttl {ttl}");
                    break;
                }
            }
        }
    }

    #[test]
    fn excess_ttl_is_none_only_past_destination() {
        let w = toy(1);
        let vp = vp_of(&w, "acme-nyc");
        let dst = w.host_addr(toy_asns::CDNCO, 0);
        let full = probe_path(&w.net, &vp, dst, u8::MAX, 9, 0).unwrap();
        assert_eq!(full.route.responder_addr, dst);
        let n = full.route.forward.len() as u8;
        // Exactly at the destination: echo reply; one short: time exceeded.
        let at = probe_path(&w.net, &vp, dst, n, 9, 0).unwrap();
        assert_eq!(at.route.responder_addr, dst);
        let before = probe_path(&w.net, &vp, dst, n - 1, 9, 0).unwrap();
        assert_ne!(before.route.responder_addr, dst);
        // Far beyond: still the destination (hosts answer any remaining TTL).
        let beyond = probe_path(&w.net, &vp, dst, n + 10, 9, 0).unwrap();
        assert_eq!(beyond.route.responder_addr, dst);
        // Unroutable destination: no path at all.
        assert!(probe_path(&w.net, &vp, "172.16.0.1".parse().unwrap(), 5, 9, 0).is_none());
    }
}
