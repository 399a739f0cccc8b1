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
//! Using the fast path changes runtime, not distribution shape; the
//! equivalence is tested in `tests/fast_vs_packet.rs`.

use manic_netsim::time::SimTime;
use manic_netsim::topo::Direction;
use manic_netsim::{Ipv4, LinkId, Network, RouterId};

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
    /// Links crossed by the probe until TTL expiry, with direction.
    pub forward: Vec<(LinkId, Direction)>,
    /// Links crossed by the ICMP reply.
    pub reply: Vec<(LinkId, Direction)>,
    /// The responding router.
    pub responder: RouterId,
    /// The address the response is sourced from.
    pub responder_addr: Ipv4,
    /// Propagation + ICMP-generation baseline, ms (no queueing).
    pub base_ms: f64,
}

impl ProbePath {
    /// The responder's contribution to delivery probability: ICMP profile
    /// behaviour plus injected faults (silence, reboot blackout, renumbering
    /// — a response from an unexpected alias is no valid sample).
    fn responder_prob(&self, net: &Network, t: SimTime, offered_pps: f64) -> f64 {
        if net.fault.icmp_suppressed(self.responder, t)
            || net.fault.silent_addr(&net.topo, self.responder_addr, t)
            || net.fault.renumbered(&net.topo, self.responder_addr, t) != self.responder_addr
        {
            return 0.0;
        }
        let prof = &net.topo.router(self.responder).icmp;
        let mut p = 1.0 - prof.unresponsive_prob;
        if let Some(flaky) = prof.flaky {
            if flaky.is_flaky_now(net.seed, self.responder.0 as u64, t) {
                p *= 1.0 - flaky.drop_prob;
            }
        }
        let limit = match (prof.rate_limit_pps, net.fault.icmp_limit(self.responder, t)) {
            (Some(own), Some((inj, _))) => Some(own.min(inj)),
            (Some(own), None) => Some(own),
            (None, inj) => inj.map(|(pps, _)| pps),
        };
        if let Some(limit) = limit {
            if offered_pps > limit {
                p *= limit / offered_pps;
            }
        }
        p
    }

    /// The fluid model of a probe sent at `t`, in one pass over the path:
    ///
    /// * the minimum RTT it could observe: baseline plus the standing queue
    ///   delay on every link crossed in either direction;
    /// * the probability that it yields a response: per-link delivery on
    ///   both path legs times the responder's steady-state ICMP response
    ///   probability under `offered_pps` probes per second directed at it.
    pub fn rtt_and_prob(&self, net: &Network, t: SimTime, offered_pps: f64) -> (f64, f64) {
        let mut rtt = self.base_ms + net.fault.clock_skew_ms(self.src, t);
        let mut p = 1.0;
        for &(l, d) in self.forward.iter().chain(&self.reply) {
            let s = net.link_state(l, d, t);
            rtt += s.queue_ms;
            if net.fault.link_blocked(&net.topo, l, t) {
                p = 0.0;
            } else {
                p *= (1.0 - s.loss - net.fault.extra_loss(l, t)).max(0.0);
            }
        }
        (rtt, p * self.responder_prob(net, t, offered_pps))
    }

    /// Does the probe cross `link` on its forward leg?
    pub fn crosses(&self, link: LinkId) -> bool {
        self.forward.iter().any(|&(l, _)| l == link)
    }
}

/// Resolve the path of a probe from `vp` toward `dst` expiring after `ttl`
/// hops (or reaching the destination if it terminates sooner).
///
/// Returns `None` when the TTL extends past a routing dead end, when the
/// expiry router's reply cannot route back, or when `ttl` exceeds the path
/// length to a non-terminating hop (the walk stops at termination).
pub fn probe_path(
    net: &Network,
    vp: &VpHandle,
    dst: Ipv4,
    ttl: u8,
    flow_id: u16,
    t: SimTime,
) -> Option<ProbePath> {
    if ttl == 0 {
        return None;
    }
    let walk = net.forward_path(vp.router, dst, flow_id, t);
    if walk.is_empty() {
        return None;
    }
    let take = (ttl as usize).min(walk.len());
    let reached_dst = take == walk.len() && net.topo.terminates(walk[take - 1].router, dst);
    let hop = &walk[take - 1];
    // TTL larger than the path: the probe reaches the destination and is
    // answered there; TTL smaller: time-exceeded at the expiry hop.
    if (ttl as usize) > walk.len() && !reached_dst {
        return None;
    }
    let responder = hop.router;
    let responder_addr = if reached_dst { dst } else { hop.ingress_addr };

    let forward: Vec<(LinkId, Direction)> =
        walk[..take].iter().map(|h| (h.link, h.direction)).collect();

    // Reply path: from the responder back to the VP address.
    let reply_walk = net.forward_path(responder, vp.addr, flow_id, t);
    if reply_walk.is_empty()
        || reply_walk.last().map(|h| h.router) != Some(vp.router)
    {
        return None;
    }
    let reply: Vec<(LinkId, Direction)> =
        reply_walk.iter().map(|h| (h.link, h.direction)).collect();

    let mut base_ms = net.topo.router(responder).icmp.base_ms;
    for &(l, _) in forward.iter().chain(&reply) {
        base_ms += net.topo.link(l).prop_delay_ms;
    }
    Some(ProbePath { src: vp.router, forward, reply, responder, responder_addr, base_ms })
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
                    assert_eq!(from, pp.responder_addr, "ttl {ttl}");
                    break;
                }
            }
        }
    }

    #[test]
    fn min_rtt_close_to_observed_min() {
        let w = toy(1);
        let vp = vp_of(&w, "acme-nyc");
        let dst = w.host_addr(toy_asns::CDNCO, 0);
        // Far end of the interdomain link is at some hop; probe several and
        // compare the packet-mode min to the fast-path value.
        let pp = probe_path(&w.net, &vp, dst, 4, 9, 0).expect("path exists");
        let mut st = manic_netsim::SimState::new();
        let mut min_obs = f64::INFINITY;
        for i in 0..30 {
            let s = w.net.send_probe(
                &mut st,
                manic_netsim::ProbeSpec { src: vp.router, src_addr: vp.addr, dst, ttl: 4, flow_id: 9 },
                i,
            );
            if let Some(r) = s.rtt() {
                min_obs = min_obs.min(r);
            }
        }
        let (fast, _) = pp.rtt_and_prob(&w.net, 0, 1.0);
        assert!(min_obs.is_finite());
        assert!(
            (min_obs - fast).abs() < 3.0,
            "packet min {min_obs} vs fast {fast}"
        );
    }

    #[test]
    fn response_prob_in_unit_interval() {
        let w = toy(1);
        let vp = vp_of(&w, "acme-nyc");
        let dst = w.host_addr(toy_asns::CDNCO, 0);
        let pp = probe_path(&w.net, &vp, dst, 4, 9, 0).unwrap();
        for t in [0i64, 100_000, 1_000_000] {
            let (_, p) = pp.rtt_and_prob(&w.net, t, 1.0);
            assert!((0.0..=1.0).contains(&p), "p={p}");
        }
    }

    #[test]
    fn excess_ttl_is_none_only_past_destination() {
        let w = toy(1);
        let vp = vp_of(&w, "acme-nyc");
        let dst = w.host_addr(toy_asns::CDNCO, 0);
        let full = w.net.forward_path(vp.router, dst, 9, 0);
        let n = full.len() as u8;
        // Exactly at the destination: echo reply.
        let at = probe_path(&w.net, &vp, dst, n, 9, 0).unwrap();
        assert_eq!(at.responder_addr, dst);
        // Far beyond: still the destination (hosts answer any remaining TTL).
        let beyond = probe_path(&w.net, &vp, dst, n + 10, 9, 0).unwrap();
        assert_eq!(beyond.responder_addr, dst);
        // Unroutable destination: no path at all.
        assert!(probe_path(&w.net, &vp, "172.16.0.1".parse().unwrap(), 5, 9, 0).is_none());
    }
}
