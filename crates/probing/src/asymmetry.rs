//! Return-path asymmetry detection via the IP record-route option (§7).
//!
//! "We have several potential techniques to detect these cases, including
//! identifying significant differences in baseline delays to the near and
//! far sides of the link, and use of the IP record route option."
//!
//! A record-route probe collects the egress interfaces its packet and the
//! reply actually traversed. The VP then checks, with alias resolution,
//! whether every recorded reply-leg interface sits on a router it already
//! saw on the forward path: if some reply interface aliases with *no*
//! forward hop, the reply came home a different way. The module also
//! implements the paper's other signal — a far-minus-near baseline-delay gap
//! far exceeding what one link crossing can add.

use crate::alias::ally_test;
use crate::path::{probe_path, VpHandle};
use crate::traceroute::Traceroute;
use manic_netsim::time::SimTime;
use manic_netsim::{Ipv4, Network, SimState};

/// Outcome of an asymmetry check for one (vp, destination, ttl).
#[derive(Debug, Clone)]
pub struct AsymmetryReport {
    /// Egress interfaces recorded by the RR option (forward then reply leg).
    pub recorded: Vec<Ipv4>,
    /// Reply-leg interfaces that alias no forward-path router.
    pub foreign_reply_ifaces: Vec<Ipv4>,
    /// Baseline (min) RTT gap between far and near targets, ms.
    pub baseline_gap_ms: Option<f64>,
    /// Verdict: the reply plausibly crossed a different interconnection.
    pub asymmetric: bool,
}

/// Baseline far-minus-near gap beyond which §7's delay signal fires: one
/// extra link crossing plus ICMP generation stays well under this.
pub const BASELINE_GAP_MS: f64 = 15.0;

/// Run the record-route asymmetry check for the far end of a link.
///
/// `trace` is the traceroute that discovered the link (its hops are the
/// forward-path interfaces); `far_ttl` is the TTL expiring at the far end.
/// Returns `None` when the RR probe is unroutable.
pub fn check_far_end(
    net: &Network,
    state: &mut SimState,
    vp: &VpHandle,
    trace: &Traceroute,
    far_ttl: u8,
    t: SimTime,
) -> Option<AsymmetryReport> {
    let recorded = net.record_route(vp.router, vp.addr, trace.dst, far_ttl, trace.flow_id, t)?;
    let forward_hops: Vec<Ipv4> = trace
        .hops
        .iter()
        .take(far_ttl as usize)
        .filter_map(|h| h.addr)
        .collect();

    // The forward leg occupies the first `far_ttl` slots (minus truncation);
    // everything after is the reply leg.
    let fwd_slots = (far_ttl as usize).min(recorded.len());
    let mut foreign = Vec::new();
    for &addr in &recorded[fwd_slots..] {
        // Does this reply interface alias any forward router? The VP's own
        // access interface and hop addresses match trivially.
        let on_forward = addr == vp.addr
            || forward_hops.contains(&addr)
            || forward_hops.iter().any(|&h| {
                ally_test(net, state, vp, addr, h, t) == Some(true)
            });
        if !on_forward {
            foreign.push(addr);
        }
    }

    // Baseline-delay signal: min RTT to far vs near target.
    let baseline_gap_ms = (far_ttl >= 2)
        .then(|| {
            let far = probe_path(net, vp, trace.dst, far_ttl, trace.flow_id, t)?;
            let near = probe_path(net, vp, trace.dst, far_ttl - 1, trace.flow_id, t)?;
            Some(far.base_ms - near.base_ms)
        })
        .flatten();

    let asymmetric = !foreign.is_empty()
        || baseline_gap_ms.map(|g| g > BASELINE_GAP_MS).unwrap_or(false);
    Some(AsymmetryReport {
        recorded,
        foreign_reply_ifaces: foreign,
        baseline_gap_ms,
        asymmetric,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traceroute::trace;
    use manic_scenario::worlds::{toy, toy_asns};

    fn vp_of(w: &manic_scenario::World, name: &str) -> VpHandle {
        let vp = w.vp(name);
        VpHandle { name: vp.name.clone(), router: vp.router, addr: vp.addr }
    }

    #[test]
    fn tslp_far_end_is_symmetric() {
        // §7's core argument: a probe that terminates at the far end of an
        // interconnection returns across that same link — RR confirms it.
        let w = toy(1);
        let vp = vp_of(&w, "acme-nyc");
        let dst = w.host_addr(toy_asns::CDNCO, 0);
        let mut st = SimState::new();
        let tr = trace(&w.net, &mut st, &vp, dst, 7, 0, 32, 3);
        let gt = &w.links_between(toy_asns::ACME, toy_asns::CDNCO)[0];
        let far = tr.hop_of(gt.far_addr_from(toy_asns::ACME)).expect("far hop seen");
        let far_ttl = tr.hops[far].ttl;
        let report = check_far_end(&w.net, &mut st, &vp, &tr, far_ttl, 1000).expect("routable");
        assert!(
            !report.asymmetric,
            "TSLP far-end replies ride the measured link: {report:?}"
        );
        assert!(report.foreign_reply_ifaces.is_empty());
        if let Some(gap) = report.baseline_gap_ms {
            assert!(gap < BASELINE_GAP_MS, "gap {gap}");
        }
    }

    #[test]
    fn rr_records_both_legs() {
        let w = toy(1);
        let vp = vp_of(&w, "acme-nyc");
        let dst = w.host_addr(toy_asns::CDNCO, 0);
        let slots = w.net.record_route(vp.router, vp.addr, dst, 3, 7, 0).expect("routable");
        // Forward 3 hops + reply hops, capped at 9 slots.
        assert!(slots.len() > 3 && slots.len() <= 9, "{slots:?}");
    }
}
