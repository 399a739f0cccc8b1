//! Steady-state TCP bulk-transfer throughput over a simulated path.
//!
//! The throughput of a TCP flow whose data crosses the given links is
//! modeled as the minimum of two classical limits:
//!
//! * **residual bottleneck capacity**: on a link at utilization `u`, a new
//!   flow can claim roughly the idle capacity, floored at a small fair
//!   share once the link saturates (competing flows back off too);
//! * **loss-limited (Mathis) rate**: `MSS/RTT · C/√p` with the end-to-end
//!   loss probability accumulated over the path's links — this is what
//!   collapses throughput across an overloaded interconnection.
//!
//! A receiver window is not a third limit: a 4 MiB window allows 33.55/RTT
//! Mbit/s, and with `p` floored at 1e-6 the Mathis rate never exceeds
//! 14.25/RTT Mbit/s, so the window never binds.
//!
//! A short test also pays slow-start: the first `log2(BDP/MSS)` round trips
//! deliver little data, which we discount from the average.

use manic_netsim::time::SimTime;
use manic_netsim::topo::Direction;
use manic_netsim::{Ipv4, LinkId, LinkState, Network, RouterId};
use manic_probing::VpHandle;

/// Maximum segment size, bytes.
const MSS_BYTES: f64 = 1460.0;
/// Mathis constant (≈ 1.22 for periodic loss).
const MATHIS_C: f64 = 1.22;
/// Fair-share floor as a fraction of link capacity when saturated.
const FAIR_SHARE_FLOOR: f64 = 0.03;
/// Test duration, seconds (for the slow-start discount): NDT's 10 s.
const DURATION_S: f64 = 10.0;
/// Effective-loss discount: tail-drop losses arrive in bursts that SACK
/// recovers in one window, so the loss-event rate driving the Mathis
/// formula is well below the raw packet-drop rate. Modern stacks see
/// roughly a tenth of raw drops as loss events.
const BURST_LOSS_DISCOUNT: f64 = 0.1;

/// A link a flow crosses, the direction it crosses it in, and the link's
/// state at the test instant.
pub type Hop = (LinkId, Direction, LinkState);

/// The hops flow `flow_id` between `vp` and the host `addr` on `router`
/// crosses at `t`, forward (VP to host) and reverse (the download data
/// path), and its RTT: propagation both ways plus the standing queues,
/// floored at 0.5 ms. `None` unless the forward path ends at the host and
/// the reverse path comes back to the VP. Each link's state is read once,
/// here, for both the RTT and the throughput model.
pub(crate) fn flow_path(
    net: &Network,
    vp: &VpHandle,
    addr: Ipv4,
    router: RouterId,
    flow_id: u16,
    t: SimTime,
) -> Option<(Vec<Hop>, Vec<Hop>, f64)> {
    let fwd = net.forward_path(vp.router, addr, flow_id, t);
    if fwd.is_empty() || !net.topo.terminates(fwd.last()?.router, addr) {
        return None;
    }
    let rev = net.forward_path(router, vp.addr, flow_id, t);
    if rev.is_empty() || rev.last()?.router != vp.router {
        return None;
    }
    let hops = |path: Vec<manic_netsim::HopObservation>| -> Vec<Hop> {
        path.iter().map(|h| (h.link, h.direction, net.link_state(h.link, h.direction, t))).collect()
    };
    let (forward, reverse) = (hops(fwd), hops(rev));
    let mut rtt = 0.0;
    for &(l, _, s) in forward.iter().chain(&reverse) {
        rtt += net.topo.link(l).prop_delay_ms + s.queue_ms;
    }
    Some((forward, reverse, rtt.max(0.5)))
}

/// The links of `hops`, in the direction each is crossed.
pub(crate) fn links(hops: &[Hop]) -> Vec<(LinkId, Direction)> {
    hops.iter().map(|&(l, d, _)| (l, d)).collect()
}

/// Throughput in Mbit/s of a 10 s bulk TCP flow whose data crosses `data`
/// (each link with its state at the test instant), with round-trip time
/// `rtt_ms`.
pub fn path_throughput_mbps(net: &Network, data: &[Hop], rtt_ms: f64) -> f64 {
    assert!(rtt_ms > 0.0, "rtt must be positive");
    let rtt_s = rtt_ms / 1000.0;

    // Residual bottleneck and accumulated loss along the data path.
    let mut bottleneck_mbps = f64::INFINITY;
    let mut delivery = 1.0;
    for &(l, _, s) in data {
        let residual = net.topo.link(l).capacity_mbps * (1.0 - s.utilization).max(FAIR_SHARE_FLOOR);
        bottleneck_mbps = bottleneck_mbps.min(residual);
        delivery *= 1.0 - s.loss;
    }
    let p = ((1.0 - delivery) * BURST_LOSS_DISCOUNT).max(1e-6);

    // Loss-limited rate (Mathis et al. 1997).
    let mathis_mbps = MSS_BYTES * 8.0 / 1e6 * MATHIS_C / (rtt_s * p.sqrt());

    let steady = bottleneck_mbps.min(mathis_mbps).max(0.01);

    // Slow-start discount: roughly log2(BDP in segments) round trips ramping.
    let bdp_segments = (steady * 1e6 / 8.0 * rtt_s / MSS_BYTES).max(1.0);
    let rampup_s = bdp_segments.log2().max(0.0) * rtt_s;
    let discount = (1.0 - 0.5 * rampup_s / DURATION_S).clamp(0.5, 1.0);
    steady * discount
}

#[cfg(test)]
mod tests {
    use super::*;
    use manic_scenario::worlds::{toy, toy_asns};
    use manic_netsim::time::{datetime_to_sim, Date};

    fn data_path(w: &manic_scenario::World, t: SimTime) -> Vec<Hop> {
        // Data path = CDNCO host -> VP (the direction that congests).
        let vp = w.vp("acme-nyc");
        let host = w.host_routers[&toy_asns::CDNCO];
        w.net
            .forward_path(host, vp.addr, 3, 0)
            .iter()
            .map(|h| (h.link, h.direction, w.net.link_state(h.link, h.direction, t)))
            .collect()
    }

    #[test]
    fn uncongested_path_is_fast() {
        let w = toy(1);
        let quiet = datetime_to_sim(Date::new(2016, 6, 7), 9, 0, 0); // 4am local
        let tput = path_throughput_mbps(&w.net, &data_path(&w, quiet), 20.0);
        // The VP's 20 Mbit/s access plan is the bottleneck when the
        // interconnect is quiet.
        assert!(tput > 15.0, "quiet-hours throughput {tput}");
    }

    #[test]
    fn congested_path_collapses() {
        let w = toy(1);
        let peak = datetime_to_sim(Date::new(2016, 6, 8), 2, 0, 0); // 9pm NYC
        let quiet = datetime_to_sim(Date::new(2016, 6, 7), 9, 0, 0);
        let t_peak = path_throughput_mbps(&w.net, &data_path(&w, peak), 60.0);
        let t_quiet = path_throughput_mbps(&w.net, &data_path(&w, quiet), 20.0);
        assert!(
            t_peak < t_quiet / 3.0,
            "congestion must collapse throughput: {t_peak} vs {t_quiet}"
        );
    }

    #[test]
    fn longer_rtt_lowers_loss_limited_rate() {
        let w = toy(1);
        let hops = data_path(&w, datetime_to_sim(Date::new(2016, 6, 8), 2, 0, 0));
        let short = path_throughput_mbps(&w.net, &hops, 20.0);
        let long = path_throughput_mbps(&w.net, &hops, 200.0);
        assert!(long < short, "{long} vs {short}");
    }
}
