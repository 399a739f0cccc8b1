//! Steady-state TCP bulk-transfer throughput over a simulated path.
//!
//! The throughput of a TCP flow whose data crosses the given links is
//! modeled as the minimum of three classical limits:
//!
//! * **residual bottleneck capacity**: on a link at utilization `u`, a new
//!   flow can claim roughly the idle capacity, floored at a small fair
//!   share once the link saturates (competing flows back off too);
//! * **loss-limited (Mathis) rate**: `MSS/RTT · C/√p` with the end-to-end
//!   loss probability accumulated over the path's links — this is what
//!   collapses throughput across an overloaded interconnection;
//! * **receiver window**: `wnd / RTT`.
//!
//! A short test also pays slow-start: the first `log2(BDP/MSS)` round trips
//! deliver little data, which we discount from the average.

use manic_netsim::time::SimTime;
use manic_netsim::topo::Direction;
use manic_netsim::{Ipv4, LinkId, Network, RouterId};
use manic_probing::VpHandle;

/// Model parameters.
#[derive(Debug, Clone, Copy)]
pub struct TcpModelConfig {
    /// Maximum segment size, bytes.
    pub mss_bytes: f64,
    /// Receiver window, bytes.
    pub rwnd_bytes: f64,
    /// Mathis constant (≈ 1.22 for periodic loss).
    pub mathis_c: f64,
    /// Fair-share floor as a fraction of link capacity when saturated.
    pub fair_share_floor: f64,
    /// Test duration, seconds (for the slow-start discount).
    pub duration_s: f64,
    /// Effective-loss discount: tail-drop losses arrive in bursts that SACK
    /// recovers in one window, so the loss-event rate driving the Mathis
    /// formula is well below the raw packet-drop rate. Modern stacks see
    /// roughly a tenth of raw drops as loss events.
    pub burst_loss_discount: f64,
}

impl Default for TcpModelConfig {
    fn default() -> Self {
        TcpModelConfig {
            mss_bytes: 1460.0,
            rwnd_bytes: 4.0 * 1024.0 * 1024.0,
            mathis_c: 1.22,
            fair_share_floor: 0.03,
            duration_s: 10.0,
            burst_loss_discount: 0.1,
        }
    }
}

/// A path's links, in the direction each is crossed.
type Links = Vec<(LinkId, Direction)>;

/// The links flow `flow_id` between `vp` and the host `addr` on `router`
/// crosses at `t`, forward (VP to host) and reverse (the download data
/// path), and its RTT: propagation both ways plus the standing queues,
/// floored at 0.5 ms. `None` unless the forward path ends at the host and
/// the reverse path comes back to the VP.
pub(crate) fn flow_path(
    net: &Network,
    vp: &VpHandle,
    addr: Ipv4,
    router: RouterId,
    flow_id: u16,
    t: SimTime,
) -> Option<(Links, Links, f64)> {
    let fwd = net.forward_path(vp.router, addr, flow_id, t);
    if fwd.is_empty() || !net.topo.terminates(fwd.last()?.router, addr) {
        return None;
    }
    let rev = net.forward_path(router, vp.addr, flow_id, t);
    if rev.is_empty() || rev.last()?.router != vp.router {
        return None;
    }
    let forward: Links = fwd.iter().map(|h| (h.link, h.direction)).collect();
    let reverse: Links = rev.iter().map(|h| (h.link, h.direction)).collect();
    let mut rtt = 0.0;
    for &(l, d) in forward.iter().chain(&reverse) {
        rtt += net.topo.link(l).prop_delay_ms + net.link_state(l, d, t).queue_ms;
    }
    Some((forward, reverse, rtt.max(0.5)))
}

/// Throughput in Mbit/s of a bulk TCP flow whose data crosses `data_links`
/// at time `t`, with round-trip time `rtt_ms`.
pub fn path_throughput_mbps(
    net: &Network,
    data_links: &[(LinkId, Direction)],
    rtt_ms: f64,
    t: SimTime,
    cfg: &TcpModelConfig,
) -> f64 {
    assert!(rtt_ms > 0.0, "rtt must be positive");
    let rtt_s = rtt_ms / 1000.0;

    // Residual bottleneck and accumulated loss along the data path.
    let mut bottleneck_mbps = f64::INFINITY;
    let mut delivery = 1.0;
    for &(l, d) in data_links {
        let link = net.topo.link(l);
        let s = net.link_state(l, d, t);
        let residual = link.capacity_mbps * (1.0 - s.utilization).max(cfg.fair_share_floor);
        bottleneck_mbps = bottleneck_mbps.min(residual);
        delivery *= 1.0 - s.loss;
    }
    let p = ((1.0 - delivery) * cfg.burst_loss_discount).max(1e-6);

    // Loss-limited rate (Mathis et al. 1997).
    let mathis_mbps = cfg.mss_bytes * 8.0 / 1e6 * cfg.mathis_c / (rtt_s * p.sqrt());

    // Receiver-window rate.
    let rwnd_mbps = cfg.rwnd_bytes * 8.0 / 1e6 / rtt_s;

    let steady = bottleneck_mbps.min(mathis_mbps).min(rwnd_mbps).max(0.01);

    // Slow-start discount: roughly log2(BDP in segments) round trips ramping.
    let bdp_segments = (steady * 1e6 / 8.0 * rtt_s / cfg.mss_bytes).max(1.0);
    let rampup_s = bdp_segments.log2().max(0.0) * rtt_s;
    let discount = (1.0 - 0.5 * rampup_s / cfg.duration_s).clamp(0.5, 1.0);
    steady * discount
}

#[cfg(test)]
mod tests {
    use super::*;
    use manic_scenario::worlds::{toy, toy_asns};
    use manic_netsim::time::{datetime_to_sim, Date};

    fn data_path(w: &manic_scenario::World) -> Vec<(LinkId, Direction)> {
        // Data path = CDNCO host -> VP (the direction that congests).
        let vp = w.vp("acme-nyc");
        let host = w.host_routers[&toy_asns::CDNCO];
        w.net
            .forward_path(host, vp.addr, 3, 0)
            .iter()
            .map(|h| (h.link, h.direction))
            .collect()
    }

    #[test]
    fn uncongested_path_is_fast() {
        let w = toy(1);
        let links = data_path(&w);
        let quiet = datetime_to_sim(Date::new(2016, 6, 7), 9, 0, 0); // 4am local
        let tput = path_throughput_mbps(&w.net, &links, 20.0, quiet, &TcpModelConfig::default());
        // The VP's 20 Mbit/s access plan is the bottleneck when the
        // interconnect is quiet.
        assert!(tput > 15.0, "quiet-hours throughput {tput}");
    }

    #[test]
    fn congested_path_collapses() {
        let w = toy(1);
        let links = data_path(&w);
        let peak = datetime_to_sim(Date::new(2016, 6, 8), 2, 0, 0); // 9pm NYC
        let quiet = datetime_to_sim(Date::new(2016, 6, 7), 9, 0, 0);
        let cfg = TcpModelConfig::default();
        let t_peak = path_throughput_mbps(&w.net, &links, 60.0, peak, &cfg);
        let t_quiet = path_throughput_mbps(&w.net, &links, 20.0, quiet, &cfg);
        assert!(
            t_peak < t_quiet / 3.0,
            "congestion must collapse throughput: {t_peak} vs {t_quiet}"
        );
    }

    #[test]
    fn rwnd_caps_long_paths() {
        let w = toy(1);
        let links = data_path(&w);
        let quiet = datetime_to_sim(Date::new(2016, 6, 7), 9, 0, 0);
        let cfg = TcpModelConfig { rwnd_bytes: 64.0 * 1024.0, ..Default::default() };
        let tput = path_throughput_mbps(&w.net, &links, 100.0, quiet, &cfg);
        // 64KB window at 100ms: ~5.2 Mbps.
        assert!((tput - 5.24).abs() < 1.0, "window-limited: {tput}");
    }

    #[test]
    fn longer_rtt_lowers_loss_limited_rate() {
        let w = toy(1);
        let links = data_path(&w);
        let peak = datetime_to_sim(Date::new(2016, 6, 8), 2, 0, 0);
        let cfg = TcpModelConfig::default();
        let short = path_throughput_mbps(&w.net, &links, 20.0, peak, &cfg);
        let long = path_throughput_mbps(&w.net, &links, 200.0, peak, &cfg);
        assert!(long < short, "{long} vs {short}");
    }
}
