//! NDT-style throughput tests (§3.4, §5.3).
//!
//! An NDT test runs a 10-second download and upload against a server hosted
//! in some transit network. The critical subtlety reproduced here is path
//! asymmetry: *download* throughput is governed by the data path from the
//! server to the VP (the reverse of the traceroute the VP sees), so a test
//! can cross a congested link on the forward path while the data rides an
//! entirely different, uncongested interconnection — the paper's Link 2
//! (Comcast-Tata in Chicago, with data returning through Ashburn).

use crate::tcpmodel::{flow_path, path_throughput_mbps, TcpModelConfig};
use manic_netsim::noise;
use manic_netsim::time::SimTime;
use manic_netsim::topo::Direction;
use manic_netsim::{AsNumber, Ipv4, LinkId, Network, RouterId};
use manic_probing::VpHandle;

/// An NDT measurement server (an M-Lab-like host in a transit network).
#[derive(Debug, Clone)]
pub struct NdtServer {
    pub name: String,
    pub asn: AsNumber,
    pub addr: Ipv4,
    /// Host router terminating the server address.
    pub router: RouterId,
}

/// One completed NDT test.
#[derive(Debug, Clone)]
pub struct NdtResult {
    pub t: SimTime,
    pub server: String,
    pub download_mbps: f64,
    pub upload_mbps: f64,
    pub rtt_ms: f64,
    /// Links crossed by the forward path (VP -> server), as a traceroute
    /// after the test would observe.
    pub forward_links: Vec<(LinkId, Direction)>,
    /// Links crossed by the download data path (server -> VP).
    pub reverse_links: Vec<(LinkId, Direction)>,
}

/// Run one NDT test at time `t`.
///
/// Returns `None` when either direction is unroutable.
pub fn run_ndt(
    net: &Network,
    vp: &VpHandle,
    server: &NdtServer,
    t: SimTime,
    flow_id: u16,
    cfg: &TcpModelConfig,
) -> Option<NdtResult> {
    let (forward_links, reverse_links, rtt) =
        flow_path(net, vp, server.addr, server.router, flow_id, t)?;

    // Download governed by the reverse (server->VP) data path; upload by the
    // forward path. A few percent of measurement noise on top.
    let jitter = |stream: u64| 1.0 + 0.04 * noise::signed(net.seed ^ 0x4D7, stream, t as u64);
    let download = path_throughput_mbps(net, &reverse_links, rtt, t, cfg)
        * jitter(flow_id as u64);
    let upload = path_throughput_mbps(net, &forward_links, rtt, t, cfg)
        * jitter(flow_id as u64 | 1 << 32);

    Some(NdtResult {
        t,
        server: server.name.clone(),
        download_mbps: download,
        upload_mbps: upload,
        rtt_ms: rtt,
        forward_links,
        reverse_links,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use manic_netsim::time::{datetime_to_sim, Date};
    use manic_scenario::worlds::{toy, toy_asns};

    fn vp_of(w: &manic_scenario::World, name: &str) -> VpHandle {
        let vp = w.vp(name);
        VpHandle { name: vp.name.clone(), router: vp.router, addr: vp.addr }
    }

    #[test]
    fn ndt_runs_against_transit_server() {
        let w = toy(1);
        let server = NdtServer {
            name: "ndt-transitco".into(),
            asn: toy_asns::TRANSITCO,
            addr: w.host_addr(toy_asns::TRANSITCO, 7),
            router: w.host_routers[&toy_asns::TRANSITCO],
        };
        let vp = vp_of(&w, "acme-nyc");
        let quiet = datetime_to_sim(Date::new(2016, 6, 7), 9, 0, 0);
        let r = run_ndt(&w.net, &vp, &server, quiet, 5, &TcpModelConfig::default()).unwrap();
        // Plan-capped by the VP's 20 Mbit/s access link.
        assert!(r.download_mbps > 15.0 && r.download_mbps < 25.0, "download {}", r.download_mbps);
        assert!(r.upload_mbps > 15.0);
        assert!(r.rtt_ms > 0.0);
        assert!(!r.forward_links.is_empty() && !r.reverse_links.is_empty());
    }

    #[test]
    fn congestion_reduces_download_not_upload() {
        // Server in CDNCO host space is behind the congested ACME-CDNCO
        // peering; the congested direction is CDNCO->ACME (download data).
        let w = toy(1);
        let server = NdtServer {
            name: "ndt-cdnco".into(),
            asn: toy_asns::CDNCO,
            addr: w.host_addr(toy_asns::CDNCO, 7),
            router: w.host_routers[&toy_asns::CDNCO],
        };
        let vp = vp_of(&w, "acme-nyc");
        let cfg = TcpModelConfig::default();
        let peak = datetime_to_sim(Date::new(2016, 6, 8), 2, 0, 0); // 9pm NYC
        let quiet = datetime_to_sim(Date::new(2016, 6, 7), 9, 0, 0);
        let rp = run_ndt(&w.net, &vp, &server, peak, 5, &cfg).unwrap();
        let rq = run_ndt(&w.net, &vp, &server, quiet, 5, &cfg).unwrap();
        assert!(
            rp.download_mbps < rq.download_mbps / 2.0,
            "download collapses at peak: {} vs {}",
            rp.download_mbps,
            rq.download_mbps
        );
        // Upload rides the uncongested direction: it pays the inflated RTT
        // (slower window growth) but not the overload drops, so it degrades
        // far less than the download.
        assert!(
            rp.upload_mbps > 2.5 * rp.download_mbps,
            "upload much healthier than download: {} vs {}",
            rp.upload_mbps,
            rp.download_mbps
        );
        assert!(
            rp.upload_mbps > rq.upload_mbps * 0.1,
            "upload does not collapse: {} vs {}",
            rp.upload_mbps,
            rq.upload_mbps
        );
    }

    #[test]
    fn rtt_reflects_standing_queue() {
        let w = toy(1);
        let server = NdtServer {
            name: "ndt-cdnco".into(),
            asn: toy_asns::CDNCO,
            addr: w.host_addr(toy_asns::CDNCO, 7),
            router: w.host_routers[&toy_asns::CDNCO],
        };
        let vp = vp_of(&w, "acme-nyc");
        let cfg = TcpModelConfig::default();
        let peak = datetime_to_sim(Date::new(2016, 6, 8), 2, 0, 0);
        let quiet = datetime_to_sim(Date::new(2016, 6, 7), 9, 0, 0);
        let rp = run_ndt(&w.net, &vp, &server, peak, 5, &cfg).unwrap();
        let rq = run_ndt(&w.net, &vp, &server, quiet, 5, &cfg).unwrap();
        assert!(rp.rtt_ms > rq.rtt_ms + 20.0, "{} vs {}", rp.rtt_ms, rq.rtt_ms);
    }
}
