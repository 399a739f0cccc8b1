//! YouTube-test-style streaming emulation (§3.5, §5.2).
//!
//! The tool "first downloads the webpage of a given video to extract the
//! video's manifest ... then streams the video with the highest supported
//! bitrate", emulating playback by buffering and decoding. We reproduce the
//! three §5.2 metrics:
//!
//! * **ON-period throughput** — the instantaneous download rate during
//!   steady-state ON bursts, i.e. the TCP throughput of the cache→client
//!   path;
//! * **startup delay** — manifest fetch (two round trips) plus the time to
//!   buffer the first two seconds of media;
//! * **failure** — the client cannot sustain the bitrate (buffer depletes)
//!   or startup times out.

use crate::tcpmodel::{flow_path, links, path_throughput_mbps};
use manic_netsim::noise;
use manic_netsim::time::SimTime;
use manic_netsim::topo::Direction;
use manic_netsim::{Ipv4, LinkId, Network, RouterId};
use manic_probing::VpHandle;

/// Media bitrate, Mbit/s (the "highest supported bitrate").
const BITRATE_MBPS: f64 = 4.0;
/// Seconds of media that must be buffered before playback starts.
const STARTUP_BUFFER_S: f64 = 2.0;
/// Startup deadline after which the test is recorded as failed.
const STARTUP_TIMEOUT_S: f64 = 15.0;
/// A stream fails when sustained throughput falls below
/// `STALL_MARGIN * BITRATE_MBPS` (rebuffering events deplete the buffer).
const STALL_MARGIN: f64 = 1.05;

/// One streaming test outcome.
#[derive(Debug, Clone)]
pub struct YoutubeResult {
    pub t: SimTime,
    pub cache_addr: Ipv4,
    /// Average instantaneous download rate during ON periods, Mbit/s.
    pub on_throughput_mbps: f64,
    /// Connection + first-two-seconds-of-media time, seconds.
    pub startup_delay_s: f64,
    /// Whether the stream failed (startup timeout or buffer starvation).
    pub failed: bool,
    /// Links on the forward path (used to map the test to an interdomain
    /// link via the post-test traceroute, §3.5).
    pub forward_links: Vec<(LinkId, Direction)>,
}

/// Run one streaming test from `vp` against a cache host.
pub fn run_youtube_test(
    net: &Network,
    vp: &VpHandle,
    cache_addr: Ipv4,
    cache_router: RouterId,
    t: SimTime,
    flow_id: u16,
) -> Option<YoutubeResult> {
    let (forward, reverse, rtt) = flow_path(net, vp, cache_addr, cache_router, flow_id, t)?;

    // Media rides the reverse (cache -> client) path.
    let jitter = 1.0 + 0.05 * noise::signed(net.seed ^ 0x77BE, flow_id as u64, t as u64);
    let tput = (path_throughput_mbps(net, &reverse, rtt) * jitter).max(0.01);

    // Startup: manifest page (2 RTT: connect + GET) then buffer 2s of media.
    let media_bits = BITRATE_MBPS * STARTUP_BUFFER_S;
    let startup = 2.0 * rtt / 1000.0 + media_bits / tput;

    // Failure: startup timeout, or sustained throughput below the bitrate
    // (with a small margin for container overhead).
    let failed = startup > STARTUP_TIMEOUT_S || tput < STALL_MARGIN * BITRATE_MBPS;

    Some(YoutubeResult {
        t,
        cache_addr,
        on_throughput_mbps: tput,
        startup_delay_s: startup,
        failed,
        forward_links: links(&forward),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use manic_netsim::time::{datetime_to_sim, Date};
    use manic_scenario::worlds::{install_congestion, toy, toy_asns};
    use manic_scenario::CongestionEpisode;

    fn vp_of(w: &manic_scenario::World, name: &str) -> VpHandle {
        let vp = w.vp(name);
        VpHandle { name: vp.name.clone(), router: vp.router, addr: vp.addr }
    }

    fn run_at(w: &manic_scenario::World, t: SimTime) -> YoutubeResult {
        let vp = vp_of(w, "acme-nyc");
        run_youtube_test(
            &w.net,
            &vp,
            w.host_addr(toy_asns::CDNCO, 3),
            w.host_routers[&toy_asns::CDNCO],
            t,
            21,
        )
        .expect("routable")
    }

    #[test]
    fn quiet_hours_stream_healthy() {
        let w = toy(1);
        let quiet = datetime_to_sim(Date::new(2016, 6, 7), 9, 0, 0);
        let r = run_at(&w, quiet);
        assert!(!r.failed, "{r:?}");
        assert!(r.on_throughput_mbps > 10.0);
        assert!(r.startup_delay_s < 2.0, "startup {}", r.startup_delay_s);
    }

    #[test]
    fn peak_hours_stream_degrades() {
        let w = toy(1);
        let quiet = datetime_to_sim(Date::new(2016, 6, 7), 9, 0, 0);
        let peak = datetime_to_sim(Date::new(2016, 6, 8), 2, 0, 0);
        let rq = run_at(&w, quiet);
        let rp = run_at(&w, peak);
        assert!(rp.on_throughput_mbps < rq.on_throughput_mbps / 2.0);
        assert!(rp.startup_delay_s > rq.startup_delay_s);
        assert!(!rq.failed);
    }

    #[test]
    fn stream_fails_at_peak_of_a_long_episode() {
        // Over a peering congested ten hours a day the 4 Mbit/s stream
        // cannot be sustained at peak (the toy world's four-hour episode
        // still leaves it ~6.8 Mbit/s), but plays fine in quiet hours.
        let mut w = toy(1);
        let episode = CongestionEpisode::new(toy_asns::ACME, toy_asns::CDNCO, 0..30, 10.0);
        install_congestion(&mut w, &[episode]);
        let rq = run_at(&w, datetime_to_sim(Date::new(2016, 6, 7), 9, 0, 0));
        let rp = run_at(&w, datetime_to_sim(Date::new(2016, 6, 8), 2, 0, 0));
        assert!(!rq.failed, "{rq:?}");
        assert!(rp.failed, "{rp:?}");
    }

    #[test]
    fn forward_links_cross_the_peering() {
        let w = toy(1);
        let r = run_at(&w, 0);
        let gt = &w.links_between(toy_asns::ACME, toy_asns::CDNCO)[0];
        assert!(
            r.forward_links.iter().any(|&(l, _)| l == gt.link),
            "stream maps to the peering link"
        );
    }
}
