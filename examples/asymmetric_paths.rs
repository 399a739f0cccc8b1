//! The §7 "Asymmetric routes" limitation, demonstrated end to end.
//!
//! ```text
//! cargo run --release --example asymmetric_paths
//! ```
//!
//! TSLP's far-end reply returns across the measured link itself ("for a
//! probe that terminates at the far end of an interconnection, the closest
//! path back to the VP is across that same link"), so the probe sees the
//! link's congestion. An end-to-end TCP flow has no such guarantee: with
//! hot-potato routing the download data can come home over an entirely
//! different interconnection. This example reproduces the paper's Link-2
//! situation: a Comcast Chicago VP reaches a server in Tata across the
//! congested Chicago link, while the server's data returns over the clean
//! Ashburn link — TSLP flags congestion, NDT throughput shrugs.

use manic_netsim::time::{date_to_sim, datetime_to_sim, Date};
use manic_probing::tslp::{synthesize_task, TslpDest, TslpTask};
use manic_probing::VpHandle;
use manic_scenario::worlds::{us_asns, us_broadband};
use manic_valid::ndt::{run_ndt, NdtServer};
use manic_valid::tcpmodel::TcpModelConfig;

fn main() {
    let world = us_broadband(0x5167_C044);
    let vpr = world.vp("comcast-chi");
    let vp = VpHandle { name: vpr.name.clone(), router: vpr.router, addr: vpr.addr };

    // The NDT-style server in Tata's Ashburn footprint.
    let (addr, router) = world.secondary_host_addr(us_asns::TATA, "ash", 7);
    let server = NdtServer { name: "ndt-tata-ash".into(), asn: us_asns::TATA, addr, router };

    let describe = |links: &[(manic_netsim::LinkId, manic_netsim::topo::Direction)]| -> Vec<String> {
        links
            .iter()
            .filter(|&&(l, _)| world.net.topo.link(l).kind == manic_netsim::LinkKind::Interdomain)
            .map(|&(l, _)| {
                let gt = world.gt_links.iter().find(|g| g.link == l).expect("gt");
                format!("{}<->{} at {}", gt.a_asn, gt.b_asn, gt.a_metro)
            })
            .collect()
    };

    // Peak hour in Chicago during the late-2017 Comcast-Tata congestion.
    let peak = datetime_to_sim(Date::new(2017, 12, 7), 3, 0, 0); // 9pm CST
    let quiet = date_to_sim(Date::new(2017, 12, 7)) + 15 * 3600; // 9am CST

    let r = run_ndt(&world.net, &vp, &server, peak, 7, &TcpModelConfig::default()).expect("routable");
    println!("Forward path (VP -> server) crosses: {:?}", describe(&r.forward_links));
    println!("Reverse path (server -> VP) crosses: {:?}", describe(&r.reverse_links));

    // What TSLP sees on the forward (Chicago) link.
    let chi = world
        .links_between(us_asns::COMCAST, us_asns::TATA)
        .into_iter()
        .find(|g| g.a_metro == "chi")
        .expect("chicago link");
    let dst = world.host_addr(us_asns::TATA, 0);
    let near_ip = chi.near_addr_from(us_asns::COMCAST);
    let far_ip = chi.far_addr_from(us_asns::COMCAST);
    let walk = world.net.forward_path(vp.router, dst, 7, peak);
    let far_ttl = walk
        .iter()
        .position(|h| h.ingress_addr == far_ip)
        .map(|i| (i + 1) as u8)
        .expect("far end on path");
    let dests = vec![TslpDest { dst, near_ttl: far_ttl - 1, far_ttl }];
    let task = TslpTask { near_ip, far_ip, dests, flow_id: 7 };
    // The far end's min RTT in the half-hour bin centred on `t`.
    let far_rtt = |t| {
        synthesize_task(&world.net, &vp, &task, t - 900, t + 900, 1800).far[0].expect("answered")
    };
    println!(
        "\nTSLP far-end RTT on the Chicago link: {:.1} ms at peak vs {:.1} ms off-peak",
        far_rtt(peak),
        far_rtt(quiet)
    );

    let rq = run_ndt(&world.net, &vp, &server, quiet, 7, &TcpModelConfig::default()).expect("routable");
    println!(
        "NDT download throughput:               {:.1} Mbit/s at peak vs {:.1} Mbit/s off-peak",
        r.download_mbps, rq.download_mbps
    );
    println!(
        "\nTSLP correctly flags the Chicago link as congested, yet download\n\
         throughput is unaffected because the data rides the Ashburn link —\n\
         exactly the paper's Link 2 null result (§5.3) and the reason end-to-end\n\
         throughput alone cannot localize interdomain congestion."
    );
}
