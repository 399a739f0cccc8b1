//! Table 2 and Figure 6: NDT throughput validation (§5.3).
//!
//! Three links, as in the paper:
//! * **Link 1** — Comcast–Tata in New York: forward and download data paths
//!   both cross the congested NYC link → stark, significant throughput drop;
//! * **Link 2** — Comcast–Tata in Chicago: the forward path crosses the
//!   congested Chicago link but download data returns over the clean Ashburn
//!   link → no significant difference;
//! * **Link 3** — CenturyLink–Cogent: briefly (≈36 min/day) congested →
//!   small but statistically significant difference.

use crate::{at, SEED};
use manic_analysis::study::is_congested_at;
use manic_core::{run_longitudinal, LinkDays, LongitudinalConfig, System, SystemConfig};
use manic_netsim::time::{format_sim, local_hour, SimTime};
use manic_netsim::{LinkId, Network};
use manic_probing::tslp::{synthesize_task, TslpTask};
use manic_probing::VpHandle;
use manic_scenario::compile::metro_info;
use manic_scenario::worlds::{us_asns, us_broadband};
use manic_stats::ttest::{two_sample_t, Tails};
use manic_valid::ndt::{run_ndt, NdtResult, NdtServer};
use std::fmt::Write as _;

/// NDT collection period (paper: 15 Nov - 31 Dec 2017).
fn collection() -> (SimTime, SimTime) {
    (at(2017, 11, 15), at(2018, 1, 1))
}

/// §3.5 cadence: every 15 minutes 5pm-11pm local, hourly otherwise.
pub fn test_times(from: SimTime, to: SimTime, tz: i8) -> Vec<SimTime> {
    let mut out = Vec::new();
    let mut t = from;
    while t < to {
        let lh = local_hour(t, tz);
        let step = if (17.0..23.0).contains(&lh) { 900 } else { 3600 };
        out.push(t);
        t += step;
    }
    out
}

struct NdtCase {
    label: String,
    vp: String,
    server: NdtServer,
}

fn cases(sys: &System) -> Vec<NdtCase> {
    let world = &sys.world;
    let tata_primary = NdtServer {
        name: "ndt-tata-nyc".into(),
        asn: us_asns::TATA,
        addr: world.host_addr(us_asns::TATA, 7),
        router: world.host_routers[&us_asns::TATA],
    };
    let (ash_addr, ash_router) = world.secondary_host_addr(us_asns::TATA, "ash", 7);
    let tata_ash = NdtServer {
        name: "ndt-tata-ash".into(),
        asn: us_asns::TATA,
        addr: ash_addr,
        router: ash_router,
    };
    let cogent = NdtServer {
        name: "ndt-cogent".into(),
        asn: us_asns::COGENT,
        addr: world.host_addr(us_asns::COGENT, 7),
        router: world.host_routers[&us_asns::COGENT],
    };
    vec![
        NdtCase { label: "Link 1 [Comcast-Tata, NYC]".into(), vp: "comcast-nyc".into(), server: tata_primary },
        NdtCase { label: "Link 2 [Comcast-Tata, CHI]".into(), vp: "comcast-chi".into(), server: tata_ash },
        NdtCase { label: "Link 3 [CentLink-Cogent]".into(), vp: "centurylink-den".into(), server: cogent },
    ]
}

/// The merged link record matching a forward path's interdomain crossing.
fn forward_link_record<'a>(
    net: &Network,
    links: &'a [LinkDays],
    world: &manic_scenario::World,
    forward: &[(LinkId, manic_netsim::topo::Direction)],
) -> Option<&'a LinkDays> {
    let crossing = forward
        .iter()
        .find(|&&(l, _)| net.topo.link(l).kind == manic_netsim::LinkKind::Interdomain)?;
    let gt = world.gt_links.iter().find(|g| g.link == crossing.0)?;
    links
        .iter()
        .find(|l| l.far_ip == gt.a_ext || l.far_ip == gt.b_ext)
}

/// Run one case: collect download samples split by TSLP classification.
fn run_case(
    sys: &System,
    links: &[LinkDays],
    case: &NdtCase,
    sample: &mut Vec<NdtResult>,
) -> (Vec<f64>, Vec<f64>) {
    let world = &sys.world;
    let vpr = world.vp(&case.vp);
    let vp = VpHandle { name: vpr.name.clone(), router: vpr.router, addr: vpr.addr };
    let tz = metro_info(&vpr.pop).2;
    let (from, to) = collection();
    let mut cong = Vec::new();
    let mut uncong = Vec::new();
    for t in test_times(from, to, tz) {
        let Some(r) = run_ndt(&world.net, &vp, &case.server, t, 0x5D7) else { continue };
        let Some(record) = forward_link_record(&world.net, links, world, &r.forward_links) else {
            continue;
        };
        if is_congested_at(record, t) {
            cong.push(r.download_mbps);
        } else {
            uncong.push(r.download_mbps);
        }
        sample.push(r);
    }
    (cong, uncong)
}

pub fn run() -> String {
    let mut sys = System::new(us_broadband(SEED), SystemConfig::default());
    let links = run_longitudinal(
        &mut sys,
        &LongitudinalConfig::new(at(2017, 10, 20), at(2018, 1, 1)),
    );
    let mut out = String::from(
        "Table 2 — average NDT download throughput (Mbit/s) during periods TSLP\nclassified congested vs uncongested, 15 Nov - 31 Dec 2017.\n\n",
    );
    let _ = writeln!(
        out,
        "{:<28} {:>8} {:>8} {:>12} {:>7} {:>7}",
        "Link [VP AS - Server AS]", "Uncong.", "Cong.", "t-test p", "n_unc", "n_con"
    );
    for case in cases(&sys) {
        let mut sample = Vec::new();
        let (cong, uncong) = run_case(&sys, &links, &case, &mut sample);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let p = two_sample_t(&uncong, &cong, Tails::TwoSided).map(|t| t.p);
        let _ = writeln!(
            out,
            "{:<28} {:>8.2} {:>8.2} {:>12} {:>7} {:>7}",
            case.label,
            mean(&uncong),
            mean(&cong),
            match p {
                Some(p) if p < 0.001 => "<0.001".to_string(),
                Some(p) => format!("{p:.3}"),
                None => "n/a".to_string(),
            },
            uncong.len(),
            cong.len(),
        );
    }
    out.push_str(
        "\nExpected shape (paper): Link 1 collapses with p<0.001; Link 2 shows no\nsignificant difference (download data returns over the clean Ashburn link);\nLink 3 differs slightly but significantly.\n",
    );
    out
}

/// Figure 6: TSLP latency + NDT download time series for Link 1, Dec 7-11.
pub fn run_fig6() -> String {
    let mut sys = System::new(us_broadband(SEED), SystemConfig::default());
    let links = run_longitudinal(
        &mut sys,
        &LongitudinalConfig::new(at(2017, 10, 20), at(2018, 1, 1)),
    );
    let case = cases(&sys).remove(0);
    let world = &sys.world;
    let vpr = world.vp(&case.vp);
    let vp = VpHandle { name: vpr.name.clone(), router: vpr.router, addr: vpr.addr };
    let tz = metro_info(&vpr.pop).2;
    let vi = sys.vp_index(&case.vp);

    // Locate the far-end TSLP path for the link the NDT forward path crosses.
    let probe = run_ndt(&world.net, &vp, &case.server, at(2017, 12, 7), 0x5D7).expect("routable");
    let record = forward_link_record(&world.net, &links, world, &probe.forward_links)
        .expect("link classified");
    let task = sys.vps[vi]
        .tslp
        .tasks
        .iter()
        .find(|t| t.far_ip == record.far_ip)
        .expect("tslp task");

    let from = at(2017, 12, 7);
    let to = at(2017, 12, 12);
    // The task's first destination, in half-hour bins centred on the rows.
    let one = TslpTask { dests: vec![task.dests[0]], ..task.clone() };
    let far = synthesize_task(&world.net, &vp, &one, from - 900, to - 900, 1800).far;
    let mut out = String::from(
        "Figure 6 — TSLP far-end latency and NDT download throughput,\nComcast-Tata Link 1, Dec 7-11 2017. '#' marks inferred congestion.\n\n",
    );
    let _ = writeln!(out, "{:<18} {:>9} {:>10}  cong", "UTC time", "far ms", "down Mbps");
    let tests = test_times(from, to, tz);
    for (t, rtt) in (from..).step_by(1800).zip(far) {
        // The NDT sample nearest this half-hour, if any.
        let ndt = tests
            .iter()
            .filter(|&&x| x >= t && x < t + 1800)
            .filter_map(|&x| run_ndt(&world.net, &vp, &case.server, x, 0x5D7))
            .map(|r| r.download_mbps)
            .next();
        let _ = writeln!(
            out,
            "{:<18} {:>9} {:>10}  {}",
            format_sim(t),
            rtt.map(|v| format!("{v:.2}")).unwrap_or_else(|| "-".into()),
            ndt.map(|v| format!("{v:.1}")).unwrap_or_else(|| "-".into()),
            if is_congested_at(record, t) { "#" } else { "" }
        );
    }
    out
}
