//! Figures 4 and 5: YouTube streaming performance during congested vs
//! uncongested periods (§5.2).
//!
//! Mirrors the paper's two collections: SamKnows-style VPs in Comcast
//! streaming from Google caches during the Comcast–Google congestion era
//! (late 2016 – early 2017), plus one Ark-style VP in CenturyLink during
//! late 2017 (the CenturyLink–Google arc). Links qualify with ≥ 50 tests
//! during inferred-congested periods, as in the paper.

use crate::{at, SEED};
use manic_analysis::study::is_congested_at;
use manic_core::{run_longitudinal, LinkDays, LongitudinalConfig, System, SystemConfig};
use manic_netsim::time::SimTime;
use manic_netsim::LinkKind;
use manic_probing::VpHandle;
use manic_scenario::compile::metro_info;
use manic_scenario::worlds::{us_asns, us_broadband};
use manic_stats::describe::{median, quantile};
use manic_valid::youtube::run_youtube_test;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One streaming observation tagged by link and classification.
struct Obs {
    vp: String,
    link_label: String,
    congested: bool,
    tput: f64,
    startup: f64,
    failed: bool,
}

fn collect(
    sys: &System,
    links: &[LinkDays],
    vp_names: &[&str],
    from: SimTime,
    to: SimTime,
    out: &mut Vec<Obs>,
) {
    let world = &sys.world;
    for &vp_name in vp_names {
        let vpr = world.vp(vp_name);
        let vp = VpHandle { name: vpr.name.clone(), router: vpr.router, addr: vpr.addr };
        let tz = metro_info(&vpr.pop).2;
        let cache = world.host_addr(us_asns::GOOGLE, 3);
        let cache_router = world.host_routers[&us_asns::GOOGLE];
        for t in super::ndt::test_times(from, to, tz) {
            let Some(r) = run_youtube_test(&world.net, &vp, cache, cache_router, t, 0x717) else {
                continue;
            };
            // Map the test to the interdomain link it crossed (§3.5: via the
            // post-test traceroute).
            let Some(&(l, _)) = r
                .forward_links
                .iter()
                .find(|&&(l, _)| world.net.topo.link(l).kind == LinkKind::Interdomain)
            else {
                continue;
            };
            let Some(gt) = world.gt_links.iter().find(|g| g.link == l) else { continue };
            let Some(rec) = links.iter().find(|x| x.far_ip == gt.a_ext || x.far_ip == gt.b_ext)
            else {
                continue;
            };
            out.push(Obs {
                vp: vp_name.to_string(),
                link_label: rec.far_ip.to_string(),
                congested: is_congested_at(rec, t),
                tput: r.on_throughput_mbps,
                startup: r.startup_delay_s,
                failed: r.failed,
            });
        }
    }
}

pub fn run() -> (String, String) {
    // Era A: Comcast VPs during the Comcast-Google arc (SamKnows stand-ins).
    let mut sys_a = System::new(us_broadband(SEED), SystemConfig::default());
    let links_a = run_longitudinal(
        &mut sys_a,
        &LongitudinalConfig::new(at(2016, 11, 1), at(2017, 3, 1)),
    );
    let mut obs = Vec::new();
    collect(
        &sys_a,
        &links_a,
        &["comcast-chi", "comcast-nyc", "comcast-ash", "comcast-atl", "comcast-dfw", "comcast-den", "comcast-sea"],
        at(2016, 11, 1),
        at(2017, 3, 1),
        &mut obs,
    );
    // Era B: the CenturyLink Ark VP during late 2017.
    let mut sys_b = System::new(us_broadband(SEED), SystemConfig::default());
    let links_b = run_longitudinal(
        &mut sys_b,
        &LongitudinalConfig::new(at(2017, 10, 1), at(2018, 1, 1)),
    );
    collect(&sys_b, &links_b, &["centurylink-den"], at(2017, 10, 1), at(2018, 1, 1), &mut obs);

    // Qualify links: >= 50 tests during congested periods.
    let mut per_link: BTreeMap<(String, String), (usize, usize)> = BTreeMap::new();
    for o in &obs {
        let e = per_link.entry((o.vp.clone(), o.link_label.clone())).or_insert((0, 0));
        if o.congested {
            e.0 += 1;
        } else {
            e.1 += 1;
        }
    }
    let qualified: Vec<(String, String)> = per_link
        .iter()
        .filter(|(_, &(c, _))| c >= 50)
        .map(|(k, _)| k.clone())
        .collect();
    let obs: Vec<&Obs> = obs
        .iter()
        .filter(|o| qualified.contains(&(o.vp.clone(), o.link_label.clone())))
        .collect();

    // ---- Figure 4: CDFs ----
    let tput_c: Vec<f64> = obs.iter().filter(|o| o.congested).map(|o| o.tput).collect();
    let tput_u: Vec<f64> = obs.iter().filter(|o| !o.congested).map(|o| o.tput).collect();
    let st_c: Vec<f64> = obs.iter().filter(|o| o.congested).map(|o| o.startup).collect();
    let st_u: Vec<f64> = obs.iter().filter(|o| !o.congested).map(|o| o.startup).collect();
    let mut fig4 = String::from(
        "Figure 4 — YouTube streaming CDFs, congested vs uncongested periods.\n\n(a) ON-period throughput (Mbit/s)\n",
    );
    let _ = writeln!(fig4, "{:<6} {:>12} {:>12}", "q", "congested", "uncongested");
    for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
        let _ = writeln!(
            fig4,
            "{:<6} {:>12.2} {:>12.2}",
            q,
            quantile(&tput_c, q),
            quantile(&tput_u, q)
        );
    }
    let med_drop = 100.0 * (1.0 - median(&tput_c) / median(&tput_u));
    let _ = writeln!(
        fig4,
        "median throughput: {:.1} -> {:.1} Mbps ({:.1}% lower when congested)\n",
        median(&tput_u),
        median(&tput_c),
        med_drop
    );
    fig4.push_str("(b) startup delay (s)\n");
    let _ = writeln!(fig4, "{:<6} {:>12} {:>12}", "q", "congested", "uncongested");
    for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
        let _ = writeln!(
            fig4,
            "{:<6} {:>12.3} {:>12.3}",
            q,
            quantile(&st_c, q),
            quantile(&st_u, q)
        );
    }
    let within2 = |v: &[f64]| {
        100.0 * v.iter().filter(|&&x| x <= 2.0).count() as f64 / v.len().max(1) as f64
    };
    let _ = writeln!(
        fig4,
        "median startup: {:.3}s -> {:.3}s ({:.1}% inflated when congested);\nstreams starting within 2s: {:.1}% congested vs {:.1}% uncongested.\n({} qualified links, {} congested / {} uncongested tests)",
        median(&st_u),
        median(&st_c),
        100.0 * (median(&st_c) / median(&st_u) - 1.0),
        within2(&st_c),
        within2(&st_u),
        qualified.len(),
        tput_c.len(),
        tput_u.len(),
    );

    // ---- Figure 5: failure rates per VP/link ----
    let mut fig5 = String::from(
        "Figure 5 — streaming failure rates per (VP, link), congested vs\nuncongested periods.\n\n",
    );
    let _ = writeln!(
        fig5,
        "{:<18} {:<14} {:>10} {:>12} {:>7}",
        "VP", "link (far IP)", "cong fail", "uncong fail", "ratio"
    );
    for (vp, label) in &qualified {
        let fail_rate = |want_cong: bool| {
            let sel: Vec<&&Obs> = obs
                .iter()
                .filter(|o| &o.vp == vp && &o.link_label == label && o.congested == want_cong)
                .collect();
            let bad = sel.iter().filter(|o| o.failed).count();
            bad as f64 / sel.len().max(1) as f64
        };
        let fc = fail_rate(true);
        let fu = fail_rate(false);
        let _ = writeln!(
            fig5,
            "{:<18} {:<14} {:>9.1}% {:>11.1}% {:>7}",
            vp,
            label,
            100.0 * fc,
            100.0 * fu,
            if fu > 0.0 { format!("{:.1}x", fc / fu) } else { "inf".into() }
        );
    }
    (fig4, fig5)
}
