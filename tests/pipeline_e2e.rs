//! End-to-end pipeline tests on the toy world: discovery → probing →
//! inference → validation, checked against the scripted ground truth.

use manic_analysis::study::is_congested_at;
use manic_core::{
    run_longitudinal, run_longitudinal_detailed, LongitudinalConfig, System, SystemConfig,
};
use manic_netsim::fault::{FaultEvent, FaultKind, FaultScope};
use manic_netsim::time::{date_to_sim, local_hour, Date, SECS_PER_DAY};
use manic_probing::loss::LossTarget;
use manic_probing::tslp::End;
use manic_probing::VpHandle;
use manic_scenario::worlds::{toy, toy_asns};
use manic_stats::ttest::{two_sample_t, Tails};
use manic_valid::lossval::{classify_month_links, LossValInput, Table1Class};
use manic_valid::ndt::{run_ndt, NdtServer};

fn study(days: i64) -> (System, Vec<manic_core::LinkDays>) {
    let mut sys = System::new(toy(9), SystemConfig::default());
    let from = date_to_sim(Date::new(2016, 4, 1));
    let cfg = LongitudinalConfig::new(from, from + days * SECS_PER_DAY);
    let links = run_longitudinal(&mut sys, &cfg);
    (sys, links)
}

#[test]
fn inference_matches_scripted_schedule() {
    let (sys, links) = study(60);
    for link in &links {
        let congested = link.congested_days(0.04);
        if link.neighbor_as == toy_asns::CDNCO {
            assert!(congested >= 45, "cdnco congested most days: {congested}");
            // ~4 scripted hours/day => day congestion around 14-25%.
            let mean_pct: f64 = link
                .day_masks
                .keys()
                .map(|&d| link.day_pct(d))
                .sum::<f64>()
                / link.day_masks.len().max(1) as f64;
            assert!(
                (0.10..0.35).contains(&mean_pct),
                "daily congestion fraction {mean_pct}"
            );
        } else {
            assert_eq!(
                congested,
                0,
                "{} must stay clean",
                sys.world.graph.info(link.neighbor_as).name
            );
        }
    }
}

#[test]
fn inferred_windows_sit_in_local_evening() {
    let (_sys, links) = study(60);
    let link = links
        .iter()
        .find(|l| l.neighbor_as == toy_asns::CDNCO && !l.day_masks.is_empty())
        .expect("congested link");
    // Every congested 15-minute interval should fall between 18:00 and
    // 01:00 NYC local time (the scripted 9pm peak +/- the window).
    for (&day, &mask) in &link.day_masks {
        for iv in 0..96 {
            if mask & (1u128 << iv) == 0 {
                continue;
            }
            let t = day * SECS_PER_DAY + iv as i64 * 900;
            let lh = local_hour(t, -5);
            assert!(
                !(1.5..17.0).contains(&lh),
                "congested interval at odd local hour {lh:.2}"
            );
        }
    }
}

#[test]
fn loss_validation_passes_both_tests_on_clean_congestion() {
    let (sys, links) = study(60);
    let link = links
        .iter()
        .find(|l| l.neighbor_as == toy_asns::CDNCO && !l.day_masks.is_empty())
        .expect("congested link");
    let vp = &sys.vps[sys.vp_index(&link.vps[0])];
    let task = vp.tslp.tasks.iter().find(|t| t.far_ip == link.far_ip).expect("task");
    let dest = task.dests[0];
    let handle = VpHandle {
        name: vp.handle.name.clone(),
        router: vp.handle.router,
        addr: vp.handle.addr,
    };
    let mut prober = manic_probing::LossProber::new(handle, 0);
    prober.set_targets(vec![LossTarget {
        near_ip: task.near_ip,
        far_ip: task.far_ip,
        dst: dest.dst,
        near_ttl: dest.near_ttl,
        far_ttl: dest.far_ttl,
        flow_id: task.flow_id,
    }]);
    let from = date_to_sim(Date::new(2016, 4, 1));
    let windows = prober.synthesize_window(&sys.world.net, from, from + 30 * SECS_PER_DAY);
    let mut far_c = (0u64, 0u64);
    let mut far_u = (0u64, 0u64);
    let mut near_c = (0u64, 0u64);
    for (_, samples) in windows {
        for s in samples {
            let congested = is_congested_at(link, s.window_start + 150);
            let slot = match (s.end, congested) {
                (End::Far, true) => &mut far_c,
                (End::Far, false) => &mut far_u,
                (End::Near, true) => &mut near_c,
                (End::Near, false) => continue,
            };
            slot.0 += s.lost as u64;
            slot.1 += s.sent as u64;
        }
    }
    let input = LossValInput {
        vp: link.vps[0].clone(),
        link_label: link.far_ip.to_string(),
        month: 3,
        significantly_congested: true,
        far_congested: far_c,
        far_uncongested: far_u,
        near_congested: near_c,
        near_uncongested: (0, 1000),
    };
    let t1 = classify_month_links(&[input]);
    assert_eq!(t1.significant, 1);
    assert_eq!(t1.rows[0].3, Table1Class::FarHigherAndLocalized);
}

#[test]
fn ndt_throughput_drops_significantly_on_congested_link() {
    let (sys, links) = study(60);
    let link = links
        .iter()
        .find(|l| l.neighbor_as == toy_asns::CDNCO && !l.day_masks.is_empty())
        .expect("congested link");
    let world = &sys.world;
    let vpr = world.vp(&link.vps[0]);
    let vp = VpHandle { name: vpr.name.clone(), router: vpr.router, addr: vpr.addr };
    let server = NdtServer {
        name: "cdnco".into(),
        asn: toy_asns::CDNCO,
        addr: world.host_addr(toy_asns::CDNCO, 7),
        router: world.host_routers[&toy_asns::CDNCO],
    };
    let from = date_to_sim(Date::new(2016, 4, 10));
    let mut cong = Vec::new();
    let mut uncong = Vec::new();
    for k in 0..(14 * 24) {
        let t = from + k * 3600;
        let Some(r) = run_ndt(&world.net, &vp, &server, t, 3) else { continue };
        if is_congested_at(link, t) {
            cong.push(r.download_mbps);
        } else {
            uncong.push(r.download_mbps);
        }
    }
    assert!(cong.len() > 20 && uncong.len() > 100);
    let t = two_sample_t(&uncong, &cong, Tails::Greater).expect("test computes");
    assert!(t.significant(0.001), "p = {}", t.p);
}

#[test]
fn inference_robust_to_heavy_probe_loss() {
    // Fault injection in the spirit of smoltcp's --drop-chance examples:
    // an extra 3% per-crossing drop probability (≈ one in five probes lost
    // end to end) must not change any classification — TSLP's redundancy is
    // 3-9 samples per 15-minute bin and the min-filter needs only one.
    let mut sys = System::new(toy(9), SystemConfig::default());
    sys.world.net.fault.push(manic_netsim::FaultEvent::always(
        manic_netsim::FaultKind::ExtraLoss { prob: 0.03 },
        manic_netsim::FaultScope::Global,
    ));
    let from = date_to_sim(Date::new(2016, 4, 1));
    let cfg = LongitudinalConfig::new(from, from + 60 * SECS_PER_DAY);
    let links = run_longitudinal(&mut sys, &cfg);
    let hot: usize = links
        .iter()
        .filter(|l| l.neighbor_as == toy_asns::CDNCO)
        .map(|l| l.congested_days(0.04))
        .sum();
    let cold: usize = links
        .iter()
        .filter(|l| l.neighbor_as != toy_asns::CDNCO)
        .map(|l| l.congested_days(0.04))
        .sum();
    assert!(hot >= 40, "still detected under loss: {hot}");
    assert_eq!(cold, 0, "no false positives under loss");
}

/// §4.2's final stage as the pipeline runs it: a merged link record is the
/// OR of its VPs' per-day congested-interval masks and the union of their
/// observed days, and every per-VP record feeds exactly one merged record.
/// On a clean run the two toy VPs infer identical masks, so each VP's router
/// goes down for a different part of one congested evening (the CDNCO
/// window wraps midnight UTC and covers intervals 2..12): that day their
/// masks are not nested, and no single VP's record equals the merge.
#[test]
fn merged_record_is_the_union_of_its_per_vp_records() {
    let mut sys = System::new(toy(9), SystemConfig::default());
    let from = date_to_sim(Date::new(2016, 4, 1));
    let cfg = LongitudinalConfig::new(from, from + 60 * SECS_PER_DAY);
    let day = from + 10 * SECS_PER_DAY;
    let routers: Vec<_> = sys.world.vps.iter().map(|v| v.router).collect();
    for (router, (lo, hi)) in routers.into_iter().zip([(2, 6), (6, 12)]) {
        sys.world.net.fault.push(FaultEvent::window(
            FaultKind::RouterReboot { rebuild_secs: 0 },
            FaultScope::Router(router),
            day + lo * 900,
            day + hi * 900,
        ));
    }
    let out = run_longitudinal_detailed(&mut sys, &cfg);
    let nested = |a: u128, b: u128| a & !b == 0 || b & !a == 0;
    let mut split_day = false;
    let mut fed = 0;
    for m in &out.merged {
        let parts: Vec<_> = out
            .per_vp
            .iter()
            .filter(|r| (r.near_ip, r.far_ip) == (m.near_ip, m.far_ip) && m.vps.contains(&r.vp))
            .collect();
        let vps: Vec<String> = parts.iter().map(|r| r.vp.clone()).collect();
        assert_eq!(m.vps, vps, "{}: contributing VPs", m.far_ip);
        for day in m.day_masks.keys() {
            let day_masks: Vec<u128> =
                parts.iter().map(|r| r.day_masks.get(day).copied().unwrap_or(0)).collect();
            split_day |= day_masks.iter().any(|&a| day_masks.iter().any(|&b| !nested(a, b)));
        }
        let mut masks = std::collections::BTreeMap::new();
        let mut observed = std::collections::BTreeSet::new();
        for r in &parts {
            for (&day, &mask) in &r.day_masks {
                *masks.entry(day).or_insert(0u128) |= mask;
            }
            observed.extend(&r.observed);
        }
        assert_eq!(m.day_masks, masks, "{}: day masks are the OR", m.far_ip);
        assert_eq!(m.observed, observed, "{}: observed days are the union", m.far_ip);
        fed += parts.len();
    }
    assert_eq!(fed, out.per_vp.len(), "every per-VP record feeds one merged record");
    assert!(split_day, "no day on which two VPs' masks are not nested");
}

#[test]
fn vp_churn_preserves_link_coverage() {
    // §3: VP hosting churns (86 VPs over the study, 63 by Dec 2017). When a
    // VP retires, links it shared with surviving VPs stay classified; links
    // only it observed drop out of the current view while the merge keeps
    // every surviving observation.
    let mut sys = System::new(toy(9), SystemConfig::default());
    let from = date_to_sim(Date::new(2016, 4, 1));
    let cfg = LongitudinalConfig::new(from, from + 60 * SECS_PER_DAY);
    let full = run_longitudinal(&mut sys, &cfg);
    let hot_full: usize = full
        .iter()
        .filter(|l| l.neighbor_as == toy_asns::CDNCO)
        .map(|l| l.congested_days(0.04))
        .sum();
    assert!(hot_full >= 45);

    // Retire the chi VP; the nyc VP still observes the shared peering.
    let mut sys2 = System::new(toy(9), SystemConfig::default());
    let chi = sys2.vp_index("acme-chi");
    sys2.retire_vp(chi);
    assert_eq!(sys2.active_vps(), 1);
    let after = run_longitudinal(&mut sys2, &cfg);
    let hot_after: usize = after
        .iter()
        .filter(|l| l.neighbor_as == toy_asns::CDNCO)
        .map(|l| l.congested_days(0.04))
        .sum();
    assert!(hot_after >= 45, "surviving VP keeps the link classified: {hot_after}");
    // Every remaining record is attributed to the surviving VP only.
    assert!(after.iter().all(|l| l.vps.iter().all(|v| v == "acme-nyc")));
}
