//! Fault-injection recovery tests: the measurement loop must degrade
//! gracefully — quarantine and annotate instead of writing junk, back off
//! and retry instead of dying, and produce *no inference* (never a false
//! one) for windows a fault corrupted.

use manic_core::{run_longitudinal, HealthState, LongitudinalConfig, System, SystemConfig};
use manic_netsim::fault::{FaultEvent, FaultKind, FaultScope};
use manic_netsim::time::{date_to_sim, datetime_to_sim, Date, SECS_PER_DAY};
use manic_probing::tslp::{series_key, End};
use manic_scenario::worlds::{toy, toy_asns};
use manic_tsdb::quality;

/// Quiet-hours window (1am-9am NYC): no scripted congestion, so any level
/// shift the system arms on is a fault artifact.
fn quiet_start() -> i64 {
    datetime_to_sim(Date::new(2016, 6, 7), 6, 0, 0)
}

/// The far interface id + router of the task probing the given neighbor.
fn far_iface(
    sys: &System,
    vi: usize,
    neighbor: manic_netsim::AsNumber,
) -> (manic_netsim::IfaceId, manic_netsim::RouterId, manic_netsim::Ipv4) {
    let gt = &sys.world.links_between(toy_asns::ACME, neighbor)[0];
    let far_ip = gt.far_addr_from(toy_asns::ACME);
    let ifc = sys.world.net.topo.iface_by_addr(far_ip).expect("far iface");
    let _ = vi;
    (ifc.id, ifc.router, far_ip)
}

#[test]
fn interface_silence_quarantines_instead_of_inferring() {
    let mut sys = System::new(toy(1), SystemConfig::default());
    // Disable the reactive probing-set refresh so the health machine (not a
    // re-bdrmap) is what handles the dark task.
    sys.cfg.reactive_mismatch_rounds = 0;
    let from = quiet_start();
    sys.run_bdrmap_cycle(0, from);
    let (ifc, _, far_ip) = far_iface(&sys, 0, toy_asns::VIDCO);
    sys.world.net.fault.push(FaultEvent::window(
        FaultKind::IfaceSilence,
        FaultScope::Iface(ifc),
        from,
        from + 8 * 3600,
    ));
    let to = from + 6 * 3600;
    sys.run_packet_mode(from, to);

    let vp = &sys.vps[0];
    let task = vp.tslp.tasks.iter().find(|t| t.far_ip == far_ip).expect("task");
    let key = series_key(&vp.handle.name, task, End::Far);
    // The dark windows were annotated as quarantine gaps...
    let windows = sys.store.quality_windows(&key);
    assert!(
        windows.iter().any(|(_, _, f)| f & quality::QUARANTINED != 0),
        "quarantine annotations expected, got {windows:?}"
    );
    // ...the task walked the whole ladder down to Retired (silence outlasts
    // max_quarantines backoffs)...
    let h = &vp.health[&(task.near_ip, task.far_ip)];
    assert_eq!(h.state, HealthState::Retired, "{h:?}");
    // Healthy tasks kept probing throughout: their far series are dense.
    let other = vp.tslp.tasks.iter().find(|t| t.far_ip != far_ip).expect("other task");
    let okey = series_key(&vp.handle.name, other, End::Far);
    let pts = sys.store.query(&okey, from, to);
    assert!(pts.len() >= 60, "healthy task stays probed: {} samples", pts.len());
    // ...and no level shift was fabricated from the fault.
    let armed = sys.arm_reactive_loss(0, from, to);
    assert_eq!(armed, 0, "fault must not arm reactive loss probing");
}

#[test]
fn router_reboot_quarantines_then_recovers() {
    let mut sys = System::new(toy(1), SystemConfig::default());
    sys.cfg.reactive_mismatch_rounds = 0;
    let from = quiet_start();
    sys.run_bdrmap_cycle(0, from);
    let (_, router, far_ip) = far_iface(&sys, 0, toy_asns::VIDCO);
    // Down 40 minutes from round 1, then a 5-minute FIB rebuild.
    sys.world.net.fault.push(FaultEvent::window(
        FaultKind::RouterReboot { rebuild_secs: 300 },
        FaultScope::Router(router),
        from + 300,
        from + 2700,
    ));
    let to = from + 3 * 3600;
    sys.run_packet_mode(from, to);

    let vp = &sys.vps[0];
    let task = vp.tslp.tasks.iter().find(|t| t.far_ip == far_ip).expect("task");
    let h = &vp.health[&(task.near_ip, task.far_ip)];
    // Quarantined during the outage, recovered through probation after it.
    assert!(h.backoff.count >= 1, "outage long enough to quarantine: {h:?}");
    assert_eq!(h.state, HealthState::Healthy, "recovered after reboot: {h:?}");
    // Probing resumed: samples exist in the final half hour.
    let key = series_key(&vp.handle.name, task, End::Far);
    let tail = sys.store.query(&key, to - 1800, to);
    assert!(!tail.is_empty(), "probing resumed after recovery");
}

#[test]
fn vp_uplink_outage_retries_bdrmap_with_backoff() {
    let mut sys = System::new(toy(1), SystemConfig::default());
    // The nyc VP's own attachment router reboots across the scheduled cycle
    // start: the cycle sees nothing, must retry on a backoff, and succeed
    // once the router is back.
    let from = quiet_start();
    let vp_router = sys.vps[0].handle.router;
    sys.world.net.fault.push(FaultEvent::window(
        FaultKind::RouterReboot { rebuild_secs: 60 },
        FaultScope::Router(vp_router),
        from,
        from + 3600,
    ));
    let rounds = sys.run_packet_mode(from, from + 6 * 3600);
    assert_eq!(rounds, 72);
    let vp = &sys.vps[0];
    assert!(
        !vp.tslp.tasks.is_empty(),
        "bdrmap cycle retried after the outage and rebuilt the probing set"
    );
    assert!(vp.last_cycle.is_some());
    // The healthy chi VP was never disturbed.
    assert!(!sys.vps[1].tslp.tasks.is_empty());
}

#[test]
fn scheduled_vp_retirement_stops_probing_keeps_history() {
    let mut sys = System::new(toy(1), SystemConfig::default());
    let from = quiet_start();
    let retire_at = from + 2 * 3600;
    let vp_router = sys.vps[0].handle.router;
    sys.world.net.fault.push(FaultEvent::window(
        FaultKind::VpRetirement,
        FaultScope::Router(vp_router),
        retire_at,
        i64::MAX,
    ));
    sys.run_packet_mode(from, from + 4 * 3600);
    assert_eq!(sys.active_vps(), 1, "nyc VP retired by the schedule");
    assert!(!sys.vps[0].active && sys.vps[1].active);
    // History before retirement is intact; nothing written after it.
    let vp = &sys.vps[0];
    let task = &vp.tslp.tasks[0];
    let key = series_key(&vp.handle.name, task, End::Far);
    assert!(!sys.store.query(&key, from, retire_at).is_empty());
    assert!(sys.store.query(&key, retire_at, from + 4 * 3600).is_empty());
}

#[test]
fn fluid_inference_on_unaffected_links_matches_fault_free_run() {
    let from = date_to_sim(Date::new(2016, 4, 1));
    let days = 60;
    let cfg = LongitudinalConfig::new(from, from + days * SECS_PER_DAY);

    let mut clean_sys = System::new(toy(9), SystemConfig::default());
    let clean = run_longitudinal(&mut clean_sys, &cfg);

    // Same world, but the congested cdnco far interface goes silent from
    // day 1 on (after probing-state construction, which happens at `from`).
    let mut faulty_sys = System::new(toy(9), SystemConfig::default());
    let gt = &faulty_sys.world.links_between(toy_asns::ACME, toy_asns::CDNCO)[0];
    let far_ip = gt.far_addr_from(toy_asns::ACME);
    let ifc = faulty_sys.world.net.topo.iface_by_addr(far_ip).expect("iface").id;
    faulty_sys.world.net.fault.push(FaultEvent::window(
        FaultKind::IfaceSilence,
        FaultScope::Iface(ifc),
        from + SECS_PER_DAY,
        i64::MAX,
    ));
    let faulty = run_longitudinal(&mut faulty_sys, &cfg);

    // The clean run detects the congested link.
    let hot_clean: usize = clean
        .iter()
        .filter(|l| l.neighbor_as == toy_asns::CDNCO)
        .map(|l| l.congested_days(0.04))
        .sum();
    assert!(hot_clean >= 45, "baseline detects the hot link: {hot_clean}");

    // The faulted run produces NO inference for the silenced link — not a
    // false one: its day masks are empty (visibility loss, §4.2 rejection).
    for l in faulty.iter().filter(|l| l.far_ip == far_ip) {
        assert!(
            l.day_masks.is_empty(),
            "silenced link must yield no inference, got {} days",
            l.day_masks.len()
        );
    }

    // Links untouched by the fault are bit-for-bit identical to the
    // fault-free run: fault handling is scoped, not global degradation.
    for c in clean.iter().filter(|l| l.far_ip != far_ip) {
        let f = faulty
            .iter()
            .find(|l| l.near_ip == c.near_ip && l.far_ip == c.far_ip)
            .expect("unaffected link present in both runs");
        assert_eq!(c.day_masks, f.day_masks, "masks differ for {:?}", c.far_ip);
        assert_eq!(c.observed, f.observed);
    }
}

#[test]
fn escalating_chaos_never_fabricates_congestion() {
    // Precision floor under chaos: whatever the fault load does to coverage
    // (recall), links that are NOT scripted congested must never be inferred
    // congested. Recall floor: light chaos still finds the hot link.
    let from = date_to_sim(Date::new(2016, 4, 1));
    let days = 60;
    let cfg = LongitudinalConfig::new(from, from + days * SECS_PER_DAY);
    for &intensity in &[0.25, 0.5, 1.0] {
        let mut sys = System::new(toy(5), SystemConfig::default());
        let vp_routers: Vec<_> = sys.world.vps.iter().map(|v| v.router).collect();
        let chaos = manic_netsim::FaultSchedule::chaos(
            77,
            intensity,
            &sys.world.net.topo,
            &vp_routers,
            from + SECS_PER_DAY,
            from + days * SECS_PER_DAY,
        );
        for &e in chaos.events() {
            sys.world.net.fault.push(e);
        }
        let links = run_longitudinal(&mut sys, &cfg);
        for l in &links {
            if l.neighbor_as != toy_asns::CDNCO {
                assert_eq!(
                    l.congested_days(0.04),
                    0,
                    "intensity {intensity}: clean link to AS{} inferred congested",
                    l.neighbor_as.0
                );
            }
        }
        if intensity <= 0.25 {
            let hot: usize = links
                .iter()
                .filter(|l| l.neighbor_as == toy_asns::CDNCO)
                .map(|l| l.congested_days(0.04))
                .sum();
            assert!(hot >= 20, "light chaos keeps recall: {hot} hot days");
        }
    }
}
