//! Probing-state maintenance under routing change (§3.2).
//!
//! "Over time, the interdomain links visible from a VP ... may change. To
//! keep the probing set up-to-date, we use the bdrmap traceroutes to
//! continuously update the mapping between destinations and visible
//! interdomain links." This test flips the route toward the congested peer
//! from the direct peering to transit mid-run and checks that (a) the stale
//! probing state detects the visibility loss (responses from unexpected
//! interfaces), and (b) the next bdrmap cycle repairs the probing set.
//! Whichever way a task set is installed — a bdrmap cycle or a checkpoint
//! resume — the store slots the next commit writes through must follow it.

use manic_core::checkpoint::world_by_name;
use manic_core::{resume, DurabilityConfig, Durable, System, SystemConfig};
use manic_netsim::time::{date_to_sim, month_start, Date, SimTime, SECS_PER_DAY};
use manic_netsim::{Fib, RouterId};
use manic_probing::tslp::{End, ROUND_SECS};
use manic_scenario::worlds::{toy, toy_asns};
use manic_tsdb::Point;
use manic_worldgen::{build_world_full, STUDY_MONTHS};
use std::sync::OnceLock;

/// Route flap at `at`: ACME withdraws the CDNCO peering routes, so traffic
/// to CDNCO shifts to transit. The new epoch clones the FIBs in force at
/// `base` and repoints CDNCO's block at every ACME backbone router the way
/// that router already reaches TRANSITCO.
fn withdraw_cdnco_peering(sys: &mut System, base: SimTime, at: SimTime) {
    let cdnco_block = sys.world.addressing.of(toy_asns::CDNCO).block;
    let transitco_block = sys.world.addressing.of(toy_asns::TRANSITCO).block;
    let n_routers = sys.world.net.topo.routers.len();
    let mut fibs: Vec<Fib> = (0..n_routers)
        .map(|r| sys.world.net.fib(RouterId(r as u32), base).clone())
        .collect();
    for (r, fib) in fibs.iter_mut().enumerate() {
        if sys.world.net.topo.router(RouterId(r as u32)).asn != toy_asns::ACME {
            continue;
        }
        if let Some(via) = fib.lookup(transitco_block.addr()).map(|g| g.to_vec()) {
            fib.insert(cdnco_block, via);
        }
    }
    sys.world.net.add_epoch(at, fibs);
}

#[test]
fn route_flap_detected_and_probing_state_repaired() {
    let mut sys = System::new(toy(3), SystemConfig::default());
    let t0 = date_to_sim(Date::new(2016, 5, 2));
    sys.run_bdrmap_cycle(0, t0);

    let gt_far = {
        let links = sys.world.links_between(toy_asns::ACME, toy_asns::CDNCO);
        links[0].far_addr_from(toy_asns::ACME)
    };
    assert!(
        sys.vps[0].tslp.tasks.iter().any(|t| t.far_ip == gt_far),
        "peering link probed initially"
    );

    // Healthy round: every sample answered by the expected interface.
    let samples = {
        let world = &sys.world;
        let vp = &mut sys.vps[0];
        vp.tslp.probe_round(&world.net, &mut vp.sim, t0 + 600, &sys.store)
    };
    assert!(samples.iter().all(|(_, s)| !s.mismatched));
    assert!(samples.iter().filter(|(_, s)| s.rtt_ms.is_some()).count() * 10 >= samples.len() * 9);

    // Route flap at t1: traffic to CDNCO shifts to transit.
    let t1 = t0 + SECS_PER_DAY;
    withdraw_cdnco_peering(&mut sys, t0, t1);

    // Stale probing state now sees mismatched responders on the old link.
    let samples = {
        let world = &sys.world;
        let vp = &mut sys.vps[0];
        vp.tslp.probe_round(&world.net, &mut vp.sim, t1 + 600, &sys.store)
    };
    let vp0 = &sys.vps[0];
    let stale_task = vp0
        .tslp
        .tasks
        .iter()
        .position(|t| t.far_ip == gt_far)
        .expect("stale task still present");
    let stale_samples: Vec<_> = samples.iter().filter(|(ti, _)| *ti == stale_task).collect();
    assert!(!stale_samples.is_empty());
    assert!(
        stale_samples
            .iter()
            .any(|(_, s)| s.mismatched || s.rtt_ms.is_none()),
        "visibility loss must be observable: {stale_samples:?}"
    );

    // The next bdrmap cycle rebuilds the probing set without the dead link.
    sys.run_bdrmap_cycle(0, t1 + 2 * SECS_PER_DAY);
    let vp0 = &sys.vps[0];
    assert!(
        !vp0.tslp.tasks.iter().any(|t| t.far_ip == gt_far),
        "withdrawn peering no longer probed"
    );
    // And probing continues cleanly on the new state.
    let samples = {
        let world = &sys.world;
        let vp = &mut sys.vps[0];
        vp.tslp.probe_round(&world.net, &mut vp.sim, t1 + 2 * SECS_PER_DAY + 600, &sys.store)
    };
    let ok = samples.iter().filter(|(_, s)| s.rtt_ms.is_some()).count();
    assert!(ok * 10 >= samples.len() * 9, "{ok}/{} responses", samples.len());
}

#[test]
fn reactive_update_repairs_within_minutes() {
    // §3.2's future-work item, implemented: with reactive updates on, a
    // visibility loss triggers an immediate bdrmap cycle instead of waiting
    // for the multi-day cadence.
    let mut sys = System::new(toy(3), SystemConfig::default());
    assert_eq!(sys.cfg.reactive_mismatch_rounds, 3);
    let t0 = date_to_sim(Date::new(2016, 5, 2));
    // Packet mode seeds the probing state at t0.
    sys.run_packet_mode(t0, t0 + 1800);

    let gt_far = {
        let links = sys.world.links_between(toy_asns::ACME, toy_asns::CDNCO);
        links[0].far_addr_from(toy_asns::ACME)
    };
    assert!(sys.vps[0].tslp.tasks.iter().any(|t| t.far_ip == gt_far));

    // Withdraw the peering.
    let t1 = t0 + 3600;
    withdraw_cdnco_peering(&mut sys, t0, t1);

    // One hour of packet mode after the flap: 12 rounds, far easier than
    // the 2-day scheduled cadence. The third dark round must have triggered
    // a reactive cycle that drops the dead link.
    sys.run_packet_mode(t1, t1 + 3600);
    assert!(
        !sys.vps[0].tslp.tasks.iter().any(|t| t.far_ip == gt_far),
        "reactive update must repair the probing set within the hour"
    );
    assert!(
        sys.vps[0].last_cycle.unwrap() >= t1,
        "a fresh cycle ran after the flap"
    );
}

/// Every task's store slot names the series `TslpProber::key` names: one
/// sentinel point per (VP, task, end), written at `at` through the slot,
/// reads back alone through the key. `at` must be a time nothing else was
/// written at; two slots sharing a series would read back two points.
fn assert_slots_follow_keys(sys: &System, at: SimTime) {
    let mut n = 0;
    for vp in &sys.vps {
        for ti in 0..vp.tslp.tasks.len() {
            for end in [End::Near, End::Far] {
                let point = Point::new(at, n as f64);
                n += 1;
                sys.store.write_batch_at(vp.slot(ti, end), &[point]);
                assert_eq!(
                    sys.store.query(vp.tslp.key(ti, end), at, at + 1),
                    vec![point],
                    "{} task {ti} {end:?}: slot and key name different series",
                    vp.handle.name
                );
            }
        }
    }
    assert!(n > 0, "no task to check");
}

#[test]
fn slot_table_follows_the_task_set() {
    // Each round's commit writes through the slot table the task set
    // installed last — here by a bdrmap cycle that changes the targets.
    let mut sys = System::new(toy(3), SystemConfig::default());
    let t0 = date_to_sim(Date::new(2016, 5, 2));
    sys.run_bdrmap_cycle(0, t0);
    sys.run_packet_mode(t0, t0 + ROUND_SECS);
    assert_slots_follow_keys(&sys, -1);
    let links = |sys: &System| -> Vec<_> {
        sys.vps[0].tslp.tasks.iter().map(|t| (t.near_ip, t.far_ip)).collect()
    };
    let before = links(&sys);
    withdraw_cdnco_peering(&mut sys, t0, t0 + SECS_PER_DAY);
    let t1 = t0 + 2 * SECS_PER_DAY;
    sys.run_bdrmap_cycle(0, t1);
    assert_ne!(links(&sys), before, "the cycle after the flap changed the targets");
    sys.run_packet_mode(t1, t1 + ROUND_SECS);
    assert_slots_follow_keys(&sys, -2);

    // A checkpoint resume installs its task sets through `set_tasks`, and
    // the store is rebuilt from the snapshot under them.
    let dir = std::env::temp_dir().join(format!("manic-slot-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (from, to) = (t0, t0 + 3600);
    let dcfg = DurabilityConfig { checkpoint_every_rounds: 3, ..DurabilityConfig::default() };
    let mut sys = System::new(world_by_name("toy", 3).unwrap(), SystemConfig::default());
    let mut durable = Durable::create(&sys, "toy", 3, &dir, from, to, dcfg).unwrap();
    durable.run_window(&mut sys, from + 6 * ROUND_SECS, &|| false).unwrap();
    drop((durable, sys));
    let (mut resumed, mut durable, info) = resume(&dir, None).unwrap();
    assert!(info.store_hash_ok);
    let at = durable.resume_t();
    durable.run_window(&mut resumed, at + ROUND_SECS, &|| false).unwrap();
    assert_slots_follow_keys(&resumed, -3);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// What the two oracles below read from one seed's window.
struct Window {
    seed: u64,
    /// Limiter buckets across every VP's `SimState`.
    buckets: usize,
    /// (vp, router, seconds past the window) of each bucket ahead of it.
    ahead: Vec<(String, u32, SimTime)>,
    /// (vp, last cycle) of each VP whose last cycle is not round 0's.
    recycled: Vec<(String, Option<SimTime>)>,
}

/// A library world with its steady scenario, measured for round 0 (every
/// VP's first bdrmap cycle) and the 24 TSLP rounds after it.
fn fault_free_window(seed: u64) -> Window {
    let built = build_world_full("sim-1k", seed).expect("library world builds");
    let mut sys = System::new(built.world, SystemConfig::default());
    let t0 = month_start(STUDY_MONTHS.start);
    let end = t0 + 25 * ROUND_SECS;
    sys.run_packet_mode(t0, t0 + ROUND_SECS);
    sys.run_packet_mode(t0 + ROUND_SECS, end);
    let mut window = Window { seed, buckets: 0, ahead: Vec::new(), recycled: Vec::new() };
    for vp in &sys.vps {
        let (_, limiters) = vp.sim.export();
        window.buckets += limiters.len();
        for &(router, _, last) in &limiters {
            if last >= end {
                window.ahead.push((vp.handle.name.clone(), router, last - end));
            }
        }
        if vp.last_cycle != Some(t0) {
            window.recycled.push((vp.handle.name.clone(), vp.last_cycle));
        }
    }
    window
}

/// Each seed's window, run once and read by both oracles.
fn fault_free_windows() -> &'static [Window] {
    static WINDOWS: OnceLock<Vec<Window>> = OnceLock::new();
    WINDOWS.get_or_init(|| [0x5167_C044, 0xD1A5_0C44].map(fault_free_window).into())
}

#[test]
fn bdrmap_cycle_leaves_tslp_limiters_on_the_round_clock() {
    // The bdrmap cycle paces its traces hours past the round it runs in.
    // If those traces drew on the VP's TSLP rate limiters, the buckets
    // would sit in the future and TSLP would see a far end go dark.
    for w in fault_free_windows() {
        assert!(w.buckets > 0, "seed {:#x}: no rate-limited router was probed", w.seed);
        assert!(
            w.ahead.is_empty(),
            "seed {:#x}: {} of {} buckets ahead of the round clock \
             (vp, router, seconds past the window): {:?}",
            w.seed,
            w.ahead.len(),
            w.buckets,
            w.ahead
        );
    }
}

#[test]
fn fault_free_world_buys_no_reactive_cycle() {
    // Nothing changes routing or silences a router, so the probing set
    // picked at round 0 must last the window: no task may stay dark long
    // enough to trigger a reactive cycle.
    for w in fault_free_windows() {
        assert!(
            w.recycled.is_empty(),
            "seed {:#x}: reactive cycles on a fault-free world: {:?}",
            w.seed,
            w.recycled
        );
    }
}
