//! Scenario library: scripted congestion stories with planted ground truth.
//!
//! Each scenario takes a compiled [`World`] and installs load models, fault
//! events, or routing epochs on it, returning the planted ground truth —
//! the set of (access ISP, provider) pairs whose interconnects the
//! measurement pipeline *should* flag as persistently congested over the
//! study window. The world sweep scores the pipeline's verdicts against
//! this plant, per world, per scenario.
//!
//! All effects are applied to the `World` before `System::new`, so the
//! library depends only on `manic-scenario`/`manic-netsim` — never on the
//! measurement stack it is used to judge.

use crate::rng::Rng;
use manic_netsim::fault::{FaultEvent, FaultKind, FaultScope};
use manic_netsim::time::{day_index, SimTime, SECS_PER_DAY};
use manic_netsim::traffic::DiurnalDemand;
use manic_netsim::{AsNumber, Fib, Ipv4, LoadModel};
use manic_scenario::asgraph::AsKind;
use manic_scenario::schedule::{month_schedule, CongestionEpisode};
use manic_scenario::worlds::{
    install_congestion, quiet_profile, tz_of, EYEBALL_BASE_UTIL, IDLE_AMPLITUDE,
};
/// Normalized pair key, matching the sweep's scoring key.
pub use manic_scenario::worlds::pair_key;
use manic_scenario::{GtLink, World};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Arc;

/// The library's congestion-story shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// The paper's bread-and-butter: a mix of persistently congested and
    /// clean access-CDN interconnects, elevated ~5h nightly for the whole
    /// window.
    SteadyMix,
    /// Flash-crowd transients: short recurring overload runs on a few
    /// pairs, plus sub-threshold decoy bursts that must NOT be flagged.
    FlashCrowd,
    /// Mid-study maintenance: renumbering, interface silence, and route
    /// flaps on clean links while the planted pairs stay congested.
    Maintenance,
    /// A catchment shift: halfway through the study, access ISPs repoint a
    /// CDN's address block to their transit provider (routing epoch swap).
    CatchmentShift,
}

/// One library entry.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    pub kind: ScenarioKind,
    /// Stable key used in CLI/bench selectors and result files.
    pub key: &'static str,
    pub blurb: &'static str,
}

/// Every scenario the library ships.
pub fn library() -> Vec<Scenario> {
    vec![
        Scenario {
            kind: ScenarioKind::SteadyMix,
            key: "steady",
            blurb: "persistent nightly congestion on ~4 CDN pairs per access ISP",
        },
        Scenario {
            kind: ScenarioKind::FlashCrowd,
            key: "flash",
            blurb: "8-day flash crowds per access ISP plus sub-threshold decoys",
        },
        Scenario {
            kind: ScenarioKind::Maintenance,
            key: "maint",
            blurb: "steady congestion while clean links renumber, silence, and flap",
        },
        Scenario {
            kind: ScenarioKind::CatchmentShift,
            key: "shift",
            blurb: "steady congestion across a mid-study CDN catchment shift",
        },
    ]
}

/// Ground truth planted by a scenario installation.
#[derive(Debug, Clone, Default)]
pub struct Planted {
    /// Normalized `(low ASN, high ASN)` pairs expected to be flagged.
    pub gt: BTreeSet<(AsNumber, AsNumber)>,
}

impl Scenario {
    /// Install this scenario on `world` for the study `months` (indices
    /// since Jan 2016), deterministically from `seed`.
    pub fn install(&self, world: &mut World, seed: u64, months: Range<u32>) -> Planted {
        match self.kind {
            ScenarioKind::SteadyMix => steady_mix(world, seed, months, 4),
            ScenarioKind::FlashCrowd => flash_crowd(world, seed, months),
            ScenarioKind::Maintenance => maintenance(world, seed, months),
            ScenarioKind::CatchmentShift => catchment_shift(world, seed, months),
        }
    }
}

/// Access-CDN adjacency pairs that have compiled interconnects, grouped by
/// access ISP, in deterministic (ASN-sorted) order.
fn eyeball_pairs(world: &World) -> BTreeMap<AsNumber, Vec<AsNumber>> {
    let mut by_ap: BTreeMap<AsNumber, BTreeSet<AsNumber>> = BTreeMap::new();
    for gt in &world.gt_links {
        let (a, b) = (gt.a_asn, gt.b_asn);
        let (a_kind, b_kind) = (world.graph.info(a).kind, world.graph.info(b).kind);
        let (ap, other) = if a_kind == AsKind::AccessIsp {
            (a, b)
        } else if b_kind == AsKind::AccessIsp {
            (b, a)
        } else {
            continue;
        };
        if world.graph.info(other).kind == AsKind::Content {
            by_ap.entry(ap).or_default().insert(other);
        }
    }
    by_ap.into_iter().map(|(ap, set)| (ap, set.into_iter().collect())).collect()
}

/// Pick `per_ap` CDN partners per access ISP, shuffled by `rng`.
fn pick_pairs(world: &World, rng: &mut Rng, per_ap: usize) -> Vec<(AsNumber, AsNumber)> {
    let mut picked = Vec::new();
    for (ap, mut cdns) in eyeball_pairs(world) {
        rng.shuffle(&mut cdns);
        for tcp in cdns.into_iter().take(per_ap) {
            picked.push((ap, tcp));
        }
    }
    picked
}

fn steady_mix(world: &mut World, seed: u64, months: Range<u32>, per_ap: usize) -> Planted {
    let mut rng = Rng::new(seed, 0x57E_AD1);
    let picked = pick_pairs(world, &mut rng, per_ap);
    let episodes: Vec<CongestionEpisode> = picked
        .iter()
        .map(|&(ap, tcp)| CongestionEpisode::new(ap, tcp, months.clone(), 5.0))
        .collect();
    install_congestion(world, &episodes);
    Planted { gt: picked.into_iter().map(|(a, b)| pair_key(a, b)).collect() }
}

/// Load model for flash crowds: on listed days the link behaves exactly like
/// a steadily congested day (same diurnal overload shape the detector is
/// calibrated for); on all other days it carries the quiet profile.
#[derive(Debug)]
struct BurstDemand {
    hot: DiurnalDemand,
    quiet: DiurnalDemand,
    days: BTreeSet<i64>,
}

impl LoadModel for BurstDemand {
    fn utilization(&self, t: SimTime) -> f64 {
        if self.days.contains(&day_index(t)) {
            self.hot.utilization(t)
        } else {
            self.quiet.utilization(t)
        }
    }
}

/// Install a burst profile toward `ap` on every link of the pair.
fn install_bursts(
    world: &mut World,
    ap: AsNumber,
    tcp: AsNumber,
    months: &Range<u32>,
    days: &BTreeSet<i64>,
) {
    let episode = CongestionEpisode::new(ap, tcp, months.clone(), 5.0);
    let links: Vec<usize> = world
        .gt_links
        .iter()
        .enumerate()
        .filter(|(_, gt)| gt.touches(ap) && gt.touches(tcp))
        .map(|(i, _)| i)
        .collect();
    for i in links {
        let gt = world.gt_links[i].clone();
        let tz = tz_of(&gt, ap);
        let seed_toward = (gt.link.0 as u64) << 1 | u64::from(gt.a_asn == ap);
        let toward_ap = BurstDemand {
            hot: DiurnalDemand {
                base: EYEBALL_BASE_UTIL,
                amplitude: 1.0,
                peak_hour: 21.0,
                peak_width: 2.6,
                tz_offset_hours: tz,
                weekend_factor: 1.0,
                monthly: month_schedule(&[&episode], EYEBALL_BASE_UTIL, IDLE_AMPLITUDE),
                noise_amp: 0.02,
                noise_seed: seed_toward,
            },
            quiet: quiet_profile(tz, seed_toward),
            days: days.clone(),
        };
        let link = world.net.topo.link_mut(gt.link);
        let model: Arc<dyn LoadModel> = Arc::new(toward_ap);
        if gt.a_asn == ap {
            link.load_ba = Some(model); // toward side A
        } else {
            link.load_ab = Some(model);
        }
    }
}

fn flash_crowd(world: &mut World, seed: u64, months: Range<u32>) -> Planted {
    // Quiet baseline everywhere first.
    install_congestion(world, &[]);
    let mut rng = Rng::new(seed, 0xF1A54);
    let day0 = day_index(manic_netsim::time::month_start(months.start));

    // One genuine flash-crowd pair per access ISP: 8 recurring burst days —
    // above the detector's 5-day recurrence bar.
    let genuine = pick_pairs(world, &mut rng, 1);
    let burst_days: BTreeSet<i64> = (6..14).map(|d| day0 + d).collect();
    for &(ap, tcp) in &genuine {
        install_bursts(world, ap, tcp, &months, &burst_days);
    }

    // Decoys: 3-day bursts on *other* pairs — below the recurrence bar, so
    // flagging one is a precision failure.
    let gt_set: BTreeSet<(AsNumber, AsNumber)> =
        genuine.iter().map(|&(a, b)| pair_key(a, b)).collect();
    let decoy_days: BTreeSet<i64> = (20..23).map(|d| day0 + d).collect();
    let decoys: Vec<(AsNumber, AsNumber)> = pick_pairs(world, &mut rng, 2)
        .into_iter()
        .filter(|&(a, b)| !gt_set.contains(&pair_key(a, b)))
        .take(genuine.len().div_ceil(3).max(2))
        .collect();
    for &(ap, tcp) in &decoys {
        install_bursts(world, ap, tcp, &months, &decoy_days);
    }

    Planted { gt: gt_set }
}

fn maintenance(world: &mut World, seed: u64, months: Range<u32>) -> Planted {
    let planted = steady_mix(world, seed, months.clone(), 2);
    let day0 = manic_netsim::time::month_start(months.start);

    // Fault clean links (pairs outside the plant) in the back half of the
    // study, well after bdrmap's probing-state construction.
    let clean: Vec<GtLink> = world
        .gt_links
        .iter()
        .filter(|gt| !planted.gt.contains(&pair_key(gt.a_asn, gt.b_asn)))
        .cloned()
        .collect();
    let mut rng = Rng::new(seed, 0xFA017);
    let n_faults = clean.len().min(12);
    let mut events = Vec::new();
    for (i, idx) in rng.pick_distinct(clean.len(), n_faults).into_iter().enumerate() {
        let gt = &clean[idx];
        // The faulted side: the non-eyeball end when there is one.
        let far_addr = if world.graph.info(gt.a_asn).kind == AsKind::AccessIsp {
            gt.b_ext
        } else {
            gt.a_ext
        };
        let Some(ifc) = world.net.topo.iface_by_addr(far_addr) else { continue };
        let at = |d: i64| day0 + d * SECS_PER_DAY;
        events.push(match i % 3 {
            // Mid-study renumbering: the far interface answers from a new
            // address for a week.
            0 => FaultEvent::window(
                FaultKind::Renumber { alias: Ipv4(0xC0A8_0000 | (ifc.id.0 & 0xFFFF)) },
                FaultScope::Iface(ifc.id),
                at(30),
                at(37),
            ),
            // Maintenance silence: two dark days.
            1 => FaultEvent::window(
                FaultKind::IfaceSilence,
                FaultScope::Iface(ifc.id),
                at(32),
                at(34),
            ),
            // Route flaps around the maintenance window.
            _ => FaultEvent::window(
                FaultKind::RouteFlap { up_secs: 1_800, down_secs: 120 },
                FaultScope::Link(gt.link),
                at(31),
                at(33),
            ),
        });
    }
    for e in events {
        world.net.fault.push(e);
    }
    planted
}

fn catchment_shift(world: &mut World, seed: u64, months: Range<u32>) -> Planted {
    let planted = steady_mix(world, seed, months.clone(), 3);
    let t0 = manic_netsim::time::month_start(months.start);
    let t_shift = t0 + 30 * SECS_PER_DAY;

    // Halfway through the study each access ISP repoints the address block
    // of its lowest-ASN planted CDN at its transit provider: the CDN's
    // direct peering stops carrying that block's traffic (the catchment
    // moves), but the planted congestion toward the eyeballs persists.
    let mut fibs: Vec<Fib> = (0..world.net.topo.routers.len())
        .map(|r| world.net.fib(manic_netsim::RouterId(r as u32), t0).clone())
        .collect();
    let mut shifted = false;
    for (ap, cdns) in eyeball_pairs(world) {
        let Some(&cdn) = cdns
            .iter()
            .find(|&&c| planted.gt.contains(&pair_key(ap, c)))
        else {
            continue;
        };
        let Some(&provider) = world.graph.providers(ap).first() else { continue };
        let cdn_block = world.addressing.of(cdn).block;
        let via_addr = world.addressing.of(provider).block.addr();
        for router in &world.net.topo.routers {
            if router.asn != ap {
                continue;
            }
            let fib = &mut fibs[router.id.0 as usize];
            if let Some(via) = fib.lookup(via_addr).map(|g| g.to_vec()) {
                fib.insert(cdn_block, via);
                shifted = true;
            }
        }
    }
    assert!(shifted, "catchment shift must repoint at least one block");
    world.net.add_epoch(t_shift, fibs);
    planted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::compile_world;

    fn test_world() -> World {
        compile_world("sim-1k", 5).expect("library world").world
    }

    #[test]
    fn library_keys_are_stable() {
        let keys: Vec<&str> = library().iter().map(|s| s.key).collect();
        assert_eq!(keys, vec!["steady", "flash", "maint", "shift"]);
    }

    #[test]
    fn steady_plants_pairs_with_links() {
        let mut world = test_world();
        let planted = library()[0].install(&mut world, 5, 3..5);
        assert!(!planted.gt.is_empty());
        for &(a, b) in &planted.gt {
            assert!(
                world.gt_links.iter().any(|gt| gt.touches(a) && gt.touches(b)),
                "planted pair ({a:?},{b:?}) has no compiled interconnect"
            );
        }
    }

    #[test]
    fn flash_gt_excludes_decoys_and_is_deterministic() {
        let mut w1 = test_world();
        let p1 = library()[1].install(&mut w1, 5, 3..5);
        let mut w2 = test_world();
        let p2 = library()[1].install(&mut w2, 5, 3..5);
        assert_eq!(p1.gt, p2.gt);
        assert!(!p1.gt.is_empty());
    }

    #[test]
    fn maintenance_faults_only_clean_links() {
        let mut world = test_world();
        let planted = library()[2].install(&mut world, 5, 3..5);
        assert!(!planted.gt.is_empty());
        assert!(!world.net.fault.is_empty(), "maintenance must install faults");
    }

    #[test]
    fn catchment_shift_adds_epoch() {
        let mut world = test_world();
        let t0 = manic_netsim::time::month_start(3);
        let before = world.net.fib(manic_netsim::RouterId(0), t0 + 40 * SECS_PER_DAY).clone();
        let planted = library()[3].install(&mut world, 5, 3..5);
        assert!(!planted.gt.is_empty());
        // Some router's FIB differs after the shift instant.
        let shifted = (0..world.net.topo.routers.len()).any(|r| {
            let r = manic_netsim::RouterId(r as u32);
            let a = world.net.fib(r, t0);
            let b = world.net.fib(r, t0 + 40 * SECS_PER_DAY);
            !std::ptr::eq(a, b)
        });
        assert!(shifted);
        let _ = before;
    }
}
