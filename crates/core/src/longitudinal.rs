//! The fluid-mode longitudinal pipeline behind every §6 result.
//!
//! For each VP the pipeline runs one bdrmap cycle (probing-state
//! construction), synthesizes the min-per-15-minute TSLP series for every
//! maintained link over the whole study window, slides the 50-day
//! autocorrelation analysis across it, and finally merges the per-VP
//! records of each link (§4.2's last stage; the rule is documented at the
//! merge in [`run_longitudinal_detailed`]).
//!
//! Output granularity matches the paper's: per link, per day, a bitmap of
//! congested 15-minute intervals — from which day-link congestion
//! percentages (§6), monthly roll-ups (Figures 7/8), and time-of-day
//! histograms (Figure 9) all derive.

use crate::system::System;
use manic_bdrmap::infer::LinkRel;
use manic_inference::autocorr::{analyze_window, AutocorrConfig, INTERVALS_PER_DAY};
use manic_netsim::time::{day_index, SimTime, SECS_PER_DAY};
use manic_netsim::{AsNumber, Ipv4};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

/// Sliding step between 50-day analysis windows, days.
const WINDOW_STEP_DAYS: usize = 25;

/// Longitudinal run parameters.
#[derive(Debug, Clone)]
pub struct LongitudinalConfig {
    /// Study window (must be day-aligned).
    pub from: SimTime,
    pub to: SimTime,
    pub autocorr: AutocorrConfig,
    /// Worker threads (VPs are processed in parallel).
    pub threads: usize,
}

impl LongitudinalConfig {
    pub fn new(from: SimTime, to: SimTime) -> Self {
        assert!(from % SECS_PER_DAY == 0 && to % SECS_PER_DAY == 0, "day-aligned window required");
        assert!(to > from);
        LongitudinalConfig {
            from,
            to,
            autocorr: AutocorrConfig::default(),
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
        }
    }
}

/// Per-VP (unmerged) congestion record for one link — Figure 9's per-VP
/// histograms and asymmetry diagnostics need the pre-merge view.
#[derive(Debug, Clone, PartialEq)]
pub struct VpLinkDays {
    pub vp: String,
    pub host_as: AsNumber,
    pub neighbor_as: AsNumber,
    pub near_ip: Ipv4,
    pub far_ip: Ipv4,
    pub day_masks: BTreeMap<i64, u128>,
    pub observed: BTreeSet<i64>,
}

/// Full longitudinal output.
#[derive(Debug, Clone)]
pub struct LongitudinalOutput {
    /// One record per (host org, link), merged across VPs (§4.2 final stage).
    pub merged: Vec<LinkDays>,
    /// The unmerged per-VP records.
    pub per_vp: Vec<VpLinkDays>,
}

/// Merged congestion record for one interdomain link: the OR of its
/// contributing VPs' day masks and the union of their observed days.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkDays {
    /// Network hosting the VPs that observed the link.
    pub host_as: AsNumber,
    pub neighbor_as: AsNumber,
    pub near_ip: Ipv4,
    pub far_ip: Ipv4,
    pub rel: LinkRel,
    pub via_ixp: bool,
    /// VPs contributing to the merge.
    pub vps: Vec<String>,
    /// Absolute day index -> bitmap of congested 15-minute intervals.
    pub day_masks: BTreeMap<i64, u128>,
    /// Days with enough data to count as observed.
    pub observed: BTreeSet<i64>,
}

impl LinkDays {
    /// Fraction of `day` spent congested.
    pub fn day_pct(&self, day: i64) -> f64 {
        self.day_masks
            .get(&day)
            .map(|m| m.count_ones() as f64 / INTERVALS_PER_DAY as f64)
            .unwrap_or(0.0)
    }

    /// Number of observed days.
    pub fn observed_days(&self) -> usize {
        self.observed.len()
    }

    /// Day-links at or above the threshold fraction (the §6 "significantly
    /// congested" bar is 0.04).
    pub fn congested_days(&self, threshold: f64) -> usize {
        self.observed.iter().filter(|&&d| self.day_pct(d) >= threshold).count()
    }
}

/// Per-(vp, task) analysis: slide 50-day windows and union day masks.
///
/// Every window produces an audit-trail verdict (detector "autocorr"):
/// asserted windows carry the congested-interval count, rejected windows the
/// rejection reason — so a §6 day-link number can be traced back to the
/// exact windows that asserted it.
fn analyze_task_series(
    vp_name: &str,
    series: &manic_probing::tslp::TaskSeries,
    cfg: &LongitudinalConfig,
) -> (BTreeMap<i64, u128>, BTreeSet<i64>) {
    let total_days = ((cfg.to - cfg.from) / SECS_PER_DAY) as usize;
    let wdays = cfg.autocorr.window_days;
    let first_day = day_index(cfg.from);

    // Observed days: any far-side data at all that day.
    let mut observed = BTreeSet::new();
    for d in 0..total_days {
        let lo = d * INTERVALS_PER_DAY;
        let hi = lo + INTERVALS_PER_DAY;
        let present = series.far[lo..hi].iter().filter(|b| b.is_some()).count();
        if present >= INTERVALS_PER_DAY / 4 {
            observed.insert(first_day + d as i64);
        }
    }

    let mut masks: BTreeMap<i64, u128> = BTreeMap::new();
    if total_days < wdays {
        return (masks, observed);
    }
    let mut starts: Vec<usize> = (0..=total_days - wdays).step_by(WINDOW_STEP_DAYS).collect();
    let last_start = total_days - wdays;
    if starts.last() != Some(&last_start) {
        starts.push(last_start);
    }
    for w0 in starts {
        let lo = w0 * INTERVALS_PER_DAY;
        let hi = (w0 + wdays) * INTERVALS_PER_DAY;
        let res = analyze_window(&series.near[lo..hi], &series.far[lo..hi], &cfg.autocorr);
        let window_t = cfg.from + w0 as i64 * SECS_PER_DAY;
        let congested_intervals: u32 =
            res.day_masks.iter().map(|m| m.count_ones()).sum();
        let evidence = match res.rejected {
            Some(reason) => manic_obs::Evidence::new(
                "autocorr_rejected",
                vec![
                    ("reason", manic_obs::Value::from(reason.as_str())),
                    ("window_start_t", manic_obs::Value::from(window_t)),
                    ("window_days", manic_obs::Value::from(wdays)),
                ],
            ),
            None => manic_obs::Evidence::new(
                "autocorr_window",
                vec![
                    ("window_start_t", manic_obs::Value::from(window_t)),
                    ("window_days", manic_obs::Value::from(wdays)),
                    ("congested_intervals", manic_obs::Value::from(congested_intervals as u64)),
                ],
            ),
        };
        manic_obs::audit().record(manic_obs::AuditRecord {
            t: window_t,
            vp: vp_name.to_string(),
            near: series.near_ip.to_string(),
            link: series.far_ip.to_string(),
            detector: "autocorr",
            congested: res.rejected.is_none() && congested_intervals > 0,
            evidence: vec![evidence],
        });
        if res.rejected.is_some() {
            continue;
        }
        for (d, &mask) in res.day_masks.iter().enumerate() {
            if mask != 0 {
                let day = first_day + (w0 + d) as i64;
                *masks.entry(day).or_insert(0) |= mask;
            }
        }
    }
    (masks, observed)
}

/// Run the longitudinal pipeline over every VP in the system, returning the
/// merged per-link records (see [`run_longitudinal_detailed`] for the
/// per-VP view as well).
pub fn run_longitudinal(system: &mut System, cfg: &LongitudinalConfig) -> Vec<LinkDays> {
    run_longitudinal_detailed(system, cfg).merged
}

/// Run the longitudinal pipeline over every VP in the system.
///
/// Runs one bdrmap cycle per VP at `cfg.from` (if not already run), then
/// synthesizes and analyzes in parallel.
pub fn run_longitudinal_detailed(system: &mut System, cfg: &LongitudinalConfig) -> LongitudinalOutput {
    // Probing-state construction (sequential: mutates per-VP state).
    for vi in 0..system.vps.len() {
        if system.vps[vi].active && system.vps[vi].bdrmap.is_none() {
            system.run_bdrmap_cycle(vi, cfg.from);
        }
    }

    // Parallel synthesis + analysis per VP.
    type LinkOut = (Ipv4, Ipv4, AsNumber, LinkRel, bool, BTreeMap<i64, u128>, BTreeSet<i64>);
    struct VpOut {
        vp_name: String,
        host_as: AsNumber,
        links: Vec<LinkOut>,
    }
    let net = &system.world.net;
    let vps: Vec<&crate::system::VpRuntime> = system
        .vps
        .iter()
        .filter(|v| v.active && v.bdrmap.is_some())
        .collect();
    // One slot per VP, read back in VP order, so the output order does not
    // depend on the thread count.
    let slots: Vec<Mutex<Option<VpOut>>> = vps.iter().map(|_| Mutex::new(None)).collect();
    crate::engine::fan_out(cfg.threads, vps.len(), |i| {
        let vp = vps[i];
        let series = vp.tslp.synthesize_window(net, cfg.from, cfg.to, 900);
        let mut links = Vec::new();
        for s in &series {
            let Some(meta) = vp.bdrmap_links.get(&(s.near_ip, s.far_ip)) else {
                continue;
            };
            let (masks, observed) = analyze_task_series(&vp.handle.name, s, cfg);
            links.push((
                s.near_ip,
                s.far_ip,
                meta.far_as,
                meta.rel,
                meta.via_ixp,
                masks,
                observed,
            ));
        }
        let out = VpOut {
            vp_name: vp.handle.name.clone(),
            host_as: vp.asn,
            links,
        };
        *slots[i]
            .lock()
            .expect("VP slot poisoned by a panicking worker") = Some(out);
    });

    // §4.2's final stage: "The final stage of the scheme merges estimates
    // from all VPs that observe a given interdomain link to derive an
    // overall inference. Congestion inferences for the same link based on
    // data from different VPs are typically similar. Significant
    // differences may reflect an asymmetric return path." The rule: a link
    // is identified by (host org anchor, near, far), where sibling VPs
    // share the lowest sibling ASN as the anchor; its merged record ORs
    // the contributing VPs' per-day masks of congested 15-minute intervals
    // and takes the union of their observed days, so an interval counts as
    // congested when any VP inferred it congested.
    let mut per_vp_records = Vec::new();
    let mut merged: BTreeMap<(AsNumber, Ipv4, Ipv4), LinkDays> = BTreeMap::new();
    for slot in slots {
        let out = slot
            .into_inner()
            .expect("VP slot poisoned by a panicking worker")
            .expect("fan_out runs every VP");
        let anchor = system
            .world
            .artifacts
            .siblings(out.host_as)
            .into_iter()
            .min()
            .unwrap_or(out.host_as);
        for (near, far, neighbor, rel, via_ixp, masks, observed) in out.links {
            per_vp_records.push(VpLinkDays {
                vp: out.vp_name.clone(),
                host_as: out.host_as,
                neighbor_as: neighbor,
                near_ip: near,
                far_ip: far,
                day_masks: masks.clone(),
                observed: observed.clone(),
            });
            let entry = merged.entry((anchor, near, far)).or_insert_with(|| LinkDays {
                host_as: out.host_as,
                neighbor_as: neighbor,
                near_ip: near,
                far_ip: far,
                rel,
                via_ixp,
                vps: Vec::new(),
                day_masks: BTreeMap::new(),
                observed: BTreeSet::new(),
            });
            entry.vps.push(out.vp_name.clone());
            for (day, mask) in masks {
                *entry.day_masks.entry(day).or_insert(0) |= mask;
            }
            entry.observed.extend(observed);
        }
    }
    LongitudinalOutput { merged: merged.into_values().collect(), per_vp: per_vp_records }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{System, SystemConfig};
    use manic_netsim::time::{date_to_sim, Date};
    use manic_scenario::worlds::{toy, toy_asns};

    fn run_toy(days: i64) -> Vec<LinkDays> {
        let mut sys = System::new(toy(1), SystemConfig::default());
        let from = date_to_sim(Date::new(2016, 4, 1));
        let cfg = LongitudinalConfig::new(from, from + days * SECS_PER_DAY);
        run_longitudinal(&mut sys, &cfg)
    }

    #[test]
    fn congested_peer_detected_clean_peer_not() {
        let links = run_toy(60);
        let hot: Vec<&LinkDays> = links
            .iter()
            .filter(|l| l.neighbor_as == toy_asns::CDNCO)
            .collect();
        let cold: Vec<&LinkDays> = links
            .iter()
            .filter(|l| l.neighbor_as == toy_asns::VIDCO)
            .collect();
        assert!(!hot.is_empty() && !cold.is_empty());
        let hot_days: usize = hot.iter().map(|l| l.congested_days(0.04)).sum();
        let cold_days: usize = cold.iter().map(|l| l.congested_days(0.04)).sum();
        // The scripted 4h/day episode => ~16 intervals/day ≈ 16.7% per day.
        assert!(hot_days >= 40, "hot link congested most days: {hot_days}");
        assert_eq!(cold_days, 0, "clean peer stays clean");
        // Daily congestion percentage ballpark: 4h = 16.7% of the day.
        let l = hot[0];
        let some_day = *l.day_masks.keys().next().unwrap();
        let pct = l.day_pct(some_day);
        assert!((0.08..0.35).contains(&pct), "day pct {pct}");
    }

    #[test]
    fn both_vps_merge_onto_one_link_record() {
        let links = run_toy(60);
        // The nyc VP sees the nyc ACME-CDNCO link; the chi VP's hot-potato
        // egress toward CDNCO is... also visible. At minimum, merged records
        // carry VP attribution.
        for l in &links {
            assert!(!l.vps.is_empty());
            assert!(l.observed_days() > 0 || l.day_masks.is_empty());
        }
        // Two VPs exist; some link is observed by at least one VP of each
        // metro or the same link by both.
        let total_vp_refs: usize = links.iter().map(|l| l.vps.len()).sum();
        assert!(total_vp_refs >= links.len());
    }

    #[test]
    fn short_study_yields_no_masks() {
        // 20 days < the 50-day window: no autocorr results, only observation.
        let links = run_toy(20);
        assert!(links.iter().all(|l| l.day_masks.is_empty()));
        assert!(links.iter().any(|l| l.observed_days() > 0));
    }
}
