//! What-if: capacity upgrade at the most congested interconnection.
//!
//! §8 frames the system as leverage for peering negotiations and regulatory
//! oversight: persistent congestion that a capacity augment would resolve.
//! This experiment re-runs the world with the CenturyLink–Google
//! interconnection doubled in capacity from July 2017 (demand/capacity
//! halves) and shows the inference pipeline independently reporting the
//! resolution — the monitoring story a third party would tell a regulator.

use manic_analysis::temporal::fig7_series;
use manic_analysis::Study;
use manic_core::{run_longitudinal, LongitudinalConfig, System, SystemConfig};
use manic_scenario::schedule::CongestionEpisode;
use manic_scenario::worlds::{install_congestion, us_asns, us_broadband, us_schedule};
use std::fmt::Write as _;

/// Month the upgrade lands (July 2017).
const UPGRADE_MONTH: u32 = 18;

fn run_study(schedule: &[CongestionEpisode]) -> Study {
    let mut world = us_broadband(crate::SEED);
    install_congestion(&mut world, schedule);
    let mut sys = System::new(world, SystemConfig::default());
    let (from, to) = crate::study_window();
    let links = run_longitudinal(&mut sys, &LongitudinalConfig::new(from, to));
    Study::new(links, from, to)
}

pub fn run() -> String {
    // Baseline schedule vs. one where every CenturyLink-Google episode ends
    // at the upgrade month (capacity doubled => utilization halves => the
    // diurnal peak no longer reaches the onset).
    let baseline = us_schedule();
    let upgraded: Vec<CongestionEpisode> = baseline
        .iter()
        .filter_map(|e| {
            if e.ap == us_asns::CENTURYLINK && e.tcp == us_asns::GOOGLE {
                if e.start_month >= UPGRADE_MONTH {
                    return None;
                }
                let mut e = e.clone();
                e.end_month = e.end_month.min(UPGRADE_MONTH);
                Some(e)
            } else {
                Some(e.clone())
            }
        })
        .collect();

    let before = run_study(&baseline);
    let after = run_study(&upgraded);

    let mut out = String::from(
        "What-if — CenturyLink-Google interconnection capacity doubled in July\n2017. Third-party monthly congestion view (Figure 7 row), before and\nafter, as a regulator tracking the §8 policy story would see it.\n\n",
    );
    let months = manic_scenario::worlds::STUDY_START_MONTH..manic_scenario::worlds::STUDY_END_MONTH;
    let s_before = fig7_series(&before, us_asns::CENTURYLINK, us_asns::GOOGLE, months.clone());
    let s_after = fig7_series(&after, us_asns::CENTURYLINK, us_asns::GOOGLE, months.clone());
    let _ = writeln!(out, "as deployed:    {}", s_before.render());
    let _ = writeln!(out, "with upgrade:   {}", s_after.render());
    let post_before: f64 = months
        .clone()
        .filter(|&m| m >= UPGRADE_MONTH)
        .filter_map(|m| s_before.value_at(m))
        .sum::<f64>()
        / (24 - UPGRADE_MONTH) as f64;
    let post_after: f64 = months
        .clone()
        .filter(|&m| m >= UPGRADE_MONTH)
        .filter_map(|m| s_after.value_at(m))
        .sum::<f64>()
        / (24 - UPGRADE_MONTH) as f64;
    let _ = writeln!(
        out,
        "\nPost-upgrade mean congested day-links: {post_before:.1}% -> {post_after:.1}%.\nThe pipeline reports the resolution without any knowledge of the upgrade —\nexactly the third-party transparency §8 argues for.",
    );
    assert!(
        post_after < post_before / 4.0,
        "upgrade must be visible to the inference pipeline"
    );
    out
}
