//! A peering-dispute scenario: congestion builds on one interconnection,
//! persists for months, and dissipates after an (implied) settlement —
//! the §1 motivation ("some such links exhibited recurring congestion
//! patterns ... e.g., exceeding half the day for many days").
//!
//! ```text
//! cargo run --release --example peering_dispute
//! ```
//!
//! The example scripts a dispute arc on the ACME↔CDNCO peering — mild in
//! months 1-2, severe (10 h/day) during the dispute, gone after — and shows
//! how the inference pipeline tracks onset, severity, and resolution, plus
//! what an NDT-style throughput test would have seen either side of the
//! settlement.

use manic_core::{run_longitudinal, LongitudinalConfig, System, SystemConfig};
use manic_netsim::time::{date_to_sim, month_label, month_start, Date};
use manic_probing::VpHandle;
use manic_scenario::schedule::CongestionEpisode;
use manic_scenario::worlds::{install_congestion, toy_asns};
use manic_valid::ndt::{run_ndt, NdtServer};

fn main() {
    // Build the toy topology but replace the default schedule with a
    // dispute arc: Feb'16 mild, Mar-Jun'16 severe, then settled.
    let mut world = manic_scenario::worlds::toy(7);
    let episodes = vec![
        CongestionEpisode::new(toy_asns::ACME, toy_asns::CDNCO, 1..2, 2.0),
        CongestionEpisode::new(toy_asns::ACME, toy_asns::CDNCO, 2..6, 10.0),
    ];
    install_congestion(&mut world, &episodes);

    let mut system = System::new(world, SystemConfig::default());
    let cfg = LongitudinalConfig::new(
        date_to_sim(Date::new(2016, 1, 1)),
        date_to_sim(Date::new(2016, 9, 1)),
    );
    let links = run_longitudinal(&mut system, &cfg);

    let link = links
        .iter()
        .filter(|l| l.neighbor_as == toy_asns::CDNCO)
        .max_by_key(|l| l.congested_days(0.04))
        .expect("disputed link observed");

    println!("Dispute timeline on the acme<->cdnco peering (far IP {}):\n", link.far_ip);
    println!("{:<8} {:>10} {:>16} {:>18}", "month", "cong.days", "mean day-cong %", "interpretation");
    for m in 0u32..8 {
        let lo = manic_netsim::time::day_index(month_start(m));
        let hi = manic_netsim::time::day_index(month_start(m + 1));
        let days: Vec<f64> = link
            .observed
            .range(lo..hi)
            .map(|&d| link.day_pct(d))
            .filter(|&p| p > 0.0)
            .collect();
        let cong = link.observed.range(lo..hi).filter(|&&d| link.day_pct(d) >= 0.04).count();
        let mean = if days.is_empty() {
            0.0
        } else {
            100.0 * days.iter().sum::<f64>() / days.len() as f64
        };
        let verdict = match () {
            _ if cong == 0 => "clean",
            _ if mean > 30.0 => "SEVERE (dispute)",
            _ => "mild congestion",
        };
        println!("{:<8} {:>10} {:>15.1}% {:>18}", month_label(m), cong, mean, verdict);
    }

    // What a throughput test saw at 9pm local, mid-dispute vs post-settlement.
    let vp = system.world.vp("acme-nyc");
    let handle = VpHandle { name: vp.name.clone(), router: vp.router, addr: vp.addr };
    let server = NdtServer {
        name: "cdnco-host".into(),
        asn: toy_asns::CDNCO,
        addr: system.world.host_addr(toy_asns::CDNCO, 7),
        router: system.world.host_routers[&toy_asns::CDNCO],
    };
    let peak_of = |y, m, d| date_to_sim(Date::new(y, m, d)) + 26 * 3600; // 9pm ET
    let during = run_ndt(&system.world.net, &handle, &server, peak_of(2016, 4, 12), 9)
        .expect("routable");
    let after = run_ndt(&system.world.net, &handle, &server, peak_of(2016, 7, 12), 9)
        .expect("routable");
    println!(
        "\n9pm download throughput: {:.1} Mbit/s during the dispute, {:.1} Mbit/s after settlement.",
        during.download_mbps, after.download_mbps
    );
}
