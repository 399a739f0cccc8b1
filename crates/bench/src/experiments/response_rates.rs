//! §3.2's operational health claim: "the response rate to our TSLP probes
//! was greater than 90% for many of our VPs." One simulated day of
//! packet-mode probing across every US vantage point, reporting per-VP TSLP
//! response rates and the simulator's counts of the ICMP replies routers
//! withheld over that day.

use manic_core::{System, SystemConfig};
use manic_probing::tslp::ROUND_SECS;
use manic_scenario::worlds::us_broadband;
use std::collections::BTreeMap;
use std::fmt::Write as _;

pub fn run() -> String {
    let mut sys = System::new(us_broadband(crate::SEED), SystemConfig::default());
    let from = crate::at(2017, 3, 1);
    let to = from + 86_400;
    for vi in 0..sys.vps.len() {
        sys.run_bdrmap_cycle(vi, from);
    }
    // Why replies went missing: the simulator's process-wide counters,
    // read around the probing day.
    let withheld = || {
        ["rate_limited", "flaky_drop", "unresponsive"]
            .map(|why| manic_obs::registry().counter(&format!("manic_netsim_icmp_{why}")).get())
    };
    let before = withheld();
    let mut sent: BTreeMap<String, usize> = BTreeMap::new();
    let mut answered: BTreeMap<String, usize> = BTreeMap::new();
    let mut t = from;
    while t < to {
        for vp in &mut sys.vps {
            let samples = vp.tslp.probe_round(&sys.world.net, &mut vp.sim, t, &sys.store);
            let s = sent.entry(vp.handle.name.clone()).or_default();
            let a = answered.entry(vp.handle.name.clone()).or_default();
            *s += samples.len();
            *a += samples.iter().filter(|(_, x)| x.rtt_ms.is_some()).count();
        }
        t += ROUND_SECS;
    }
    let after = withheld();
    let [rate_limited, flaky, unresponsive] = std::array::from_fn(|i| after[i] - before[i]);
    let mut out = String::from(
        "TSLP response rates — one simulated day of packet-mode probing,\nevery US-world vantage point (section 3.2 reports >90% for many VPs).\n\n",
    );
    let mut above_90 = 0usize;
    for (vp, &s) in &sent {
        let a = answered[vp];
        let rate = 100.0 * a as f64 / s.max(1) as f64;
        if rate > 90.0 {
            above_90 += 1;
        }
        let _ = writeln!(out, "  {vp:<18} {a:>7}/{s:<7} {rate:>6.2}%");
    }
    let _ = writeln!(
        out,
        "\n{} of {} VPs above 90%. ICMP replies routers withheld over the day:\n{rate_limited} rate-limited, {flaky} flaky drops, {unresponsive} unresponsive.",
        above_90,
        sent.len()
    );
    out
}
