//! §3.2's operational health claim: "the response rate to our TSLP probes
//! was greater than 90% for many of our VPs." One simulated day of
//! packet-mode probing across every US vantage point, reporting per-VP TSLP
//! response rates.

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
        "\n{} of {} VPs above 90% (rate-limited and flaky border routers pull a\nfew below — the same pathologies the paper's deployment saw).",
        above_90,
        sent.len()
    );
    out
}
