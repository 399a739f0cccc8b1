//! Ablation: autocorrelation-method parameters (§4.2 design choices).
//!
//! The paper sets the elevation threshold at `min RTT + 7 ms`, the analysis
//! window at 50 days, and requires a multi-day recurrence. This harness
//! sweeps those choices on the toy world (where ground truth is scripted)
//! and scores day-level classification against the simulator's utilization:
//! a day is truly congested when the link spends ≥ 4% of it at ≥ 100%
//! utilization — the same bar the inference side uses on its own estimate.
//!
//! ```text
//! cargo run --release -p manic-bench --bin all_experiments ablation_autocorr
//! ```

use manic_core::{run_longitudinal, LongitudinalConfig, System, SystemConfig};
use manic_inference::AutocorrConfig;
use manic_netsim::time::{date_to_sim, day_start, Date, SECS_PER_DAY};
use manic_netsim::topo::Direction;
use manic_netsim::LinkId;
use manic_scenario::schedule::CongestionEpisode;
use manic_scenario::worlds::{install_congestion, toy, toy_asns};
use std::fmt::Write as _;

/// A *hard* variant of the toy world: shallow congestion (45 minutes/day on
/// one peer, a borderline 20 minutes on another), a small 14 ms buffer, and
/// strong 4 ms queueing jitter — so the elevation threshold and recurrence
/// requirements actually matter.
fn hard_world(seed: u64) -> manic_scenario::World {
    let mut world = toy(seed);
    for gt in world.gt_links.clone() {
        let link = world.net.topo.link_mut(gt.link);
        link.queue.buffer_ms = 14.0;
        link.queue.jitter_ms = 4.0;
    }
    let episodes = vec![
        CongestionEpisode::new(toy_asns::ACME, toy_asns::CDNCO, 0..30, 0.75),
        CongestionEpisode::new(toy_asns::ACME, toy_asns::VIDCO, 0..30, 0.33),
    ];
    install_congestion(&mut world, &episodes);
    world
}

/// Ground truth: congested 15-minute intervals of `day`. §5.4's operator
/// criterion is utilization that "approaches or reaches 100%"; 0.97 is the
/// approach bar (standing queues already form there).
fn gt_intervals(net: &manic_netsim::Network, link: LinkId, dir: Direction, day: i64) -> usize {
    (0..96)
        .filter(|iv| {
            let t = day_start(day) + iv * 900 + 450;
            net.link_state(link, dir, t).utilization >= 0.97
        })
        .count()
}

pub fn run() -> String {
    let from = date_to_sim(Date::new(2016, 4, 1));
    let days = 75i64;
    let to = from + days * SECS_PER_DAY;

    let mut out = String::from(
        "Ablation — autocorrelation parameters vs ground truth (hard toy world:\n\
         14 ms buffers, 4 ms jitter, 45- and 20-minute daily overloads; 75 days).\n\
         truth: a day-link is congested when utilization approaches 100% (>=97%)\n         for >= 4% of the day, the section-5.4 operator criterion.\n\n",
    );
    let _ = writeln!(
        out,
        "{:<12} {:<12} {:<9} {:>10} {:>8} {:>8} {:>12}",
        "elevation", "window", "min_days", "precision", "recall", "FP-days", "day-pct MAE"
    );

    for (elevation_ms, window_days, min_days) in [
        (3.0, 50, 5),
        (5.0, 50, 5),
        (7.0, 50, 5), // the paper's operating point
        (10.0, 50, 5),
        (15.0, 50, 5),
        (7.0, 25, 5),
        (7.0, 75, 5),
        (7.0, 50, 3),
        (7.0, 50, 10),
        (7.0, 50, 25),
    ] {
        let mut sys = System::new(hard_world(13), SystemConfig::default());
        let mut cfg = LongitudinalConfig::new(from, to);
        cfg.autocorr = AutocorrConfig { elevation_ms, window_days, min_days };
        let links = run_longitudinal(&mut sys, &cfg);

        // Score every link-day against ground truth.
        let (mut tp, mut fp, mut fn_, mut mae, mut true_days) = (0usize, 0usize, 0usize, 0.0f64, 0usize);
        for link in &links {
            let Some(gt) = sys.world.gt_links.iter().find(|g| {
                (g.a_ext == link.far_ip || g.b_ext == link.far_ip)
                    && (g.a_int == link.near_ip || g.b_int == link.near_ip)
            }) else {
                continue;
            };
            let dir = gt.dir_toward(link.host_as);
            for &day in &link.observed {
                let truth_iv = gt_intervals(&sys.world.net, gt.link, dir, day);
                let truth = truth_iv >= 4;
                let inferred_pct = link.day_pct(day);
                let inferred = inferred_pct >= 0.04;
                match (inferred, truth) {
                    (true, true) => {
                        tp += 1;
                        mae += (inferred_pct - truth_iv as f64 / 96.0).abs();
                        true_days += 1;
                    }
                    (true, false) => fp += 1,
                    (false, true) => fn_ += 1,
                    (false, false) => {}
                }
            }
        }
        let precision = tp as f64 / (tp + fp).max(1) as f64;
        let recall = tp as f64 / (tp + fn_).max(1) as f64;
        let _ = writeln!(
            out,
            "{:<12} {:<12} {:<9} {:>9.1}% {:>7.1}% {:>8} {:>11.1}%",
            format!("+{elevation_ms} ms"),
            format!("{window_days} d"),
            min_days,
            100.0 * precision,
            100.0 * recall,
            fp,
            100.0 * mae / true_days.max(1) as f64,
        );
    }
    out.push_str(
        "\nReading: with realistic jitter and a small buffer, thresholds below the\n\
         jitter band admit false-positive days, while thresholds near the buffer\n\
         depth miss the real (shallow) overloads entirely. The paper's +7 ms / 50 d\n\
         point balances the two; window length and min_days trade recurrence\n\
         confidence against detection of short-lived congestion.\n",
    );
    out
}
