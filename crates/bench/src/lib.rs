//! Shared harness for `all_experiments` (one id per paper table/figure)
//! and the correctness gates in `src/bin`.
//!
//! Every experiment follows the same pattern: build the US-broadband world
//! (or the focused sub-scenario it needs), run the measurement pipeline,
//! compute the paper artifact in the paper's shape, and hand it back for
//! `all_experiments` to print and write under `results/`.
//! `EXPERIMENTS.md` records the paper-vs-measured comparison for each.

use manic_analysis::Study;
use manic_core::{
    run_longitudinal_detailed, LinkDays, LongitudinalConfig, LongitudinalOutput, System,
    SystemConfig,
};
use manic_netsim::time::{date_to_sim, month_start, Date, SimTime};
use manic_netsim::AsNumber;
use manic_scenario::worlds::{self, us_broadband};
use manic_scenario::World;
use std::collections::BTreeSet;
use std::io::Write as _;
use std::path::PathBuf;

/// Deterministic seed for every headline experiment.
pub const SEED: u64 = 0x5167_C044;

/// The §6 study window: March 2016 .. end of December 2017.
pub fn study_window() -> (SimTime, SimTime) {
    (
        month_start(worlds::STUDY_START_MONTH),
        month_start(worlds::STUDY_END_MONTH),
    )
}

/// Convenience date constructor.
pub fn at(y: i32, m: u8, d: u8) -> SimTime {
    date_to_sim(Date::new(y, m, d))
}

/// Build the US-broadband measurement system.
pub fn us_system() -> System {
    System::new(us_broadband(SEED), SystemConfig::default())
}

/// Run the full longitudinal pipeline over the §6 window and wrap it in a
/// `Study`. This is the shared engine behind Tables 3-4 and Figures 7-9.
pub fn run_us_study(system: &mut System) -> (Study, LongitudinalOutput) {
    let (from, to) = study_window();
    let cfg = LongitudinalConfig::new(from, to);
    let out = run_longitudinal_detailed(system, &cfg);
    (Study::new(out.merged.clone(), from, to), out)
}

/// Display names of the eight US access ISPs, Table 3 row order.
pub fn ap_rows() -> Vec<(manic_netsim::AsNumber, &'static str)> {
    use manic_scenario::worlds::us_asns::*;
    vec![
        (CENTURYLINK, "CenturyLink"),
        (ATT, "AT&T"),
        (COX, "Cox"),
        (COMCAST, "Comcast"),
        (CHARTER, "Charter"),
        (TWC, "TWC"),
        (VERIZON, "Verizon"),
        (RCN, "RCN"),
    ]
}

/// Table 4 column order (as printed in the paper).
pub fn ap_cols() -> Vec<(manic_netsim::AsNumber, &'static str)> {
    use manic_scenario::worlds::us_asns::*;
    vec![
        (COMCAST, "Comcast"),
        (VERIZON, "Verizon"),
        (CENTURYLINK, "CenturyLink"),
        (ATT, "AT&T"),
        (COX, "Cox"),
        (TWC, "TWC"),
        (CHARTER, "Charter"),
        (RCN, "RCN"),
    ]
}

/// Table 4 row T&CPs.
pub fn tcp_rows() -> Vec<(manic_netsim::AsNumber, &'static str)> {
    use manic_scenario::worlds::us_asns::*;
    vec![
        (GOOGLE, "Google"),
        (TATA, "Tata"),
        (NTT, "NTT"),
        (XO, "XO"),
        (NETFLIX, "Netflix"),
        (LEVEL3, "Level3"),
        (VODAFONE, "Vodafone"),
        (TELIA, "Telia"),
        (ZAYO, "Zayo"),
    ]
}

/// Name of an AS in a world.
pub fn as_name(world: &World, asn: manic_netsim::AsNumber) -> String {
    world.graph.info(asn).name.clone()
}

/// A merged link counts as "inferred congested" with at least this many
/// congested day-links at the §6 4% bar.
pub const MIN_CONGESTED_DAYS: usize = 5;

/// Congested-pair verdicts scored against planted ground truth.
pub struct Counts {
    pub observed_pairs: usize,
    pub tp: usize,
    pub fp: usize,
    pub fn_: usize,
}

impl Counts {
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }
}

/// The AS pair a verdict is scored under: each end anchored at its
/// lowest-numbered sibling (so an org's ASes score as one), low end first.
/// Generated worlds have one org per AS, where this is the plain ASN pair.
pub fn pair_key(world: &World, a: AsNumber, b: AsNumber) -> (AsNumber, AsNumber) {
    let anchor = |asn| world.artifacts.siblings(asn).into_iter().min().unwrap_or(asn);
    let (a, b) = (anchor(a), anchor(b));
    (a.min(b), a.max(b))
}

/// Score merged links against the ground-truth set of congested AS pairs.
/// Predicted = pairs with at least [`MIN_CONGESTED_DAYS`] congested
/// day-links; recall is over ground-truth pairs the run observed at all, so
/// faults that erase a pair's visibility move it out of the denominator
/// (coverage loss shows in `observed_pairs`). `benchmark/`'s `study_fluid`
/// scores with its own copy of these rules; the two must agree.
pub fn score(world: &World, links: &[LinkDays], gt: &BTreeSet<(AsNumber, AsNumber)>) -> Counts {
    let mut observed = BTreeSet::new();
    let mut predicted = BTreeSet::new();
    for l in links {
        let p = pair_key(world, l.host_as, l.neighbor_as);
        if l.observed_days() > 0 {
            observed.insert(p);
        }
        if l.congested_days(0.04) >= MIN_CONGESTED_DAYS {
            predicted.insert(p);
        }
    }
    let tp = predicted.intersection(gt).count();
    let fp = predicted.len() - tp;
    let fn_ = gt.iter().filter(|p| observed.contains(*p) && !predicted.contains(*p)).count();
    Counts { observed_pairs: observed.len(), tp, fp, fn_ }
}

/// Write an experiment's text output under `results/`, plus a metrics
/// sidecar (`<name>.metrics.json`) snapshotting every counter, gauge, and
/// histogram the run touched — the experiment's observability record.
///
/// The save is announced through the journal (echoed to stderr at the
/// default Info level), not a bare eprintln, so `--quiet` harnesses and the
/// CI artifact both see it consistently.
pub fn save_result(name: &str, contents: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = if name.contains('.') {
        dir.join(name)
    } else {
        dir.join(format!("{name}.txt"))
    };
    let mut f = std::fs::File::create(&path).expect("create result file");
    f.write_all(contents.as_bytes()).expect("write result");
    let stem = name.split('.').next().unwrap_or(name);
    let sidecar = dir.join(format!("{stem}.metrics.json"));
    std::fs::write(&sidecar, manic_obs::registry().render_json())
        .expect("write metrics sidecar");
    manic_obs::event!(
        manic_obs::INFO, "bench", "result_saved", 0,
        path = path.display().to_string(),
        metrics = sidecar.display().to_string(),
    );
    path
}

pub mod experiments;
