//! `study_fluid`: planet-20k + `steady`, `run_longitudinal` over the 60-day
//! window `world_sweep` uses, `LongitudinalConfig::threads = 1`.
//!
//! Why: it is the path behind every §6 table and figure —
//! `TslpProber::synthesize_window`, the autocorrelation analysis and the
//! cross-VP merge. It bypasses per-packet forwarding, the store, the WAL
//! and serve entirely, and it is the only workload that scores verdicts
//! against planted ground truth.
//!
//! Set-up is compile + install + one `run_bdrmap_cycle` per VP; the timed
//! window is one whole study per block, with the cycles already done.

use super::{set_world_metrics, WindowProbe};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{drills, world, Abort, Options, Outcome};
use manic_core::{run_longitudinal, LinkDays, LongitudinalConfig};
use manic_netsim::time::SECS_PER_DAY;
use manic_netsim::AsNumber;
use manic_worldgen::scenarios::pair_key;
use std::collections::BTreeSet;

const STUDY_DAYS: i64 = 60;
/// `world_sweep`'s scoring rule and gates.
const MIN_CONGESTED_DAYS: usize = 5;
const DAY_LINK_BAR: f64 = 0.04;
const PRECISION_FLOOR: f64 = 0.95;
const RECALL_FLOOR: f64 = 0.90;

struct Score {
    tp: usize,
    fp: usize,
    fn_: usize,
}

impl Score {
    fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }
    fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }
}

/// Congested-pair verdicts against planted ground truth: predicted = pairs
/// at or above the day-link bar on enough days; recall is over planted
/// pairs the run observed at all.
fn score(links: &[LinkDays], gt: &BTreeSet<(AsNumber, AsNumber)>) -> Score {
    let (mut observed, mut predicted) = (BTreeSet::new(), BTreeSet::new());
    for l in links {
        let pair = pair_key(l.host_as, l.neighbor_as);
        if l.observed_days() > 0 {
            observed.insert(pair);
        }
        if l.congested_days(DAY_LINK_BAR) >= MIN_CONGESTED_DAYS {
            predicted.insert(pair);
        }
    }
    let tp = predicted.intersection(gt).count();
    Score {
        tp,
        fp: predicted.len() - tp,
        fn_: gt
            .iter()
            .filter(|p| observed.contains(*p) && !predicted.contains(*p))
            .count(),
    }
}

pub fn run(opts: &Options, tr: &mut Tracer) -> Result<Outcome, Abort> {
    let world_name = opts.world.as_deref().unwrap_or("planet-20k");
    let studies = opts.blocks();
    let mut out = Outcome::new();
    let from = world::study_start();
    let to = from + STUDY_DAYS * SECS_PER_DAY;

    // ---- set-up: world, system, one bdrmap cycle per VP
    let setup = tr.begin("setup", 0);
    let built = world::build(world_name, opts.seed, tr)?;
    set_world_metrics(&mut out, &built);
    let (mut sys, planted) = (built.sys, built.planted);
    let mut cycle_ms = Vec::with_capacity(sys.vps.len());
    for vi in 0..sys.vps.len() {
        cycle_ms.push(
            tr.time("bdrmap.cycle", vi as u64, || sys.run_bdrmap_cycle(vi, from))
                .1
                * 1e3,
        );
    }
    out.set("setup_s", tr.end(setup));

    // ---- timed window: whole studies
    let cfg = LongitudinalConfig {
        threads: 1,
        ..LongitudinalConfig::new(from, to)
    };
    let windows = manic_obs::registry().counter("manic_inference_autocorr_windows");
    let windows0 = windows.get();
    let probe = WindowProbe::open(tr);
    let window = tr.begin("window", 0);
    let mut study_ms = Vec::new();
    let mut scores = Vec::new();
    for i in 0..studies {
        let (links, secs) = tr.time("core.run_longitudinal", i, || {
            run_longitudinal(&mut sys, &cfg)
        });
        study_ms.push(secs * 1e3);
        scores.push(score(&links, &planted.gt));
    }
    let window_s = tr.end(window);
    probe.close(tr, &mut out, (studies * STUDY_DAYS as u64) as f64, window_s);

    // ---- end-to-end
    out.set(
        "work_per_s",
        (studies * STUDY_DAYS as u64) as f64 / window_s,
    );
    out.set("op_p50_ms", median(&study_ms));
    out.attempted = studies;
    let windows_per_study = (windows.get() - windows0) / studies;
    out.note(format!(
        "{studies} x {STUDY_DAYS}-day study, {windows_per_study} autocorrelation windows each"
    ));

    // ---- output checks: every study scores at or above world_sweep's gates
    for (i, s) in scores.iter().enumerate() {
        let ok = s.precision() >= PRECISION_FLOOR && s.recall() >= RECALL_FLOOR && s.tp > 0;
        out.failed += !ok as u64;
        out.check(
            "verdicts vs planted ground truth",
            ok,
            format!(
                "study {i}: tp {} fp {} fn {} of {} planted, precision {:.4} recall {:.4}",
                s.tp,
                s.fp,
                s.fn_,
                planted.gt.len(),
                s.precision(),
                s.recall()
            ),
        );
    }
    out.check(
        "no store writes",
        sys.store.point_count() == 0,
        sys.store.point_count(),
    );

    if tr.on() {
        out.set("inference.precision", scores[0].precision());
        out.set("inference.recall", scores[0].recall());
        out.set("bdrmap.first_cycle_s", cycle_ms.iter().sum::<f64>() / 1e3);
        out.set("bdrmap.cycle_ms_per_vp_p50", median(&cycle_ms));
        out.set(
            "bdrmap.links_inferred",
            sys.vps.iter().map(|v| v.tslp.tasks.len()).sum::<usize>() as f64,
        );
        let (synth_s, bins) = drills::synth(&sys, from, to, tr);
        out.set("probing.synth_s", synth_s);
        out.set("probing.synth_bins", bins as f64);
        // Synthesis is nearly the whole study, so "study minus synthesis"
        // is the difference of two noisy numbers and can come out negative;
        // the analysis is priced instead as its window count times the
        // drill's median window.
        let window_us = drills::autocorr(&sys, from, tr);
        out.set("inference.autocorr_us_per_window", window_us);
        out.set(
            "inference.autocorr_s",
            windows_per_study as f64 * window_us / 1e6,
        );
    }
    Ok(out)
}
