//! World sweep: per-world accuracy gates over the generated world library.
//!
//! For each library world this sweep (a) builds it twice and hard-fails on
//! fingerprint divergence, (b) checks the planetary structural floors,
//! (c) runs six packet-mode hours at threads=1 and threads=N and hard-fails
//! unless both land the same store hash, and (d) runs the full longitudinal
//! pipeline over every scenario in the library, scoring congested-pair
//! verdicts against the planted ground truth. Gates: precision >= 0.95 and
//! recall >= 0.90 per scenario.
//!
//! Results go to `results/world_sweep.txt` (+ metrics sidecar). Any gate
//! failure exits non-zero, so CI can consume this directly.
//!
//! Default: the `sim-5k` world (CI smoke scale: 5,000 ASes, 32 VPs).
//! `WORLD_WORLDS=a,b` overrides the world list, e.g.
//! `WORLD_WORLDS=sim-5k,planet-20k` (200 VPs — minutes). The committed
//! `results/world_sweep.txt` is that two-world run, so a default run
//! rewrites it with the sim-5k section alone.

use manic_analysis::render::text_table;
use manic_bench::{score, Counts};
use manic_core::{run_longitudinal, LongitudinalConfig, System, SystemConfig};
use manic_netsim::time::{month_start, SECS_PER_DAY};
use manic_scenario::World;
use manic_worldgen::{compile_world, scenario_library, BuiltWorld, STUDY_MONTHS};
use std::fmt::Write as _;

const PRECISION_FLOOR: f64 = 0.95;
const RECALL_FLOOR: f64 = 0.90;

struct ScenarioResult {
    key: &'static str,
    counts: Counts,
}

struct WorldReport {
    name: String,
    built: BuiltWorld,
    rebuild_fingerprint: u64,
    thread_hashes: (u64, u64),
    scenarios: Vec<ScenarioResult>,
}

fn study_bounds() -> (i64, i64) {
    let from = month_start(STUDY_MONTHS.start);
    (from, from + 60 * SECS_PER_DAY)
}

/// Six simulated hours of the packet-mode round engine at `threads`
/// workers; returns the store content hash.
fn store_hash(world: World, threads: usize) -> u64 {
    let mut sys = System::new(world, SystemConfig { threads, ..SystemConfig::default() });
    let (from, _) = study_bounds();
    sys.run_packet_mode(from, from + 6 * 3600);
    sys.store.content_hash()
}

fn sweep_world(name: &str, failures: &mut Vec<String>) -> WorldReport {
    let seed = manic_bench::SEED;
    let built = compile_world(name, seed).expect("library world compiles");

    // Determinism gate: an independent rebuild must fingerprint identically.
    let rebuild = compile_world(name, seed).expect("library world compiles");
    if rebuild.fingerprint != built.fingerprint {
        failures.push(format!(
            "{name}: fingerprint diverged across rebuilds ({:016x} vs {:016x})",
            built.fingerprint, rebuild.fingerprint
        ));
    }

    // Structural floors for the planetary tier.
    if name.starts_with("planet") {
        let st = &built.stats;
        if st.total_ases < 20_000 || st.vps < 200 || st.interconnects < 5_000 {
            failures.push(format!(
                "{name}: structural floor violated (ases {}, vps {}, interconnects {})",
                st.total_ases, st.vps, st.interconnects
            ));
        }
    }

    // Cross-thread determinism gate: the same six simulated hours at 1
    // worker and N workers must land the byte-identical store.
    let steady_world = |key: &str| -> World {
        let mut b = compile_world(name, seed).expect("library world compiles");
        let scenario = scenario_library()
            .into_iter()
            .find(|s| s.key == key)
            .expect("library scenario");
        scenario.install(&mut b.world, seed, STUDY_MONTHS);
        b.world
    };
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let hash_1 = store_hash(steady_world("steady"), 1);
    let hash_n = store_hash(steady_world("steady"), threads);
    if hash_1 != hash_n {
        failures.push(format!(
            "{name}: store hash diverged across thread counts (1: {hash_1:016x}, \
             {threads}: {hash_n:016x})"
        ));
    }

    // Accuracy per library scenario.
    let (from, to) = study_bounds();
    let mut scenarios = Vec::new();
    for scenario in scenario_library() {
        let mut b = compile_world(name, seed).expect("library world compiles");
        let planted = scenario.install(&mut b.world, seed, STUDY_MONTHS);
        let mut sys = System::new(b.world, SystemConfig::default());
        let cfg = LongitudinalConfig::new(from, to);
        let links = run_longitudinal(&mut sys, &cfg);
        let counts = score(&sys.world, &links, &planted.gt);
        if counts.precision() < PRECISION_FLOOR {
            failures.push(format!(
                "{name}/{}: precision {:.3} below {PRECISION_FLOOR}",
                scenario.key,
                counts.precision()
            ));
        }
        if counts.recall() < RECALL_FLOOR {
            failures.push(format!(
                "{name}/{}: recall {:.3} below {RECALL_FLOOR}",
                scenario.key,
                counts.recall()
            ));
        }
        manic_obs::event!(
            manic_obs::INFO, "bench", "world_sweep_point", to,
            world = name.to_string(),
            scenario = scenario.key,
            observed_pairs = counts.observed_pairs,
            tp = counts.tp,
            fp = counts.fp,
            false_negatives = counts.fn_,
        );
        scenarios.push(ScenarioResult { key: scenario.key, counts });
    }

    WorldReport {
        name: name.to_string(),
        built,
        rebuild_fingerprint: rebuild.fingerprint,
        thread_hashes: (hash_1, hash_n),
        scenarios,
    }
}

fn main() {
    let worlds: Vec<String> = match std::env::var("WORLD_WORLDS") {
        Ok(list) => list.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect(),
        Err(_) => vec!["sim-5k".to_string()],
    };

    let mut failures: Vec<String> = Vec::new();
    let mut reports = Vec::new();
    for name in &worlds {
        reports.push(sweep_world(name, &mut failures));
    }

    let mut out = String::from(
        "World sweep — planted-ground-truth accuracy over the generated world library\n\
         (60-day studies; gates: precision >= 0.95, recall >= 0.90, identical\n\
         fingerprints across rebuilds, identical stores across thread counts)\n\n",
    );
    let mut table = vec![vec![
        "World".to_string(),
        "Scenario".to_string(),
        "Obs. pairs".to_string(),
        "TP".to_string(),
        "FP".to_string(),
        "FN".to_string(),
        "Precision".to_string(),
        "Recall".to_string(),
    ]];
    for r in &reports {
        for s in &r.scenarios {
            table.push(vec![
                r.name.clone(),
                s.key.to_string(),
                s.counts.observed_pairs.to_string(),
                s.counts.tp.to_string(),
                s.counts.fp.to_string(),
                s.counts.fn_.to_string(),
                format!("{:.2}", s.counts.precision()),
                format!("{:.2}", s.counts.recall()),
            ]);
        }
    }
    out.push_str(&text_table(&table));
    for r in &reports {
        let st = &r.built.stats;
        let _ = writeln!(
            out,
            "\n{}: {} ASes ({} compiled), {} interconnects, {} VPs, \
             fingerprint {:016x} (rebuild {:016x}), thread hashes {:016x}/{:016x}",
            r.name,
            st.total_ases,
            st.focus_ases,
            st.interconnects,
            st.vps,
            r.built.fingerprint,
            r.rebuild_fingerprint,
            r.thread_hashes.0,
            r.thread_hashes.1,
        );
    }
    if failures.is_empty() {
        out.push_str("\nAll gates passed.\n");
    } else {
        out.push_str("\nGATE FAILURES:\n");
        for f in &failures {
            let _ = writeln!(out, "  {f}");
        }
    }

    println!("{out}");
    manic_bench::save_result("world_sweep", &out);

    if !failures.is_empty() {
        std::process::exit(1);
    }
}
