//! Building the measured system, and the places benchmark files live.
//!
//! The *topology* is always the library world at [`TOPO_SEED`] — the one
//! whose fingerprint `BENCH_world_scale.json` records — because rounds/s on
//! a planetary world moves by a factor of two between topologies and no
//! regression bound survives that. `--seed` drives everything stochastic on
//! top of it: which interconnects the scenario congests, the simulator's
//! noise streams, and the clients' request sequences.

use crate::trace::Tracer;
use crate::Abort;
use manic_core::{System, SystemConfig};
use manic_netsim::time::{month_start, SimTime};
use manic_worldgen::{compile_world, scenario_library, Planted, WorldStats, STUDY_MONTHS};
use std::path::{Path, PathBuf};

/// `manic_bench::SEED`: the seed of every headline experiment.
pub const TOPO_SEED: u64 = 0x5167_C044;

/// Fingerprints of the library worlds at [`TOPO_SEED`], as recorded in
/// `BENCH_world_scale.json`.
const KNOWN_FINGERPRINTS: &[(&str, u64)] = &[
    ("sim-5k", 0xc699_3853_77a7_4c43),
    ("planet-20k", 0x3640_f231_42cf_2223),
];

/// Where the 60-day study window of the scenario library opens.
pub fn study_start() -> SimTime {
    month_start(STUDY_MONTHS.start)
}

/// `benchmark/out/`: traces and temp data dirs (git-ignored). Found from the
/// working directory when that is a checkout's root (how `BENCHMARK.json`'s
/// command runs), so a binary built in one checkout never writes into
/// another; otherwise beside this package's sources.
pub fn out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").is_file() {
        return PathBuf::from("benchmark/out");
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub struct Built {
    pub sys: System,
    /// Ground truth the scenario planted.
    pub planted: Planted,
    pub stats: WorldStats,
    pub fingerprint: u64,
    pub compile_s: f64,
    pub install_s: f64,
}

/// Compile `world`, install the `steady` scenario from `seed`, reseed the
/// simulator's noise, and wrap it in a single-threaded [`System`] labelled
/// like the CLI's. With `seed == TOPO_SEED` this is exactly
/// `manic_worldgen::build_world_full(world, TOPO_SEED)`, which is what a
/// resumed process rebuilds from its checkpoint.
pub fn build(world: &str, seed: u64, tr: &mut Tracer) -> Result<Built, Abort> {
    let (built, compile_s) = tr.time("worldgen.compile", 0, || compile_world(world, TOPO_SEED));
    let mut built = built.map_err(|e| Abort::setup(format!("world '{world}': {e}")))?;
    if let Some(&(_, want)) = KNOWN_FINGERPRINTS.iter().find(|(n, _)| *n == world) {
        if built.fingerprint != want {
            return Err(Abort::setup(format!(
                "world '{world}' fingerprint {:016x} != recorded {want:016x}",
                built.fingerprint
            )));
        }
    }
    let steady = scenario_library()[0];
    assert_eq!(steady.key, "steady");
    let (planted, install_s) = tr.time("scenario.install", 0, || {
        steady.install(&mut built.world, seed, STUDY_MONTHS)
    });
    built.world.net.seed = seed;
    // threads = 1 everywhere: the box has two shared cores, and more
    // runnable threads than cores would measure the scheduler.
    let mut sys = System::new(
        built.world,
        SystemConfig {
            threads: 1,
            ..SystemConfig::default()
        },
    );
    sys.set_world_label(&built.name, built.fingerprint);
    Ok(Built {
        sys,
        planted,
        stats: built.stats,
        fingerprint: built.fingerprint,
        compile_s,
        install_s,
    })
}
