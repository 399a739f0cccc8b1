//! Building runnable worlds: the library resolver and the focus compiler.
//!
//! The pipeline for a generated world is
//!
//! ```text
//! (name, seed) -> WorldSpec -> Topology (AsGraph of the full planet)
//!              -> focus subgraph (~190 ASes) -> scenario::compile()
//!              -> World (+ default steady congestion)
//! ```
//!
//! Only the *focus universe* gets router-level compilation and routes (the
//! compiled world's `Routing`, which its FIBs follow); the far stub tail
//! lives in the universe graph alone, where the stats and fingerprints
//! still count it. Classic worlds ("toy", "us")
//! resolve through the same front door, so every consumer — CLI, serve,
//! checkpoints, benches — accepts generated names wherever it accepted the
//! hand-built ones.

use crate::fingerprint::{combine, topology_fingerprint, world_fingerprint};
use crate::gen::{generate, tier, Topology, WorldSpec, TIERS};
use crate::scenarios;
use manic_netsim::AsNumber;
use manic_scenario::asgraph::AsKind;
use manic_scenario::{compile, CompileConfig, CompileError, World};
use std::ops::Range;

/// Study months (indices since Jan 2016) used by default scenario installs
/// and by the world sweep: a 60-day window starting in April 2016.
pub const STUDY_MONTHS: Range<u32> = 3..5;

/// Errors resolving or building a world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorldError {
    /// Not a library name.
    Unknown { name: String, known: Vec<&'static str> },
    Compile(CompileError),
}

impl std::fmt::Display for WorldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorldError::Unknown { name, known } => {
                write!(f, "unknown world '{name}' (library: {})", known.join(", "))
            }
            WorldError::Compile(e) => write!(f, "world failed to compile: {e}"),
        }
    }
}

impl std::error::Error for WorldError {}

impl From<CompileError> for WorldError {
    fn from(e: CompileError) -> Self {
        WorldError::Compile(e)
    }
}

/// Every world name the library resolves.
pub fn library_names() -> Vec<&'static str> {
    vec!["toy", "us", "sim-1k", "sim-5k", "planet-20k", "planet-50k"]
}

/// The generator spec behind a library name, if it is a generated world.
pub fn spec_for(name: &str) -> Option<WorldSpec> {
    match name {
        "sim-1k" => Some(WorldSpec::planetary(name, 1_000, 16)),
        "sim-5k" => Some(WorldSpec::planetary(name, 5_000, 32)),
        "planet-20k" => Some(WorldSpec::planetary(name, 20_000, 200)),
        "planet-50k" => Some(WorldSpec::planetary(name, 50_000, 240)),
        _ => None,
    }
}

/// Headline numbers of a built world, for `manic world --stats` and the
/// sweep's structural gates.
#[derive(Debug, Clone)]
pub struct WorldStats {
    /// ASes in the full universe.
    pub total_ases: usize,
    /// Undirected AS-level adjacencies in the full universe.
    pub as_adjacencies: usize,
    /// ASes compiled to router level.
    pub focus_ases: usize,
    /// IP-level interdomain links (ground-truth roster).
    pub interconnects: usize,
    pub vps: usize,
    /// `(tier label, count)` over the full universe.
    pub tiers: Vec<(&'static str, usize)>,
    /// Heap bytes of the universe graph (0 for classic worlds).
    pub graph_mem_bytes: usize,
}

/// A resolved library world plus its provenance.
pub struct BuiltWorld {
    pub name: String,
    pub seed: u64,
    pub world: World,
    /// Determinism fingerprint (topology digest folded with the compiled
    /// ground-truth/VP roster digest).
    pub fingerprint: u64,
    pub stats: WorldStats,
}

/// Compile a generated topology's focus universe to a router-level world.
/// No congestion is installed — the scenario library does that.
pub fn compile_focus(topo: Topology, seed: u64) -> Result<World, CompileError> {
    let Topology { graph, focus, vp_placements, ixp_pairs, .. } = topo;
    let focus = graph.subgraph(&focus);
    // Nothing reads the universe past the cut, so the compile does not hold it.
    drop(graph);
    let vps: Vec<(AsNumber, &str)> =
        vp_placements.iter().map(|&(asn, metro)| (asn, metro.code())).collect();
    let cfg = CompileConfig { seed, ..CompileConfig::default() };
    compile::compile(focus, &vps, &ixp_pairs, &cfg)
}

fn classic_stats(world: &World) -> WorldStats {
    let mut tiers: Vec<(&'static str, usize)> = Vec::new();
    for info in world.graph.ases() {
        let label = match info.kind {
            AsKind::Transit => "transit",
            AsKind::Content => "content",
            AsKind::AccessIsp => "access",
            AsKind::Stub => "stub",
            AsKind::Ixp => "ixp",
        };
        match tiers.iter_mut().find(|(l, _)| *l == label) {
            Some((_, c)) => *c += 1,
            None => tiers.push((label, 1)),
        }
    }
    tiers.sort();
    WorldStats {
        total_ases: world.graph.len(),
        as_adjacencies: world.graph.adjacencies().count(),
        focus_ases: world.graph.len(),
        interconnects: world.gt_links.len(),
        vps: world.vps.len(),
        tiers,
        graph_mem_bytes: 0,
    }
}

/// The universe's share of a generated world's stats; the compiled world
/// fills in `interconnects` and `vps`.
fn universe_stats(topo: &Topology) -> WorldStats {
    let mut tiers: Vec<(&'static str, usize)> = TIERS.iter().map(|&t| (t, 0)).collect();
    for info in topo.graph.ases() {
        tiers[tier(info.asn)].1 += 1;
    }
    WorldStats {
        total_ases: topo.graph.len(),
        as_adjacencies: topo.graph.adjacencies().count(),
        focus_ases: topo.focus.len(),
        interconnects: 0,
        vps: 0,
        tiers,
        graph_mem_bytes: topo.graph.mem_bytes(),
    }
}

/// Resolve a library name to a compiled world **without** congestion
/// installed on generated worlds. Classic worlds arrive as their hand-built
/// selves (which include their scripted congestion).
pub fn compile_world(name: &str, seed: u64) -> Result<BuiltWorld, WorldError> {
    match name {
        "toy" => {
            let world = manic_scenario::worlds::toy(seed);
            let fp = combine(None, world_fingerprint(&world));
            let stats = classic_stats(&world);
            Ok(BuiltWorld { name: name.into(), seed, world, fingerprint: fp, stats })
        }
        "us" => {
            let world = manic_scenario::worlds::us_broadband(seed);
            let fp = combine(None, world_fingerprint(&world));
            let stats = classic_stats(&world);
            Ok(BuiltWorld { name: name.into(), seed, world, fingerprint: fp, stats })
        }
        other => {
            let Some(spec) = spec_for(other) else {
                return Err(WorldError::Unknown {
                    name: other.to_string(),
                    known: library_names(),
                });
            };
            let topo = generate(&spec, seed);
            let topo_fp = topology_fingerprint(&topo);
            let universe = universe_stats(&topo);
            let world = compile_focus(topo, seed)?;
            let fp = combine(Some(topo_fp), world_fingerprint(&world));
            let stats =
                WorldStats { interconnects: world.gt_links.len(), vps: world.vps.len(), ..universe };
            Ok(BuiltWorld { name: other.to_string(), seed, world, fingerprint: fp, stats })
        }
    }
}

/// Resolve a library name to a runnable world. Generated worlds get the
/// steady-mix scenario installed so `run`/`serve` observe congestion out of
/// the box; classic worlds are returned as-is.
pub fn build_world_full(name: &str, seed: u64) -> Result<BuiltWorld, WorldError> {
    let mut built = compile_world(name, seed)?;
    if spec_for(name).is_some() {
        let steady = scenarios::library()[0];
        debug_assert_eq!(steady.key, "steady");
        steady.install(&mut built.world, seed, STUDY_MONTHS);
    }
    Ok(built)
}

/// [`build_world_full`], discarding provenance — the drop-in replacement for
/// the old per-crate `match name { "toy" | "us" }` resolvers.
pub fn build_world(name: &str, seed: u64) -> Result<World, WorldError> {
    Ok(build_world_full(name, seed)?.world)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_names_still_resolve() {
        let toy = build_world_full("toy", 1).unwrap();
        assert_eq!(toy.stats.graph_mem_bytes, 0, "a classic world has no universe");
        assert!(toy.stats.interconnects > 0);
        assert!(toy.fingerprint != 0);
        let Err(err) = build_world("nope", 1) else { panic!("unknown world must fail") };
        let err = err.to_string();
        assert!(err.contains("sim-5k"), "error should list the library: {err}");
    }

    #[test]
    fn generated_world_compiles_and_matches_plan() {
        let b = build_world_full("sim-1k", 5).unwrap();
        let stats = &b.stats;
        assert_eq!(stats.total_ases, 1_000);
        assert!(stats.focus_ases <= 190);
        assert!(stats.interconnects > 100, "got {}", stats.interconnects);
        assert_eq!(stats.vps, 16);
        assert_eq!(b.world.vps.len(), 16);
        // VP names follow the {isp}-{pop} convention and are unique.
        let mut names: Vec<&str> = b.world.vps.iter().map(|v| v.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16);
    }

    #[test]
    fn same_seed_same_fingerprint_different_seed_differs() {
        let a = build_world_full("sim-1k", 9).unwrap();
        let b = build_world_full("sim-1k", 9).unwrap();
        let c = build_world_full("sim-1k", 10).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_ne!(a.fingerprint, c.fingerprint);
    }

    #[test]
    fn steady_install_gives_generated_worlds_load() {
        let b = build_world_full("sim-1k", 5).unwrap();
        let loaded = b
            .world
            .gt_links
            .iter()
            .filter(|gt| {
                let link = b.world.net.topo.link(gt.link);
                link.load_ab.is_some() || link.load_ba.is_some()
            })
            .count();
        assert_eq!(loaded, b.world.gt_links.len(), "every gt link carries a load model");
    }
}
