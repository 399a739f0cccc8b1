//! End-to-end invariants for generated library worlds.
//!
//! Three claims the world generator must keep:
//!
//! 1. **Determinism is total.** The same `(name, seed)` pair yields the same
//!    fingerprint on every build, and the measurement engine lands a
//!    byte-identical store regardless of `--threads`.
//! 2. **Generated topologies are routable and valley-free.** The Gao-Rexford
//!    router the compiler installs (`manic_scenario::bgp::Routing`) finds a
//!    path from every VP AS to every focus AS, and every such path respects
//!    the customer/peer/provider export rules.
//! 3. **Planted ground truth is reachable.** In the compiled world's own
//!    routes, every VP's host AS reaches both sides of every interconnect
//!    the scenario library plants, so a scenario can never plant congestion
//!    the measurement layer is structurally unable to see.
//! 4. **Compile and install are pinned.** The world fingerprint hashes
//!    neither FIBs nor load models, so a digest of both holds the compiler's
//!    routes and the installed congestion amplitudes bit for bit.

use manic_core::{System, SystemConfig};
use manic_netsim::time::month_start;
use manic_netsim::topo::Direction;
use manic_scenario::bgp::{is_valley_free, Routing};
use manic_worldgen::build::focus_graph;
use manic_worldgen::fingerprint::Fnv;
use manic_worldgen::{
    build_world_full, compile_world, generate, scenario_library, WorldSpec, STUDY_MONTHS,
};
use proptest::prelude::*;

const SEED: u64 = 0xD1A5_0C44;

fn packet_hash(name: &str, threads: usize) -> (u64, u64) {
    let built = build_world_full(name, SEED).expect("library world builds");
    let fp = built.fingerprint;
    let mut sys = System::new(built.world, SystemConfig { threads, ..SystemConfig::default() });
    let from = month_start(STUDY_MONTHS.start);
    let rounds = sys.run_packet_mode(from, from + 6 * 3600);
    assert!(rounds > 0, "packet mode must run rounds");
    (fp, sys.store.content_hash())
}

#[test]
fn same_seed_identical_fingerprint_and_store_across_threads() {
    let (fp_serial, hash_serial) = packet_hash("sim-1k", 1);
    for threads in [2, 8] {
        let (fp, hash) = packet_hash("sim-1k", threads);
        assert_eq!(fp, fp_serial, "fingerprint must not depend on threads={threads}");
        assert_eq!(hash, hash_serial, "store must be byte-identical at threads={threads}");
    }
}

#[test]
fn different_seeds_diverge() {
    let a = build_world_full("sim-1k", 1).unwrap();
    let b = build_world_full("sim-1k", 2).unwrap();
    assert_ne!(a.fingerprint, b.fingerprint);
}

#[test]
fn every_vp_routes_to_every_planted_interconnect() {
    for key in ["steady", "flash", "maint", "shift"] {
        let mut built = compile_world("sim-1k", SEED).expect("sim-1k compiles");
        let scenario = scenario_library()
            .into_iter()
            .find(|s| s.key == key)
            .expect("library scenario");
        let planted = scenario.install(&mut built.world, SEED, STUDY_MONTHS);
        assert!(!planted.gt.is_empty(), "{key}: scenario must plant ground truth");

        // The routes the compiled FIBs follow, not a re-derivation: a
        // planted AS outside the compiled focus has no route at all.
        let world = &built.world;
        for vp in &world.vps {
            for &(a, b) in &planted.gt {
                for asn in [a, b] {
                    let path = world.routing.as_path(vp.asn, asn).unwrap_or_else(|| {
                        panic!("{key}: VP {} has no route to planted AS {asn}", vp.name)
                    });
                    assert!(
                        is_valley_free(&world.graph, &path),
                        "{key}: route from VP AS {} to {asn} has a valley: {path:?}",
                        vp.asn
                    );
                }
            }
        }
    }
}

/// `(FIB digest, load digest)` of a built world: every router's
/// `Fib::entries()` sorted by prefix, in router order, and every gt link's
/// `utilization(t).to_bits()` in both directions on a grid of instants that
/// spans idle months, episode months and every hour of the day.
fn compile_install_digest(name: &str) -> (u64, u64) {
    let world = build_world_full(name, SEED).expect("library world builds").world;
    let net = &world.net;
    let t0 = month_start(STUDY_MONTHS.start);
    let mut fib = Fnv::new();
    for r in &net.topo.routers {
        let mut entries: Vec<(u32, u8, Vec<u32>)> = net
            .fib(r.id, t0)
            .entries()
            .into_iter()
            .map(|e| {
                let hops = e.next_hops.iter().map(|i| i.0).collect();
                (e.prefix.addr().0, e.prefix.len(), hops)
            })
            .collect();
        entries.sort();
        fib.u32(r.id.0).u64(entries.len() as u64);
        for (addr, len, hops) in &entries {
            fib.u32(*addr).bytes(&[*len]).u64(hops.len() as u64);
            for &h in hops {
                fib.u32(h);
            }
        }
    }
    let mut load = Fnv::new();
    for gt in &world.gt_links {
        let link = net.topo.link(gt.link);
        for dir in [Direction::AtoB, Direction::BtoA] {
            let Some(model) = link.load(dir) else {
                load.bytes(&[0]);
                continue;
            };
            load.bytes(&[1]);
            for month in [0, 2, 3, 4, 5, 9, 16, 23, 26] {
                for day in [0, 12] {
                    for step in 0..16 {
                        let t = month_start(month) + day * 86_400 + step * 5_400 + 420;
                        load.u64(model.utilization(t).to_bits());
                    }
                }
            }
        }
    }
    (fib.finish(), load.finish())
}

#[test]
fn compiled_fibs_and_installed_loads_are_pinned() {
    for (name, want) in [("us", (0x0293_e84d_2b5e_dc0c_u64, 0x6344_bf56_2dd0_3c84_u64)), ("sim-1k", (0x83e9_2227_7308_d7f9, 0xe074_341e_dbd3_6929))] {
        assert_eq!(compile_install_digest(name), want, "{name}: (FIB digest, load digest)");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On generated planets of arbitrary seed and size, the compiler's
    /// router reaches every focus AS from every VP AS, valley-free.
    #[test]
    fn generated_routes_are_valley_free(
        seed in any::<u64>(),
        total in 300usize..900,
        vps in 4usize..12,
    ) {
        let spec = WorldSpec::planetary("prop", total, vps);
        let topo = generate(&spec, seed);
        let graph = focus_graph(&topo);
        let routing = Routing::compute(&graph);
        for &(vp_node, _) in &topo.vp_placements {
            let src = topo.graph.asn(vp_node);
            for dst in graph.ases() {
                let path = routing
                    .as_path(src, dst.asn)
                    .expect("generated planets are fully routable from VPs");
                prop_assert!(is_valley_free(&graph, &path), "valley in {path:?}");
            }
        }
    }
}
