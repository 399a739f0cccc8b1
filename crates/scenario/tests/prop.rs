//! Property-based tests: routing policy and world-compilation invariants on
//! randomized AS graphs.

use manic_netsim::AsNumber;
use manic_scenario::asgraph::{AsGraph, AsInfo, AsKind};
use manic_scenario::bgp::{is_valley_free, Routing};
use manic_scenario::compile::{compile, CompileConfig};
use proptest::prelude::*;

/// Build a random but well-formed AS graph: a tier-1 clique, mid-tier ASes
/// buying from tier-1s, and stubs buying from mid-tiers, plus random
/// peerings. Always connected through the clique.
fn arb_graph() -> impl Strategy<Value = AsGraph> {
    (
        2usize..4,                                  // tier-1s
        1usize..5,                                  // mids
        0usize..5,                                  // stubs
        prop::collection::vec((any::<u8>(), any::<u8>()), 0..8), // peering picks
    )
        .prop_map(|(n1, n2, n3, peers)| {
            let pops = ["nyc", "chi", "lax", "dfw"];
            let mut g = AsGraph::new();
            let mk = |n: u32, kind| AsInfo {
                asn: AsNumber(n),
                name: format!("as{n}"),
                kind,
                org: format!("org{n}"),
                pops: vec![pops[(n as usize) % pops.len()].to_string(), "nyc".to_string()]
                    .into_iter()
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .collect(),
            };
            let t1: Vec<u32> = (0..n1 as u32).map(|i| 100 + i).collect();
            let mid: Vec<u32> = (0..n2 as u32).map(|i| 200 + i).collect();
            let stub: Vec<u32> = (0..n3 as u32).map(|i| 300 + i).collect();
            for &a in &t1 {
                g.add_as(mk(a, AsKind::Transit));
            }
            for &a in &mid {
                g.add_as(mk(a, AsKind::AccessIsp));
            }
            for &a in &stub {
                g.add_as(mk(a, AsKind::Stub));
            }
            for i in 0..t1.len() {
                for j in i + 1..t1.len() {
                    g.add_p2p(AsNumber(t1[i]), AsNumber(t1[j]));
                }
            }
            for (i, &m) in mid.iter().enumerate() {
                g.add_c2p(AsNumber(m), AsNumber(t1[i % t1.len()]));
            }
            for (i, &s) in stub.iter().enumerate() {
                g.add_c2p(AsNumber(s), AsNumber(mid[i % mid.len()]));
            }
            // Random extra peerings among mids/stubs.
            let lower: Vec<u32> = mid.iter().chain(&stub).copied().collect();
            for (x, y) in peers {
                if lower.len() < 2 {
                    break;
                }
                let a = lower[x as usize % lower.len()];
                let b = lower[y as usize % lower.len()];
                if a != b && !g.adjacent(AsNumber(a), AsNumber(b)) {
                    g.add_p2p(AsNumber(a), AsNumber(b));
                }
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every computed AS path obeys the valley-free export rules.
    #[test]
    fn routing_is_always_valley_free(g in arb_graph()) {
        let routing = Routing::compute(&g);
        let ases: Vec<AsNumber> = g.ases().map(|i| i.asn).collect();
        for &src in &ases {
            for &dst in &ases {
                if src == dst {
                    continue;
                }
                if let Some(path) = routing.as_path(src, dst) {
                    prop_assert!(is_valley_free(&g, &path), "valley in {path:?}");
                    prop_assert!(path.len() <= ases.len(), "no loops");
                }
            }
        }
    }

    /// Everything is reachable through the tier-1 clique in these graphs.
    #[test]
    fn clique_worlds_fully_connected(g in arb_graph()) {
        let routing = Routing::compute(&g);
        let ases: Vec<AsNumber> = g.ases().map(|i| i.asn).collect();
        for &src in &ases {
            for &dst in &ases {
                prop_assert!(routing.route(src, dst).is_some(), "{src} cannot reach {dst}");
            }
        }
    }

    /// Compiled worlds route every host prefix end to end: a probe from any
    /// VP toward any AS's host space terminates at that AS's host router.
    #[test]
    fn compiled_worlds_route_host_space(g in arb_graph(), seed in 0u64..1000) {
        // Place one VP in the first access ISP (if any).
        let vp_as = g.ases().find(|i| i.kind == AsKind::AccessIsp).map(|i| (i.asn, i.pops[0].clone()));
        let Some((vp_asn, vp_pop)) = vp_as else { return Ok(()) };
        let cfg = CompileConfig { seed, parallel_link_prob: 0.0, ..Default::default() };
        let placements = [(vp_asn, vp_pop.as_str())];
        let world = compile(g, &placements, &[], &cfg).expect("generated graph compiles");
        let vp = &world.vps[0];
        for info in world.graph.ases() {
            let dst = world.host_addr(info.asn, 1);
            let walk = world.net.forward_path(vp.router, dst, 9, 0);
            let last = walk.last().map(|h| h.router);
            if info.asn == vp_asn {
                // Own host space still resolves (possibly zero-hop via bb).
                prop_assert!(walk.is_empty() || last.is_some());
                continue;
            }
            prop_assert_eq!(
                last,
                Some(world.host_routers[&info.asn]),
                "probe from {} to {} must reach {}'s host router",
                vp.name,
                dst,
                info.name
            );
            // And the reply routes back.
            let back = world.net.forward_path(world.host_routers[&info.asn], vp.addr, 9, 0);
            prop_assert_eq!(back.last().map(|h| h.router), Some(vp.router));
        }
    }

    /// TSLP's §7 symmetry property holds structurally in compiled worlds:
    /// the reply to a far-end probe crosses the same interdomain link the
    /// probe expired on.
    #[test]
    fn far_end_replies_cross_the_probed_link(g in arb_graph(), seed in 0u64..1000) {
        let vp_as = g.ases().find(|i| i.kind == AsKind::AccessIsp).map(|i| (i.asn, i.pops[0].clone()));
        let Some((vp_asn, vp_pop)) = vp_as else { return Ok(()) };
        let cfg = CompileConfig { seed, parallel_link_prob: 0.0, ..Default::default() };
        let placements = [(vp_asn, vp_pop.as_str())];
        let world = compile(g, &placements, &[], &cfg).expect("generated graph compiles");
        let vp = &world.vps[0];
        let handle = manic_probing::VpHandle {
            name: vp.name.clone(),
            router: vp.router,
            addr: vp.addr,
        };
        for gt in world.links_of(vp_asn) {
            let far = gt.far_addr_from(vp_asn);
            // Find a destination whose path crosses this link.
            for info in world.graph.ases() {
                let dst = world.host_addr(info.asn, 1);
                let walk = world.net.forward_path(vp.router, dst, 9, 0);
                let Some(pos) = walk.iter().position(|h| h.ingress_addr == far) else { continue };
                let pp = manic_probing::probe_path(&world.net, &handle, dst, (pos + 1) as u8, 9, 0);
                if let Some(pp) = pp {
                    prop_assert!(
                        pp.route.reply.iter().any(|&(l, _)| l == gt.link),
                        "far-end reply must ride the probed link"
                    );
                }
                break;
            }
        }
    }
}
