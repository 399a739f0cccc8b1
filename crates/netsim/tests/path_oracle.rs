//! The properties that hold `Network::send_probe` and
//! `Network::probe_route_into` to the hop-by-hop reference in
//! `support/path_reference.rs`.
//!
//! The root package includes this file from `tests/path_oracle.rs`, so the
//! tier-1 command runs these properties too.

#[path = "support/path_reference.rs"]
mod path_reference;

pub use path_reference::*;

use manic_netsim::{
    AsNumber, Fib, IcmpProfile, Ipv4, LinkKind, Network, Prefix, ProbeRoute, ProbeSpec,
    QueueModel, RouterId, SimState, Topology,
};
use proptest::prelude::*;

/// Paths right at the 64-hop guard: a destination 63 hops out answers, one
/// exactly 64 hops out is never tested for termination and counts as a
/// forwarding loop, and a time-exceeded can still come from hop 64.
#[test]
fn sixty_four_hop_guard_matches_reference() {
    let mut topo = Topology::new();
    let n = 67;
    for i in 0..n {
        topo.add_router(AsNumber(1), format!("r{i}"), "nyc", 0, IcmpProfile::default());
    }
    let mut fibs = vec![Fib::new(); n];
    let out = Prefix::new(Ipv4::new(10, 9, 0, 0), 16);
    let back = Prefix::new(Ipv4::new(10, 1, 0, 0), 16);
    for i in 0..n - 1 {
        let a = topo.add_iface(RouterId(i as u32), Ipv4::new(10, 1, i as u8, 1));
        let b = topo.add_iface(RouterId(i as u32 + 1), Ipv4::new(10, 1, i as u8, 2));
        topo.connect(a, b, LinkKind::Internal, 0.1, 1000.0, QueueModel::default(), None, None);
        fibs[i].insert(out, vec![a]);
        fibs[i + 1].insert(back, vec![b]);
    }
    for hops in [63u8, 64, 65] {
        topo.add_host_prefix(Prefix::new(Ipv4::new(10, 9, hops, 0), 24), RouterId(hops as u32));
    }
    let net = Network::new(topo, fibs, 11);
    let src_addr = Ipv4::new(10, 1, 0, 1);
    let mut probes = Vec::new();
    for hops in [63u8, 64, 65] {
        for ttl in [62u8, 63, 64, 65, 70] {
            let dst = Ipv4::new(10, 9, hops, 7);
            probes.push((ProbeSpec { src: RouterId(0), src_addr, dst, ttl, flow_id: 5 }, START));
        }
    }
    assert_matches_reference(&net, &probes).unwrap();
    // Make sure the sequence saw both sides of the guard.
    let mut st = SimState::new();
    let answered = |st: &mut SimState, hops: u8, ttl: u8| {
        let dst = Ipv4::new(10, 9, hops, 7);
        let spec = ProbeSpec { src: RouterId(0), src_addr, dst, ttl, flow_id: 5 };
        net.send_probe(st, spec, START).rtt().is_some()
    };
    assert!(answered(&mut st, 63, 70), "63 hops out: echo reply");
    assert!(!answered(&mut st, 64, 70), "64 hops out: the guard trips first");
}

proptest! {
    /// Resolve-once-and-replay returns the reference's `ProbeStatus` bit for
    /// bit and leaves `SimState::export()` identical after every probe.
    #[test]
    fn send_probe_matches_hop_by_hop_reference(
        seed in any::<u64>(),
        routers in 4usize..10,
        chaos in 0u8..3,
    ) {
        let world = random_world(seed, routers, chaos as f64 * 0.5);
        let probes = random_probes(&world, &mut Rng(seed ^ 0x9E0B), 120);
        prop_assert!(probes.last().is_some_and(|&(_, t)| t >= EPOCH), "sequence must cross the epoch");
        if let Err(why) = assert_matches_reference(&world.net, &probes) {
            prop_assert!(false, "{}", why);
        }
    }

    /// `probe_route_into` reads the route of the reference's walk — forward links,
    /// responder, answering address, reply links — and is `None` exactly
    /// where the reference finds no answer. It never draws: interleaved with
    /// `send_probe` on one state, the state still matches the reference's.
    #[test]
    fn probe_route_matches_hop_by_hop_reference(
        seed in any::<u64>(),
        routers in 4usize..10,
        chaos in 0u8..3,
    ) {
        let world = random_world(seed, routers, chaos as f64 * 0.5);
        let probes = random_probes(&world, &mut Rng(seed ^ 0x20E7), 120);
        let (mut sim, mut reference) = (SimState::new(), RefState::default());
        for (i, &(spec, t)) in probes.iter().enumerate() {
            let before = sim.export();
            let mut route = ProbeRoute::default();
            let got = world.net.probe_route_into(&mut sim, spec, t, &mut route).then_some(route);
            prop_assert_eq!(sim.export(), before, "probe {}: probe_route_into drew", i);
            let got = got.map(|r| RefRoute {
                forward: r.forward,
                responder: r.responder,
                responder_addr: r.responder_addr,
                reply: r.reply,
            });
            let want = ref_probe_route(&world.net, spec, t);
            prop_assert_eq!(got, want, "probe {} {:?} at {}", i, spec, t);
            let sent = world.net.send_probe(&mut sim, spec, t);
            let want = ref_send_probe(&world.net, &mut reference, spec, t);
            prop_assert_eq!(status_bits(sent), status_bits(want), "probe {} at {}", i, t);
            prop_assert_eq!(sim.export(), reference.export());
        }
    }

    /// The per-router host-prefix index answers `terminates` exactly like a
    /// scan of everything registered.
    #[test]
    fn terminates_matches_linear_scan(
        prefixes in prop::collection::vec((any::<u32>(), 8u8..=32, 0u32..6), 0..24),
        ifaces in prop::collection::vec((any::<u32>(), 0u32..6), 0..12),
        queries in prop::collection::vec(any::<u32>(), 1..32),
    ) {
        let mut topo = Topology::new();
        for i in 0..6 {
            topo.add_router(AsNumber(1), format!("r{i}"), "nyc", 0, IcmpProfile::default());
        }
        let mut owned: Vec<(Ipv4, u32)> = Vec::new();
        for &(addr, r) in &ifaces {
            if owned.iter().all(|&(a, _)| a != Ipv4(addr)) {
                topo.add_iface(RouterId(r), Ipv4(addr));
                owned.push((Ipv4(addr), r));
            }
        }
        let registered: Vec<(Prefix, u32)> =
            prefixes.iter().map(|&(a, len, r)| (Prefix::new(Ipv4(a), len), r)).collect();
        for &(p, r) in &registered {
            topo.add_host_prefix(p, RouterId(r));
        }
        // Random addresses rarely land in a prefix; query inside each too.
        let inside = registered.iter().map(|(p, _)| p.addr().0 | 1);
        let at_ifaces = owned.iter().map(|(a, _)| a.0);
        for q in queries.iter().copied().chain(inside).chain(at_ifaces) {
            let dst = Ipv4(q);
            for r in 0..6u32 {
                let scan = owned.iter().any(|&(a, o)| a == dst && o == r)
                    || registered.iter().any(|&(p, o)| o == r && p.contains(dst));
                prop_assert_eq!(topo.terminates(RouterId(r), dst), scan, "router {} dst {}", r, dst);
            }
        }
    }
}
