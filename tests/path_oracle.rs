//! Tier-1 home of the probe-path oracle.
//!
//! `crates/netsim/tests/path_oracle.rs` holds the properties that compare
//! `Network::send_probe` to the hop-by-hop reference (which lives in
//! `crates/netsim/tests/support/path_reference.rs` and is re-exported
//! there); including it here makes `cargo test -q` at the root run them.
//! On top of it, the probing drivers are checked at a routing-epoch edge:
//! a TSLP round whose send slots straddle `add_epoch`, and a traceroute
//! repeated across it, must report what the reference reports — the
//! resolved forward path and the reply sink tree both have to notice the
//! epoch change mid-stream.
//! The fluid fast path's `probe_path` and the record-route option must
//! route a probe as the reference does too, on worlds whose replies cross
//! ECMP groups.

#[path = "../crates/netsim/tests/path_oracle.rs"]
mod reference;

use manic_netsim::time::SimTime;
use manic_netsim::topo::Direction;
use manic_netsim::{Ipv4, LinkId, Network, ProbeSpec, ProbeStatus, SimState};
use manic_probing::tslp::{End, TslpDest, TslpProber, TslpTask, PROBE_TIMEOUT_MS};
use manic_probing::{probe_path, trace, TracerouteHop, VpHandle};
use proptest::prelude::*;
use reference::{
    random_probes, random_world, ref_probe_route, ref_send_probe, RandomWorld, RefState, Rng,
    EPOCH, START,
};

fn vp_of(world: &RandomWorld) -> VpHandle {
    VpHandle { name: "vp".into(), router: world.vp, addr: world.vp_addr }
}

/// Worlds whose two epochs route differently for at least one destination,
/// so an unnoticed epoch change cannot pass by accident.
fn worlds_with_a_routing_change() -> impl Iterator<Item = RandomWorld> {
    (0..40u64).map(|seed| random_world(0xE90C ^ seed, 8, 0.0)).filter(|w| {
        w.dsts.iter().any(|&dst| {
            w.net.forward_path(w.vp, dst, 7, EPOCH - 1) != w.net.forward_path(w.vp, dst, 7, EPOCH)
        })
    })
}

#[test]
fn tslp_round_straddling_an_epoch_matches_reference() {
    let mut checked = 0;
    for world in worlds_with_a_routing_change() {
        let net = &world.net;
        // Long runs of one flow, so the second boundary of the round (slot
        // 100 at 100 pps) falls between two probes that share a path key.
        let tasks: Vec<TslpTask> = (0..40)
            .map(|k| {
                let dst = world.dsts[k / 8 % world.dsts.len()];
                let path = net.forward_path(world.vp, dst, 7, START);
                let seen = |hop: usize| path.get(hop).map_or(Ipv4(0), |h| h.ingress_addr);
                TslpTask {
                    near_ip: seen(1),
                    far_ip: seen(2),
                    dests: vec![TslpDest { dst, near_ttl: 2, far_ttl: 3 }; 3],
                    flow_id: 7,
                }
            })
            .collect();
        let mut prober = TslpProber::new(vp_of(&world), EPOCH - 1);
        prober.set_tasks(tasks.clone());
        let mut sim = SimState::new();
        let samples = prober.probe_round_masked(net, &mut sim, EPOCH - 1, |_| true);

        let mut reference = RefState::default();
        let mut want = Vec::new();
        let mut at = samples.iter().map(|(_, s)| s.t);
        for (ti, task) in tasks.iter().enumerate() {
            for dest in &task.dests {
                for (end, ttl, expect) in
                    [(End::Near, dest.near_ttl, task.near_ip), (End::Far, dest.far_ttl, task.far_ip)]
                {
                    let t = at.next().expect("one sample per probe");
                    let spec = ProbeSpec {
                        src: world.vp,
                        src_addr: world.vp_addr,
                        dst: dest.dst,
                        ttl,
                        flow_id: task.flow_id,
                    };
                    let (rtt, mismatched) = match ref_send_probe(net, &mut reference, spec, t) {
                        ProbeStatus::TimeExceeded { from, rtt_ms }
                        | ProbeStatus::EchoReply { from, rtt_ms } => {
                            if rtt_ms > PROBE_TIMEOUT_MS {
                                (None, false)
                            } else if from == expect {
                                (Some(rtt_ms.to_bits()), false)
                            } else {
                                (None, true)
                            }
                        }
                        _ => (None, false),
                    };
                    want.push((ti, t, end, rtt, mismatched));
                }
            }
        }
        let got: Vec<_> = samples
            .iter()
            .map(|&(ti, s)| (ti, s.t, s.end, s.rtt_ms.map(f64::to_bits), s.mismatched))
            .collect();
        assert!(got.first().unwrap().1 < EPOCH && got.last().unwrap().1 >= EPOCH, "round must straddle");
        assert_eq!(got, want);
        assert_eq!(sim.export(), reference.export());
        checked += 1;
    }
    assert!(checked >= 5, "only {checked} worlds changed routing at the epoch");
}

/// `manic_probing::trace`, sending through the reference.
fn ref_trace(
    net: &Network,
    st: &mut RefState,
    vp: &VpHandle,
    dst: Ipv4,
    flow_id: u16,
    t: SimTime,
) -> (Vec<TracerouteHop>, bool) {
    let (mut hops, mut reached, mut gap) = (Vec::new(), false, 0);
    for ttl in 1..=40u8 {
        let mut hop = TracerouteHop { ttl, addr: None, rtt_ms: None };
        for _ in 0..2 {
            let spec = ProbeSpec { src: vp.router, src_addr: vp.addr, dst, ttl, flow_id };
            match ref_send_probe(net, st, spec, t) {
                ProbeStatus::EchoReply { from, rtt_ms } => {
                    (hop.addr, hop.rtt_ms, reached) = (Some(from), Some(rtt_ms), true);
                    break;
                }
                ProbeStatus::TimeExceeded { from, rtt_ms } => {
                    (hop.addr, hop.rtt_ms) = (Some(from), Some(rtt_ms));
                    break;
                }
                ProbeStatus::Lost => continue,
                ProbeStatus::Unroutable => break,
            }
        }
        gap = if hop.addr.is_some() { 0 } else { gap + 1 };
        hops.push(hop);
        if reached || gap >= 5 {
            break;
        }
    }
    (hops, reached)
}

#[test]
fn traceroute_repeated_across_an_epoch_matches_reference() {
    let mut checked = 0;
    for world in worlds_with_a_routing_change() {
        let vp = vp_of(&world);
        let mut sim = SimState::new();
        let mut reference = RefState::default();
        for &dst in &world.dsts {
            // Same destination and flow just before and right at the epoch:
            // nothing but the routing tables changes between the two.
            for t in [EPOCH - 1, EPOCH] {
                let got = trace(&world.net, &mut sim, &vp, dst, 7, t, 40, 2);
                let (hops, reached) = ref_trace(&world.net, &mut reference, &vp, dst, 7, t);
                let bits = |hops: &[TracerouteHop]| -> Vec<_> {
                    hops.iter().map(|h| (h.ttl, h.addr, h.rtt_ms.map(f64::to_bits))).collect()
                };
                assert_eq!(bits(&got.hops), bits(&hops), "dst {dst} at {t}");
                assert_eq!(got.reached, reached);
                assert_eq!(sim.export(), reference.export());
            }
        }
        checked += 1;
    }
    assert!(checked >= 5, "only {checked} worlds changed routing at the epoch");
}

proptest! {
    /// The fluid fast path and the record-route option route a probe as the
    /// hop-by-hop reference does: `probe_path`'s forward links, answering
    /// address and reply links are the reference's (its reply hashed on the
    /// answering address, like a packet's), `record_route` holds the egress
    /// address of each of those links up to nine, and both are `None` exactly
    /// where the reference finds no answer.
    #[test]
    fn fluid_and_record_route_match_hop_by_hop_reference(seed in any::<u64>()) {
        let world = random_world(seed, 8, 0.0);
        let net = &world.net;
        let egress = |&(link, dir): &(LinkId, Direction)| {
            let [a, b] = net.topo.link(link).ifaces;
            net.topo.iface(if dir == Direction::AtoB { a } else { b }).addr
        };
        for (spec, t) in random_probes(&world, &mut Rng(seed ^ 0xF1D), 120) {
            let want = ref_probe_route(net, spec, t);
            let vp = VpHandle { name: "vp".into(), router: spec.src, addr: spec.src_addr };
            let fluid = probe_path(net, &vp, spec.dst, spec.ttl, spec.flow_id, t)
                .map(|p| (p.route.forward, p.route.responder_addr, p.route.reply));
            let route =
                want.as_ref().map(|r| (r.forward.clone(), r.responder_addr, r.reply.clone()));
            prop_assert_eq!(fluid, route, "probe_path {:?} at {}", spec, t);
            let slots = want.as_ref().map(|r| {
                r.forward.iter().chain(&r.reply).take(9).map(egress).collect::<Vec<_>>()
            });
            let recorded =
                net.record_route(spec.src, spec.src_addr, spec.dst, spec.ttl, spec.flow_id, t);
            prop_assert_eq!(recorded, slots, "record_route {:?} at {}", spec, t);
        }
    }
}
