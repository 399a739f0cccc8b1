//! End-to-end border mapping against simulator ground truth.
//!
//! Runs the full §3.2 pipeline on compiled worlds: traceroute to every
//! routed prefix, Ally alias oracle, inference — then scores precision and
//! recall against the world's interdomain-link ground truth.

use manic_bdrmap::infer;
use manic_netsim::{AsNumber, Ipv4, SimState};
use manic_probing::{ally_test, trace, Traceroute, VpHandle};
use manic_scenario::worlds::{toy, toy_asns, us_broadband, us_asns};
use manic_scenario::World;
use std::collections::BTreeSet;

fn vp_of(w: &World, name: &str) -> VpHandle {
    let vp = w.vp(name);
    VpHandle { name: vp.name.clone(), router: vp.router, addr: vp.addr }
}

/// Trace to every routed prefix (one host destination per prefix).
fn full_cycle(w: &World, vp: &VpHandle, state: &mut SimState) -> Vec<Traceroute> {
    let mut traces = Vec::new();
    for (i, &(_, asn)) in w.artifacts.routed_prefixes().iter().enumerate() {
        if asn == w.vp(&vp.name).asn {
            continue;
        }
        // Two destinations per prefix for flow diversity (parallel links).
        for k in 0..2u32 {
            let dst = w.host_addr(asn, k);
            let flow = (i as u16) * 7 + k as u16;
            traces.push(trace(&w.net, state, vp, dst, flow, 0, 40, 3));
        }
    }
    traces
}

/// Run bdrmap for one VP and score against ground truth.
fn score(w: &World, vp_name: &str) -> (f64, f64, usize) {
    let vp = vp_of(w, vp_name);
    let host = w.vp(vp_name).asn;
    let mut state = SimState::new();
    let traces = full_cycle(w, &vp, &mut state);
    let net = &w.net;
    let mut alias_state = SimState::new();
    let mut oracle = |a: Ipv4, b: Ipv4| ally_test(net, &mut alias_state, &vp, a, b, 10_000);
    let result = infer(&traces, &w.artifacts, host, &mut oracle);

    // Ground truth: links of the host org (incl. siblings) as (near, far)
    // pairs from the host's perspective.
    let siblings = w.artifacts.siblings(host);
    let mut truth: BTreeSet<(Ipv4, Ipv4)> = BTreeSet::new();
    for gt in &w.gt_links {
        for &s in &siblings {
            if gt.touches(s) {
                truth.insert((gt.near_addr_from(s), gt.far_addr_from(s)));
            }
        }
    }
    let inferred: BTreeSet<(Ipv4, Ipv4)> =
        result.links.iter().map(|l| (l.near_ip, l.far_ip)).collect();
    let tp = inferred.intersection(&truth).count();
    let precision = tp as f64 / inferred.len().max(1) as f64;
    // Recall against the links actually visible from this VP: a single VP
    // cannot see links that hot-potato routing never crosses (§7
    // "Incompleteness"), so recall is computed over links observed in paths.
    let visible: BTreeSet<(Ipv4, Ipv4)> = truth
        .iter()
        .filter(|(_, far)| {
            traces
                .iter()
                .any(|t| t.hops.iter().any(|h| h.addr == Some(*far)))
        })
        .cloned()
        .collect();
    let found = inferred.intersection(&visible).count();
    let recall = found as f64 / visible.len().max(1) as f64;
    (precision, recall, result.links.len())
}

#[test]
fn toy_world_bdrmap_is_accurate() {
    let w = toy(1);
    let (precision, recall, n) = score(&w, "acme-nyc");
    assert!(n >= 3, "expected several links, got {n}");
    assert!(precision >= 0.99, "precision {precision} over {n} links");
    assert!(recall >= 0.99, "recall {recall}");
}

#[test]
fn us_world_bdrmap_high_precision_recall() {
    let w = us_broadband(3);
    for vp in ["comcast-chi", "verizon-nyc", "centurylink-den"] {
        let (precision, recall, n) = score(&w, vp);
        assert!(n >= 10, "{vp}: expected many links, got {n}");
        assert!(precision >= 0.90, "{vp}: precision {precision} over {n} links");
        assert!(recall >= 0.90, "{vp}: recall {recall}");
    }
}

#[test]
fn neighbor_relationships_assigned() {
    let w = toy(1);
    let vp = vp_of(&w, "acme-nyc");
    let mut state = SimState::new();
    let traces = full_cycle(&w, &vp, &mut state);
    let net = &w.net;
    let mut alias_state = SimState::new();
    let mut oracle = |a: Ipv4, b: Ipv4| ally_test(net, &mut alias_state, &vp, a, b, 10_000);
    let result = infer(&traces, &w.artifacts, toy_asns::ACME, &mut oracle);
    use manic_bdrmap::infer::LinkRel;
    let rel_of = |asn: AsNumber| {
        result
            .links
            .iter()
            .find(|l| l.far_as == asn)
            .map(|l| l.rel)
            .unwrap_or_else(|| panic!("no link to {asn}"))
    };
    assert_eq!(rel_of(toy_asns::TRANSITCO), LinkRel::Provider);
    assert_eq!(rel_of(toy_asns::CDNCO), LinkRel::Peer);
}

#[test]
fn us_world_ixp_links_flagged() {
    let w = us_broadband(3);
    let vp = vp_of(&w, "rcn-nyc");
    let mut state = SimState::new();
    let traces = full_cycle(&w, &vp, &mut state);
    let net = &w.net;
    let mut alias_state = SimState::new();
    let mut oracle = |a: Ipv4, b: Ipv4| ally_test(net, &mut alias_state, &vp, a, b, 10_000);
    let result = infer(&traces, &w.artifacts, us_asns::RCN, &mut oracle);
    // RCN peers with Google over the IXP.
    let google: Vec<_> = result.links.iter().filter(|l| l.far_as == us_asns::GOOGLE).collect();
    assert!(!google.is_empty(), "RCN-Google links visible");
    assert!(google.iter().all(|l| l.via_ixp), "flagged as IXP crossings");
}
