//! The border-inference heuristics.
//!
//! For every traceroute from the VP we locate the hop pair that straddles
//! the boundary between the host network and a neighbor. The subtlety (and
//! the reason bdrmap exists) is the *shared /30 problem*: when the host
//! network numbers the interconnection subnet, the neighbor's border router
//! answers from an address announced by the host network, so the naive
//! "last hop with a host address" rule lands one hop past the true border.
//!
//! Rules applied per trace, in order:
//!
//! 1. **IXP rule** — a hop inside an IXP LAN prefix is the far side of an
//!    exchange-based interconnection; the neighbor AS is read from the next
//!    annotated hop beyond the LAN.
//! 2. **Shared-/30 correction** — let `X` be the last host-annotated hop
//!    before the first foreign hop and `Y` the host hop before it. `X` is
//!    re-classified as the *far* side when all of: (a) `X` is the second
//!    address of a /30 (operators assign the first address to the owning
//!    side), (b) alias resolution confirms the /30's first address sits on
//!    `Y`'s router (Ally, §3.2), and (c) `Y`'s address is observed upstream
//!    of exactly one neighbor AS across the whole trace set — i.e. `Y` looks
//!    like a single-purpose border router, not a backbone router that fans
//!    out to many neighbors.
//! 3. **Default rule** — otherwise the border is between `X` and the first
//!    foreign hop.
//!
//! Rule 2's guard (c) can misfire on a backbone router that happens to serve
//! a single neighbor; the resulting rare misinference is the "error in our
//! border mapping" confounder the paper itself encounters in §5.1.

use crate::annotate::{annotate, HopAnnotation, HopOwner};
use manic_netsim::{AsNumber, Ipv4};
use manic_probing::Traceroute;
use manic_scenario::Artifacts;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Alias-resolution oracle: `Some(true)` when the two addresses are on one
/// router, `Some(false)` when distinct, `None` when undetermined
/// (unresponsive / rate limited). Backed by [`manic_probing::ally_test`] in
/// the live system and by stubs in unit tests.
pub type AliasOracle<'a> = dyn FnMut(Ipv4, Ipv4) -> Option<bool> + 'a;

/// Relationship of the neighbor to the host network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkRel {
    /// Neighbor sells transit to the host network.
    Provider,
    /// Settlement-free peer.
    Peer,
    /// Neighbor buys transit from the host network.
    Customer,
    Unknown,
}

impl LinkRel {
    /// Stable lowercase label (served bodies, checkpoint metas).
    pub fn as_str(self) -> &'static str {
        match self {
            LinkRel::Provider => "provider",
            LinkRel::Peer => "peer",
            LinkRel::Customer => "customer",
            LinkRel::Unknown => "unknown",
        }
    }

    /// Inverse of [`Self::as_str`].
    pub fn parse(s: &str) -> Option<LinkRel> {
        use LinkRel::*;
        [Provider, Peer, Customer, Unknown].into_iter().find(|r| r.as_str() == s)
    }
}

/// One inferred interdomain link of the host network.
#[derive(Debug, Clone)]
pub struct InferredLink {
    pub near_ip: Ipv4,
    pub far_ip: Ipv4,
    /// Neighbor network on the far side.
    pub far_as: AsNumber,
    pub rel: LinkRel,
    pub via_ixp: bool,
}

/// Complete border-mapping output for one VP: its links, sorted by
/// `(near_ip, far_ip)` (bdrmap aggregates by that pair, so keys are unique).
/// [`Self::link`] binary-searches, so whoever builds one keeps that order.
#[derive(Debug, Clone, Default)]
pub struct BdrmapResult {
    pub links: Vec<InferredLink>,
}

impl BdrmapResult {
    /// The link with this `(near, far)` pair, by binary search.
    pub fn link(&self, near: Ipv4, far: Ipv4) -> Option<&InferredLink> {
        let i = self.links.binary_search_by_key(&(near, far), |l| (l.near_ip, l.far_ip)).ok()?;
        Some(&self.links[i])
    }

    /// Links to a specific neighbor.
    pub fn links_to(&self, asn: AsNumber) -> Vec<&InferredLink> {
        self.links.iter().filter(|l| l.far_as == asn).collect()
    }
}

/// Border candidate found in one trace.
struct TraceBorder {
    near: Ipv4,
    far: Ipv4,
    far_as: AsNumber,
    via_ixp: bool,
}

/// Run border inference over a VP's traceroute corpus.
pub fn infer(
    traces: &[Traceroute],
    artifacts: &Artifacts,
    host_asn: AsNumber,
    alias: &mut AliasOracle,
) -> BdrmapResult {
    let siblings = artifacts.siblings(host_asn);

    // Pass 1: annotate everything and build the "address -> neighbor fanout"
    // statistic for rule 2(c).
    let annotated: Vec<Vec<HopAnnotation>> = traces
        .iter()
        .map(|t| annotate(&t.hops, artifacts, &siblings))
        .collect();
    let mut fanout: HashMap<Ipv4, BTreeSet<AsNumber>> = HashMap::new();
    for ann in &annotated {
        let first_foreign = ann.iter().find_map(|h| match h.owner {
            HopOwner::Foreign(n) => Some(n),
            _ => None,
        });
        let Some(n) = first_foreign else { continue };
        for h in ann {
            match h.owner {
                HopOwner::Host => {
                    if let Some(a) = h.addr {
                        fanout.entry(a).or_default().insert(n);
                    }
                }
                HopOwner::Foreign(_) | HopOwner::Ixp => break,
                HopOwner::Unknown => {}
            }
        }
    }
    let single_neighbor =
        |a: Ipv4| fanout.get(&a).map(|s| s.len() == 1).unwrap_or(false);

    // Pass 2: per-trace border location.
    let mut agg: BTreeMap<(Ipv4, Ipv4), InferredLink> = BTreeMap::new();
    let mut alias_cache: HashMap<(Ipv4, Ipv4), Option<bool>> = HashMap::new();
    for ann in &annotated {
        let Some(border) = find_border(ann, &single_neighbor, alias, &mut alias_cache) else {
            continue;
        };
        agg.entry((border.near, border.far)).or_insert_with(|| InferredLink {
            near_ip: border.near,
            far_ip: border.far,
            far_as: border.far_as,
            rel: relationship(artifacts, host_asn, border.far_as),
            via_ixp: border.via_ixp,
        });
    }

    BdrmapResult { links: agg.into_values().collect() }
}

fn relationship(artifacts: &Artifacts, host: AsNumber, neighbor: AsNumber) -> LinkRel {
    if artifacts.is_customer_of(host, neighbor) {
        LinkRel::Provider
    } else if artifacts.is_customer_of(neighbor, host) {
        LinkRel::Customer
    } else if artifacts.are_peers(host, neighbor) {
        LinkRel::Peer
    } else {
        LinkRel::Unknown
    }
}

/// Locate the border in one annotated trace.
fn find_border(
    ann: &[HopAnnotation],
    single_neighbor: &dyn Fn(Ipv4) -> bool,
    alias: &mut AliasOracle,
    alias_cache: &mut HashMap<(Ipv4, Ipv4), Option<bool>>,
) -> Option<TraceBorder> {
    // First foreign or IXP hop.
    let f_idx = ann
        .iter()
        .position(|h| matches!(h.owner, HopOwner::Foreign(_) | HopOwner::Ixp))?;
    // Last responsive host hop before it.
    let x_idx = ann[..f_idx]
        .iter()
        .rposition(|h| h.owner == HopOwner::Host && h.addr.is_some())?;
    let x = &ann[x_idx];
    let x_addr = x.addr.expect("responsive by construction");
    let f = &ann[f_idx];

    // Rule 1: IXP crossing.
    if f.owner == HopOwner::Ixp {
        let far_as = ann[f_idx + 1..].iter().find_map(|h| match h.owner {
            HopOwner::Foreign(n) => Some(n),
            _ => None,
        })?;
        return Some(TraceBorder {
            near: x_addr,
            far: f.addr?,
            far_as,
            via_ixp: true,
        });
    }
    let HopOwner::Foreign(n) = f.owner else { unreachable!() };

    // Rule 2: shared-/30 correction.
    if let Some(y_idx) = ann[..x_idx]
        .iter()
        .rposition(|h| h.owner == HopOwner::Host && h.addr.is_some())
    {
        let y = &ann[y_idx];
        let y_addr = y.addr.expect("responsive");
        let is_second_of_slash30 = x_addr.0 & 3 == 2;
        if is_second_of_slash30 && single_neighbor(y_addr) {
            let mate = Ipv4(x_addr.0 - 1);
            // Cache only determinate verdicts: an unanswered Ally test (lost
            // probes, rate limiting) is retried the next time the candidate
            // appears rather than condemning the correction for the whole
            // corpus.
            let verdict = match alias_cache.get(&(y_addr, mate)) {
                Some(v) => *v,
                None => {
                    let v = alias(y_addr, mate);
                    if v.is_some() {
                        alias_cache.insert((y_addr, mate), v);
                    }
                    v
                }
            };
            if verdict == Some(true) {
                return Some(TraceBorder {
                    near: y_addr,
                    far: x_addr,
                    far_as: n,
                    via_ixp: false,
                });
            }
        }
    }

    // Rule 3: default.
    Some(TraceBorder {
        near: x_addr,
        far: f.addr?,
        far_as: n,
        via_ixp: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use manic_probing::TracerouteHop;
    use manic_scenario::addressing::Addressing;
    use manic_scenario::asgraph::{AsGraph, AsInfo, AsKind};

    #[test]
    fn rel_names_round_trip() {
        for r in [LinkRel::Provider, LinkRel::Peer, LinkRel::Customer, LinkRel::Unknown] {
            assert_eq!(LinkRel::parse(r.as_str()), Some(r));
        }
        assert_eq!(LinkRel::parse("sibling"), None);
    }

    const HOST: AsNumber = AsNumber(10);
    const NEIGH: AsNumber = AsNumber(20);
    const BEYOND: AsNumber = AsNumber(30);

    fn artifacts() -> Artifacts {
        let mut g = AsGraph::new();
        for n in [10u32, 20, 30] {
            g.add_as(AsInfo {
                asn: AsNumber(n),
                name: format!("as{n}"),
                kind: AsKind::Transit,
                org: format!("org{n}"),
                pops: vec!["nyc".into()],
            });
        }
        g.add_p2p(HOST, NEIGH);
        g.add_c2p(AsNumber(30), AsNumber(20));
        let mut addr = Addressing::new();
        for a in [HOST, NEIGH, BEYOND] {
            addr.register(a); // blocks: 10.0/16, 10.1/16, 10.2/16
        }
        Artifacts::build(&g, &addr, &[(HOST, NEIGH)])
    }

    fn mk_trace(dst: &str, hops: &[&str]) -> Traceroute {
        Traceroute {
            dst: dst.parse().unwrap(),
            flow_id: 1,
            t: 0,
            hops: hops
                .iter()
                .enumerate()
                .map(|(i, h)| TracerouteHop {
                    ttl: (i + 1) as u8,
                    addr: if h.is_empty() { None } else { Some(h.parse().unwrap()) },
                    rtt_ms: Some(1.0),
                })
                .collect(),
            reached: true,
        }
    }

    #[test]
    fn default_rule_neighbor_owned_slash30() {
        // Neighbor owns the /30 (10.1.200.0/30): far hop annotated Foreign.
        let art = artifacts();
        let tr = mk_trace("10.1.64.5", &["10.0.0.1", "10.0.0.9", "10.1.200.1", "10.1.64.5"]);
        let mut no_alias = |_: Ipv4, _: Ipv4| -> Option<bool> { panic!("not consulted") };
        let res = infer(&[tr], &art, HOST, &mut no_alias);
        assert_eq!(res.links.len(), 1);
        let l = &res.links[0];
        assert_eq!(l.near_ip, "10.0.0.9".parse::<Ipv4>().unwrap());
        assert_eq!(l.far_ip, "10.1.200.1".parse::<Ipv4>().unwrap());
        assert_eq!(l.far_as, NEIGH);
        assert_eq!(l.rel, LinkRel::Peer);
        assert_eq!(res.link(l.near_ip, l.far_ip).map(|f| f.far_ip), Some(l.far_ip));
        assert!(res.link(l.far_ip, l.near_ip).is_none());
    }

    #[test]
    fn shared_slash30_correction() {
        // Host owns the /30: hop 3 = 10.0.200.2 is the neighbor's router
        // answering from host space; hop 2 = 10.0.0.9 is the true near side.
        let art = artifacts();
        let traces = vec![
            mk_trace("10.1.64.5", &["10.0.0.1", "10.0.0.9", "10.0.200.2", "10.1.0.7", "10.1.64.5"]),
            mk_trace("10.1.64.6", &["10.0.0.1", "10.0.0.9", "10.0.200.2", "10.1.0.7", "10.1.64.6"]),
        ];
        let mut alias = |a: Ipv4, b: Ipv4| -> Option<bool> {
            // 10.0.200.1 (the mate) aliases with 10.0.0.9 (the near BR).
            Some(a == "10.0.0.9".parse().unwrap() && b == "10.0.200.1".parse().unwrap())
        };
        let res = infer(&traces, &art, HOST, &mut alias);
        assert_eq!(res.links.len(), 1);
        let l = &res.links[0];
        assert_eq!(l.near_ip, "10.0.0.9".parse::<Ipv4>().unwrap());
        assert_eq!(l.far_ip, "10.0.200.2".parse::<Ipv4>().unwrap(), "corrected far side");
        assert_eq!(l.far_as, NEIGH);
    }

    #[test]
    fn correction_blocked_by_multi_neighbor_fanout() {
        // The candidate Y (10.0.0.1) fans out to two different neighbor ASes,
        // so rule 2(c) blocks the correction even though the /30 mate aliases.
        let art = artifacts();
        let traces = vec![
            // X = 10.0.0.6 (== .2 of a /30), upstream Y = 10.0.0.1.
            mk_trace("10.1.64.5", &["10.0.0.1", "10.0.0.6", "10.1.200.1", "10.1.64.5"]),
            // Y also appears before AS30 in another trace.
            mk_trace("10.2.64.5", &["10.0.0.1", "10.0.0.13", "10.2.200.1", "10.2.64.5"]),
        ];
        let mut alias = |_: Ipv4, _: Ipv4| -> Option<bool> { Some(true) };
        let res = infer(&traces, &art, HOST, &mut alias);
        // Both traces use the default rule.
        let to_neigh = res.links_to(NEIGH);
        assert_eq!(to_neigh.len(), 1);
        assert_eq!(to_neigh[0].near_ip, "10.0.0.6".parse::<Ipv4>().unwrap());
        assert_eq!(to_neigh[0].far_ip, "10.1.200.1".parse::<Ipv4>().unwrap());
    }

    #[test]
    fn ixp_rule() {
        let art = artifacts();
        let tr = mk_trace(
            "10.1.64.5",
            &["10.0.0.1", "10.0.0.9", "10.250.0.2", "10.1.0.7", "10.1.64.5"],
        );
        let mut no_alias = |_: Ipv4, _: Ipv4| -> Option<bool> { None };
        let res = infer(&[tr], &art, HOST, &mut no_alias);
        assert_eq!(res.links.len(), 1);
        let l = &res.links[0];
        assert!(l.via_ixp);
        assert_eq!(l.far_ip, "10.250.0.2".parse::<Ipv4>().unwrap());
        assert_eq!(l.far_as, NEIGH, "AS read from beyond the LAN");
    }

    #[test]
    fn unresponsive_hops_skipped() {
        let art = artifacts();
        let tr = mk_trace("10.1.64.5", &["10.0.0.1", "", "10.1.200.1", "10.1.64.5"]);
        let mut no_alias = |_: Ipv4, _: Ipv4| -> Option<bool> { None };
        let res = infer(&[tr], &art, HOST, &mut no_alias);
        assert_eq!(res.links.len(), 1);
        assert_eq!(res.links[0].near_ip, "10.0.0.1".parse::<Ipv4>().unwrap());
        assert_eq!(res.links[0].far_ip, "10.1.200.1".parse::<Ipv4>().unwrap());
    }

    #[test]
    fn trace_without_foreign_hops_ignored() {
        let art = artifacts();
        let tr = mk_trace("10.0.64.5", &["10.0.0.1", "10.0.64.5"]);
        let mut no_alias = |_: Ipv4, _: Ipv4| -> Option<bool> { None };
        let res = infer(&[tr], &art, HOST, &mut no_alias);
        assert!(res.links.is_empty());
    }

    #[test]
    fn sibling_hops_count_as_host() {
        // Make AS30 a sibling of HOST (same org) and check hops in its space
        // are treated as host-side.
        let mut g = AsGraph::new();
        for (n, org) in [(10u32, "same"), (20, "other"), (30, "same")] {
            g.add_as(AsInfo {
                asn: AsNumber(n),
                name: format!("as{n}"),
                kind: AsKind::Transit,
                org: org.into(),
                pops: vec!["nyc".into()],
            });
        }
        g.add_p2p(AsNumber(10), AsNumber(20));
        let mut addr = Addressing::new();
        for a in [AsNumber(10), AsNumber(20), AsNumber(30)] {
            addr.register(a);
        }
        let art = Artifacts::build(&g, &addr, &[]);
        // Trace passes through sibling space (10.2/16 = AS30) before the
        // neighbor: border must be at the sibling hop, not earlier.
        let tr = mk_trace("10.1.64.5", &["10.0.0.1", "10.2.0.5", "10.1.200.1", "10.1.64.5"]);
        let mut no_alias = |_: Ipv4, _: Ipv4| -> Option<bool> { None };
        let res = infer(&[tr], &art, AsNumber(10), &mut no_alias);
        assert_eq!(res.links[0].near_ip, "10.2.0.5".parse::<Ipv4>().unwrap());
    }
}
