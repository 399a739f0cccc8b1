//! bdrmap input artifacts.
//!
//! In production, bdrmap consumes (§3.2): a prefix-to-AS mapping built from
//! public BGP data (RouteViews, RIPE RIS), CAIDA AS relationships, a curated
//! IXP prefix list (PCH + PeeringDB), WHOIS delegations, and a manually
//! reviewed sibling list. The scenario layer emits the exact same tables
//! from the generated world, so `manic-bdrmap` runs on the same inputs it
//! would in production — provenance differs, format does not.

use crate::addressing::{ixp_lan, Addressing};
use crate::asgraph::{AsGraph, RelKind};
use manic_netsim::{AsNumber, Ipv4, Prefix};
use std::collections::BTreeMap;

/// The table bundle handed to border mapping.
#[derive(Debug, Clone, Default)]
pub struct Artifacts {
    /// Announced prefixes with their origin AS (the BGP-derived prefix2as):
    /// one disjoint block per AS, sorted, so [`Self::origin`] binary-searches
    /// it.
    prefix2as: Vec<(Prefix, AsNumber)>,
    /// AS relationships: (customer, provider) pairs and unordered peer pairs.
    pub c2p: Vec<(AsNumber, AsNumber)>,
    pub p2p: Vec<(AsNumber, AsNumber)>,
    /// IXP LAN prefixes (PCH/PeeringDB-style list).
    pub ixp_prefixes: Vec<Prefix>,
    /// Organization -> member ASes (CAIDA as2org-style, post manual review).
    pub org_members: BTreeMap<String, Vec<AsNumber>>,
}

impl Artifacts {
    pub fn build(graph: &AsGraph, addressing: &Addressing, ixp_pairs: &[(AsNumber, AsNumber)]) -> Self {
        let mut prefix2as: Vec<(Prefix, AsNumber)> = addressing
            .registered()
            .map(|asn| (addressing.of(asn).block, asn))
            .collect();
        prefix2as.sort();
        // Sorted, a nested prefix would directly follow one that holds it.
        debug_assert!(prefix2as.windows(2).all(|w| !w[0].0.contains(w[1].0.addr())));

        let mut c2p = Vec::new();
        let mut p2p = Vec::new();
        for (a, b, rel) in graph.adjacencies() {
            match rel {
                RelKind::CustomerToProvider => c2p.push((a, b)),
                RelKind::PeerToPeer => p2p.push((a, b)),
            }
        }
        let ixp_prefixes = if ixp_pairs.is_empty() { vec![] } else { vec![ixp_lan()] };

        let mut org_members: BTreeMap<String, Vec<AsNumber>> = BTreeMap::new();
        for info in graph.ases() {
            org_members.entry(info.org.clone()).or_default().push(info.asn);
        }

        Artifacts { prefix2as, c2p, p2p, ixp_prefixes, org_members }
    }

    /// Origin AS of `addr`: the announced block holding it. The blocks are
    /// disjoint, so that is the last one starting at or below `addr`.
    pub fn origin(&self, addr: Ipv4) -> Option<AsNumber> {
        let end = self.prefix2as.partition_point(|(p, _)| p.addr() <= addr);
        let &(p, asn) = self.prefix2as.get(end.checked_sub(1)?)?;
        p.contains(addr).then_some(asn)
    }

    /// Is `addr` on an IXP LAN?
    pub fn is_ixp(&self, addr: Ipv4) -> bool {
        self.ixp_prefixes.iter().any(|p| p.contains(addr))
    }

    /// Sibling set of `asn` (ASes sharing its organization), including itself.
    pub fn siblings(&self, asn: AsNumber) -> Vec<AsNumber> {
        self.org_members
            .values()
            .find(|members| members.contains(&asn))
            .cloned()
            .unwrap_or_else(|| vec![asn])
    }

    /// Relationship as the bdrmap heuristics consume it: is `a` a customer
    /// of `b`?
    pub fn is_customer_of(&self, a: AsNumber, b: AsNumber) -> bool {
        self.c2p.contains(&(a, b))
    }

    /// Are `a` and `b` settlement-free peers?
    pub fn are_peers(&self, a: AsNumber, b: AsNumber) -> bool {
        self.p2p.contains(&(a, b)) || self.p2p.contains(&(b, a))
    }

    /// All routed prefixes (what a VP traceroutes toward, §3.2: "trace the
    /// path to every routed prefix observed in BGP").
    pub fn routed_prefixes(&self) -> &[(Prefix, AsNumber)] {
        &self.prefix2as
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asgraph::{AsInfo, AsKind};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn asn(n: u32) -> AsNumber {
        AsNumber(n)
    }

    fn build() -> Artifacts {
        let mut g = AsGraph::new();
        for (n, org) in [(10u32, "orgA"), (11, "orgA"), (20, "orgB")] {
            g.add_as(AsInfo {
                asn: asn(n),
                name: format!("as{n}"),
                kind: AsKind::Transit,
                org: org.into(),
                pops: vec!["nyc".into()],
            });
        }
        g.add_c2p(asn(10), asn(20));
        g.add_p2p(asn(10), asn(11));
        let mut addr = Addressing::new();
        for a in [asn(10), asn(11), asn(20)] {
            addr.register(a);
        }
        Artifacts::build(&g, &addr, &[(asn(10), asn(11))])
    }

    #[test]
    fn origin_lookup() {
        let a = build();
        assert_eq!(a.origin(Ipv4::new(10, 0, 5, 5)), Some(asn(10)));
        assert_eq!(a.origin(Ipv4::new(10, 2, 0, 1)), Some(asn(20)));
        assert_eq!(a.origin(Ipv4::new(10, 99, 0, 1)), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The binary search answers like the linear longest-prefix filter
        /// it replaced, on every address plan `build` can be given.
        #[test]
        fn origin_matches_linear_filter(
            ases in prop::collection::vec(1u32..70_000, 0..200),
            probes in prop::collection::vec(0x0900_0000u32..0x0C00_0000, 1..64),
        ) {
            let mut addr = Addressing::new();
            for n in ases.into_iter().collect::<BTreeSet<_>>() {
                addr.register(asn(n));
            }
            let a = Artifacts::build(&AsGraph::new(), &addr, &[]);
            // Random addresses, plus the first and last of every block and
            // the addresses just outside them.
            let edges = a.routed_prefixes().iter().flat_map(|(p, _)| {
                let first = p.addr().0;
                let last = first | (u32::MAX >> p.len());
                [first.wrapping_sub(1), first, last, last.wrapping_add(1)]
            });
            for x in probes.into_iter().chain(edges) {
                let linear = a
                    .routed_prefixes()
                    .iter()
                    .filter(|(p, _)| p.contains(Ipv4(x)))
                    .max_by_key(|(p, _)| p.len())
                    .map(|&(_, asn)| asn);
                prop_assert_eq!(a.origin(Ipv4(x)), linear);
                prop_assert_eq!(a.origin(Ipv4(x)), addr.block_owner(Ipv4(x)));
            }
        }
    }

    #[test]
    fn ixp_membership() {
        let a = build();
        assert!(a.is_ixp(Ipv4::new(10, 250, 0, 3)));
        assert!(!a.is_ixp(Ipv4::new(10, 0, 0, 3)));
    }

    #[test]
    fn siblings_via_org() {
        let a = build();
        let sib = a.siblings(asn(10));
        assert!(sib.contains(&asn(10)) && sib.contains(&asn(11)));
        assert_eq!(a.siblings(asn(20)), vec![asn(20)]);
        assert_eq!(a.siblings(asn(999)), vec![asn(999)]);
    }

    #[test]
    fn relationships() {
        let a = build();
        assert!(a.is_customer_of(asn(10), asn(20)));
        assert!(!a.is_customer_of(asn(20), asn(10)));
        assert!(a.are_peers(asn(10), asn(11)));
        assert!(a.are_peers(asn(11), asn(10)));
    }
}
