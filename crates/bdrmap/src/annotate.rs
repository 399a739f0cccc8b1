//! Hop annotation: mapping traceroute hop addresses to owners.

use manic_netsim::{AsNumber, Ipv4};
use manic_scenario::Artifacts;

/// Who an address appears to belong to, per the public tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopOwner {
    /// Announced by the host network or one of its siblings.
    Host,
    /// Announced by another AS.
    Foreign(AsNumber),
    /// Inside an IXP LAN prefix (exchange fabric, no origin AS).
    Ixp,
    /// No covering announcement.
    Unknown,
}

/// A traceroute hop with its ownership annotation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopAnnotation {
    /// `None` for an unresponsive hop.
    pub addr: Option<Ipv4>,
    pub owner: HopOwner,
}

/// Annotate the hops of one traceroute against the artifact tables, given
/// the sibling set of the host network.
pub fn annotate(
    hops: &[manic_probing::TracerouteHop],
    artifacts: &Artifacts,
    host_siblings: &[AsNumber],
) -> Vec<HopAnnotation> {
    hops.iter()
        .map(|h| {
            let owner = match h.addr {
                None => HopOwner::Unknown,
                Some(a) => {
                    if artifacts.is_ixp(a) {
                        HopOwner::Ixp
                    } else {
                        match artifacts.origin(a) {
                            Some(asn) if host_siblings.contains(&asn) => HopOwner::Host,
                            Some(asn) => HopOwner::Foreign(asn),
                            None => HopOwner::Unknown,
                        }
                    }
                }
            };
            HopAnnotation { addr: h.addr, owner }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use manic_probing::TracerouteHop;
    use manic_scenario::addressing::Addressing;
    use manic_scenario::asgraph::{AsGraph, AsInfo, AsKind};

    fn artifacts() -> Artifacts {
        let mut g = AsGraph::new();
        for (n, org) in [(10u32, "ho"), (11, "ho"), (20, "fo")] {
            g.add_as(AsInfo {
                asn: AsNumber(n),
                name: format!("as{n}"),
                kind: AsKind::Transit,
                org: org.into(),
                pops: vec!["nyc".into()],
            });
        }
        g.add_c2p(AsNumber(10), AsNumber(20));
        g.add_p2p(AsNumber(10), AsNumber(11));
        let mut addr = Addressing::new();
        for a in [AsNumber(10), AsNumber(11), AsNumber(20)] {
            addr.register(a);
        }
        Artifacts::build(&g, &addr, &[(AsNumber(10), AsNumber(11))])
    }

    fn hop(ttl: u8, addr: Option<&str>) -> TracerouteHop {
        TracerouteHop { ttl, addr: addr.map(|a| a.parse().unwrap()), rtt_ms: Some(1.0) }
    }

    #[test]
    fn owners_resolved() {
        let art = artifacts();
        let hops = vec![
            hop(1, Some("10.0.0.1")),   // host (AS10)
            hop(2, Some("10.1.0.1")),   // sibling (AS11, same org)
            hop(3, Some("10.2.0.1")),   // foreign (AS20)
            hop(4, Some("10.250.0.5")), // IXP LAN
            hop(5, None),               // unresponsive
            hop(6, Some("10.99.0.1")),  // unannounced
        ];
        let ann = annotate(&hops, &art, &[AsNumber(10), AsNumber(11)]);
        assert_eq!(ann[0].owner, HopOwner::Host);
        assert_eq!(ann[1].owner, HopOwner::Host);
        assert_eq!(ann[2].owner, HopOwner::Foreign(AsNumber(20)));
        assert_eq!(ann[3].owner, HopOwner::Ixp);
        assert_eq!(ann[4].owner, HopOwner::Unknown);
        assert_eq!(ann[5].owner, HopOwner::Unknown);
    }
}
