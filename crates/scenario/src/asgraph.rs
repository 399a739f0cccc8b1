//! AS-level graph: autonomous systems, business relationships, organizations.

use manic_netsim::AsNumber;
use std::collections::{BTreeMap, BTreeSet};

/// Role of an AS in the ecosystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsKind {
    /// Broadband access / eyeball network (hosts VPs).
    AccessIsp,
    /// Transit provider.
    Transit,
    /// Content provider / CDN.
    Content,
    /// Stub customer network (enterprise, small ISP).
    Stub,
    /// Internet exchange point operator (owns the IXP LAN prefix).
    Ixp,
}

/// Static description of one AS.
#[derive(Debug, Clone)]
pub struct AsInfo {
    pub asn: AsNumber,
    pub name: String,
    pub kind: AsKind,
    /// Organization name; siblings share one org.
    pub org: String,
    /// Metro presence (PoP codes like "nyc"); order is stable.
    pub pops: Vec<String>,
}

/// Relationship between two ASes, from the perspective of the *pair*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelKind {
    /// First AS is a customer of the second (c2p).
    CustomerToProvider,
    /// Settlement-free peers.
    PeerToPeer,
}

/// The AS-level world: nodes, edges, and organization grouping.
#[derive(Debug, Clone, Default)]
pub struct AsGraph {
    nodes: BTreeMap<AsNumber, AsInfo>,
    /// Every edge once from each end: `(a, b)` maps to how `b` relates to
    /// `a`, so `a`'s neighbors are one contiguous range, sorted by ASN.
    edges: BTreeMap<(AsNumber, AsNumber), Neighborhood>,
}

impl AsGraph {
    pub fn new() -> Self {
        AsGraph::default()
    }

    pub fn add_as(&mut self, info: AsInfo) {
        assert!(
            self.nodes.insert(info.asn, info.clone()).is_none(),
            "duplicate AS {}",
            info.asn
        );
    }

    /// Record that `customer` buys transit from `provider`.
    pub fn add_c2p(&mut self, customer: AsNumber, provider: AsNumber) {
        self.add_edge(customer, provider, RelKind::CustomerToProvider);
    }

    /// Record a settlement-free peering between `a` and `b`.
    pub fn add_p2p(&mut self, a: AsNumber, b: AsNumber) {
        self.add_edge(a, b, RelKind::PeerToPeer);
    }

    fn add_edge(&mut self, a: AsNumber, b: AsNumber, rel: RelKind) {
        assert!(self.nodes.contains_key(&a), "unknown AS {a}");
        assert!(self.nodes.contains_key(&b), "unknown AS {b}");
        assert_ne!(a, b, "self edges not allowed");
        assert!(
            !self.edges.contains_key(&(a, b)),
            "duplicate relationship between {} and {}",
            a.min(b),
            a.max(b)
        );
        let (b_to_a, a_to_b) = match rel {
            RelKind::CustomerToProvider => (Neighborhood::Provider, Neighborhood::Customer),
            RelKind::PeerToPeer => (Neighborhood::Peer, Neighborhood::Peer),
        };
        self.edges.insert((a, b), b_to_a);
        self.edges.insert((b, a), a_to_b);
    }

    pub fn contains(&self, asn: AsNumber) -> bool {
        self.nodes.contains_key(&asn)
    }

    pub fn info(&self, asn: AsNumber) -> &AsInfo {
        &self.nodes[&asn]
    }

    pub fn ases(&self) -> impl Iterator<Item = &AsInfo> {
        self.nodes.values()
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Relationship of `a` to `b`: `Some(CustomerToProvider)` when a buys
    /// from b, `Some(PeerToPeer)` for peers, `None` when not adjacent.
    /// (If b is a's customer, the answer from `rel(b, a)` is c2p.)
    pub fn rel(&self, a: AsNumber, b: AsNumber) -> Option<RelKind> {
        match self.edges.get(&(a, b))? {
            Neighborhood::Provider => Some(RelKind::CustomerToProvider),
            Neighborhood::Peer => Some(RelKind::PeerToPeer),
            Neighborhood::Customer => None,
        }
    }

    /// True when `a` and `b` are adjacent at the AS level.
    pub fn adjacent(&self, a: AsNumber, b: AsNumber) -> bool {
        self.edges.contains_key(&(a, b))
    }

    /// All neighbors of `a`, sorted by ASN, each with how it relates to `a`
    /// (Provider = the neighbor sells `a` transit).
    pub fn neighbors(&self, a: AsNumber) -> Vec<(AsNumber, Neighborhood)> {
        self.edges
            .range((a, AsNumber(0))..=(a, AsNumber(u32::MAX)))
            .map(|(&(_, b), &hood)| (b, hood))
            .collect()
    }

    /// Providers of `a`.
    pub fn providers(&self, a: AsNumber) -> Vec<AsNumber> {
        self.neighbors(a)
            .into_iter()
            .filter(|(_, h)| *h == Neighborhood::Provider)
            .map(|(n, _)| n)
            .collect()
    }

    /// Customers of `a`.
    pub fn customers(&self, a: AsNumber) -> Vec<AsNumber> {
        self.neighbors(a)
            .into_iter()
            .filter(|(_, h)| *h == Neighborhood::Customer)
            .map(|(n, _)| n)
            .collect()
    }

    /// Peers of `a`.
    pub fn peers(&self, a: AsNumber) -> Vec<AsNumber> {
        self.neighbors(a)
            .into_iter()
            .filter(|(_, h)| *h == Neighborhood::Peer)
            .map(|(n, _)| n)
            .collect()
    }

    /// Sibling set of `a`: every AS sharing `a`'s organization (including
    /// `a` itself). Mirrors CAIDA's AS-to-organization grouping (§3.2).
    pub fn siblings(&self, a: AsNumber) -> BTreeSet<AsNumber> {
        let org = &self.info(a).org;
        self.nodes
            .values()
            .filter(|i| &i.org == org)
            .map(|i| i.asn)
            .collect()
    }

    /// All AS-level adjacencies, normalized (low ASN first).
    pub fn adjacencies(&self) -> impl Iterator<Item = (AsNumber, AsNumber, RelKind)> + '_ {
        self.edges
            .iter()
            .filter(|((lo, hi), _)| lo < hi)
            .map(|(&(lo, hi), &hood)| match hood {
                Neighborhood::Peer => (lo, hi, RelKind::PeerToPeer),
                // c2p tuples list (customer, provider).
                Neighborhood::Provider => (lo, hi, RelKind::CustomerToProvider),
                Neighborhood::Customer => (hi, lo, RelKind::CustomerToProvider),
            })
    }
}

/// How a neighbor relates to the AS being asked about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Neighborhood {
    /// Neighbor sells transit to the AS.
    Provider,
    /// Neighbor buys transit from the AS.
    Customer,
    Peer,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asn(n: u32) -> AsNumber {
        AsNumber(n)
    }

    fn info(n: u32, kind: AsKind) -> AsInfo {
        AsInfo {
            asn: asn(n),
            name: format!("as{n}"),
            kind,
            org: format!("org{n}"),
            pops: vec!["nyc".into()],
        }
    }

    fn tiny() -> AsGraph {
        let mut g = AsGraph::new();
        g.add_as(info(100, AsKind::Transit));
        g.add_as(info(200, AsKind::AccessIsp));
        g.add_as(info(300, AsKind::Content));
        g.add_c2p(asn(200), asn(100)); // access buys from transit
        g.add_p2p(asn(200), asn(300)); // access peers with content
        g.add_c2p(asn(300), asn(100)); // content buys from transit
        g
    }

    #[test]
    fn rel_is_directional() {
        let g = tiny();
        assert_eq!(g.rel(asn(200), asn(100)), Some(RelKind::CustomerToProvider));
        assert_eq!(g.rel(asn(100), asn(200)), None); // 100 is not a customer of 200
        assert_eq!(g.rel(asn(200), asn(300)), Some(RelKind::PeerToPeer));
        assert_eq!(g.rel(asn(300), asn(200)), Some(RelKind::PeerToPeer));
        assert!(g.adjacent(asn(100), asn(300)));
        assert!(!g.adjacent(asn(100), asn(100)));
    }

    #[test]
    fn neighborhood_views() {
        let g = tiny();
        assert_eq!(g.providers(asn(200)), vec![asn(100)]);
        assert_eq!(g.peers(asn(200)), vec![asn(300)]);
        let mut custs = g.customers(asn(100));
        custs.sort();
        assert_eq!(custs, vec![asn(200), asn(300)]);
    }

    #[test]
    fn siblings_by_org() {
        let mut g = tiny();
        let mut twin = info(201, AsKind::AccessIsp);
        twin.org = "org200".into();
        g.add_as(twin);
        let sib = g.siblings(asn(200));
        assert!(sib.contains(&asn(200)) && sib.contains(&asn(201)));
        assert_eq!(sib.len(), 2);
        assert_eq!(g.siblings(asn(100)).len(), 1);
    }

    #[test]
    fn adjacencies_normalized() {
        let g = tiny();
        let adj: Vec<_> = g.adjacencies().collect();
        assert_eq!(adj.len(), 3);
        // Every c2p tuple lists (customer, provider).
        for (a, b, rel) in adj {
            if rel == RelKind::CustomerToProvider {
                assert_eq!(g.rel(a, b), Some(RelKind::CustomerToProvider));
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate relationship")]
    fn duplicate_edge_rejected() {
        let mut g = tiny();
        g.add_p2p(asn(100), asn(200));
    }
}
