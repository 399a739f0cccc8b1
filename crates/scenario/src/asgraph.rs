//! AS-level graph: autonomous systems, business relationships, organizations.

use manic_netsim::AsNumber;
use std::collections::BTreeSet;
use std::mem::size_of;

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
    /// Every AS sorted by ASN, with its neighbors sorted by ASN and how each
    /// relates to it: every edge is stored once from each end.
    nodes: Vec<(AsInfo, Row)>,
}

/// One AS's neighbors, sorted by ASN, each with how it relates to the AS.
type Row = Vec<(AsNumber, Neighborhood)>;

impl AsGraph {
    pub fn new() -> Self {
        AsGraph::default()
    }

    fn slot(&self, asn: AsNumber) -> Result<usize, usize> {
        self.nodes.binary_search_by_key(&asn, |(info, _)| info.asn)
    }

    /// `a`'s neighbors, sorted by ASN; empty for an unknown AS.
    fn row(&self, a: AsNumber) -> &[(AsNumber, Neighborhood)] {
        self.slot(a).map_or(&[], |i| &self.nodes[i].1)
    }

    fn hood(&self, a: AsNumber, b: AsNumber) -> Option<Neighborhood> {
        let row = self.row(a);
        row.binary_search_by_key(&b, |&(n, _)| n).ok().map(|k| row[k].1)
    }

    pub fn add_as(&mut self, info: AsInfo) {
        match self.slot(info.asn) {
            Ok(_) => panic!("duplicate AS {}", info.asn),
            Err(i) => self.nodes.insert(i, (info, Vec::new())),
        }
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
        let ia = self.slot(a).unwrap_or_else(|_| panic!("unknown AS {a}"));
        let ib = self.slot(b).unwrap_or_else(|_| panic!("unknown AS {b}"));
        assert_ne!(a, b, "self edges not allowed");
        assert!(
            self.hood(a, b).is_none(),
            "duplicate relationship between {} and {}",
            a.min(b),
            a.max(b)
        );
        let (b_to_a, a_to_b) = match rel {
            RelKind::CustomerToProvider => (Neighborhood::Provider, Neighborhood::Customer),
            RelKind::PeerToPeer => (Neighborhood::Peer, Neighborhood::Peer),
        };
        for (i, n, hood) in [(ia, b, b_to_a), (ib, a, a_to_b)] {
            let row = &mut self.nodes[i].1;
            let k = row.partition_point(|&(m, _)| m < n);
            row.insert(k, (n, hood));
        }
    }

    pub fn contains(&self, asn: AsNumber) -> bool {
        self.slot(asn).is_ok()
    }

    pub fn info(&self, asn: AsNumber) -> &AsInfo {
        let i = self.slot(asn).unwrap_or_else(|_| panic!("unknown AS {asn}"));
        &self.nodes[i].0
    }

    pub fn ases(&self) -> impl Iterator<Item = &AsInfo> {
        self.nodes.iter().map(|(info, _)| info)
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
        match self.hood(a, b)? {
            Neighborhood::Provider => Some(RelKind::CustomerToProvider),
            Neighborhood::Peer => Some(RelKind::PeerToPeer),
            Neighborhood::Customer => None,
        }
    }

    /// True when `a` and `b` are adjacent at the AS level.
    pub fn adjacent(&self, a: AsNumber, b: AsNumber) -> bool {
        self.hood(a, b).is_some()
    }

    /// All neighbors of `a`, sorted by ASN, each with how it relates to `a`
    /// (Provider = the neighbor sells `a` transit).
    pub fn neighbors(&self, a: AsNumber) -> Vec<(AsNumber, Neighborhood)> {
        self.row(a).to_vec()
    }

    /// `a`'s neighbors that relate to it as `hood`, sorted by ASN.
    fn related(&self, a: AsNumber, hood: Neighborhood) -> Vec<AsNumber> {
        self.row(a).iter().filter(|&&(_, h)| h == hood).map(|&(n, _)| n).collect()
    }

    /// Providers of `a`.
    pub fn providers(&self, a: AsNumber) -> Vec<AsNumber> {
        self.related(a, Neighborhood::Provider)
    }

    /// Customers of `a`.
    pub fn customers(&self, a: AsNumber) -> Vec<AsNumber> {
        self.related(a, Neighborhood::Customer)
    }

    /// Peers of `a`.
    pub fn peers(&self, a: AsNumber) -> Vec<AsNumber> {
        self.related(a, Neighborhood::Peer)
    }

    /// Sibling set of `a`: every AS sharing `a`'s organization (including
    /// `a` itself). Mirrors CAIDA's AS-to-organization grouping (§3.2).
    pub fn siblings(&self, a: AsNumber) -> BTreeSet<AsNumber> {
        let org = &self.info(a).org;
        self.ases()
            .filter(|i| &i.org == org)
            .map(|i| i.asn)
            .collect()
    }

    /// All AS-level adjacencies, normalized (low ASN first).
    pub fn adjacencies(&self) -> impl Iterator<Item = (AsNumber, AsNumber, RelKind)> + '_ {
        self.nodes.iter().flat_map(|(info, row)| {
            let lo = info.asn;
            row.iter().filter(move |&&(hi, _)| lo < hi).map(move |&(hi, hood)| match hood {
                Neighborhood::Peer => (lo, hi, RelKind::PeerToPeer),
                // c2p tuples list (customer, provider).
                Neighborhood::Provider => (lo, hi, RelKind::CustomerToProvider),
                Neighborhood::Customer => (hi, lo, RelKind::CustomerToProvider),
            })
        })
    }

    /// The subgraph induced by `keep` (ASNs ascending): those ASes and every
    /// edge between two of them.
    pub fn subgraph(&self, keep: &[AsNumber]) -> AsGraph {
        let kept = |asn: &AsNumber| keep.binary_search(asn).is_ok();
        let nodes = self.nodes.iter().filter(|(info, _)| kept(&info.asn));
        let edges = |row: &Row| row.iter().filter(|(n, _)| kept(n)).copied().collect();
        AsGraph { nodes: nodes.map(|(info, row)| (info.clone(), edges(row))).collect() }
    }

    /// Heap bytes the graph holds: the node table, and every AS's strings,
    /// PoP list and neighbor row.
    pub fn mem_bytes(&self) -> usize {
        let per_as = |(info, row): &(AsInfo, Row)| {
            info.name.capacity()
                + info.org.capacity()
                + info.pops.capacity() * size_of::<String>()
                + info.pops.iter().map(String::capacity).sum::<usize>()
                + row.capacity() * size_of::<(AsNumber, Neighborhood)>()
        };
        let table = self.nodes.capacity() * size_of::<(AsInfo, Row)>();
        table + self.nodes.iter().map(per_as).sum::<usize>()
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
    fn subgraph_keeps_the_edges_between_kept_ases() {
        let mut g = tiny();
        g.add_as(info(150, AsKind::Stub)); // out of ASN order
        g.add_c2p(asn(150), asn(200));
        let asns: Vec<AsNumber> = g.ases().map(|i| i.asn).collect();
        assert_eq!(asns, vec![asn(100), asn(150), asn(200), asn(300)]);
        let sub = g.subgraph(&[asn(100), asn(150), asn(200)]);
        assert_eq!(sub.len(), 3);
        let row = vec![(asn(100), Neighborhood::Provider), (asn(150), Neighborhood::Customer)];
        assert_eq!(sub.neighbors(asn(200)), row);
        assert_eq!(sub.adjacencies().count(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate relationship")]
    fn duplicate_edge_rejected() {
        let mut g = tiny();
        g.add_p2p(asn(100), asn(200));
    }
}
