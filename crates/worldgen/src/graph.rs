//! Compact AS-level topology.
//!
//! `manic_scenario::AsGraph` keeps a `BTreeMap` of owned `AsInfo` records and
//! a `BTreeMap` holding every edge twice — fine for a few hundred ASes,
//! heavy for tens of thousands (owned strings per AS, a tree node per
//! half-edge, every neighbor query allocates). The compact
//! graph is the planetary representation: nodes are dense `u32` ids, names
//! and orgs are interned symbols ([`crate::intern`]), PoP lists are
//! arena-packed `MetroId` bytes, and adjacency is a CSR (compressed sparse
//! row) array built once at freeze time. Neighbor iteration is a slice; the
//! whole 20k-AS graph fits in a couple of megabytes.

use crate::intern::{Interner, Sym};
use manic_netsim::AsNumber;
use manic_scenario::MetroId;
use std::collections::HashMap;

/// Role of an AS in the generated hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Settlement-free clique at the top.
    Tier1,
    /// Regional / tier-2 transit.
    Transit,
    /// CDN / content network with broad flat peering.
    Content,
    /// Broadband eyeball network (hosts VPs).
    Access,
    /// Stub edge network.
    Stub,
}

impl Tier {
    pub fn label(self) -> &'static str {
        match self {
            Tier::Tier1 => "tier1",
            Tier::Transit => "transit",
            Tier::Content => "content",
            Tier::Access => "access",
            Tier::Stub => "stub",
        }
    }
}

/// Relationship of a node toward one neighbor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    /// Neighbor sells transit to this node.
    Provider,
    /// Neighbor buys transit from this node.
    Customer,
    /// Settlement-free peer.
    Peer,
}

impl Rel {
    /// The same edge seen from the other end.
    pub fn flip(self) -> Rel {
        match self {
            Rel::Provider => Rel::Customer,
            Rel::Customer => Rel::Provider,
            Rel::Peer => Rel::Peer,
        }
    }
}

/// Dense node id.
pub type NodeId = u32;

/// Frozen compact topology. Built through [`GraphBuilder`].
#[derive(Debug, Clone)]
pub struct CompactGraph {
    asns: Vec<AsNumber>,
    tiers: Vec<Tier>,
    names: Vec<Sym>,
    orgs: Vec<Sym>,
    /// Arena-packed PoP lists: node `i`'s metros are
    /// `pop_dat[pop_off[i]..pop_off[i+1]]`.
    pop_off: Vec<u32>,
    pop_dat: Vec<MetroId>,
    /// CSR adjacency: node `i`'s neighbors are
    /// `adj_dat[adj_off[i]..adj_off[i+1]]`, sorted by neighbor id.
    adj_off: Vec<u32>,
    adj_dat: Vec<(NodeId, Rel)>,
    interner: Interner,
    index: HashMap<AsNumber, NodeId>,
    edge_count: usize,
}

impl CompactGraph {
    pub fn len(&self) -> usize {
        self.asns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.asns.is_empty()
    }

    /// Undirected edge count.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    pub fn asn(&self, n: NodeId) -> AsNumber {
        self.asns[n as usize]
    }

    pub fn tier(&self, n: NodeId) -> Tier {
        self.tiers[n as usize]
    }

    pub fn name(&self, n: NodeId) -> &str {
        self.interner.resolve(self.names[n as usize])
    }

    pub fn org(&self, n: NodeId) -> &str {
        self.interner.resolve(self.orgs[n as usize])
    }

    pub fn pops(&self, n: NodeId) -> &[MetroId] {
        let (a, b) = (self.pop_off[n as usize], self.pop_off[n as usize + 1]);
        &self.pop_dat[a as usize..b as usize]
    }

    /// Neighbors of `n` with `n`'s relationship toward each, sorted by id.
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, Rel)] {
        let (a, b) = (self.adj_off[n as usize], self.adj_off[n as usize + 1]);
        &self.adj_dat[a as usize..b as usize]
    }

    /// All node ids, in insertion (= ASN-plan) order.
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.len() as NodeId
    }

    /// Per-tier node counts, in [`Tier`] declaration order.
    pub fn tier_histogram(&self) -> [(Tier, usize); 5] {
        let mut h = [
            (Tier::Tier1, 0),
            (Tier::Transit, 0),
            (Tier::Content, 0),
            (Tier::Access, 0),
            (Tier::Stub, 0),
        ];
        for &t in &self.tiers {
            let slot = match t {
                Tier::Tier1 => 0,
                Tier::Transit => 1,
                Tier::Content => 2,
                Tier::Access => 3,
                Tier::Stub => 4,
            };
            h[slot].1 += 1;
        }
        h
    }

    /// Approximate resident footprint of the graph in bytes. The memory
    /// budget DESIGN.md §5i quotes comes from here.
    pub fn mem_bytes(&self) -> usize {
        self.asns.len() * std::mem::size_of::<AsNumber>()
            + self.tiers.len()
            + self.names.len() * 4
            + self.orgs.len() * 4
            + self.pop_off.len() * 4
            + self.pop_dat.len()
            + self.adj_off.len() * 4
            + self.adj_dat.len() * std::mem::size_of::<(NodeId, Rel)>()
            + self.index.len() * 16
            + self.interner.mem_bytes()
    }
}

/// Mutable accumulation stage for [`CompactGraph`].
#[derive(Debug, Default)]
pub struct GraphBuilder {
    asns: Vec<AsNumber>,
    tiers: Vec<Tier>,
    names: Vec<Sym>,
    orgs: Vec<Sym>,
    pops: Vec<Vec<MetroId>>,
    /// Directed half-edges `(from, to, rel-of-from-toward-to)`; each
    /// undirected edge is stored once and mirrored at freeze.
    edges: Vec<(NodeId, NodeId, Rel)>,
    interner: Interner,
    index: HashMap<AsNumber, NodeId>,
}

impl GraphBuilder {
    pub fn new() -> GraphBuilder {
        GraphBuilder::default()
    }

    pub fn add_node(&mut self, asn: AsNumber, name: &str, tier: Tier, pops: Vec<MetroId>) -> NodeId {
        assert!(
            !self.index.contains_key(&asn),
            "duplicate AS {asn} in generated graph"
        );
        assert!(!pops.is_empty(), "AS {asn} has no PoPs");
        let id = self.asns.len() as NodeId;
        let sym = self.interner.intern(name);
        self.asns.push(asn);
        self.tiers.push(tier);
        self.names.push(sym);
        self.orgs.push(sym); // generated worlds use one org per AS
        self.pops.push(pops);
        self.index.insert(asn, id);
        id
    }

    /// `customer` buys transit from `provider`.
    pub fn add_c2p(&mut self, customer: NodeId, provider: NodeId) {
        assert_ne!(customer, provider, "self edge");
        self.edges.push((customer, provider, Rel::Provider));
    }

    /// Settlement-free peering.
    pub fn add_p2p(&mut self, a: NodeId, b: NodeId) {
        assert_ne!(a, b, "self edge");
        self.edges.push((a, b, Rel::Peer));
    }

    pub fn contains(&self, asn: AsNumber) -> bool {
        self.index.contains_key(&asn)
    }

    pub fn pops_of(&self, n: NodeId) -> &[MetroId] {
        &self.pops[n as usize]
    }

    /// True when an edge between `a` and `b` was already recorded.
    pub fn adjacent(&self, a: NodeId, b: NodeId) -> bool {
        self.edges
            .iter()
            .any(|&(x, y, _)| (x == a && y == b) || (x == b && y == a))
    }

    /// Freeze into the CSR representation.
    pub fn freeze(self) -> CompactGraph {
        let n = self.asns.len();
        let mut degree = vec![0u32; n];
        for &(a, b, _) in &self.edges {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let mut adj_off = vec![0u32; n + 1];
        for i in 0..n {
            adj_off[i + 1] = adj_off[i] + degree[i];
        }
        let mut cursor = adj_off[..n].to_vec();
        let mut adj_dat = vec![(0 as NodeId, Rel::Peer); self.edges.len() * 2];
        for &(a, b, rel) in &self.edges {
            adj_dat[cursor[a as usize] as usize] = (b, rel);
            cursor[a as usize] += 1;
            adj_dat[cursor[b as usize] as usize] = (a, rel.flip());
            cursor[b as usize] += 1;
        }
        // Sort each row by neighbor id so the layout is canonical
        // (fingerprint-stable).
        for i in 0..n {
            let (a, b) = (adj_off[i] as usize, adj_off[i + 1] as usize);
            adj_dat[a..b].sort_unstable_by_key(|(m, _)| *m);
            // A duplicate neighbor means the generator drew the same edge
            // twice — a bug worth failing loudly on.
            for w in adj_dat[a..b].windows(2) {
                assert_ne!(w[0].0, w[1].0, "duplicate edge at node {i}");
            }
        }
        let mut pop_off = vec![0u32; n + 1];
        for (i, p) in self.pops.iter().enumerate() {
            pop_off[i + 1] = pop_off[i] + p.len() as u32;
        }
        let pop_dat: Vec<MetroId> = self.pops.into_iter().flatten().collect();
        CompactGraph {
            asns: self.asns,
            tiers: self.tiers,
            names: self.names,
            orgs: self.orgs,
            pop_off,
            pop_dat,
            adj_off,
            adj_dat,
            interner: self.interner,
            index: self.index,
            edge_count: self.edges.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manic_scenario::intern::metros::*;

    fn tiny() -> CompactGraph {
        let mut b = GraphBuilder::new();
        let t = b.add_node(AsNumber(100), "t1", Tier::Tier1, vec![NYC, CHI]);
        let a = b.add_node(AsNumber(3000), "isp", Tier::Access, vec![NYC]);
        let c = b.add_node(AsNumber(2000), "cdn", Tier::Content, vec![NYC, SJC]);
        b.add_c2p(a, t);
        b.add_c2p(c, t);
        b.add_p2p(a, c);
        b.freeze()
    }

    #[test]
    fn csr_rows_and_rels() {
        let g = tiny();
        assert_eq!(g.len(), 3);
        assert_eq!(g.edge_count(), 3);
        // Node ids follow insertion order.
        let (t, a, c): (NodeId, NodeId, NodeId) = (0, 1, 2);
        // Each row holds `n`'s relationship toward each neighbor, mirrored
        // at the other end and sorted by neighbor id.
        assert_eq!(g.neighbors(t), &[(a, Rel::Customer), (c, Rel::Customer)]);
        assert_eq!(g.neighbors(a), &[(t, Rel::Provider), (c, Rel::Peer)]);
        assert_eq!(g.neighbors(c), &[(t, Rel::Provider), (a, Rel::Peer)]);
        assert_eq!(g.pops(c), &[NYC, SJC]);
        assert_eq!(g.name(a), "isp");
        assert_eq!(g.tier(c), Tier::Content);
    }

    #[test]
    fn histogram_counts_tiers() {
        let g = tiny();
        let h = g.tier_histogram();
        assert_eq!(h[0], (Tier::Tier1, 1));
        assert_eq!(h[2], (Tier::Content, 1));
        assert_eq!(h[3], (Tier::Access, 1));
        assert_eq!(h[4], (Tier::Stub, 0));
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edges_rejected_at_freeze() {
        let mut b = GraphBuilder::new();
        let t = b.add_node(AsNumber(100), "t1", Tier::Tier1, vec![NYC]);
        let a = b.add_node(AsNumber(3000), "isp", Tier::Access, vec![NYC]);
        b.add_c2p(a, t);
        b.add_p2p(a, t);
        b.freeze();
    }
}
