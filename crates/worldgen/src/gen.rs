//! The planetary topology generator.
//!
//! A generated world has the macro-structure the paper's measurement system
//! faced: a small settlement-free tier-1 clique, a band of tier-2 transit
//! networks buying from the clique, CDNs with broad flat peering into the
//! eyeball edge, dozens of broadband access ISPs hosting the VPs, and a
//! power-law tail of tens of thousands of stub networks attached by
//! preferential attachment (a Polya-urn lottery: every customer an AS wins
//! makes the next stub more likely to pick it — the classic rich-get-richer
//! process behind observed customer-cone distributions).
//!
//! Everything is a pure function of `(spec, seed)`; see [`crate::rng`].
//!
//! The *focus universe* is the subset of ASes that gets router-level
//! compilation (PoPs, border routers, /30s, FIBs): every non-stub AS plus a
//! deterministic sample of stubs. The far edge exists only in the compact
//! graph — visible to stats and fingerprints, but costing four bytes of ASN
//! instead of a router mesh. The compiled universe is kept
//! under the addressing plan's 200-AS ceiling by construction.

use crate::graph::{CompactGraph, GraphBuilder, NodeId, Tier};
use crate::rng::Rng;
use manic_netsim::AsNumber;
use manic_scenario::intern::{metro_count, MetroId};

/// ASN bands of the generator's plan. Node-id order follows band order, so
/// id order is ASN order.
pub const TIER1_ASN_BASE: u32 = 101;
pub const TIER2_ASN_BASE: u32 = 1_001;
pub const CONTENT_ASN_BASE: u32 = 2_001;
pub const ACCESS_ASN_BASE: u32 = 3_001;
pub const STUB_ASN_BASE: u32 = 10_001;

/// Size plan of one generated world.
#[derive(Debug, Clone)]
pub struct WorldSpec {
    pub name: String,
    /// Total AS count, including the stub tail.
    pub total_ases: usize,
    /// Vantage points, placed round-robin across access ISPs and metros.
    pub vps: usize,
    pub tier1: usize,
    pub tier2: usize,
    pub content: usize,
    pub access: usize,
    /// Stubs included in the router-level focus universe.
    pub focus_stubs: usize,
    /// Access-CDN adjacencies interconnected at the IXP fabric.
    pub ixp_pairs: usize,
}

impl WorldSpec {
    /// Derive a consistent plan from headline numbers. The tier sizes keep
    /// the focus universe under the 200-AS addressing ceiling and every
    /// per-AS capacity cap (linknet /30 slots, PoP /24s) with headroom.
    pub fn planetary(name: &str, total_ases: usize, vps: usize) -> WorldSpec {
        assert!(total_ases >= 200, "planetary worlds start at 200 ASes");
        let tier1 = if total_ases < 2_000 { 8 } else { 12 };
        let tier2 = (total_ases / 125).clamp(12, 40);
        let content = (total_ases / 300).clamp(8, 28);
        let access = (vps.div_ceil(4)).clamp(12, 48);
        let core = tier1 + tier2 + content + access;
        assert!(core + 8 < total_ases, "no room for a stub tail");
        let focus_stubs = (190 - core).min(60);
        let spec = WorldSpec {
            name: name.to_string(),
            total_ases,
            vps,
            tier1,
            tier2,
            content,
            access,
            focus_stubs,
            ixp_pairs: (access * content / 24).clamp(4, 24),
        };
        assert!(
            spec.focus_len() <= 190,
            "focus universe {} exceeds the addressing plan",
            spec.focus_len()
        );
        // Access ISPs get at least 5 metros each; VP placements must fit.
        assert!(
            vps <= access * 5,
            "{vps} VPs need more than {access} access ISPs x 5 metros"
        );
        spec
    }

    /// Number of ASes in the router-level focus universe.
    pub fn focus_len(&self) -> usize {
        self.tier1 + self.tier2 + self.content + self.access + self.focus_stubs
    }
}

/// A generated topology: the compact graph plus everything the focus
/// compiler and the stats/fingerprint paths need.
#[derive(Debug, Clone)]
pub struct Topology {
    pub spec: WorldSpec,
    pub seed: u64,
    pub graph: CompactGraph,
    /// `(access node, metro)` per VP; distinct pairs by construction.
    pub vp_placements: Vec<(NodeId, MetroId)>,
    /// Access-CDN adjacencies that interconnect over the IXP LAN.
    pub ixp_pairs: Vec<(NodeId, NodeId)>,
    /// Node ids compiled to router level, in id order.
    pub focus: Vec<NodeId>,
}

/// Draw `k` distinct metros.
fn metros(rng: &mut Rng, k: usize) -> Vec<MetroId> {
    rng.pick_distinct(metro_count(), k.min(metro_count()))
        .into_iter()
        .map(|i| MetroId(i as u8))
        .collect()
}

/// Generate the world for `(spec, seed)`.
pub fn generate(spec: &WorldSpec, seed: u64) -> Topology {
    let mut b = GraphBuilder::new();

    // --- Nodes, in ASN-band order -------------------------------------
    let mut rng = Rng::new(seed, 0x6E0_DE5);
    let tier1: Vec<NodeId> = (0..spec.tier1)
        .map(|i| {
            let k = 9 + rng.below(4); // 9..=12 metros
            b.add_node(
                AsNumber(TIER1_ASN_BASE + i as u32),
                &format!("t1-{i:02}"),
                Tier::Tier1,
                metros(&mut rng, k),
            )
        })
        .collect();
    let tier2: Vec<NodeId> = (0..spec.tier2)
        .map(|i| {
            let k = 4 + rng.below(3); // 4..=6
            b.add_node(
                AsNumber(TIER2_ASN_BASE + i as u32),
                &format!("tr-{i:02}"),
                Tier::Transit,
                metros(&mut rng, k),
            )
        })
        .collect();
    let content: Vec<NodeId> = (0..spec.content)
        .map(|i| {
            let k = 8 + rng.below(5); // 8..=12
            b.add_node(
                AsNumber(CONTENT_ASN_BASE + i as u32),
                &format!("cdn-{i:02}"),
                Tier::Content,
                metros(&mut rng, k),
            )
        })
        .collect();
    let access: Vec<NodeId> = (0..spec.access)
        .map(|i| {
            let k = 5 + rng.below(3); // 5..=7
            b.add_node(
                AsNumber(ACCESS_ASN_BASE + i as u32),
                &format!("isp-{i:02}"),
                Tier::Access,
                metros(&mut rng, k),
            )
        })
        .collect();

    // --- Core relationships -------------------------------------------
    let mut rng = Rng::new(seed, 0xED6E5);
    // Tier-1 full-mesh peering.
    for (i, &a) in tier1.iter().enumerate() {
        for &p in tier1.iter().skip(i + 1) {
            b.add_p2p(a, p);
        }
    }
    // Tier-2: two tier-1 providers, sparse lateral peering.
    for (i, &t) in tier2.iter().enumerate() {
        for pi in rng.pick_distinct(tier1.len(), 2) {
            b.add_c2p(t, tier1[pi]);
        }
        for &u in tier2.iter().skip(i + 1) {
            if rng.chance(0.15) {
                b.add_p2p(t, u);
            }
        }
    }
    // Content: one tier-1 and one tier-2 transit provider.
    for &c in &content {
        b.add_c2p(c, tier1[rng.below(tier1.len())]);
        b.add_c2p(c, tier2[rng.below(tier2.len())]);
    }
    // Access: one tier-1 and one tier-2 transit provider, flat peering with
    // every CDN (the paper's peering-dispute battleground), sparse lateral
    // access-access peering.
    for (i, &a) in access.iter().enumerate() {
        b.add_c2p(a, tier1[rng.below(tier1.len())]);
        b.add_c2p(a, tier2[rng.below(tier2.len())]);
        for &c in &content {
            b.add_p2p(a, c);
        }
        for &other in access.iter().skip(i + 1) {
            if rng.chance(0.08) {
                b.add_p2p(a, other);
            }
        }
    }

    // --- Stub tail by preferential attachment -------------------------
    let mut rng = Rng::new(seed, 0x57AB5);
    let n_stubs = spec.total_ases - (spec.tier1 + spec.tier2 + spec.content + spec.access);
    // Polya-urn lottery over the provider pool (access + tier-2): a
    // provider's tickets grow with every customer it wins.
    let mut lottery: Vec<NodeId> = access.iter().chain(tier2.iter()).copied().collect();
    for i in 0..n_stubs {
        let first = lottery[rng.below(lottery.len())];
        let pops = vec![*pick(&mut rng, b.pops_of(first))];
        let stub = b.add_node(
            AsNumber(STUB_ASN_BASE + i as u32),
            &format!("stub-{i:05}"),
            Tier::Stub,
            pops,
        );
        b.add_c2p(stub, first);
        lottery.push(first);
        if rng.chance(0.3) {
            let second = lottery[rng.below(lottery.len())];
            if second != first {
                b.add_c2p(stub, second);
                lottery.push(second);
            }
        }
    }

    let graph = b.freeze();

    // --- VP placements -------------------------------------------------
    let mut vp_placements = Vec::with_capacity(spec.vps);
    for i in 0..spec.vps {
        let isp = access[i % access.len()];
        let slot = i / access.len();
        let pops = graph.pops(isp);
        assert!(slot < pops.len(), "VP plan exceeds access metro capacity");
        vp_placements.push((isp, pops[slot]));
    }

    // --- IXP fabric -----------------------------------------------------
    let mut rng = Rng::new(seed, 0x1C39A);
    let mut ixp_pairs: Vec<(NodeId, NodeId)> = Vec::new();
    let mut tries = 0;
    while ixp_pairs.len() < spec.ixp_pairs && tries < spec.ixp_pairs * 20 {
        tries += 1;
        let pair = (access[rng.below(access.len())], content[rng.below(content.len())]);
        if !ixp_pairs.contains(&pair) {
            ixp_pairs.push(pair);
        }
    }

    // --- Focus universe -------------------------------------------------
    let mut focus: Vec<NodeId> = tier1
        .iter()
        .chain(&tier2)
        .chain(&content)
        .chain(&access)
        .copied()
        .collect();
    let stub_base = focus.len() as NodeId;
    focus.extend((0..spec.focus_stubs as NodeId).map(|i| stub_base + i));
    debug_assert!(focus.windows(2).all(|w| w[0] < w[1]));

    Topology {
        spec: spec.clone(),
        seed,
        graph,
        vp_placements,
        ixp_pairs,
        focus,
    }
}

fn pick<'a, T>(rng: &mut Rng, xs: &'a [T]) -> &'a T {
    &xs[rng.below(xs.len())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Rel;

    #[test]
    fn spec_sizing_is_sane() {
        let s = WorldSpec::planetary("planet-20k", 20_000, 200);
        assert!(s.focus_len() <= 190);
        assert_eq!(s.total_ases, 20_000);
        let s = WorldSpec::planetary("sim-1k", 1_000, 16);
        assert!(s.focus_len() <= 190);
    }

    #[test]
    fn generate_is_deterministic() {
        let spec = WorldSpec::planetary("sim-1k", 1_000, 16);
        let a = generate(&spec, 7);
        let b = generate(&spec, 7);
        assert_eq!(a.graph.len(), b.graph.len());
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        assert_eq!(a.vp_placements, b.vp_placements);
        assert_eq!(a.ixp_pairs, b.ixp_pairs);
        let c = generate(&spec, 8);
        assert_ne!(
            (a.graph.edge_count(), a.vp_placements.clone()),
            (c.graph.edge_count(), c.vp_placements.clone())
        );
    }

    #[test]
    fn structure_matches_plan() {
        let spec = WorldSpec::planetary("sim-1k", 1_000, 16);
        let t = generate(&spec, 3);
        assert_eq!(t.graph.len(), 1_000);
        let hist = t.graph.tier_histogram();
        assert_eq!(hist[0].1, spec.tier1);
        assert_eq!(hist[3].1, spec.access);
        assert_eq!(hist[4].1, 1_000 - spec.tier1 - spec.tier2 - spec.content - spec.access);
        // ASN plan: node-id order is ASN order.
        let asns: Vec<u32> = t.graph.nodes().map(|n| t.graph.asn(n).0).collect();
        let mut sorted = asns.clone();
        sorted.sort_unstable();
        assert_eq!(asns, sorted);
        // Every stub has at least one provider; every access ISP peers with
        // every CDN.
        for n in t.graph.nodes() {
            match t.graph.tier(n) {
                Tier::Stub => assert!(
                    t.graph.neighbors(n).iter().any(|(_, r)| *r == Rel::Provider)
                ),
                Tier::Access => {
                    let peers = t
                        .graph
                        .neighbors(n)
                        .iter()
                        .filter(|(m, r)| *r == Rel::Peer && t.graph.tier(*m) == Tier::Content)
                        .count();
                    assert_eq!(peers, spec.content);
                }
                _ => {}
            }
        }
        // VP placements are distinct (asn, metro) pairs.
        let mut seen: Vec<(NodeId, MetroId)> = t.vp_placements.clone();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), t.vp_placements.len());
    }

    /// The provider DAG is rooted in the tier-1 clique: the tier-1s form a
    /// full p2p mesh, and every other AS buys from at least one AS with a
    /// smaller node id. A customer→provider walk therefore descends node
    /// ids and ends in the clique, from where every tier-1 is one peering
    /// away — so every AS, down to the last stub, is connected to the core.
    #[test]
    fn provider_dag_is_rooted_in_the_tier1_clique() {
        for (total, vps) in [(300, 4), (899, 11), (2_000, 40), (5_000, 32)] {
            let spec = WorldSpec::planetary("oracle", total, vps);
            for seed in [1, 7, 0xD1A5_0C44] {
                let g = generate(&spec, seed).graph;
                let tier1: Vec<NodeId> =
                    g.nodes().filter(|&n| g.tier(n) == Tier::Tier1).collect();
                assert_eq!(tier1.len(), spec.tier1);
                for &a in &tier1 {
                    let clique_peers = g
                        .neighbors(a)
                        .iter()
                        .filter(|&&(m, r)| r == Rel::Peer && g.tier(m) == Tier::Tier1)
                        .count();
                    assert_eq!(
                        clique_peers,
                        tier1.len() - 1,
                        "{total}/{seed}: tier-1 AS {} is not meshed with the clique",
                        g.asn(a)
                    );
                }
                for n in g.nodes().filter(|&n| g.tier(n) != Tier::Tier1) {
                    assert!(
                        g.neighbors(n).iter().any(|&(m, r)| r == Rel::Provider && m < n),
                        "{total}/{seed}: AS {} has no provider below it",
                        g.asn(n)
                    );
                }
            }
        }
    }

    #[test]
    fn stub_tail_is_heavy_tailed() {
        let spec = WorldSpec::planetary("sim-5k", 5_000, 32);
        let t = generate(&spec, 11);
        // Customer counts over the provider pool: the max should be well
        // above the mean (rich get richer), and the distribution long-tailed.
        let mut cone: Vec<usize> = t
            .graph
            .nodes()
            .filter(|&n| matches!(t.graph.tier(n), Tier::Access | Tier::Transit))
            .map(|n| {
                t.graph
                    .neighbors(n)
                    .iter()
                    .filter(|(_, r)| *r == Rel::Customer)
                    .count()
            })
            .collect();
        cone.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = cone.iter().sum();
        let mean = total as f64 / cone.len() as f64;
        assert!(
            cone[0] as f64 > 3.0 * mean,
            "max cone {} vs mean {mean:.1} — not heavy-tailed",
            cone[0]
        );
        // Top 20% of providers hold the majority of customers.
        let top: usize = cone.iter().take(cone.len() / 5).sum();
        assert!(top * 2 > total, "top quintile holds {top} of {total}");
    }
}
