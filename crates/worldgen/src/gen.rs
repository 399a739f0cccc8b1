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
//! deterministic sample of stubs. The far edge exists only in the universe
//! graph — visible to stats and fingerprints, but costing one AS record
//! instead of a router mesh. The compiled universe is kept
//! under the addressing plan's 200-AS ceiling by construction.

use crate::rng::Rng;
use manic_netsim::AsNumber;
use manic_scenario::intern::{intern_metro, MetroId, METRO_CODES};
use manic_scenario::{AsGraph, AsInfo, AsKind};

/// ASN bands of the generator's plan, in tier order. A generated AS's rank
/// by ASN is its node id in [`crate::topology_fingerprint`].
pub const TIER1_ASN_BASE: u32 = 101;
pub const TIER2_ASN_BASE: u32 = 1_001;
pub const CONTENT_ASN_BASE: u32 = 2_001;
pub const ACCESS_ASN_BASE: u32 = 3_001;
pub const STUB_ASN_BASE: u32 = 10_001;

/// Tier labels in ASN-band order; [`tier`] indexes them.
pub const TIERS: [&str; 5] = ["tier1", "transit", "content", "access", "stub"];

/// The tier of a generated AS: the index into [`TIERS`] of its ASN band.
pub fn tier(asn: AsNumber) -> usize {
    [TIER2_ASN_BASE, CONTENT_ASN_BASE, ACCESS_ASN_BASE, STUB_ASN_BASE]
        .iter()
        .filter(|&&base| asn.0 >= base)
        .count()
}

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

/// A generated topology: the whole universe plus everything the focus
/// compiler and the stats/fingerprint paths need.
#[derive(Debug, Clone)]
pub struct Topology {
    pub spec: WorldSpec,
    pub seed: u64,
    /// Every AS of the universe; tier-1s are `AsKind::Transit`.
    pub graph: AsGraph,
    /// `(access AS, metro)` per VP; distinct pairs by construction.
    pub vp_placements: Vec<(AsNumber, MetroId)>,
    /// Access-CDN adjacencies that interconnect over the IXP LAN.
    pub ixp_pairs: Vec<(AsNumber, AsNumber)>,
    /// ASes compiled to router level, ascending.
    pub focus: Vec<AsNumber>,
}

/// Draw `k` distinct metro codes.
fn metros(rng: &mut Rng, k: usize) -> Vec<String> {
    let n = METRO_CODES.len();
    rng.pick_distinct(n, k.min(n)).into_iter().map(|i| METRO_CODES[i].to_string()).collect()
}

/// Add one AS; generated ASes have no siblings, so the org is the name.
fn add_as(g: &mut AsGraph, asn: u32, name: String, kind: AsKind, pops: Vec<String>) -> AsNumber {
    let asn = AsNumber(asn);
    g.add_as(AsInfo { asn, org: name.clone(), name, kind, pops });
    asn
}

/// Generate the world for `(spec, seed)`.
pub fn generate(spec: &WorldSpec, seed: u64) -> Topology {
    let mut g = AsGraph::new();

    // --- Nodes, in ASN-band order -------------------------------------
    let mut rng = Rng::new(seed, 0x6E0_DE5);
    // One band: `n` ASes from `base`, each in `k(rng)` distinct metros.
    let mut band = |base: u32, n: usize, prefix: &str, kind, k: fn(&mut Rng) -> usize| {
        (0..n)
            .map(|i| {
                let k = k(&mut rng);
                let pops = metros(&mut rng, k);
                add_as(&mut g, base + i as u32, format!("{prefix}-{i:02}"), kind, pops)
            })
            .collect::<Vec<AsNumber>>()
    };
    let tier1 = band(TIER1_ASN_BASE, spec.tier1, "t1", AsKind::Transit, |r| 9 + r.below(4));
    let tier2 = band(TIER2_ASN_BASE, spec.tier2, "tr", AsKind::Transit, |r| 4 + r.below(3));
    let content = band(CONTENT_ASN_BASE, spec.content, "cdn", AsKind::Content, |r| 8 + r.below(5));
    let access = band(ACCESS_ASN_BASE, spec.access, "isp", AsKind::AccessIsp, |r| 5 + r.below(3));

    // --- Core relationships -------------------------------------------
    let mut rng = Rng::new(seed, 0xED6E5);
    // Tier-1 full-mesh peering.
    for (i, &a) in tier1.iter().enumerate() {
        for &p in tier1.iter().skip(i + 1) {
            g.add_p2p(a, p);
        }
    }
    // Tier-2: two tier-1 providers, sparse lateral peering.
    for (i, &t) in tier2.iter().enumerate() {
        for pi in rng.pick_distinct(tier1.len(), 2) {
            g.add_c2p(t, tier1[pi]);
        }
        for &u in tier2.iter().skip(i + 1) {
            if rng.chance(0.15) {
                g.add_p2p(t, u);
            }
        }
    }
    // Content: one tier-1 and one tier-2 transit provider.
    for &c in &content {
        g.add_c2p(c, tier1[rng.below(tier1.len())]);
        g.add_c2p(c, tier2[rng.below(tier2.len())]);
    }
    // Access: one tier-1 and one tier-2 transit provider, flat peering with
    // every CDN (the paper's peering-dispute battleground), sparse lateral
    // access-access peering.
    for (i, &a) in access.iter().enumerate() {
        g.add_c2p(a, tier1[rng.below(tier1.len())]);
        g.add_c2p(a, tier2[rng.below(tier2.len())]);
        for &c in &content {
            g.add_p2p(a, c);
        }
        for &other in access.iter().skip(i + 1) {
            if rng.chance(0.08) {
                g.add_p2p(a, other);
            }
        }
    }

    // --- Stub tail by preferential attachment -------------------------
    let mut rng = Rng::new(seed, 0x57AB5);
    let n_stubs = spec.total_ases - (spec.tier1 + spec.tier2 + spec.content + spec.access);
    // Polya-urn lottery over the provider pool (access + tier-2): a
    // provider's tickets grow with every customer it wins.
    let mut lottery: Vec<AsNumber> = access.iter().chain(tier2.iter()).copied().collect();
    for i in 0..n_stubs {
        let first = lottery[rng.below(lottery.len())];
        let pops = vec![pick(&mut rng, &g.info(first).pops).clone()];
        let name = format!("stub-{i:05}");
        let stub = add_as(&mut g, STUB_ASN_BASE + i as u32, name, AsKind::Stub, pops);
        g.add_c2p(stub, first);
        lottery.push(first);
        if rng.chance(0.3) {
            let second = lottery[rng.below(lottery.len())];
            if second != first {
                g.add_c2p(stub, second);
                lottery.push(second);
            }
        }
    }

    // --- VP placements -------------------------------------------------
    let mut vp_placements = Vec::with_capacity(spec.vps);
    for i in 0..spec.vps {
        let isp = access[i % access.len()];
        let slot = i / access.len();
        let pops = &g.info(isp).pops;
        assert!(slot < pops.len(), "VP plan exceeds access metro capacity");
        vp_placements.push((isp, intern_metro(&pops[slot]).expect("generated PoPs are metros")));
    }

    // --- IXP fabric -----------------------------------------------------
    let mut rng = Rng::new(seed, 0x1C39A);
    let mut ixp_pairs: Vec<(AsNumber, AsNumber)> = Vec::new();
    let mut tries = 0;
    while ixp_pairs.len() < spec.ixp_pairs && tries < spec.ixp_pairs * 20 {
        tries += 1;
        let pair = (access[rng.below(access.len())], content[rng.below(content.len())]);
        if !ixp_pairs.contains(&pair) {
            ixp_pairs.push(pair);
        }
    }

    // --- Focus universe -------------------------------------------------
    let mut focus: Vec<AsNumber> = tier1
        .iter()
        .chain(&tier2)
        .chain(&content)
        .chain(&access)
        .copied()
        .collect();
    focus.extend((0..spec.focus_stubs as u32).map(|i| AsNumber(STUB_ASN_BASE + i)));
    debug_assert!(focus.windows(2).all(|w| w[0] < w[1]));

    Topology {
        spec: spec.clone(),
        seed,
        graph: g,
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
    use manic_scenario::asgraph::Neighborhood;

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
        let edges = |t: &Topology| t.graph.adjacencies().collect::<Vec<_>>();
        assert_eq!(edges(&a), edges(&b));
        assert_eq!(a.vp_placements, b.vp_placements);
        assert_eq!(a.ixp_pairs, b.ixp_pairs);
        let c = generate(&spec, 8);
        assert_ne!((edges(&a), a.vp_placements.clone()), (edges(&c), c.vp_placements.clone()));
    }

    #[test]
    fn structure_matches_plan() {
        let spec = WorldSpec::planetary("sim-1k", 1_000, 16);
        let t = generate(&spec, 3);
        assert_eq!(t.graph.len(), 1_000);
        let mut hist = [0; 5];
        for info in t.graph.ases() {
            hist[tier(info.asn)] += 1;
        }
        let stubs = 1_000 - spec.tier1 - spec.tier2 - spec.content - spec.access;
        assert_eq!(hist, [spec.tier1, spec.tier2, spec.content, spec.access, stubs]);
        // Every stub has at least one provider; every access ISP peers with
        // every CDN.
        for info in t.graph.ases() {
            let hoods = t.graph.neighbors(info.asn);
            match info.kind {
                AsKind::Stub => assert!(hoods.iter().any(|(_, h)| *h == Neighborhood::Provider)),
                AsKind::AccessIsp => {
                    let peers = hoods
                        .iter()
                        .filter(|(m, h)| *h == Neighborhood::Peer && tier(*m) == 2)
                        .count();
                    assert_eq!(peers, spec.content);
                }
                _ => {}
            }
        }
        // VP placements are distinct (asn, metro) pairs.
        let mut seen: Vec<(AsNumber, MetroId)> = t.vp_placements.clone();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), t.vp_placements.len());
    }

    /// The provider DAG is rooted in the tier-1 clique: the tier-1s form a
    /// full p2p mesh, and every other AS buys from at least one AS with a
    /// smaller ASN. A customer→provider walk therefore descends ASNs and
    /// ends in the clique, from where every tier-1 is one peering away — so
    /// every AS, down to the last stub, is connected to the core.
    #[test]
    fn provider_dag_is_rooted_in_the_tier1_clique() {
        for (total, vps) in [(300, 4), (899, 11), (2_000, 40), (5_000, 32)] {
            let spec = WorldSpec::planetary("oracle", total, vps);
            for seed in [1, 7, 0xD1A5_0C44] {
                let g = generate(&spec, seed).graph;
                let tier1: Vec<AsNumber> =
                    g.ases().map(|i| i.asn).filter(|&a| tier(a) == 0).collect();
                assert_eq!(tier1.len(), spec.tier1);
                for &a in &tier1 {
                    let clique_peers = g
                        .neighbors(a)
                        .iter()
                        .filter(|&&(m, h)| h == Neighborhood::Peer && tier(m) == 0)
                        .count();
                    assert_eq!(
                        clique_peers,
                        tier1.len() - 1,
                        "{total}/{seed}: tier-1 AS {a} is not meshed with the clique"
                    );
                }
                for n in g.ases().map(|i| i.asn).filter(|&a| tier(a) != 0) {
                    assert!(
                        g.providers(n).iter().any(|&m| m < n),
                        "{total}/{seed}: AS {n} has no provider below it"
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
            .ases()
            .filter(|i| matches!(tier(i.asn), 1 | 3))
            .map(|i| t.graph.customers(i.asn).len())
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
