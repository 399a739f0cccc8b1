//! Compile an AS-level world into a router-level `manic_netsim::Network`.
//!
//! The compilation mirrors how real networks are laid out at the level of
//! detail the paper's measurements can observe:
//!
//! * every AS gets one backbone (BB) router per PoP, full-meshed with
//!   propagation delays derived from metro geography;
//! * every AS gets a host router at its first PoP terminating its announced
//!   host space — the "destinations in the address space of the neighbor
//!   network" TSLP probes toward (§3.1);
//! * every AS-level adjacency is realized as one or more *IP-level
//!   interdomain links* (the unit of measurement in the paper): a border
//!   router pair per common metro, numbered from a /30 owned by the provider
//!   (customer links) or the lower-ASN side (peering links), or from the IXP
//!   LAN for exchange-based peerings;
//! * FIBs implement the Gao-Rexford AS-level decision with **hot-potato**
//!   egress: each backbone router exits via the lowest-latency metro that has
//!   a link to the chosen next-hop AS, load-balancing across parallel links
//!   there (per-flow ECMP).
//!
//! Vantage points are plain hosts attached to an access-ISP backbone router.

use crate::addressing::Addressing;
use crate::artifacts::Artifacts;
use crate::asgraph::{AsGraph, RelKind};
use crate::bgp::Routing;
use manic_netsim::icmp::IcmpProfile;
use manic_netsim::noise;
use manic_netsim::queue::QueueModel;
use manic_netsim::topo::Direction;
use manic_netsim::{
    AsNumber, Fib, IfaceId, Ipv4, LinkId, LinkKind, Network, Prefix, RouterId, Topology,
};
use std::collections::{BTreeMap, HashMap};

/// Errors turning a scenario description into a world. Scenario input
/// (metro codes, VP placements, host plans) ultimately arrives from the
/// CLI and the serving layer, so a bad spec must surface as a reportable
/// error, not a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A PoP code that is not in the metro geography table.
    UnknownMetro(String),
    /// An AS was asked to host something (VP, secondary host) at a PoP it
    /// does not have.
    NoSuchPop { as_name: String, pop: String },
    /// `World::try_vp` was asked for a VP name that was never placed.
    UnknownVp(String),
    /// `World::try_secondary_host_addr` for an `(asn, pop)` with no
    /// secondary host.
    NoSecondaryHost { asn: AsNumber, pop: String },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::UnknownMetro(code) => write!(f, "unknown metro {code}"),
            CompileError::NoSuchPop { as_name, pop } => {
                write!(f, "{as_name} has no PoP {pop}")
            }
            CompileError::UnknownVp(name) => write!(f, "unknown VP {name}"),
            CompileError::NoSecondaryHost { asn, pop } => {
                write!(f, "no secondary host for {asn} at {pop}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Approximate metro coordinates in a plane where one unit of euclidean
/// distance equals one millisecond of one-way propagation delay, plus the
/// metro's standard-time UTC offset. Fallible variant of [`metro_info`]
/// for code paths fed by unvalidated scenario input.
pub fn try_metro_info(code: &str) -> Result<(f64, f64, i8), CompileError> {
    metro_table(code).ok_or_else(|| CompileError::UnknownMetro(code.to_string()))
}

/// Like [`try_metro_info`] but panics on an unknown code — for call sites
/// whose metros were already validated by [`compile`].
pub fn metro_info(code: &str) -> (f64, f64, i8) {
    metro_table(code).unwrap_or_else(|| panic!("unknown metro {code}"))
}

fn metro_table(code: &str) -> Option<(f64, f64, i8)> {
    match code {
        "nyc" => Some((46.0, 13.0, -5)),
        "bos" => Some((48.0, 11.0, -5)),
        "ash" => Some((44.0, 16.0, -5)), // Ashburn, VA
        "atl" => Some((40.0, 22.0, -5)),
        "mia" => Some((44.0, 30.0, -5)),
        "chi" => Some((36.0, 14.0, -6)),
        "dfw" => Some((30.0, 25.0, -6)),
        "hou" => Some((32.0, 28.0, -6)),
        "den" => Some((22.0, 17.0, -7)),
        "phx" => Some((17.0, 26.0, -7)),
        "lax" => Some((8.0, 25.0, -8)),
        "sjc" => Some((4.0, 20.0, -8)),
        "sea" => Some((6.0, 8.0, -8)),
        "lon" => Some((76.0, 5.0, 0)),
        "fra" => Some((82.0, 7.0, 1)),
        "ams" => Some((78.0, 4.0, 1)),
        _ => None,
    }
}

/// One-way propagation delay between two metros, ms (minimum 0.8 within a metro).
pub fn metro_delay(a: &str, b: &str) -> f64 {
    if a == b {
        return 0.8;
    }
    let (xa, ya, _) = metro_info(a);
    let (xb, yb, _) = metro_info(b);
    ((xa - xb).powi(2) + (ya - yb).powi(2)).sqrt().max(0.8)
}

/// Compilation knobs.
#[derive(Debug, Clone)]
pub struct CompileConfig {
    pub seed: u64,
    /// Maximum number of metros at which one adjacency gets links.
    pub max_link_metros: usize,
    /// Probability of a second parallel link at a metro (per-flow ECMP case).
    pub parallel_link_prob: f64,
    /// Fraction of border routers whose ICMP is rate limited (Table 1's
    /// measurement-artifact confounder).
    pub rate_limited_frac: f64,
    /// Fraction of border routers that answer on a slow path.
    pub slow_path_frac: f64,
    /// Fraction of border routers with episodic (day-granular) ICMP
    /// unresponsiveness — §5.1's "high far-end loss uncorrelated with
    /// latency" confounder.
    pub flaky_frac: f64,
    /// Additional host routers: `(asn, pop)` pairs terminating a /22 carve
    /// of the AS's host space at a secondary PoP. Used to place NDT-server
    /// style destinations whose hot-potato return path differs from the
    /// primary host's (the paper's Link-2 asymmetry, §5.3).
    pub secondary_hosts: Vec<(AsNumber, String)>,
}

impl Default for CompileConfig {
    fn default() -> Self {
        CompileConfig {
            seed: 0xC0FFEE,
            max_link_metros: 3,
            parallel_link_prob: 0.25,
            rate_limited_frac: 0.04,
            slow_path_frac: 0.04,
            flaky_frac: 0.08,
            secondary_hosts: Vec::new(),
        }
    }
}

/// A vantage point: a measurement host inside an access ISP.
#[derive(Debug, Clone)]
pub struct VantagePoint {
    /// Stable name, `{isp}-{pop}` (e.g. `comcast-chi`).
    pub name: String,
    pub asn: AsNumber,
    pub pop: String,
    pub router: RouterId,
    pub addr: Ipv4,
}

/// Ground truth for one IP-level interdomain link.
#[derive(Debug, Clone)]
pub struct GtLink {
    pub link: LinkId,
    /// Side A of the link (`Link::ifaces[0]`).
    pub a_asn: AsNumber,
    /// Side B (`Link::ifaces[1]`).
    pub b_asn: AsNumber,
    /// Border routers on each side.
    pub a_br: RouterId,
    pub b_br: RouterId,
    /// Addresses on the interdomain /30 (or IXP LAN).
    pub a_ext: Ipv4,
    pub b_ext: Ipv4,
    /// Internal (backbone-facing) interface addresses of the border routers —
    /// what a TTL-limited probe from inside the respective AS observes as the
    /// link's near end.
    pub a_int: Ipv4,
    pub b_int: Ipv4,
    /// Metro where each side's border router homes (differ for remote peering).
    pub a_metro: String,
    pub b_metro: String,
    /// Whether the link crosses the IXP LAN.
    pub via_ixp: bool,
}

impl GtLink {
    /// Does `asn` own one side of this link?
    pub fn touches(&self, asn: AsNumber) -> bool {
        self.a_asn == asn || self.b_asn == asn
    }

    /// The other side's ASN relative to `asn`.
    pub fn neighbor_of(&self, asn: AsNumber) -> AsNumber {
        if self.a_asn == asn {
            self.b_asn
        } else {
            debug_assert_eq!(self.b_asn, asn);
            self.a_asn
        }
    }

    /// Probing from inside `asn`: the near-end target (border router of
    /// `asn`, answering from its backbone-facing interface).
    pub fn near_addr_from(&self, asn: AsNumber) -> Ipv4 {
        if self.a_asn == asn {
            self.a_int
        } else {
            self.b_int
        }
    }

    /// Probing from inside `asn`: the far-end target (the neighbor's border
    /// interface on the link itself).
    pub fn far_addr_from(&self, asn: AsNumber) -> Ipv4 {
        if self.a_asn == asn {
            self.b_ext
        } else {
            self.a_ext
        }
    }

    /// Direction of traffic flowing *toward* `asn` across this link (the
    /// direction that congests when `asn` is the eyeball side).
    pub fn dir_toward(&self, asn: AsNumber) -> Direction {
        if self.a_asn == asn {
            Direction::BtoA
        } else {
            Direction::AtoB
        }
    }
}

/// A secondary destination host placed at a non-primary PoP.
#[derive(Debug, Clone)]
pub struct SecondaryHost {
    pub asn: AsNumber,
    pub pop: String,
    /// The /22 carve of the AS host space this host terminates.
    pub prefix: Prefix,
    pub router: RouterId,
}

/// A compiled world: network + ground truth + the artifacts the measurement
/// stack consumes.
pub struct World {
    pub net: Network,
    pub graph: AsGraph,
    pub routing: Routing,
    pub addressing: Addressing,
    pub vps: Vec<VantagePoint>,
    pub gt_links: Vec<GtLink>,
    pub artifacts: Artifacts,
    /// Host (destination) router of each AS.
    pub host_routers: BTreeMap<AsNumber, RouterId>,
    /// Backbone router per (AS, pop).
    pub bb_routers: BTreeMap<(AsNumber, String), RouterId>,
    /// Secondary destination hosts (see [`CompileConfig::secondary_hosts`]).
    pub secondary_hosts: Vec<SecondaryHost>,
}

impl World {
    /// Ground-truth interdomain links touching `asn`.
    pub fn links_of(&self, asn: AsNumber) -> Vec<&GtLink> {
        self.gt_links.iter().filter(|l| l.touches(asn)).collect()
    }

    /// Ground-truth links between a specific pair.
    pub fn links_between(&self, a: AsNumber, b: AsNumber) -> Vec<&GtLink> {
        self.gt_links
            .iter()
            .filter(|l| (l.a_asn == a && l.b_asn == b) || (l.a_asn == b && l.b_asn == a))
            .collect()
    }

    /// A responding destination address inside `asn`'s host space.
    pub fn host_addr(&self, asn: AsNumber, index: u32) -> Ipv4 {
        let hp = self.addressing.of(asn).host_prefix;
        hp.nth(1 + index)
    }

    /// A responding address served by the secondary host of `asn` at `pop`.
    pub fn try_secondary_host_addr(
        &self,
        asn: AsNumber,
        pop: &str,
        index: u32,
    ) -> Result<(Ipv4, RouterId), CompileError> {
        let sh = self
            .secondary_hosts
            .iter()
            .find(|s| s.asn == asn && s.pop == pop)
            .ok_or_else(|| CompileError::NoSecondaryHost { asn, pop: pop.to_string() })?;
        Ok((sh.prefix.nth(1 + index), sh.router))
    }

    /// Panicking convenience for experiment code whose `(asn, pop)` pairs
    /// are compiled into the binary; anything fed by external input should
    /// use [`Self::try_secondary_host_addr`].
    pub fn secondary_host_addr(&self, asn: AsNumber, pop: &str, index: u32) -> (Ipv4, RouterId) {
        self.try_secondary_host_addr(asn, pop, index)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The VP with the given name, if it was placed.
    pub fn try_vp(&self, name: &str) -> Result<&VantagePoint, CompileError> {
        self.vps
            .iter()
            .find(|v| v.name == name)
            .ok_or_else(|| CompileError::UnknownVp(name.to_string()))
    }

    /// Panicking convenience for test/experiment code with hard-coded VP
    /// names; external input goes through [`Self::try_vp`].
    pub fn vp(&self, name: &str) -> &VantagePoint {
        self.try_vp(name).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Working state while wiring one AS's routers.
struct AsPlumbing {
    /// bb router per pop code.
    bb: BTreeMap<String, RouterId>,
    /// bb iface used to reach another pop: (from_pop, to_pop) -> iface.
    mesh: HashMap<(String, String), IfaceId>,
    /// Direct /32 attachments at a bb: (pop, peer addr) -> bb iface.
    local: HashMap<String, Vec<(Ipv4, IfaceId)>>,
    /// Links of this AS: (gt index, my egress bb iface is resolved later).
    links: Vec<usize>,
    host_router: Option<RouterId>,
    host_bb_iface: Option<(String, IfaceId)>,
    /// Secondary hosts: (pop, carved prefix, bb iface toward the host,
    /// host router).
    secondary: Vec<(String, Prefix, IfaceId, RouterId)>,
}

/// Compile a world.
///
/// `vp_placements`: `(asn, pop)` pairs; `ixp_pairs`: adjacencies whose links
/// cross the IXP LAN instead of a private /30. Bad scenario input — a PoP
/// code outside the metro table, a VP or secondary host placed at a PoP the
/// AS does not have — is an error, not a panic: scenario specs arrive from
/// the CLI.
pub fn compile(
    graph: AsGraph,
    vp_placements: &[(AsNumber, &str)],
    ixp_pairs: &[(AsNumber, AsNumber)],
    cfg: &CompileConfig,
) -> Result<World, CompileError> {
    // Validate every referenced metro up front so the plumbing below can
    // use the infallible lookups.
    for info in graph.ases() {
        for pop in &info.pops {
            try_metro_info(pop)?;
        }
    }
    let mut addressing = Addressing::new();
    for info in graph.ases() {
        addressing.register(info.asn);
    }
    let routing = Routing::compute(&graph);
    let mut topo = Topology::new();
    let mut plumbing: BTreeMap<AsNumber, AsPlumbing> = BTreeMap::new();
    let mut gt_links: Vec<GtLink> = Vec::new();
    let mut secondary_hosts: Vec<SecondaryHost> = Vec::new();

    // --- Routers: backbone mesh, host router ---------------------------------
    for info in graph.ases() {
        assert!(!info.pops.is_empty(), "AS {} has no PoPs", info.asn);
        assert!(info.pops.len() <= 32, "PoP plan supports 32 PoPs per AS");
        let mut pl = AsPlumbing {
            bb: BTreeMap::new(),
            mesh: HashMap::new(),
            local: HashMap::new(),
            links: Vec::new(),
            host_router: None,
            host_bb_iface: None,
            secondary: Vec::new(),
        };
        for pop in &info.pops {
            let (_, _, tz) = metro_info(pop);
            let r = topo.add_router(
                info.asn,
                format!("{}-bb-{}", info.name, pop),
                pop.clone(),
                tz,
                IcmpProfile::default(),
            );
            pl.bb.insert(pop.clone(), r);
        }
        // Full mesh between pops.
        for (i, p) in info.pops.iter().enumerate() {
            for q in info.pops.iter().skip(i + 1) {
                let ap = addressing.of_mut(info.asn).next_pop_addr(i as u8);
                let qi = info.pops.iter().position(|x| x == q).unwrap() as u8;
                let aq = addressing.of_mut(info.asn).next_pop_addr(qi);
                let ip_ = topo.add_iface(pl.bb[p], ap);
                let iq = topo.add_iface(pl.bb[q], aq);
                topo.connect(
                    ip_,
                    iq,
                    LinkKind::Internal,
                    metro_delay(p, q),
                    100_000.0,
                    QueueModel { jitter_ms: 0.1, ..QueueModel::default() },
                    None,
                    None,
                );
                pl.mesh.insert((p.clone(), q.clone()), ip_);
                pl.mesh.insert((q.clone(), p.clone()), iq);
            }
        }
        // Host router at pops[0].
        let hpop = info.pops[0].clone();
        let (_, _, tz) = metro_info(&hpop);
        let host = topo.add_router(
            info.asn,
            format!("{}-host", info.name),
            hpop.clone(),
            tz,
            IcmpProfile::default(),
        );
        let a_bb = addressing.of_mut(info.asn).next_pop_addr(0);
        let a_h = addressing.of_mut(info.asn).next_pop_addr(0);
        let i_bb = topo.add_iface(pl.bb[&hpop], a_bb);
        let i_h = topo.add_iface(host, a_h);
        topo.connect(i_bb, i_h, LinkKind::Access, 0.3, 10_000.0, QueueModel::default(), None, None);
        topo.add_host_prefix(addressing.of(info.asn).host_prefix, host);
        pl.local.entry(hpop.clone()).or_default().push((a_h, i_bb));
        pl.host_router = Some(host);
        pl.host_bb_iface = Some((hpop, i_bb));

        // Secondary hosts at non-primary PoPs: each terminates a /22 carve
        // of the host space (10.i.120.0/22, 10.i.124.0/22).
        let wanted: Vec<String> = cfg
            .secondary_hosts
            .iter()
            .filter(|(a, _)| *a == info.asn)
            .map(|(_, p)| p.clone())
            .collect();
        for (k, pop) in wanted.iter().enumerate() {
            assert!(k < 2, "at most two secondary hosts per AS");
            let pop_idx = info
                .pops
                .iter()
                .position(|p| p == pop)
                .ok_or_else(|| CompileError::NoSuchPop {
                    as_name: info.name.clone(),
                    pop: pop.clone(),
                })? as u8;
            let (_, _, tz) = metro_info(pop);
            let idx_octet = addressing.of(info.asn).index;
            let prefix = Prefix::new(Ipv4::new(10, idx_octet, 120 + 4 * k as u8, 0), 22);
            let r = topo.add_router(
                info.asn,
                format!("{}-host-{pop}", info.name),
                pop.clone(),
                tz,
                IcmpProfile::default(),
            );
            let a_bb = addressing.of_mut(info.asn).next_pop_addr(pop_idx);
            let a_h = addressing.of_mut(info.asn).next_pop_addr(pop_idx);
            let i_bb = topo.add_iface(pl.bb[pop], a_bb);
            let i_h = topo.add_iface(r, a_h);
            topo.connect(i_bb, i_h, LinkKind::Access, 0.3, 10_000.0, QueueModel::default(), None, None);
            topo.add_host_prefix(prefix, r);
            pl.local.entry(pop.clone()).or_default().push((a_h, i_bb));
            pl.secondary.push((pop.clone(), prefix, i_bb, r));
            secondary_hosts.push(SecondaryHost { asn: info.asn, pop: pop.clone(), prefix, router: r });
        }
        plumbing.insert(info.asn, pl);
    }

    // --- Vantage points -------------------------------------------------------
    let mut vps = Vec::new();
    for &(asn, pop) in vp_placements {
        let info = graph.info(asn);
        let pop_idx = info
            .pops
            .iter()
            .position(|p| p == pop)
            .ok_or_else(|| CompileError::NoSuchPop {
                as_name: info.name.clone(),
                pop: pop.to_string(),
            })? as u8;
        let (_, _, tz) = metro_info(pop);
        let name = format!("{}-{}", info.name, pop);
        let r = topo.add_router(asn, format!("vp-{name}"), pop, tz, IcmpProfile::default());
        let a_bb = addressing.of_mut(asn).next_pop_addr(pop_idx);
        let a_vp = addressing.of_mut(asn).next_pop_addr(pop_idx);
        let pl = plumbing.get_mut(&asn).unwrap();
        let i_bb = topo.add_iface(pl.bb[pop], a_bb);
        let i_vp = topo.add_iface(r, a_vp);
        // Broadband-plan capacity: panelist VPs sit behind ~20 Mbit/s access
        // links, which caps the throughput validations the way real
        // SamKnows/Ark whiteboxes are capped.
        topo.connect(i_bb, i_vp, LinkKind::Access, 1.5, 20.0, QueueModel::default(), None, None);
        pl.local.entry(pop.to_string()).or_default().push((a_vp, i_bb));
        vps.push(VantagePoint { name, asn, pop: pop.to_string(), router: r, addr: a_vp });
    }

    // --- Interdomain links ----------------------------------------------------
    let adjacencies: Vec<(AsNumber, AsNumber, RelKind)> = graph.adjacencies().collect();
    for (x, y, rel) in adjacencies {
        // x is the customer for c2p; normalized low-ASN first for p2p.
        let xinfo = graph.info(x).clone();
        let yinfo = graph.info(y).clone();
        let via_ixp = ixp_pairs
            .iter()
            .any(|&(a, b)| (a == x && b == y) || (a == y && b == x));
        // Metros where both are present, in x's pop order.
        let mut metros: Vec<(String, String)> = xinfo
            .pops
            .iter()
            .filter(|p| yinfo.pops.contains(p))
            .map(|p| (p.clone(), p.clone()))
            .collect();
        if metros.is_empty() {
            // Remote peering: x reaches into y's first PoP.
            metros.push((xinfo.pops[0].clone(), yinfo.pops[0].clone()));
        }
        metros.truncate(cfg.max_link_metros);
        for (mx, my) in metros {
            let n_parallel = 1 + noise::bernoulli(
                cfg.seed ^ 0x0A11,
                (x.0 as u64) << 32 | y.0 as u64,
                mx.as_bytes().iter().map(|&b| b as u64).sum(),
                cfg.parallel_link_prob,
            ) as usize;
            for copy in 0..n_parallel {
                let gt = build_interdomain_link(
                    &mut topo,
                    &mut addressing,
                    &graph,
                    &mut plumbing,
                    (x, &xinfo.name, &mx),
                    (y, &yinfo.name, &my),
                    rel,
                    via_ixp,
                    copy,
                    cfg,
                );
                let idx = gt_links.len();
                plumbing.get_mut(&x).unwrap().links.push(idx);
                plumbing.get_mut(&y).unwrap().links.push(idx);
                gt_links.push(gt);
            }
        }
    }

    // --- FIBs -----------------------------------------------------------------
    let fibs = build_fibs(&topo, &graph, &routing, &addressing, &plumbing, &gt_links, &vps);

    let artifacts = Artifacts::build(&graph, &addressing, ixp_pairs);
    let host_routers = plumbing
        .iter()
        .map(|(&asn, pl)| (asn, pl.host_router.unwrap()))
        .collect();
    let bb_routers = plumbing
        .iter()
        .flat_map(|(&asn, pl)| {
            pl.bb.iter().map(move |(pop, &r)| ((asn, pop.clone()), r))
        })
        .collect();

    Ok(World {
        net: Network::new(topo, fibs, cfg.seed),
        graph,
        routing,
        addressing,
        vps,
        gt_links,
        artifacts,
        host_routers,
        bb_routers,
        secondary_hosts,
    })
}

/// Create border routers + the interdomain link for one (adjacency, metro).
#[allow(clippy::too_many_arguments)]
fn build_interdomain_link(
    topo: &mut Topology,
    addressing: &mut Addressing,
    graph: &AsGraph,
    plumbing: &mut BTreeMap<AsNumber, AsPlumbing>,
    (x, xname, mx): (AsNumber, &str, &str),
    (y, yname, my): (AsNumber, &str, &str),
    rel: RelKind,
    via_ixp: bool,
    copy: usize,
    cfg: &CompileConfig,
) -> GtLink {
    let stream = (x.0 as u64) << 32 | y.0 as u64;
    let salt = copy as u64
        + mx.as_bytes().iter().map(|&b| b as u64).sum::<u64>() * 131;

    let br_profile = |asn: AsNumber, which: u64| -> IcmpProfile {
        let h = noise::uniform(cfg.seed ^ 0xB50F, stream ^ which, salt ^ asn.0 as u64);
        if h < cfg.rate_limited_frac {
            // Below the 1 Hz loss-probing rate: the loss module sees 60-80%
            // far loss at all times (the paper's Table 1 artifact), while
            // 5-minute TSLP probes still get through.
            IcmpProfile::rate_limited(0.3)
        } else if h < cfg.rate_limited_frac + cfg.slow_path_frac {
            IcmpProfile::slow(25.0)
        } else if h < cfg.rate_limited_frac + cfg.slow_path_frac + cfg.flaky_frac {
            IcmpProfile {
                flaky: Some(manic_netsim::icmp::FlakyProfile {
                    day_prob: 0.35,
                    drop_prob: 0.9,
                    // 07:00-12:00 UTC = small hours across US timezones.
                    window_start_hour: 7,
                    window_end_hour: 12,
                }),
                ..IcmpProfile::default()
            }
        } else {
            IcmpProfile::default()
        }
    };

    // Border routers.
    let (.., tzx) = metro_info(mx);
    let (.., tzy) = metro_info(my);
    let brx = topo.add_router(
        x,
        format!("{xname}-br-{my}-{yname}{copy}"),
        mx,
        tzx,
        br_profile(x, 0xA),
    );
    let bry = topo.add_router(
        y,
        format!("{yname}-br-{mx}-{xname}{copy}"),
        my,
        tzy,
        br_profile(y, 0xB),
    );

    // Internal attachment of each BR to its backbone.
    let attach = |topo: &mut Topology,
                  addressing: &mut Addressing,
                  plumbing: &mut BTreeMap<AsNumber, AsPlumbing>,
                  graph: &AsGraph,
                  asn: AsNumber,
                  br: RouterId,
                  metro: &str|
     -> (Ipv4, IfaceId) {
        let pop_idx = graph.info(asn).pops.iter().position(|p| p == metro).unwrap() as u8;
        let a_bb = addressing.of_mut(asn).next_pop_addr(pop_idx);
        let a_br = addressing.of_mut(asn).next_pop_addr(pop_idx);
        let pl = plumbing.get_mut(&asn).unwrap();
        let i_bb = topo.add_iface(pl.bb[metro], a_bb);
        let i_br = topo.add_iface(br, a_br);
        topo.connect(i_bb, i_br, LinkKind::Internal, 0.3, 100_000.0, QueueModel::default(), None, None);
        pl.local.entry(metro.to_string()).or_default().push((a_br, i_bb));
        (a_br, i_bb)
    };
    let (a_int, _) = attach(topo, addressing, plumbing, graph, x, brx, mx);
    let (b_int, _) = attach(topo, addressing, plumbing, graph, y, bry, my);

    // The interdomain /30 (or IXP LAN pair). Ownership: provider numbers
    // customer links; lower ASN numbers peering links.
    let (a_ext, b_ext) = if via_ixp {
        addressing.next_ixp_pair()
    } else {
        let owner = match rel {
            RelKind::CustomerToProvider => y, // x is the customer
            RelKind::PeerToPeer => {
                if x < y {
                    x
                } else {
                    y
                }
            }
        };
        let (_, n1, n2) = addressing.of_mut(owner).next_linknet();
        // .1 goes to the owner's side.
        if owner == x {
            (n1, n2)
        } else {
            (n2, n1)
        }
    };
    let i_xe = topo.add_iface(brx, a_ext);
    let i_ye = topo.add_iface(bry, b_ext);
    let delay = 0.2 + 0.8 * noise::uniform(cfg.seed ^ 0xDE1A, stream, salt)
        + if mx != my { metro_delay(mx, my) } else { 0.0 };
    let capacity = 10_000.0; // 10G port; capacity matters relatively, not absolutely.
    let link = topo.connect(
        i_xe,
        i_ye,
        LinkKind::Interdomain,
        delay,
        capacity,
        QueueModel::default(),
        None,
        None,
    );

    GtLink {
        link,
        a_asn: x,
        b_asn: y,
        a_br: brx,
        b_br: bry,
        a_ext,
        b_ext,
        a_int,
        b_int,
        a_metro: mx.to_string(),
        b_metro: my.to_string(),
        via_ixp,
    }
}

/// Build the single routing epoch for every router.
fn build_fibs(
    topo: &Topology,
    graph: &AsGraph,
    routing: &Routing,
    addressing: &Addressing,
    plumbing: &BTreeMap<AsNumber, AsPlumbing>,
    gt_links: &[GtLink],
    vps: &[VantagePoint],
) -> Vec<Fib> {
    let mut fibs: Vec<Fib> = (0..topo.routers.len()).map(|_| Fib::new()).collect();

    for info in graph.ases() {
        let asn = info.asn;
        let pl = &plumbing[&asn];

        // Per-link bookkeeping from this AS's perspective.
        struct MyLink {
            neighbor: AsNumber,
            my_metro: String,
            /// bb iface that reaches my BR (for local egress).
            bb_to_br: IfaceId,
            /// my BR's external iface.
            ext_iface: IfaceId,
            /// my BR router.
            br: RouterId,
            my_ext: Ipv4,
            their_ext: Ipv4,
        }
        let mut my_links: Vec<MyLink> = Vec::new();
        for &idx in &pl.links {
            let gt = &gt_links[idx];
            let mine_is_a = gt.a_asn == asn;
            let (br, my_metro, my_ext, their_ext) = if mine_is_a {
                (gt.a_br, gt.a_metro.clone(), gt.a_ext, gt.b_ext)
            } else {
                (gt.b_br, gt.b_metro.clone(), gt.b_ext, gt.a_ext)
            };
            // bb iface to this BR: find the local attachment recorded for the
            // BR's internal addr.
            let my_int = if mine_is_a { gt.a_int } else { gt.b_int };
            let bb_to_br = pl.local[&my_metro]
                .iter()
                .find(|(addr, _)| *addr == my_int)
                .map(|&(_, i)| i)
                .expect("BR attachment recorded");
            let ext_iface = topo.iface_by_addr(my_ext).unwrap().id;
            my_links.push(MyLink {
                neighbor: gt.neighbor_of(asn),
                my_metro,
                bb_to_br,
                ext_iface,
                br,
                my_ext,
                their_ext,
            });
        }

        // Distinct neighbors, numbered in link order, and each link's number.
        let mut neighbor_index: HashMap<AsNumber, usize> = HashMap::new();
        let link_neighbor: Vec<usize> = my_links
            .iter()
            .map(|ml| {
                let next = neighbor_index.len();
                *neighbor_index.entry(ml.neighbor).or_insert(next)
            })
            .collect();
        // Every other AS reached through one of those neighbors, in graph
        // order: its address block and its AS-level next hop's number. An
        // AS whose next hop has no link here gets no route.
        let toward: Vec<(Prefix, usize)> = graph
            .ases()
            .filter(|dst| dst.asn != asn)
            .filter_map(|dst| {
                let next = routing.next_as(asn, dst.asn)?;
                Some((addressing.of(dst.asn).block, *neighbor_index.get(&next)?))
            })
            .collect();

        // ---- Backbone routers ----
        for (pop, &bb) in &pl.bb {
            let fib = &mut fibs[bb.0 as usize];
            let my_addr = addressing.of(asn);
            // Each link's egress from this pop: the BR attachment when the
            // link is local, else the mesh iface toward the link's metro.
            let egress: Vec<IfaceId> = my_links
                .iter()
                .map(|ml| {
                    if &ml.my_metro == pop {
                        ml.bb_to_br
                    } else {
                        pl.mesh[&(pop.clone(), ml.my_metro.clone())]
                    }
                })
                .collect();

            // Mesh routes to other pops' infrastructure subnets.
            for (qpop, &_qbb) in &pl.bb {
                if qpop == pop {
                    continue;
                }
                let qidx = info.pops.iter().position(|p| p == qpop).unwrap() as u8;
                let via = pl.mesh[&(pop.clone(), qpop.clone())];
                fib.insert(my_addr.pop_subnet(qidx), vec![via]);
            }
            // Local /32 attachments (BR internals, host, VPs).
            if let Some(locals) = pl.local.get(pop) {
                for &(addr, iface) in locals {
                    fib.insert(Prefix::host(addr), vec![iface]);
                }
            }
            // Host prefix: toward pops[0].
            let (hpop, h_iface) = pl.host_bb_iface.as_ref().unwrap();
            if hpop == pop {
                fib.insert(my_addr.host_prefix, vec![*h_iface]);
            } else {
                let via = pl.mesh[&(pop.clone(), hpop.clone())];
                fib.insert(my_addr.host_prefix, vec![via]);
            }
            // Secondary host carves (more specific than the /18).
            for (spop, sprefix, s_iface, _) in &pl.secondary {
                if spop == pop {
                    fib.insert(*sprefix, vec![*s_iface]);
                } else {
                    let via = pl.mesh[&(pop.clone(), spop.clone())];
                    fib.insert(*sprefix, vec![via]);
                }
            }
            // Own linknet /30s: route each to the owning link's metro.
            for (ml, &nh) in my_links.iter().zip(&egress) {
                let p30 = Prefix::new(ml.my_ext, 30);
                if !my_addr.linknet_block().covers(&p30) {
                    // IXP LAN or neighbor-owned /30: host routes for both ends.
                    for ext in [ml.my_ext, ml.their_ext] {
                        if addressing.block_owner(ext) != Some(asn) {
                            fib.insert(Prefix::host(ext), vec![nh]);
                        }
                    }
                    continue;
                }
                fib.insert(p30, vec![nh]);
            }

            // Hot-potato egress per neighbor: the nearest of its links by
            // metro delay, equal-cost links forming one ECMP group.
            let mut best: Vec<Option<(f64, Vec<IfaceId>)>> = vec![None; neighbor_index.len()];
            for ((ml, &k), &egress) in my_links.iter().zip(&link_neighbor).zip(&egress) {
                let cost = if &ml.my_metro == pop {
                    0.0
                } else {
                    metro_delay(pop, &ml.my_metro)
                };
                match &mut best[k] {
                    None => best[k] = Some((cost, vec![egress])),
                    Some((c, group)) => {
                        if cost < *c - 1e-9 {
                            *c = cost;
                            *group = vec![egress];
                        } else if (cost - *c).abs() <= 1e-9 && !group.contains(&egress) {
                            group.push(egress);
                        }
                    }
                }
            }
            // External destinations: the group of their next hop.
            for &(block, k) in &toward {
                if let Some((_, group)) = &best[k] {
                    fib.insert(block, group.clone());
                }
            }
        }

        // ---- Border routers ----
        for (ml, &k) in my_links.iter().zip(&link_neighbor) {
            let fib = &mut fibs[ml.br.0 as usize];
            // Default: everything back into the backbone.
            let int_iface = topo
                .router(ml.br)
                .ifaces
                .iter()
                .map(|&i| topo.iface(i))
                .find(|i| i.id != ml.ext_iface)
                .expect("BR has an internal iface")
                .id;
            fib.insert("0.0.0.0/0".parse().unwrap(), vec![int_iface]);
            // Destinations whose AS-level next hop is this neighbor: across.
            for &(block, _) in toward.iter().filter(|&&(_, next)| next == k) {
                fib.insert(block, vec![ml.ext_iface]);
            }
            // The far side of my own /30 (and the IXP LAN peer).
            fib.insert(Prefix::host(ml.their_ext), vec![ml.ext_iface]);
        }

        // ---- Host routers ----
        let mut hosts = vec![pl.host_router.unwrap()];
        hosts.extend(pl.secondary.iter().map(|&(_, _, _, r)| r));
        for host in hosts {
            let h_iface = topo
                .router(host)
                .ifaces
                .first()
                .map(|&i| topo.iface(i).id)
                .expect("host router has an iface");
            fibs[host.0 as usize].insert("0.0.0.0/0".parse().unwrap(), vec![h_iface]);
        }
    }

    // ---- VP hosts ----
    for vp in vps {
        let iface = topo
            .router(vp.router)
            .ifaces
            .first()
            .map(|&i| topo.iface(i).id)
            .expect("VP has an iface");
        fibs[vp.router.0 as usize].insert("0.0.0.0/0".parse().unwrap(), vec![iface]);
    }

    fibs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asgraph::{AsInfo, AsKind};

    fn expect_err(r: Result<World, CompileError>) -> CompileError {
        match r {
            Err(e) => e,
            Ok(_) => panic!("expected a compile error"),
        }
    }

    fn graph_with_pops(pops: &[&str]) -> AsGraph {
        let mut g = AsGraph::new();
        g.add_as(AsInfo {
            asn: AsNumber(65001),
            name: "solo".into(),
            kind: AsKind::AccessIsp,
            org: "solo".into(),
            pops: pops.iter().map(|p| p.to_string()).collect(),
        });
        g
    }

    #[test]
    fn unknown_metro_is_an_error_not_a_panic() {
        assert_eq!(
            try_metro_info("zzz"),
            Err(CompileError::UnknownMetro("zzz".into()))
        );
        let err = expect_err(compile(
            graph_with_pops(&["nyc", "zzz"]),
            &[],
            &[],
            &CompileConfig::default(),
        ));
        assert_eq!(err, CompileError::UnknownMetro("zzz".into()));
        assert_eq!(err.to_string(), "unknown metro zzz");
    }

    #[test]
    fn vp_at_absent_pop_is_an_error() {
        let err = expect_err(compile(
            graph_with_pops(&["nyc"]),
            &[(AsNumber(65001), "chi")],
            &[],
            &CompileConfig::default(),
        ));
        assert_eq!(
            err,
            CompileError::NoSuchPop { as_name: "solo".into(), pop: "chi".into() }
        );
    }

    #[test]
    fn secondary_host_at_absent_pop_is_an_error() {
        let cfg = CompileConfig {
            secondary_hosts: vec![(AsNumber(65001), "lax".into())],
            ..CompileConfig::default()
        };
        let err = expect_err(compile(graph_with_pops(&["nyc"]), &[], &[], &cfg));
        assert_eq!(
            err,
            CompileError::NoSuchPop { as_name: "solo".into(), pop: "lax".into() }
        );
    }

    #[test]
    fn world_lookups_report_errors() {
        let w = compile(graph_with_pops(&["nyc"]), &[], &[], &CompileConfig::default())
            .expect("single-AS world compiles");
        assert_eq!(
            w.try_vp("nope").unwrap_err(),
            CompileError::UnknownVp("nope".into())
        );
        assert_eq!(
            w.try_secondary_host_addr(AsNumber(65001), "nyc", 0).unwrap_err(),
            CompileError::NoSecondaryHost { asn: AsNumber(65001), pop: "nyc".into() }
        );
    }
}
