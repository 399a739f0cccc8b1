//! Concrete worlds.
//!
//! `toy()` is a five-AS world that compiles in microseconds — tests and the
//! quickstart example use it. `us_broadband()` reproduces the study
//! population of §6: the eight U.S. broadband access ISPs the paper probes,
//! the nine frequently-congested transit/content providers of Table 4, a
//! wider field of peers/providers matching Table 3's "observed" counts, and
//! a 22-month congestion schedule whose arcs follow the qualitative story of
//! Figures 7 and 8 (CenturyLink→Google severe and persistent; AT&T→Tata
//! peaking January 2017; Comcast congestion migrating from Google to
//! Tata/NTT in mid-2017; TWC episodes dissipating by December 2016; RCN
//! nearly clean).

use crate::asgraph::{AsGraph, AsInfo, AsKind};
use crate::compile::{compile, CompileConfig, World};
use crate::intern::{self, metros::*, MetroId};
use crate::schedule::{month_schedule, CongestionEpisode};
use manic_netsim::traffic::{DiurnalDemand, MonthScale};
use manic_netsim::AsNumber;
use std::collections::HashMap;
use std::sync::Arc;

/// Study window: March 2016 (month 2) .. January 2018 (month 24, exclusive).
pub const STUDY_START_MONTH: u32 = 2;
pub const STUDY_END_MONTH: u32 = 24;

/// Baseline (quiet-hours) utilization of the eyeball-bound direction of an
/// access↔provider interdomain link.
pub const EYEBALL_BASE_UTIL: f64 = 0.55;
/// Amplitude outside congestion episodes: peak utilization ~0.85, safely
/// under the queueing onset.
pub const IDLE_AMPLITUDE: f64 = 0.30;

/// Install per-link demand models from a congestion schedule.
///
/// Every interdomain link touching an access ISP gets a diurnal profile in
/// the eyeball-bound direction: idle amplitude outside episodes, the
/// episode-derived amplitude inside them. Links not touching an access ISP
/// (transit mesh, content transit) get mild profiles in both directions.
pub fn install_congestion(world: &mut World, episodes: &[CongestionEpisode]) {
    // Pair -> ordered *metro groups*. `link_fraction` selects whole metros:
    // parallel ports between the same two networks at one exchange point
    // share the same aggregate demand, so they congest (or not) together.
    let mut pair_metros: HashMap<(AsNumber, AsNumber), Vec<String>> = HashMap::new();
    for gt in world.gt_links.iter() {
        let key = pair_key(gt.a_asn, gt.b_asn);
        let metros = pair_metros.entry(key).or_default();
        if !metros.contains(&gt.a_metro) {
            metros.push(gt.a_metro.clone()); // creation (LinkId) order
        }
    }

    for gt in world.gt_links.iter() {
        let a_kind = world.graph.info(gt.a_asn).kind;
        let b_kind = world.graph.info(gt.b_asn).kind;
        // Eyeball side: an access ISP end, if any.
        let eyeball = if a_kind == AsKind::AccessIsp {
            Some(gt.a_asn)
        } else if b_kind == AsKind::AccessIsp {
            Some(gt.b_asn)
        } else {
            None
        };
        let seed_ab = (gt.link.0 as u64) << 1;
        let seed_ba = seed_ab | 1;
        let link_id = gt.link;

        let (load_ab, load_ba) = match eyeball {
            Some(ap) => {
                let tcp = gt.neighbor_of(ap);
                let metros = &pair_metros[&pair_key(ap, tcp)];
                let n = metros.len();
                let rank = metros.iter().position(|m| *m == gt.a_metro).unwrap();
                // Episodes that apply to this pair AND this link's metro rank.
                let applicable: Vec<&CongestionEpisode> = episodes
                    .iter()
                    .filter(|e| {
                        e.ap == ap
                            && e.tcp == tcp
                            && rank < (e.link_fraction * n as f64).ceil() as usize
                    })
                    .collect();
                let monthly = month_schedule(&applicable, EYEBALL_BASE_UTIL, IDLE_AMPLITUDE);
                // The eyeball-bound profile keys its diurnal clock to the
                // AP-side border router's metro timezone.
                let tz = tz_of(gt, ap);
                let toward_ap =
                    eyeball_profile(tz, monthly, if gt.a_asn == ap { seed_ba } else { seed_ab });
                let away = quiet_profile(tz, if gt.a_asn == ap { seed_ab } else { seed_ba });
                if gt.a_asn == ap {
                    // Toward AP = toward side A = BtoA direction loads.
                    (Some(away), Some(toward_ap))
                } else {
                    (Some(toward_ap), Some(away))
                }
            }
            None => {
                let tz = tz_of(gt, gt.a_asn);
                (Some(quiet_profile(tz, seed_ab)), Some(quiet_profile(tz, seed_ba)))
            }
        };

        let link = world.net.topo.link_mut(link_id);
        link.load_ab = load_ab.map(|d| Arc::new(d) as Arc<dyn manic_netsim::LoadModel>);
        link.load_ba = load_ba.map(|d| Arc::new(d) as Arc<dyn manic_netsim::LoadModel>);
    }
}

/// Normalized `(low ASN, high ASN)` key of an AS pair.
pub fn pair_key(a: AsNumber, b: AsNumber) -> (AsNumber, AsNumber) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Metro timezone of `asn`'s side of the link.
pub fn tz_of(gt: &crate::compile::GtLink, asn: AsNumber) -> i8 {
    let metro = if gt.a_asn == asn { &gt.a_metro } else { &gt.b_metro };
    crate::compile::metro_info(metro).2
}

/// The eyeball-bound profile of a link direction toward an access ISP, in
/// the timezone `tz`: `monthly` scales the evening peak month by month, so
/// it is the amplitude.
pub fn eyeball_profile(tz: i8, monthly: MonthScale, seed: u64) -> DiurnalDemand {
    DiurnalDemand {
        base: EYEBALL_BASE_UTIL,
        amplitude: 1.0,
        peak_hour: 21.0,
        peak_width: 2.6,
        tz_offset_hours: tz,
        weekend_factor: 1.0,
        monthly,
        noise_amp: 0.02,
        noise_seed: seed,
    }
}

/// The mild diurnal profile of a link direction no congestion episode
/// drives, in the timezone `tz`.
pub fn quiet_profile(tz: i8, seed: u64) -> DiurnalDemand {
    DiurnalDemand {
        base: 0.25,
        amplitude: 0.25,
        peak_hour: 21.0,
        peak_width: 2.6,
        tz_offset_hours: tz,
        weekend_factor: 1.0,
        monthly: MonthScale::flat(),
        noise_amp: 0.02,
        noise_seed: seed,
    }
}

// ---------------------------------------------------------------------------
// Toy world
// ---------------------------------------------------------------------------

/// Well-known ASNs of the toy world.
pub mod toy_asns {
    use manic_netsim::AsNumber;
    pub const ACME: AsNumber = AsNumber(64500); // access ISP hosting the VP
    pub const TRANSITCO: AsNumber = AsNumber(64501);
    pub const CDNCO: AsNumber = AsNumber(64502); // congested peer
    pub const VIDCO: AsNumber = AsNumber(64503); // uncongested peer
    pub const STUBCO: AsNumber = AsNumber(64510); // customer of ACME
}

/// A five-AS world with one persistently congested peering (ACME↔CDNCO,
/// four hours per evening for the whole study) and one clean peering.
pub fn toy(seed: u64) -> World {
    use toy_asns::*;
    let mut g = AsGraph::new();
    let mk = |asn, name: &str, kind, pops: &[MetroId]| AsInfo {
        asn,
        name: name.into(),
        kind,
        org: format!("org-{name}"),
        pops: intern::codes(pops),
    };
    g.add_as(mk(ACME, "acme", AsKind::AccessIsp, &[NYC, CHI]));
    g.add_as(mk(TRANSITCO, "transitco", AsKind::Transit, &[NYC, CHI, LAX]));
    g.add_as(mk(CDNCO, "cdnco", AsKind::Content, &[NYC, SJC]));
    g.add_as(mk(VIDCO, "vidco", AsKind::Content, &[CHI, SJC]));
    g.add_as(mk(STUBCO, "stubco", AsKind::Stub, &[NYC]));
    g.add_c2p(ACME, TRANSITCO);
    g.add_c2p(CDNCO, TRANSITCO);
    g.add_c2p(VIDCO, TRANSITCO);
    g.add_c2p(STUBCO, ACME);
    g.add_p2p(ACME, CDNCO);
    g.add_p2p(ACME, VIDCO);

    // The toy world is the clean test fixture: no ICMP confounders.
    let cfg = CompileConfig {
        seed,
        max_link_metros: 2,
        parallel_link_prob: 0.0,
        rate_limited_frac: 0.0,
        slow_path_frac: 0.0,
        flaky_frac: 0.0,
        ..Default::default()
    };
    let mut world = compile(g, &[(ACME, NYC.code()), (ACME, CHI.code())], &[], &cfg)
        .expect("builtin toy world compiles");
    let episodes = vec![CongestionEpisode::new(ACME, CDNCO, 0..30, 4.0)];
    install_congestion(&mut world, &episodes);
    world
}

// ---------------------------------------------------------------------------
// US broadband world (§6 study population)
// ---------------------------------------------------------------------------

/// Well-known ASNs of the US-broadband world (real-world numbers, synthetic
/// address space).
pub mod us_asns {
    use manic_netsim::AsNumber;
    // Access ISPs (Table 3 rows).
    pub const COMCAST: AsNumber = AsNumber(7922);
    pub const ATT: AsNumber = AsNumber(7018);
    pub const VERIZON: AsNumber = AsNumber(701);
    pub const CENTURYLINK: AsNumber = AsNumber(209);
    pub const COX: AsNumber = AsNumber(22773);
    pub const CHARTER: AsNumber = AsNumber(20115);
    pub const TWC: AsNumber = AsNumber(20001);
    pub const TWC_SIBLING: AsNumber = AsNumber(11351); // Road Runner, same org
    pub const RCN: AsNumber = AsNumber(6079);
    // Frequently congested T&CPs (Table 4 rows).
    pub const GOOGLE: AsNumber = AsNumber(15169);
    pub const TATA: AsNumber = AsNumber(6453);
    pub const NTT: AsNumber = AsNumber(2914);
    pub const XO: AsNumber = AsNumber(2828);
    pub const NETFLIX: AsNumber = AsNumber(2906);
    pub const LEVEL3: AsNumber = AsNumber(3356);
    pub const VODAFONE: AsNumber = AsNumber(1273);
    pub const TELIA: AsNumber = AsNumber(1299);
    pub const ZAYO: AsNumber = AsNumber(6461);
    pub const COGENT: AsNumber = AsNumber(174);
}

fn us_graph() -> AsGraph {
    use us_asns::*;
    let mut g = AsGraph::new();
    let mk = |asn: AsNumber, name: &str, kind, org: &str, pops: &[MetroId]| AsInfo {
        asn,
        name: name.into(),
        kind,
        org: org.into(),
        pops: intern::codes(pops),
    };

    // --- Access ISPs ---
    let aps: Vec<(AsNumber, &str, &[MetroId])> = vec![
        (COMCAST, "comcast", &[CHI, NYC, ASH, ATL, DFW, DEN, SEA, SJC]),
        (ATT, "att", &[DFW, CHI, LAX, ATL, NYC, HOU, SJC]),
        (VERIZON, "verizon", &[NYC, ASH, CHI, DFW, LAX, BOS]),
        (CENTURYLINK, "centurylink", &[DEN, SEA, PHX, CHI, DFW]),
        (COX, "cox", &[PHX, ATL, ASH, LAX]),
        (CHARTER, "charter", &[LAX, DEN, ATL, NYC]),
        (TWC, "twc", &[NYC, LAX, DFW, CHI]),
        (RCN, "rcn", &[NYC, BOS, CHI]),
    ];
    for (asn, name, pops) in &aps {
        g.add_as(mk(*asn, name, AsKind::AccessIsp, name, pops));
    }
    // TWC sibling AS (same org — exercises the §3.2 sibling handling).
    g.add_as(mk(TWC_SIBLING, "twc-rr", AsKind::AccessIsp, "twc", &[NYC, CHI]));

    // --- Transit providers ---
    let tier1: Vec<(AsNumber, &str, &[MetroId])> = vec![
        (LEVEL3, "level3", &[DEN, CHI, NYC, ASH, ATL, DFW, LAX, SJC, SEA]),
        (TATA, "tata", &[NYC, CHI, ASH, LAX, SJC]),
        (NTT, "ntt", &[SJC, SEA, CHI, NYC, ASH, DFW]),
        (TELIA, "telia", &[NYC, CHI, ASH, LON]),
        (COGENT, "cogent", &[ASH, CHI, DFW, LAX, NYC]),
        (VODAFONE, "vodafone", &[NYC, ASH, LON]),
        (AsNumber(1239), "sprint", &[ASH, CHI, DFW, SEA]),
        (AsNumber(3320), "dtag", &[NYC, FRA]),
        (AsNumber(5511), "orange", &[NYC, LON]),
        (AsNumber(6762), "seabone", &[NYC, MIA]),
    ];
    let tier2: Vec<(AsNumber, &str, &[MetroId])> = vec![
        (XO, "xo", &[NYC, CHI, DFW, LAX, ASH]),
        (ZAYO, "zayo", &[DEN, CHI, NYC, SEA, LAX]),
        (AsNumber(3257), "gtt", &[NYC, ASH, CHI]),
        (AsNumber(6939), "hurricane", &[SJC, CHI, ASH]),
        (AsNumber(4323), "twtelecom", &[DEN, DFW, ATL]),
        (AsNumber(7029), "windstream", &[ATL, DFW]),
        (AsNumber(3491), "pccw", &[SJC, LAX]),
    ];
    for (asn, name, pops) in tier1.iter().chain(&tier2) {
        g.add_as(mk(*asn, name, AsKind::Transit, name, pops));
    }

    // --- Content providers ---
    let content: Vec<(AsNumber, &str, &[MetroId])> = vec![
        (GOOGLE, "google", &[SJC, NYC, CHI, ASH, ATL, DFW, LAX, SEA]),
        (NETFLIX, "netflix", &[SJC, ASH, CHI, LAX, NYC]),
        (AsNumber(20940), "akamai", &[NYC, CHI, ASH, LAX]),
        (AsNumber(54113), "fastly", &[SJC, NYC, CHI]),
        (AsNumber(13335), "cloudflare", &[SJC, ASH, CHI]),
        (AsNumber(16509), "amazon", &[ASH, SJC, CHI, DFW]),
        (AsNumber(8075), "microsoft", &[ASH, CHI, SJC]),
        (AsNumber(714), "apple", &[SJC, ASH]),
        (AsNumber(32934), "facebook", &[ASH, SJC, CHI]),
        (AsNumber(22822), "limelight", &[PHX, CHI, NYC]),
        (AsNumber(15133), "edgecast", &[LAX, NYC]),
        (AsNumber(10310), "yahoo", &[SJC, ASH]),
        (AsNumber(46489), "twitch", &[SJC, NYC]),
        (AsNumber(32590), "valve", &[SEA, ASH]),
        (AsNumber(19679), "dropbox", &[SJC, NYC]),
    ];
    for (asn, name, pops) in &content {
        g.add_as(mk(*asn, name, AsKind::Content, name, pops));
    }

    // --- International access ISPs hosting non-US VPs ---
    let intl: Vec<(AsNumber, &str, &[MetroId])> = vec![
        (AsNumber(2856), "bt", &[LON]),
        (AsNumber(5089), "virgin", &[LON]),
        (AsNumber(1136), "kpn", &[AMS]),
    ];
    for (asn, name, pops) in &intl {
        g.add_as(mk(*asn, name, AsKind::AccessIsp, name, pops));
    }

    // --- Stub customers ---
    let stub_parents = [COMCAST, COMCAST, ATT, ATT, VERIZON, COX, CHARTER, TWC, RCN,
        CENTURYLINK, LEVEL3, TATA, NTT, COGENT, XO];
    let mut stubs = Vec::new();
    for (i, &parent) in stub_parents.iter().enumerate() {
        let asn = AsNumber(64600 + i as u32);
        let parent_pop = intern::intern_metro(&g.info(parent).pops[0])
            .expect("parent pops are interned metros");
        g.add_as(mk(asn, &format!("stub{i}"), AsKind::Stub, &format!("stub{i}"), &[parent_pop]));
        stubs.push((asn, parent));
    }

    // --- Relationships ---
    // Tier-1 full mesh peering.
    for (i, (a, ..)) in tier1.iter().enumerate() {
        for (b, ..) in tier1.iter().skip(i + 1) {
            g.add_p2p(*a, *b);
        }
    }
    // Tier-2 transits buy from two tier-1s (spread deterministically).
    for (i, (a, ..)) in tier2.iter().enumerate() {
        g.add_c2p(*a, tier1[i % tier1.len()].0);
        g.add_c2p(*a, tier1[(i + 3) % tier1.len()].0);
        // And peer with each other sparsely.
        if i + 1 < tier2.len() {
            g.add_p2p(*a, tier2[i + 1].0);
        }
    }
    // Content buys transit from two providers and peers with tier1 sparsely.
    for (i, (a, ..)) in content.iter().enumerate() {
        g.add_c2p(*a, tier1[i % tier1.len()].0);
        g.add_c2p(*a, tier2[i % tier2.len()].0);
    }

    // Access ISPs: transit + peering fabrics sized to Table 3's observed
    // peer/provider counts. Transit providers are tier-1s only: if an access
    // ISP bought transit from a tier-2, every AS upstream of that tier-2
    // would hold a *customer* route to the ISP and (prefer-customer) route
    // replies through it instead of the direct peering — poisoning TSLP's
    // return paths in a way real deployments rarely see. XO and Zayo
    // interconnect with the ISPs as settlement-free peers instead.
    let transits_of: Vec<(AsNumber, Vec<AsNumber>)> = vec![
        (COMCAST, vec![TATA, NTT]),
        (ATT, vec![TATA, LEVEL3]),
        (VERIZON, vec![LEVEL3, VODAFONE]),
        (CENTURYLINK, vec![LEVEL3, TATA]),
        (COX, vec![LEVEL3, NTT]),
        (CHARTER, vec![LEVEL3, COGENT]),
        (TWC, vec![TATA, TELIA]),
        (RCN, vec![LEVEL3, TELIA]),
    ];
    for (ap, ts) in &transits_of {
        for t in ts {
            g.add_c2p(*ap, *t);
        }
    }
    // Peerings: per-AP list of T&CPs (content + transits not already bought
    // from), sized to the Table 3 "observed" column.
    let all_tcps: Vec<AsNumber> = tier1
        .iter()
        .chain(&tier2)
        .map(|(a, ..)| *a)
        .chain(content.iter().map(|(a, ..)| *a))
        .collect();
    let observed: &[(AsNumber, usize)] = &[
        (COMCAST, 34),
        (ATT, 34),
        (VERIZON, 26),
        (CENTURYLINK, 28),
        (COX, 20),
        (CHARTER, 18),
        (TWC, 25),
        (RCN, 19),
    ];
    // The nine frequently congested T&CPs of Table 4 are peered first so
    // every AP interconnects with them; the remainder fills to the observed
    // count.
    let priority = [GOOGLE, TATA, NTT, XO, NETFLIX, LEVEL3, VODAFONE, TELIA, ZAYO];
    for &(ap, count) in observed {
        let already: Vec<AsNumber> = transits_of
            .iter()
            .find(|(a, _)| *a == ap)
            .map(|(_, t)| t.clone())
            .unwrap_or_default();
        let mut added = already.len();
        for &tcp in priority.iter().chain(&all_tcps) {
            if added >= count.min(all_tcps.len()) {
                break;
            }
            if already.contains(&tcp) || g.adjacent(ap, tcp) {
                continue;
            }
            g.add_p2p(ap, tcp);
            added += 1;
        }
    }
    // Sibling AS mirrors a couple of TWC peerings.
    g.add_c2p(TWC_SIBLING, TATA);
    let _ = ZAYO; // peers with the ISPs through the fill loop below
    g.add_p2p(TWC_SIBLING, GOOGLE);

    // International access.
    for (asn, _, _) in &intl {
        g.add_c2p(*asn, TELIA);
        g.add_c2p(*asn, VODAFONE);
        g.add_p2p(*asn, GOOGLE);
    }

    // Stubs.
    for (asn, parent) in &stubs {
        g.add_c2p(*asn, *parent);
    }
    g
}

/// The 22-month congestion schedule. Hours are daily overload durations at
/// the episode's plateau; fractions restrict to a subset of the pair's links.
/// The arcs are scripted to reproduce Table 4's ordering and Figure 7/8's
/// temporal stories — see DESIGN.md's experiment index.
pub fn us_schedule() -> Vec<CongestionEpisode> {
    use us_asns::*;
    let e = |ap, tcp, months: std::ops::Range<u32>, hours: f64, frac: f64| {
        CongestionEpisode::new(ap, tcp, months, hours).on_fraction(frac)
    };
    vec![
        // CenturyLink–Google: severe, nearly the whole window (94% target;
        // one idle month keeps it just under total).
        e(CENTURYLINK, GOOGLE, 2..10, 7.0, 1.0),
        e(CENTURYLINK, GOOGLE, 11..24, 7.0, 1.0),
        // AT&T–Tata: long arc peaking Jan 2017 (Fig 8), declining after.
        e(ATT, TATA, 2..12, 4.0, 0.5),
        e(ATT, TATA, 12..15, 8.0, 1.0),
        e(ATT, TATA, 15..22, 3.0, 0.3),
        // Comcast–Tata: light early, heavy in late 2017 (Fig 7). The 0.6
        // fraction keeps the Ashburn link clean — the return path of the
        // Table 2 / Link 2 NDT experiment rides it.
        e(COMCAST, TATA, 2..10, 2.0, 0.33),
        e(COMCAST, TATA, 14..24, 5.0, 0.6),
        // Comcast–NTT rises with Tata in late 2017.
        e(COMCAST, NTT, 15..24, 4.0, 0.6),
        // Comcast–Google: decline, Dec 2016 peak, dissipation by Jul 2017.
        e(COMCAST, GOOGLE, 2..4, 5.0, 0.33),
        e(COMCAST, GOOGLE, 4..8, 2.0, 0.2),
        e(COMCAST, GOOGLE, 8..14, 6.0, 0.33),
        e(COMCAST, GOOGLE, 14..18, 2.0, 0.2),
        // TWC: multiple 2016 episodes, all dissipating by Dec 2016.
        e(TWC, TATA, 2..11, 4.0, 0.6),
        e(TWC, NETFLIX, 2..12, 4.0, 0.6),
        e(TWC, XO, 2..6, 3.0, 0.3),
        e(TWC, TELIA, 3..5, 2.0, 0.3),
        e(TWC, VODAFONE, 5..6, 2.0, 0.25),
        e(TWC, LEVEL3, 5..8, 1.5, 0.25),
        // Verizon–Google: long moderate arc + the Dec 2017 episode of Fig 3.
        e(VERIZON, GOOGLE, 2..18, 4.0, 0.25),
        e(VERIZON, GOOGLE, 20..24, 4.0, 0.5),
        e(VERIZON, NETFLIX, 2..5, 2.5, 0.25),
        e(VERIZON, VODAFONE, 12..14, 2.5, 0.3),
        e(VERIZON, TATA, 4..5, 2.0, 0.25),
        // Cox: Level3 heavy, Netflix moderate (Table 4's Cox column).
        e(COX, LEVEL3, 4..11, 5.0, 0.8),
        e(COX, NETFLIX, 8..17, 4.0, 0.5),
        e(COX, NTT, 10..12, 3.0, 0.3),
        e(COX, GOOGLE, 6..7, 1.5, 0.67),
        e(COX, ZAYO, 12..13, 1.0, 0.25),
        // AT&T remaining arcs.
        e(ATT, GOOGLE, 2..14, 3.0, 0.25),
        e(ATT, XO, 2..9, 4.0, 0.25),
        e(ATT, TELIA, 10..15, 3.0, 0.35),
        e(ATT, NTT, 12..20, 3.0, 0.33),
        e(ATT, LEVEL3, 6..9, 1.5, 0.25),
        e(ATT, NETFLIX, 8..9, 1.5, 0.33),
        // CenturyLink remaining arcs.
        e(CENTURYLINK, NETFLIX, 6..9, 3.0, 0.4),
        e(CENTURYLINK, TATA, 12..14, 3.0, 0.3),
        e(CENTURYLINK, XO, 6..7, 2.5, 1.0),
        e(CENTURYLINK, VODAFONE, 8..10, 2.5, 0.3),
        e(CENTURYLINK, LEVEL3, 9..11, 2.0, 0.25),
        // Comcast small arcs.
        e(COMCAST, XO, 4..12, 3.0, 0.2),
        e(COMCAST, VODAFONE, 9..10, 2.0, 0.25),
        e(COMCAST, TELIA, 11..13, 2.0, 0.25),
        e(COMCAST, LEVEL3, 8..9, 1.5, 0.2),
        e(COMCAST, NETFLIX, 12..13, 1.5, 0.2),
        // Charter.
        e(CHARTER, XO, 8..10, 3.0, 0.3),
        e(CHARTER, NETFLIX, 10..12, 3.0, 0.3),
        e(CHARTER, GOOGLE, 12..13, 2.0, 1.0),
        e(CHARTER, ZAYO, 13..15, 1.0, 0.25),
        // RCN: one real arc (Zayo), a trace of Level3.
        e(RCN, ZAYO, 6..10, 4.0, 0.5),
        e(RCN, LEVEL3, 9..10, 1.0, 0.25),
        // CenturyLink–Cogent: the brief, shallow Dec 2017 episode behind
        // Table 2's Link 3 (36 minutes/day on average, 21 of 45 days). Both
        // metros congest so the VP-visible DFW link carries the signal.
        e(CENTURYLINK, COGENT, 22..24, 0.6, 1.0),
        // Non-US color: BT–Google mild congestion.
        e(AsNumber(2856), GOOGLE, 5..15, 3.0, 0.5),
    ]
}

/// VP placements for the US world: 29 VPs in the 8 US access ISPs (matching
/// §3's December 2017 deployment scale) plus 3 international.
pub fn us_vp_placements() -> Vec<(AsNumber, &'static str)> {
    use us_asns::*;
    let ids: Vec<(AsNumber, MetroId)> = vec![
        (COMCAST, CHI),
        (COMCAST, NYC),
        (COMCAST, ASH),
        (COMCAST, ATL),
        (COMCAST, DFW),
        (COMCAST, DEN),
        (COMCAST, SEA),
        (COMCAST, SJC),
        (ATT, DFW),
        (ATT, CHI),
        (ATT, LAX),
        (ATT, ATL),
        (ATT, NYC),
        (VERIZON, NYC),
        (VERIZON, ASH),
        (VERIZON, CHI),
        (VERIZON, DFW),
        (TWC, NYC),
        (TWC, LAX),
        (TWC, DFW),
        (CHARTER, LAX),
        (CHARTER, DEN),
        (CHARTER, ATL),
        (COX, PHX),
        (COX, ATL),
        (CENTURYLINK, DEN),
        (CENTURYLINK, SEA),
        (RCN, NYC),
        (RCN, BOS),
        (AsNumber(2856), LON),
        (AsNumber(5089), LON),
        (AsNumber(1136), AMS),
    ];
    ids.into_iter().map(|(asn, m)| (asn, m.code())).collect()
}

/// Build the full US-broadband world with its congestion schedule installed.
pub fn us_broadband(seed: u64) -> World {
    use us_asns::*;
    let graph = us_graph();
    let ixp_pairs = [(RCN, GOOGLE), (CHARTER, NETFLIX), (AsNumber(1136), GOOGLE)];
    let cfg = CompileConfig {
        seed,
        // An NDT-server-style destination in Tata at Ashburn: tests from a
        // Comcast Chicago VP cross the (congested) Chicago link on the
        // forward path while download data returns over the (clean) Ashburn
        // link — the paper's Link 2 asymmetry (§5.3).
        secondary_hosts: vec![(TATA, ASH.code().to_string())],
        ..Default::default()
    };
    let mut world = compile(graph, &us_vp_placements(), &ixp_pairs, &cfg)
        .expect("builtin us world compiles");
    install_congestion(&mut world, &us_schedule());
    world
}

#[cfg(test)]
mod tests {
    use super::*;
    use manic_netsim::time::{datetime_to_sim, Date};

    #[test]
    fn toy_world_compiles() {
        let w = toy(1);
        assert_eq!(w.vps.len(), 2);
        assert!(!w.gt_links.is_empty());
        // ACME has links to its transit, two peers, and a customer.
        let acme_links = w.links_of(toy_asns::ACME);
        assert!(acme_links.len() >= 4, "{}", acme_links.len());
    }

    #[test]
    fn toy_congestion_installed_in_eyeball_direction() {
        let w = toy(1);
        let links = w.links_between(toy_asns::ACME, toy_asns::CDNCO);
        assert!(!links.is_empty());
        let gt = links[0];
        let dir = gt.dir_toward(toy_asns::ACME);
        // Peak hour in NYC (UTC-5): 21:00 local = 02:00 UTC next day.
        let peak = datetime_to_sim(Date::new(2016, 6, 8), 2, 0, 0);
        let trough = datetime_to_sim(Date::new(2016, 6, 7), 9, 0, 0);
        let s_peak = w.net.link_state(gt.link, dir, peak);
        let s_trough = w.net.link_state(gt.link, dir, trough);
        assert!(s_peak.utilization >= 1.0, "peak util {}", s_peak.utilization);
        assert!(s_trough.utilization < 0.9);
        assert!(s_peak.queue_ms > 20.0);
        // The clean peer stays under capacity even at peak.
        let clean = w.links_between(toy_asns::ACME, toy_asns::VIDCO)[0];
        let dirc = clean.dir_toward(toy_asns::ACME);
        // vidco link is in chi (UTC-6): 21:00 local = 03:00 UTC.
        let peak_chi = datetime_to_sim(Date::new(2016, 6, 8), 3, 0, 0);
        let s_clean = w.net.link_state(clean.link, dirc, peak_chi);
        assert!(s_clean.utilization < 0.9, "clean util {}", s_clean.utilization);
    }

    #[test]
    fn toy_probes_reach_destinations() {
        let w = toy(1);
        let vp = w.vp("acme-nyc");
        let dst = w.host_addr(toy_asns::CDNCO, 0);
        let mut st = manic_netsim::SimState::new();
        let status = w.net.send_probe(
            &mut st,
            manic_netsim::ProbeSpec { src: vp.router, src_addr: vp.addr, dst, ttl: 32, flow_id: 7 },
            0,
        );
        assert!(
            matches!(status, manic_netsim::ProbeStatus::EchoReply { .. }),
            "{status:?}"
        );
    }

    #[test]
    fn toy_interdomain_link_visible_in_forward_path() {
        let w = toy(1);
        let vp = w.vp("acme-nyc");
        let dst = w.host_addr(toy_asns::CDNCO, 0);
        let path = w.net.forward_path(vp.router, dst, 7, 0);
        let crossed: Vec<_> = path
            .iter()
            .filter(|h| w.net.topo.link(h.link).kind == manic_netsim::LinkKind::Interdomain)
            .collect();
        assert_eq!(crossed.len(), 1, "one border crossing expected: {path:?}");
        // And it's an ACME-CDNCO link.
        let gt = w
            .gt_links
            .iter()
            .find(|g| g.link == crossed[0].link)
            .expect("link has ground truth");
        assert!(gt.touches(toy_asns::ACME) && gt.touches(toy_asns::CDNCO));
    }

    #[test]
    fn us_world_compiles_with_expected_scale() {
        let w = us_broadband(3);
        assert_eq!(w.vps.len(), 32);
        // Hundreds of interdomain links.
        assert!(w.gt_links.len() > 150, "{} links", w.gt_links.len());
        // Every US AP has many neighbors with links.
        use us_asns::*;
        for ap in [CENTURYLINK, ATT, COX, COMCAST, CHARTER, TWC, VERIZON, RCN] {
            let n = w.links_of(ap).len();
            assert!(n >= 15, "{ap} has only {n} links");
        }
        // Comcast-Tata links congest at peak in Dec 2017.
        let links = w.links_between(us_asns::COMCAST, us_asns::TATA);
        assert!(!links.is_empty());
        let gt = links[0];
        let peak = datetime_to_sim(Date::new(2017, 12, 7), 3, 0, 0); // 9pm CST
        let dir = gt.dir_toward(us_asns::COMCAST);
        let s = w.net.link_state(gt.link, dir, peak);
        assert!(s.utilization > 0.95, "util {}", s.utilization);
    }

    #[test]
    fn us_vp_probe_crosses_expected_border() {
        let w = us_broadband(3);
        let vp = w.vp("comcast-chi");
        let dst = w.host_addr(us_asns::GOOGLE, 0);
        let path = w.net.forward_path(vp.router, dst, 11, 0);
        assert!(!path.is_empty());
        let crossed: Vec<_> = path
            .iter()
            .filter(|h| w.net.topo.link(h.link).kind == manic_netsim::LinkKind::Interdomain)
            .collect();
        assert_eq!(crossed.len(), 1, "direct peering crossing: {crossed:?}");
    }

    #[test]
    fn schedule_is_well_formed() {
        for ep in us_schedule() {
            assert!(ep.start_month < ep.end_month);
            assert!(ep.end_month <= 30);
            assert!(ep.link_fraction > 0.0 && ep.link_fraction <= 1.0);
        }
    }
}
#[cfg(test)]
mod secondary_host_tests {
    use super::*;
    use manic_netsim::LinkKind;

    #[test]
    fn tata_secondary_host_reachable_and_asymmetric() {
        let w = us_broadband(3);
        let (addr, router) = w.secondary_host_addr(us_asns::TATA, "ash", 7);
        // Forward path from a Comcast Chicago VP crosses the chi link.
        let vp = w.vp("comcast-chi");
        let fwd = w.net.forward_path(vp.router, addr, 9, 0);
        assert!(!fwd.is_empty());
        assert!(w.net.topo.terminates(fwd.last().unwrap().router, addr));
        let fwd_inter: Vec<_> = fwd
            .iter()
            .filter(|h| w.net.topo.link(h.link).kind == LinkKind::Interdomain)
            .collect();
        assert_eq!(fwd_inter.len(), 1);
        // Reverse path from the Ashburn host crosses a *different* link.
        let rev = w.net.forward_path(router, vp.addr, 9, 0);
        let rev_inter: Vec<_> = rev
            .iter()
            .filter(|h| w.net.topo.link(h.link).kind == LinkKind::Interdomain)
            .collect();
        assert_eq!(rev_inter.len(), 1);
        assert_ne!(
            fwd_inter[0].link, rev_inter[0].link,
            "forward (chi) and reverse (ash) must differ"
        );
    }
}
