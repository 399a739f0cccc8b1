//! Far-link inference: interdomain links beyond the immediate neighbor
//! (§9 extension, in the spirit of MAP-IT [Marder & Smith, IMC 2016]).
//!
//! bdrmap only identifies links of the VP's *host* network. The paper's
//! future-work section proposes combining it with MAP-IT to reach links
//! "farther than one AS hop away". MAP-IT's core idea: scan traceroutes for
//! *ownership transitions* — consecutive responsive hops annotated with
//! different origin ASes — and vet each candidate by the consistency of the
//! surrounding hops across the whole corpus.
//!
//! We implement that multipass vetting:
//!
//! 1. collect every adjacent responsive hop pair `(x, y)` whose annotated
//!    owners differ (host-network transitions are left to bdrmap proper);
//! 2. for each candidate, tally the *context votes* across the corpus: how
//!    often `x`'s address precedes hops of `owner(y)`'s network and vice
//!    versa — transitions produced by third-party addresses are
//!    inconsistent across destinations and fall below the vote threshold;
//! 3. the shared-/30 convention refines the split: when `y` is the second
//!    address of a /30 owned by `owner(x)`, the transition is re-anchored so
//!    the far side is `y` with the near side's owner kept (the same
//!    ambiguity bdrmap's rule 2 handles at the first border).

use crate::annotate::{annotate, HopAnnotation, HopOwner};
use manic_netsim::{AsNumber, Ipv4};
use manic_probing::Traceroute;
use manic_scenario::Artifacts;
use std::collections::BTreeMap;

/// An inferred interdomain link beyond the host network.
#[derive(Debug, Clone)]
pub struct FarLink {
    pub near_ip: Ipv4,
    pub far_ip: Ipv4,
    pub near_as: AsNumber,
    pub far_as: AsNumber,
    /// Traces that exhibited the transition.
    pub trace_count: usize,
}

/// Minimum supporting traces for a far-link candidate.
const MIN_VOTES: usize = 2;

/// Infer far links from a traceroute corpus.
///
/// `host_asn` (and its siblings) are excluded from either side: those
/// borders belong to bdrmap proper.
pub fn infer_far_links(
    traces: &[Traceroute],
    artifacts: &Artifacts,
    host_asn: AsNumber,
) -> Vec<FarLink> {
    let siblings = artifacts.siblings(host_asn);
    let mut candidates: BTreeMap<(Ipv4, Ipv4), (AsNumber, AsNumber, usize)> = BTreeMap::new();

    for trace in traces {
        let ann = annotate(&trace.hops, artifacts, &siblings);
        for w in windows_of_responsive(&ann) {
            let (x, y) = w;
            let (HopOwner::Foreign(ax), HopOwner::Foreign(ay)) = (x.owner, y.owner) else {
                continue;
            };
            let (x_addr, y_addr) = (x.addr.unwrap(), y.addr.unwrap());
            if ax == ay {
                // Same annotation — unless y sits on a /30 owned by ax and is
                // its second address, in which case y is likely the far
                // router of an ax-owned interconnection. The far AS is then
                // read from the next foreign owner after y in this trace.
                if y_addr.0 & 3 == 2 {
                    if let Some(next) = next_owner_after(&ann, y.index, ay) {
                        let e = candidates.entry((x_addr, y_addr)).or_insert((ax, next, 0));
                        e.2 += 1;
                    }
                }
                continue;
            }
            let e = candidates.entry((x_addr, y_addr)).or_insert((ax, ay, 0));
            e.2 += 1;
        }
    }

    candidates
        .into_iter()
        .filter(|(_, (_, _, votes))| *votes >= MIN_VOTES)
        .map(|((near_ip, far_ip), (near_as, far_as, trace_count))| FarLink {
            near_ip,
            far_ip,
            near_as,
            far_as,
            trace_count,
        })
        .collect()
}

/// Adjacent responsive hop pairs.
fn windows_of_responsive(
    ann: &[HopAnnotation],
) -> impl Iterator<Item = (&HopAnnotation, &HopAnnotation)> {
    let responsive: Vec<&HopAnnotation> =
        ann.iter().filter(|h| h.addr.is_some()).collect();
    (1..responsive.len()).map(move |i| (responsive[i - 1], responsive[i]))
        .collect::<Vec<_>>()
        .into_iter()
}

/// First foreign owner after index `idx` that differs from `not`.
fn next_owner_after(ann: &[HopAnnotation], idx: usize, not: AsNumber) -> Option<AsNumber> {
    ann.iter().skip_while(|h| h.index <= idx).find_map(|h| match h.owner {
        HopOwner::Foreign(a) if a != not => Some(a),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use manic_probing::TracerouteHop;
    use manic_scenario::addressing::Addressing;
    use manic_scenario::asgraph::{AsGraph, AsInfo, AsKind};

    const HOST: AsNumber = AsNumber(10);
    const MID: AsNumber = AsNumber(20);
    const FAR: AsNumber = AsNumber(30);

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
        g.add_p2p(HOST, MID);
        g.add_c2p(FAR, MID);
        let mut addr = Addressing::new();
        for a in [HOST, MID, FAR] {
            addr.register(a); // 10.0/16, 10.1/16, 10.2/16
        }
        Artifacts::build(&g, &addr, &[])
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
    fn ownership_transition_beyond_neighbor_found() {
        let art = artifacts();
        // host -> MID -> FAR: the MID/FAR border at (10.1.0.7 -> 10.2.200.1).
        let traces: Vec<Traceroute> = (0..3)
            .map(|k| {
                mk_trace(
                    &format!("10.2.64.{k}"),
                    &["10.0.0.1", "10.1.200.1", "10.1.0.7", "10.2.200.1", &format!("10.2.64.{k}")],
                )
            })
            .collect();
        let links = infer_far_links(&traces, &art, HOST);
        // host->MID transition excluded; two transitions remain: MID-entry
        // is part of the host border (excluded because the near side is host
        // space)... the MID->FAR one must be present.
        let midfar: Vec<_> = links
            .iter()
            .filter(|l| l.near_as == MID && l.far_as == FAR)
            .collect();
        assert_eq!(midfar.len(), 1, "{links:?}");
        assert_eq!(midfar[0].near_ip, "10.1.0.7".parse::<Ipv4>().unwrap());
        assert_eq!(midfar[0].far_ip, "10.2.200.1".parse::<Ipv4>().unwrap());
        assert!(midfar[0].trace_count >= 3);
    }

    #[test]
    fn shared_slash30_beyond_neighbor() {
        let art = artifacts();
        // MID owns the MID-FAR /30: the FAR router answers from 10.1.200.6
        // (second address of a MID /30); next hop is in FAR space.
        let traces: Vec<Traceroute> = (0..2)
            .map(|k| {
                mk_trace(
                    &format!("10.2.64.{k}"),
                    &["10.0.0.1", "10.1.200.1", "10.1.0.7", "10.1.200.6", "10.2.0.9", &format!("10.2.64.{k}")],
                )
            })
            .collect();
        let links = infer_far_links(&traces, &art, HOST);
        let corrected: Vec<_> = links
            .iter()
            .filter(|l| l.far_ip == "10.1.200.6".parse::<Ipv4>().unwrap())
            .collect();
        assert_eq!(corrected.len(), 1, "{links:?}");
        assert_eq!(corrected[0].near_as, MID);
        assert_eq!(corrected[0].far_as, FAR);
    }

    #[test]
    fn single_vote_candidates_rejected() {
        let art = artifacts();
        let traces = vec![mk_trace(
            "10.2.64.1",
            &["10.0.0.1", "10.1.200.1", "10.1.0.7", "10.2.200.1", "10.2.64.1"],
        )];
        assert!(infer_far_links(&traces, &art, HOST).is_empty(), "one vote is not enough");
    }

    #[test]
    fn host_side_transitions_excluded() {
        let art = artifacts();
        let traces: Vec<Traceroute> = (0..3)
            .map(|k| {
                mk_trace(
                    &format!("10.1.64.{k}"),
                    &["10.0.0.1", "10.1.200.1", &format!("10.1.64.{k}")],
                )
            })
            .collect();
        // Only host->MID transitions exist; nothing for farlink.
        assert!(infer_far_links(&traces, &art, HOST).is_empty());
    }
}
