//! Property-based tests for the probing layer.

use manic_probing::tslp::select_targets;
use manic_probing::{RateBudget, Traceroute, TracerouteHop};
use manic_netsim::Ipv4;
use proptest::prelude::*;

fn mk_trace(dst: u32, flow: u16, hops: &[u32]) -> Traceroute {
    Traceroute {
        dst: Ipv4(dst),
        flow_id: flow,
        t: 0,
        hops: hops
            .iter()
            .enumerate()
            .map(|(i, &h)| TracerouteHop {
                ttl: (i + 1) as u8,
                addr: if h == 0 { None } else { Some(Ipv4(h)) },
                rtt_ms: Some(1.0),
            })
            .collect(),
        reached: true,
    }
}

/// A selected task as `(near, far, flow, [(dst, near_ttl, far_ttl)])`.
type Selected = (Ipv4, Ipv4, u16, Vec<(Ipv4, u8, u8)>);

/// `select_targets` as a scan: every link looks at every trace.
fn select_by_scan(
    traces: &[Traceroute],
    links: &[(Ipv4, Ipv4)],
    preferred: impl Fn(Ipv4, Ipv4) -> bool,
) -> Vec<Selected> {
    let mut out = Vec::new();
    for &(near, far) in links {
        let (mut first, mut rest, mut flow) = (Vec::new(), Vec::new(), None);
        for tr in traces {
            let (Some(ni), Some(fi)) = (tr.hop_of(near), tr.hop_of(far)) else { continue };
            if fi != ni + 1 {
                continue;
            }
            flow.get_or_insert(tr.flow_id);
            let dest = (tr.dst, tr.hops[ni].ttl, tr.hops[fi].ttl);
            if preferred(tr.dst, far) { first.push(dest) } else { rest.push(dest) }
        }
        first.extend(rest);
        first.dedup_by_key(|d| d.0);
        first.truncate(3);
        if let Some(flow) = flow {
            out.push((near, far, flow, first));
        }
    }
    out
}

proptest! {
    /// The per-cycle address index picks exactly what scanning every trace
    /// for every link picks — with repeated addresses, unresponsive hops,
    /// loops, and links no trace shows.
    #[test]
    fn select_targets_matches_scan(
        paths in prop::collection::vec(prop::collection::vec(0u32..7, 1..9), 1..14),
        links in prop::collection::vec((1u32..7, 1u32..7), 1..8),
        mask in any::<u32>(),
    ) {
        let traces: Vec<Traceroute> = paths
            .iter()
            .enumerate()
            .map(|(k, hops)| mk_trace(1000 + (k as u32 % 9), k as u16, hops))
            .collect();
        let links: Vec<(Ipv4, Ipv4)> = links.iter().map(|&(n, f)| (Ipv4(n), Ipv4(f))).collect();
        let preferred = move |dst: Ipv4, far: Ipv4| (mask >> ((dst.0 + far.0) % 32)) & 1 == 1;
        let got: Vec<Selected> = select_targets(&traces, &links, preferred)
            .into_iter()
            .map(|t| {
                let dests = t.dests.iter().map(|d| (d.dst, d.near_ttl, d.far_ttl)).collect();
                (t.near_ip, t.far_ip, t.flow_id, dests)
            })
            .collect();
        prop_assert_eq!(got, select_by_scan(&traces, &links, preferred));
    }

    /// Slot times are monotone non-decreasing and the long-run rate never
    /// exceeds the budget.
    #[test]
    fn rate_budget_monotone_and_bounded(
        rate in 1.0f64..200.0,
        requests in prop::collection::vec(0i64..100, 1..200),
    ) {
        let mut b = RateBudget::new(rate, 0);
        let mut now = 0i64;
        let mut slots = Vec::new();
        for dt in requests {
            now += dt;
            slots.push(b.next_slot(now));
        }
        prop_assert!(slots.windows(2).all(|w| w[0] <= w[1]), "monotone");
        // Count per-window occupancy: any window of W seconds holds at most
        // rate*W + 1 slots.
        if let (Some(&first), Some(&last)) = (slots.first(), slots.last()) {
            let span = (last - first + 1) as f64;
            prop_assert!(
                slots.len() as f64 <= rate * span + rate.max(1.0) + 1.0,
                "{} slots in {span}s at {rate}pps",
                slots.len()
            );
        }
    }

    /// Target selection caps at three destinations, keeps far = near + 1
    /// TTL, and only uses destinations whose trace shows both ends adjacent.
    #[test]
    fn select_targets_invariants(
        n_traces in 1usize..12,
        near in 1u32..1000,
        seed in any::<u64>(),
    ) {
        let far = near + 1;
        let traces: Vec<Traceroute> = (0..n_traces)
            .map(|k| {
                let dst = 10_000 + k as u32;
                // Half the traces show the link adjacently, half skip it.
                // 100_000+ addresses cannot collide with near/far (< 1001).
                if (seed >> k) & 1 == 0 {
                    mk_trace(dst, k as u16, &[100_000, near, far, dst])
                } else {
                    mk_trace(dst, k as u16, &[100_000, near, 200_000, far, dst])
                }
            })
            .collect();
        let tasks = select_targets(&traces, &[(Ipv4(near), Ipv4(far))], |_, _| true);
        for task in &tasks {
            prop_assert!(task.dests.len() <= 3);
            for d in &task.dests {
                prop_assert_eq!(d.far_ttl, d.near_ttl + 1);
                // The chosen destination's trace really shows the pair
                // adjacently.
                let tr = traces.iter().find(|t| t.dst == d.dst).unwrap();
                let ni = tr.hop_of(Ipv4(near)).unwrap();
                prop_assert_eq!(tr.hops[ni + 1].addr, Some(Ipv4(far)));
            }
        }
        // A task exists iff at least one trace qualified.
        let qualified = traces.iter().any(|t| {
            t.hop_of(Ipv4(near))
                .map(|i| t.hops.get(i + 1).and_then(|h| h.addr) == Some(Ipv4(far)))
                .unwrap_or(false)
        });
        prop_assert_eq!(!tasks.is_empty(), qualified);
    }

    /// Preferred (neighbor-space) destinations always sort before fallback
    /// ones.
    #[test]
    fn neighbor_space_destinations_first(mask in 0u8..=255) {
        let near = 50u32;
        let far = 51u32;
        let traces: Vec<Traceroute> = (0..8usize)
            .map(|k| mk_trace(20_000 + k as u32, 1, &[5, near, far, 20_000 + k as u32]))
            .collect();
        let preferred = move |dst: Ipv4, _far: Ipv4| (mask >> (dst.0 - 20_000)) & 1 == 1;
        let tasks = select_targets(&traces, &[(Ipv4(near), Ipv4(far))], preferred);
        if let Some(task) = tasks.first() {
            let flags: Vec<bool> = task.dests.iter().map(|d| preferred(d.dst, Ipv4(far))).collect();
            // Once a fallback appears, no preferred may follow.
            let first_fallback = flags.iter().position(|&p| !p).unwrap_or(flags.len());
            prop_assert!(flags[first_fallback..].iter().all(|&p| !p), "{flags:?}");
        }
    }
}
