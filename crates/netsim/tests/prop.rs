//! Property-based tests for netsim invariants.

use manic_netsim::fib::ecmp_pick;
use manic_netsim::time;
use manic_netsim::{Fib, IfaceId, Ipv4, Prefix};
use proptest::prelude::*;

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(a, l)| Prefix::new(Ipv4(a), l))
}

/// A prefix near one of three anchors, so that routes nest: the anchor
/// fixes the top 16 bits, the draw keeps four of the low ones, and the
/// length is any of 0..=32.
fn arb_nested_prefix() -> impl Strategy<Value = Prefix> {
    const ANCHORS: [u32; 3] = [0x0A00_0000, 0x0A01_0000, 0xC0A8_0000];
    (0usize..3, any::<u32>(), 0u8..=32)
        .prop_map(|(a, low, len)| Prefix::new(Ipv4(ANCHORS[a] | (low & 0x0303)), len))
}

/// An ECMP group in the order a FIB must keep: members drawn from a small
/// space, so groups recur across routes, and left in draw order.
fn arb_group() -> impl Strategy<Value = Vec<IfaceId>> {
    prop::collection::vec((0u32..6).prop_map(IfaceId), 1..4)
}

type Routes = std::collections::BTreeMap<Prefix, Vec<IfaceId>>;

/// Reference LPM: linear scan over all routes.
fn linear_lpm(routes: &Routes, dst: Ipv4) -> Option<&[IfaceId]> {
    routes
        .iter()
        .filter(|(p, _)| p.contains(dst))
        .max_by_key(|(p, _)| p.len())
        .map(|(_, nh)| nh.as_slice())
}

/// An address inside `p` (its `r`-th, wrapped), or `r` itself when `raw`.
fn probe_addr(p: Prefix, r: u32, raw: bool) -> Ipv4 {
    if raw {
        Ipv4(r)
    } else {
        p.nth((r as u64 % p.size()) as u32)
    }
}

proptest! {
    /// The FIB agrees with a brute-force longest-prefix match, group members
    /// in order, while lookups interleave with inserts that replace a
    /// prefix's group; so do a FIB rebuilt from `entries()` and a clone, and
    /// re-inserting into the clone (the routing-epoch pattern) leaves the
    /// original as it was.
    #[test]
    fn fib_matches_linear_scan(
        pool in prop::collection::vec(arb_nested_prefix(), 1..12),
        ops in prop::collection::vec((0u8..4, any::<usize>(), arb_group(), any::<u32>()), 1..80),
        shift in (any::<usize>(), arb_group()),
        dsts in prop::collection::vec((any::<usize>(), any::<u32>(), any::<bool>()), 1..32),
    ) {
        let mut fib = Fib::new();
        let mut reference = Routes::new();
        for (kind, i, group, r) in ops {
            let p = pool[i % pool.len()];
            if kind < 2 {
                fib.insert(p, group.clone());
                reference.insert(p, group);
                prop_assert_eq!(fib.len(), reference.len());
            } else {
                let dst = probe_addr(p, r, kind == 3);
                prop_assert_eq!(fib.lookup(dst), linear_lpm(&reference, dst), "dst {}", dst);
            }
        }

        let mut entries: Vec<(Prefix, Vec<IfaceId>)> =
            fib.entries().into_iter().map(|e| (e.prefix, e.next_hops)).collect();
        entries.sort();
        let expected: Vec<(Prefix, Vec<IfaceId>)> = reference.clone().into_iter().collect();
        prop_assert_eq!(&entries, &expected);

        let mut rebuilt = Fib::new();
        for e in fib.entries() {
            rebuilt.insert(e.prefix, e.next_hops);
        }
        let cloned = fib.clone();
        let mut epoch = fib.clone();
        let (k, group) = shift;
        let p = pool[k % pool.len()];
        let mut shifted = reference.clone();
        shifted.insert(p, group.clone());
        epoch.insert(p, group);
        prop_assert_eq!(rebuilt.len(), reference.len());
        prop_assert_eq!(epoch.len(), shifted.len());
        for (i, r, raw) in dsts {
            let dst = probe_addr(pool[i % pool.len()], r, raw);
            let want = linear_lpm(&reference, dst);
            prop_assert_eq!(fib.lookup(dst), want, "original, dst {}", dst);
            prop_assert_eq!(rebuilt.lookup(dst), want, "rebuilt from entries, dst {}", dst);
            prop_assert_eq!(cloned.lookup(dst), want, "clone, dst {}", dst);
            prop_assert_eq!(epoch.lookup(dst), linear_lpm(&shifted, dst), "shifted clone, dst {}", dst);
        }
    }

    /// ECMP choice is a pure function of (flow, src, dst, salt) and stays in
    /// the group.
    #[test]
    fn ecmp_stable_member(
        members in prop::collection::vec(0u32..1000, 1..8),
        flow in any::<u16>(),
        src in any::<u32>(),
        dst in any::<u32>(),
        salt in any::<u64>(),
    ) {
        let group: Vec<IfaceId> = members.iter().map(|&m| IfaceId(m)).collect();
        let a = ecmp_pick(&group, flow, Ipv4(src), Ipv4(dst), salt);
        let b = ecmp_pick(&group, flow, Ipv4(src), Ipv4(dst), salt);
        prop_assert_eq!(a, b);
        prop_assert!(group.contains(&a));
    }

    /// Calendar roundtrip over the full study window and beyond.
    #[test]
    fn calendar_roundtrip(day in -400i64..1200, secs in 0i64..86_400) {
        let t = day * 86_400 + secs;
        let d = time::sim_to_date(t);
        let midnight = time::date_to_sim(d);
        prop_assert_eq!(midnight, day * 86_400);
        prop_assert!((1..=12).contains(&d.month));
        prop_assert!((1..=31).contains(&d.day));
    }

    /// month_start(month_index(t)) <= t for all t in the study period.
    #[test]
    fn month_start_bounds(t in 0i64..63_072_000) {
        let m = time::month_index(t);
        prop_assert!(time::month_start(m) <= t);
        prop_assert!(time::month_start(m + 1) > t);
    }

    /// Prefix::contains is consistent with covers.
    #[test]
    fn covers_implies_contains(p in arb_prefix(), q in arb_prefix(), x in any::<u32>()) {
        if p.covers(&q) && q.contains(Ipv4(x)) {
            prop_assert!(p.contains(Ipv4(x)));
        }
    }
}
