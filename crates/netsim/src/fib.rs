//! Forwarding information base: longest-prefix-match to ECMP next-hop sets.
//!
//! Each router's [`Fib`] is one sorted table: its routes ordered by prefix
//! length, longest first, then by address, with the end of each length's run
//! recorded, and its next-hop groups interned into one flat pool. A lookup
//! binary-searches each length present, longest first.

use crate::ip::{Ipv4, Prefix};
use crate::topo::IfaceId;

/// One route: a prefix and the set of equal-cost egress interfaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FibEntry {
    pub prefix: Prefix,
    /// Non-empty set of equal-cost egress interfaces (ECMP group).
    pub next_hops: Vec<IfaceId>,
}

/// A router's routes, supporting longest-prefix match.
///
/// ```
/// use manic_netsim::{Fib, IfaceId, Ipv4, Prefix};
///
/// let mut fib = Fib::new();
/// fib.insert("10.0.0.0/8".parse().unwrap(), vec![IfaceId(1)]);
/// fib.insert("10.7.0.0/16".parse().unwrap(), vec![IfaceId(2)]);
/// let dst: Ipv4 = "10.7.64.1".parse().unwrap();
/// assert_eq!(fib.lookup(dst), Some(&[IfaceId(2)][..]));
/// let other: Ipv4 = "10.9.0.1".parse().unwrap();
/// assert_eq!(fib.lookup(other), Some(&[IfaceId(1)][..]));
/// ```
///
/// A world's routers hold a few to a few hundred routes each, of at most a
/// handful of distinct lengths, and reuse a few ECMP groups across all of
/// them; every router's FIB lives for the whole run. So a route is eight
/// bytes (its masked address and a group index), a FIB is four allocations
/// whatever its size, and a lookup is one binary search per length present.
/// A group keeps the member order it was inserted with, because
/// [`ecmp_pick`] indexes it by hash. A replaced route's old group stays in
/// the pool. Correctness is property-tested against a brute-force scan.
#[derive(Debug, Clone, Default)]
pub struct Fib {
    /// Sorted by prefix length, longest first, then by address.
    routes: Vec<Route>,
    /// `(length, end)` for each length present, longest first: the routes
    /// of that length are `routes[end of the run before..end]`.
    runs: Vec<(u8, u32)>,
    /// The interned groups, back to back.
    pool: Vec<IfaceId>,
    /// Where each group ends in `pool`; group `g` starts where `g - 1` ends.
    group_ends: Vec<u32>,
}

#[derive(Debug, Clone, Copy)]
struct Route {
    /// The prefix's address, masked to its run's length.
    addr: u32,
    /// Index into `Fib::group_ends`.
    group: u32,
}

impl Fib {
    pub fn new() -> Self {
        Fib::default()
    }

    /// Number of installed routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Install (or replace) a route. The next-hop set must be non-empty.
    pub fn insert(&mut self, prefix: Prefix, next_hops: Vec<IfaceId>) {
        assert!(!next_hops.is_empty(), "route must have at least one next hop");
        let group = self.intern(&next_hops);
        let (len, addr) = (prefix.len(), prefix.addr().0);
        let r = self.runs.partition_point(|&(l, _)| l > len);
        if self.runs.get(r).is_none_or(|&(l, _)| l != len) {
            let start = self.run_start(r) as u32;
            self.runs.insert(r, (len, start));
        }
        let (start, end) = (self.run_start(r), self.runs[r].1 as usize);
        match self.routes[start..end].binary_search_by_key(&addr, |route| route.addr) {
            Ok(i) => self.routes[start + i].group = group,
            Err(i) => {
                self.routes.insert(start + i, Route { addr, group });
                for run in &mut self.runs[r..] {
                    run.1 += 1;
                }
            }
        }
    }

    /// Longest-prefix match: the most specific route covering `dst`.
    pub fn lookup(&self, dst: Ipv4) -> Option<&[IfaceId]> {
        self.runs().find_map(|(len, run)| {
            let key = dst.0 & Prefix::mask(len);
            let i = run.binary_search_by_key(&key, |route| route.addr).ok()?;
            Some(self.group(run[i].group))
        })
    }

    /// All installed routes (for diagnostics and tests), longest prefixes
    /// first.
    pub fn entries(&self) -> Vec<FibEntry> {
        self.runs()
            .flat_map(|(len, run)| {
                run.iter().map(move |route| FibEntry {
                    prefix: Prefix::new(Ipv4(route.addr), len),
                    next_hops: self.group(route.group).to_vec(),
                })
            })
            .collect()
    }

    /// Each length present, longest first, with its routes.
    fn runs(&self) -> impl Iterator<Item = (u8, &[Route])> {
        let mut start = 0;
        self.runs.iter().map(move |&(len, end)| {
            let run = &self.routes[start..end as usize];
            start = end as usize;
            (len, run)
        })
    }

    /// Index of the first route of run `r`.
    fn run_start(&self, r: usize) -> usize {
        r.checked_sub(1).map_or(0, |prev| self.runs[prev].1 as usize)
    }

    fn group(&self, g: u32) -> &[IfaceId] {
        let g = g as usize;
        let start = g.checked_sub(1).map_or(0, |prev| self.group_ends[prev] as usize);
        &self.pool[start..self.group_ends[g] as usize]
    }

    /// The index of `next_hops` in the pool, added if it is new.
    fn intern(&mut self, next_hops: &[IfaceId]) -> u32 {
        let mut start = 0;
        for (g, &end) in self.group_ends.iter().enumerate() {
            if self.pool[start..end as usize] == *next_hops {
                return g as u32;
            }
            start = end as usize;
        }
        self.pool.extend_from_slice(next_hops);
        self.group_ends.push(u32::try_from(self.pool.len()).expect("pool fits u32 offsets"));
        (self.group_ends.len() - 1) as u32
    }
}

/// Pick one next hop from an ECMP group with a stable per-flow hash.
///
/// Per-flow load balancers hash the packet 5-tuple; TSLP keeps its flow
/// identifier (ICMP checksum) constant precisely so that this choice is
/// stable across probes (§3.1, citing Paris traceroute). We hash
/// `(flow_id, src, dst, router_salt)` so that different flows spread across
/// the group while one flow always takes the same member.
pub fn ecmp_pick(group: &[IfaceId], flow_id: u16, src: Ipv4, dst: Ipv4, router_salt: u64) -> IfaceId {
    debug_assert!(!group.is_empty());
    if group.len() == 1 {
        return group[0];
    }
    let h = crate::noise::hash3(
        router_salt,
        ((flow_id as u64) << 32) | src.0 as u64,
        dst.0 as u64,
    );
    group[(h % group.len() as u64) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4 {
        s.parse().unwrap()
    }

    fn pfx(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn lpm_prefers_most_specific() {
        let mut fib = Fib::new();
        fib.insert(pfx("10.0.0.0/8"), vec![IfaceId(1)]);
        fib.insert(pfx("10.1.0.0/16"), vec![IfaceId(2)]);
        fib.insert(pfx("10.1.5.0/24"), vec![IfaceId(3)]);
        assert_eq!(fib.lookup(ip("10.1.5.9")), Some(&[IfaceId(3)][..]));
        assert_eq!(fib.lookup(ip("10.1.9.9")), Some(&[IfaceId(2)][..]));
        assert_eq!(fib.lookup(ip("10.9.9.9")), Some(&[IfaceId(1)][..]));
        assert_eq!(fib.lookup(ip("11.0.0.1")), None);
    }

    #[test]
    fn default_route() {
        let mut fib = Fib::new();
        fib.insert(pfx("0.0.0.0/0"), vec![IfaceId(9)]);
        assert_eq!(fib.lookup(ip("200.1.2.3")), Some(&[IfaceId(9)][..]));
    }

    #[test]
    fn replace_route() {
        let mut fib = Fib::new();
        fib.insert(pfx("10.0.0.0/8"), vec![IfaceId(1)]);
        fib.insert(pfx("10.0.0.0/8"), vec![IfaceId(2)]);
        assert_eq!(fib.len(), 1);
        assert_eq!(fib.lookup(ip("10.0.0.1")), Some(&[IfaceId(2)][..]));
    }

    #[test]
    fn default_behaves_like_new() {
        for mut fib in [Fib::default(), Fib::new()] {
            assert!(fib.is_empty());
            assert_eq!(fib.lookup(ip("10.0.0.1")), None);
            assert!(fib.entries().is_empty());
            fib.insert(pfx("10.0.0.0/8"), vec![IfaceId(1)]);
            assert_eq!(fib.len(), 1);
            assert_eq!(fib.lookup(ip("10.0.0.1")), Some(&[IfaceId(1)][..]));
        }
    }

    #[test]
    fn host_routes() {
        let mut fib = Fib::new();
        fib.insert(Prefix::host(ip("10.0.0.7")), vec![IfaceId(4)]);
        assert_eq!(fib.lookup(ip("10.0.0.7")), Some(&[IfaceId(4)][..]));
        assert_eq!(fib.lookup(ip("10.0.0.8")), None);
    }

    #[test]
    fn entries_roundtrip() {
        let mut fib = Fib::new();
        let routes = [
            (pfx("10.0.0.0/8"), vec![IfaceId(1)]),
            (pfx("10.1.0.0/16"), vec![IfaceId(2), IfaceId(3)]),
            (pfx("0.0.0.0/0"), vec![IfaceId(4)]),
        ];
        for (p, nh) in &routes {
            fib.insert(*p, nh.clone());
        }
        let mut got = fib.entries();
        got.sort_by_key(|e| (e.prefix.len(), e.prefix.addr()));
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].prefix, pfx("0.0.0.0/0"));
        assert_eq!(got[2].next_hops, vec![IfaceId(2), IfaceId(3)]);
    }

    #[test]
    fn ecmp_stable_and_spreading() {
        let group = vec![IfaceId(1), IfaceId(2), IfaceId(3)];
        let src = ip("10.0.0.1");
        let dst = ip("10.9.0.1");
        let a = ecmp_pick(&group, 100, src, dst, 7);
        for _ in 0..10 {
            assert_eq!(ecmp_pick(&group, 100, src, dst, 7), a, "flow must be stable");
        }
        // Different flow ids should spread across members.
        let distinct: std::collections::HashSet<_> =
            (0..64u16).map(|f| ecmp_pick(&group, f, src, dst, 7)).collect();
        assert!(distinct.len() >= 2, "ECMP should use multiple members");
    }
}
