//! Address-space allocation for simulated ASes.
//!
//! Every AS receives one /16 from 10.0.0.0/8, carved as follows:
//!
//! ```text
//! 10.<i>.0.0/16         announced block of AS i
//!   10.<i>.<p>.0/24     infrastructure subnet of PoP p (p < 32): router
//!                       interfaces, VP access links
//!   10.<i>.64.0/18      host space, terminated at the AS's host router —
//!                       these are the "destinations in the address space of
//!                       the neighbor network" TSLP prefers (§3.1)
//!   10.<i>.200.0/22     interdomain link /30s *owned by this AS*
//! ```
//!
//! Interdomain /30 ownership follows operational convention: the provider
//! numbers customer links; peering links are numbered by the lower-ASN side.
//! This reproduces the border-mapping ambiguity bdrmap has to solve — the
//! far side of a link often answers from the *near* network's address space.
//!
//! The IXP LAN is 10.250.0.0/24, outside every AS block.

use manic_netsim::{AsNumber, Ipv4, Prefix};
use std::collections::BTreeMap;

/// Per-AS allocation state.
#[derive(Debug, Clone)]
pub struct AsAddressing {
    pub asn: AsNumber,
    /// Index of the AS (second octet of all its addresses).
    pub index: u8,
    /// The announced /16.
    pub block: Prefix,
    /// Host space terminated at the host router.
    pub host_prefix: Prefix,
    /// Next free host offset within each PoP subnet.
    pop_next: BTreeMap<u8, u32>,
    /// Next free /30 slot in the linknet block.
    linknet_next: u32,
}

impl AsAddressing {
    fn new(asn: AsNumber, index: u8) -> Self {
        let block = Prefix::new(Ipv4::new(10, index, 0, 0), 16);
        let host_prefix = Prefix::new(Ipv4::new(10, index, 64, 0), 18);
        AsAddressing { asn, index, block, host_prefix, pop_next: BTreeMap::new(), linknet_next: 0 }
    }

    /// Next infrastructure address in PoP `p`'s /24 (p must be < 32).
    pub fn next_pop_addr(&mut self, pop_index: u8) -> Ipv4 {
        assert!(pop_index < 32, "PoP index {pop_index} exceeds the /24 plan");
        let next = self.pop_next.entry(pop_index).or_insert(1);
        assert!(*next < 255, "PoP subnet exhausted for AS {}", self.asn);
        let addr = Ipv4::new(10, self.index, pop_index, *next as u8);
        *next += 1;
        addr
    }

    /// The /24 infrastructure subnet of PoP `p`.
    pub fn pop_subnet(&self, pop_index: u8) -> Prefix {
        Prefix::new(Ipv4::new(10, self.index, pop_index, 0), 24)
    }

    /// Allocate a fresh /30 linknet; returns `(prefix, addr_1, addr_2)`.
    pub fn next_linknet(&mut self) -> (Prefix, Ipv4, Ipv4) {
        assert!(self.linknet_next < 256, "linknet block exhausted for AS {}", self.asn);
        let slot = self.linknet_next;
        self.linknet_next += 1;
        // 10.i.200.0/22 == 4 x /24; each /24 holds 64 /30s.
        let third = 200 + (slot / 64) as u8;
        let fourth = ((slot % 64) * 4) as u8;
        let base = Ipv4::new(10, self.index, third, fourth);
        (Prefix::new(base, 30), Ipv4(base.0 + 1), Ipv4(base.0 + 2))
    }

    /// The whole linknet block.
    pub fn linknet_block(&self) -> Prefix {
        Prefix::new(Ipv4::new(10, self.index, 200, 0), 22)
    }
}

/// Global allocator: one block per AS plus the IXP LAN.
#[derive(Debug, Default)]
pub struct Addressing {
    per_as: BTreeMap<AsNumber, AsAddressing>,
    order: Vec<AsNumber>,
    ixp_next: u32,
}

/// The shared IXP LAN prefix (Packet-Clearing-House-style exchange list).
pub fn ixp_lan() -> Prefix {
    Prefix::new(Ipv4::new(10, 250, 0, 0), 24)
}

impl Addressing {
    pub fn new() -> Self {
        Addressing::default()
    }

    /// Register an AS and allocate its /16. ASes get indices in
    /// registration order; at most 200 ASes fit the plan.
    pub fn register(&mut self, asn: AsNumber) {
        assert!(!self.per_as.contains_key(&asn), "AS {asn} already registered");
        let index = self.order.len();
        assert!(index < 200, "address plan supports at most 200 ASes");
        self.order.push(asn);
        self.per_as.insert(asn, AsAddressing::new(asn, index as u8));
    }

    pub fn of(&self, asn: AsNumber) -> &AsAddressing {
        &self.per_as[&asn]
    }

    pub fn of_mut(&mut self, asn: AsNumber) -> &mut AsAddressing {
        self.per_as.get_mut(&asn).expect("AS not registered")
    }

    /// Two addresses on the IXP LAN for an exchange-fabric "link".
    pub fn next_ixp_pair(&mut self) -> (Ipv4, Ipv4) {
        assert!(self.ixp_next + 2 < 255, "IXP LAN exhausted");
        let a = ixp_lan().nth(self.ixp_next + 1);
        let b = ixp_lan().nth(self.ixp_next + 2);
        self.ixp_next += 2;
        (a, b)
    }

    /// Which registered AS owns `addr` by block coverage (the prefix2as
    /// view; the IXP LAN belongs to no AS).
    pub fn block_owner(&self, addr: Ipv4) -> Option<AsNumber> {
        // Second octet is the AS index by construction.
        let idx = addr.octets()[1] as usize;
        self.order.get(idx).copied().filter(|asn| self.of(*asn).block.contains(addr))
    }

    pub fn registered(&self) -> impl Iterator<Item = AsNumber> + '_ {
        self.order.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_disjoint_and_indexed() {
        let mut a = Addressing::new();
        a.register(AsNumber(7922));
        a.register(AsNumber(15169));
        assert_eq!(a.of(AsNumber(7922)).block.to_string(), "10.0.0.0/16");
        assert_eq!(a.of(AsNumber(15169)).block.to_string(), "10.1.0.0/16");
        assert_eq!(a.block_owner(Ipv4::new(10, 1, 33, 4)), Some(AsNumber(15169)));
        assert_eq!(a.block_owner(Ipv4::new(10, 9, 0, 1)), None);
        assert_eq!(a.block_owner(Ipv4::new(10, 250, 0, 1)), None);
    }

    #[test]
    fn pop_addrs_unique() {
        let mut a = Addressing::new();
        a.register(AsNumber(1));
        let s = a.of_mut(AsNumber(1));
        let x = s.next_pop_addr(0);
        let y = s.next_pop_addr(0);
        let z = s.next_pop_addr(3);
        assert_ne!(x, y);
        assert_eq!(x.octets()[2], 0);
        assert_eq!(z.octets()[2], 3);
        assert!(s.pop_subnet(0).contains(x));
        assert!(!s.pop_subnet(0).contains(z));
    }

    #[test]
    fn linknets_are_slash30s() {
        let mut a = Addressing::new();
        a.register(AsNumber(1));
        let s = a.of_mut(AsNumber(1));
        let (p1, a1, b1) = s.next_linknet();
        let (p2, ..) = s.next_linknet();
        assert_eq!(p1.len(), 30);
        assert_ne!(p1, p2);
        assert!(p1.contains(a1) && p1.contains(b1));
        assert!(s.linknet_block().covers(&p1));
        // Exactly the .1 and .2 of the /30.
        assert_eq!(a1.0, p1.addr().0 + 1);
        assert_eq!(b1.0, p1.addr().0 + 2);
    }

    #[test]
    fn many_linknets_stay_in_block() {
        let mut a = Addressing::new();
        a.register(AsNumber(1));
        let s = a.of_mut(AsNumber(1));
        for _ in 0..200 {
            let (p, ..) = s.next_linknet();
            assert!(s.linknet_block().covers(&p));
        }
    }

    #[test]
    fn ixp_pairs_on_lan() {
        let mut a = Addressing::new();
        let (x, y) = a.next_ixp_pair();
        assert!(ixp_lan().contains(x) && ixp_lan().contains(y));
        assert_ne!(x, y);
        let (z, _) = a.next_ixp_pair();
        assert_ne!(x, z);
    }
}
