//! Router-level topology: routers, interfaces, point-to-point links.

use crate::ip::{Ipv4, Prefix};
use crate::queue::QueueModel;
use crate::traffic::LoadModel;
use std::collections::HashMap;
use std::sync::Arc;

/// Autonomous system number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AsNumber(pub u32);

impl std::fmt::Display for AsNumber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// Router identifier (index into `Topology::routers`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct RouterId(pub u32);

/// Interface identifier (index into `Topology::ifaces`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IfaceId(pub u32);

/// Link identifier (index into `Topology::links`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// What a link connects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// Backbone link inside one AS.
    Internal,
    /// Border link between two ASes — the objects the paper measures.
    Interdomain,
    /// Link between a host (VP or destination) and its first-hop router.
    Access,
}

/// A router (or end host — hosts are routers that terminate traffic).
#[derive(Debug, Clone)]
pub struct Router {
    pub id: RouterId,
    pub asn: AsNumber,
    /// Human-readable name, e.g. `comcast-bb-nyc-1`.
    pub name: String,
    /// Point of presence / metro tag, e.g. `nyc`.
    pub pop: String,
    /// Fixed UTC offset of the router's site, in hours.
    pub tz_offset_hours: i8,
    /// ICMP generation behaviour (slow path, rate limiting).
    pub icmp: crate::icmp::IcmpProfile,
    /// Interfaces owned by this router.
    pub ifaces: Vec<IfaceId>,
}

/// A numbered interface attached to a router, possibly on a link.
#[derive(Debug, Clone)]
pub struct Interface {
    pub id: IfaceId,
    pub router: RouterId,
    pub addr: Ipv4,
    /// The link this interface sits on, if connected.
    pub link: Option<LinkId>,
}

/// Direction across a link, named by the interface order in [`Link::ifaces`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// From `ifaces[0]`'s router toward `ifaces[1]`'s router.
    AtoB,
    /// From `ifaces[1]`'s router toward `ifaces[0]`'s router.
    BtoA,
}

/// A point-to-point link.
///
/// Background traffic is directional: on an access-ISP peering link the
/// inbound (content → eyeball) direction congests while the outbound one
/// stays loaded well under capacity. Each direction can therefore carry its
/// own [`LoadModel`].
#[derive(Clone)]
pub struct Link {
    pub id: LinkId,
    /// `[a, b]` interface pair.
    pub ifaces: [IfaceId; 2],
    pub kind: LinkKind,
    /// One-way propagation delay in milliseconds.
    pub prop_delay_ms: f64,
    /// Capacity in Mbit/s (used by the NDT throughput model).
    pub capacity_mbps: f64,
    /// Queueing behaviour when utilization approaches capacity.
    pub queue: QueueModel,
    /// Demand model for the a→b direction (None = idle).
    pub load_ab: Option<Arc<dyn LoadModel>>,
    /// Demand model for the b→a direction.
    pub load_ba: Option<Arc<dyn LoadModel>>,
}

impl std::fmt::Debug for Link {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Link")
            .field("id", &self.id)
            .field("ifaces", &self.ifaces)
            .field("kind", &self.kind)
            .field("prop_delay_ms", &self.prop_delay_ms)
            .field("capacity_mbps", &self.capacity_mbps)
            .finish_non_exhaustive()
    }
}

impl Link {
    /// The load model active when traversing the link in `dir`.
    pub fn load(&self, dir: Direction) -> Option<&Arc<dyn LoadModel>> {
        match dir {
            Direction::AtoB => self.load_ab.as_ref(),
            Direction::BtoA => self.load_ba.as_ref(),
        }
    }
}

/// The immutable router-level topology.
#[derive(Debug, Default, Clone)]
pub struct Topology {
    pub routers: Vec<Router>,
    pub ifaces: Vec<Interface>,
    pub links: Vec<Link>,
    /// Address → interface reverse index.
    addr_index: HashMap<Ipv4, IfaceId>,
    /// Prefixes terminated by host routers, indexed by router id: packets
    /// for these prefixes that reach the owning router are answered (ICMP
    /// echo) from the destination address itself. Private so that
    /// [`Self::add_host_prefix`] is the only writer; a router holds a
    /// handful of prefixes at most, so [`Self::terminates`] never looks past
    /// the router it is asked about.
    host_prefixes: Vec<Vec<Prefix>>,
}

impl Topology {
    pub fn new() -> Self {
        Topology::default()
    }

    /// Add a router; returns its id.
    pub fn add_router(
        &mut self,
        asn: AsNumber,
        name: impl Into<String>,
        pop: impl Into<String>,
        tz_offset_hours: i8,
        icmp: crate::icmp::IcmpProfile,
    ) -> RouterId {
        let id = RouterId(self.routers.len() as u32);
        self.routers.push(Router {
            id,
            asn,
            name: name.into(),
            pop: pop.into(),
            tz_offset_hours,
            icmp,
            ifaces: Vec::new(),
        });
        self.host_prefixes.push(Vec::new());
        id
    }

    /// Add an interface on `router` with address `addr`; returns its id.
    /// Panics if the address is already assigned (addresses are unique).
    pub fn add_iface(&mut self, router: RouterId, addr: Ipv4) -> IfaceId {
        assert!(
            !self.addr_index.contains_key(&addr),
            "duplicate interface address {addr}"
        );
        let id = IfaceId(self.ifaces.len() as u32);
        self.ifaces.push(Interface { id, router, addr, link: None });
        self.routers[router.0 as usize].ifaces.push(id);
        self.addr_index.insert(addr, id);
        id
    }

    /// Connect two existing unconnected interfaces with a link.
    #[allow(clippy::too_many_arguments)]
    pub fn connect(
        &mut self,
        a: IfaceId,
        b: IfaceId,
        kind: LinkKind,
        prop_delay_ms: f64,
        capacity_mbps: f64,
        queue: QueueModel,
        load_ab: Option<Arc<dyn LoadModel>>,
        load_ba: Option<Arc<dyn LoadModel>>,
    ) -> LinkId {
        assert!(self.ifaces[a.0 as usize].link.is_none(), "iface {a:?} already linked");
        assert!(self.ifaces[b.0 as usize].link.is_none(), "iface {b:?} already linked");
        assert_ne!(
            self.ifaces[a.0 as usize].router, self.ifaces[b.0 as usize].router,
            "self-loop links are not allowed"
        );
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            id,
            ifaces: [a, b],
            kind,
            prop_delay_ms,
            capacity_mbps,
            queue,
            load_ab,
            load_ba,
        });
        self.ifaces[a.0 as usize].link = Some(id);
        self.ifaces[b.0 as usize].link = Some(id);
        id
    }

    /// Register a prefix whose addresses are answered by `router`.
    pub fn add_host_prefix(&mut self, prefix: Prefix, router: RouterId) {
        self.host_prefixes[router.0 as usize].push(prefix);
    }

    #[inline]
    pub fn router(&self, id: RouterId) -> &Router {
        &self.routers[id.0 as usize]
    }

    pub fn iface(&self, id: IfaceId) -> &Interface {
        &self.ifaces[id.0 as usize]
    }

    #[inline]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.0 as usize]
    }

    /// Interface holding `addr`, if any.
    pub fn iface_by_addr(&self, addr: Ipv4) -> Option<&Interface> {
        self.addr_index.get(&addr).map(|&i| self.iface(i))
    }

    /// The interface on the far side of `iface`'s link.
    pub fn peer_iface(&self, iface: IfaceId) -> Option<&Interface> {
        let link = self.iface(iface).link?;
        let [a, b] = self.link(link).ifaces;
        Some(self.iface(if a == iface { b } else { a }))
    }

    /// Direction of travel when leaving through `egress` on its link.
    pub fn link_direction(&self, link: LinkId, egress: IfaceId) -> Direction {
        if self.link(link).ifaces[0] == egress {
            Direction::AtoB
        } else {
            Direction::BtoA
        }
    }

    /// The router a packet crossing `link` in direction `dir` arrives at.
    pub fn link_head(&self, link: LinkId, dir: Direction) -> RouterId {
        let [a, b] = self.link(link).ifaces;
        self.iface(if dir == Direction::AtoB { b } else { a }).router
    }

    /// True when packets addressed to `dst` terminate at `router` (either a
    /// local interface address or a registered host prefix).
    pub fn terminates(&self, router: RouterId, dst: Ipv4) -> bool {
        if let Some(iface) = self.iface_by_addr(dst) {
            if iface.router == router {
                return true;
            }
        }
        self.host_prefixes[router.0 as usize].iter().any(|p| p.contains(dst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::icmp::IcmpProfile;

    fn ip(s: &str) -> Ipv4 {
        s.parse().unwrap()
    }

    fn tiny() -> (Topology, RouterId, RouterId, LinkId) {
        let mut t = Topology::new();
        let r1 = t.add_router(AsNumber(10), "r1", "nyc", -5, IcmpProfile::default());
        let r2 = t.add_router(AsNumber(20), "r2", "nyc", -5, IcmpProfile::default());
        let i1 = t.add_iface(r1, ip("10.0.0.1"));
        let i2 = t.add_iface(r2, ip("10.0.0.2"));
        let l = t.connect(i1, i2, LinkKind::Interdomain, 1.0, 10_000.0, QueueModel::default(), None, None);
        (t, r1, r2, l)
    }

    #[test]
    fn build_and_lookup() {
        let (t, r1, r2, l) = tiny();
        assert_eq!(t.iface_by_addr(ip("10.0.0.1")).unwrap().router, r1);
        assert_eq!(t.peer_iface(IfaceId(0)).unwrap().router, r2);
        assert_eq!(t.link(l).kind, LinkKind::Interdomain);
        assert_eq!(t.router(r1).ifaces.len(), 1);
    }

    #[test]
    fn directions() {
        let (t, _, _, l) = tiny();
        assert_eq!(t.link_direction(l, IfaceId(0)), Direction::AtoB);
        assert_eq!(t.link_direction(l, IfaceId(1)), Direction::BtoA);
    }

    #[test]
    fn terminates_iface_and_host_prefix() {
        let (mut t, r1, r2, _) = tiny();
        assert!(t.terminates(r1, ip("10.0.0.1")));
        assert!(!t.terminates(r1, ip("10.0.0.2")));
        t.add_host_prefix("10.5.0.0/24".parse().unwrap(), r2);
        assert!(t.terminates(r2, ip("10.5.0.77")));
        assert!(!t.terminates(r1, ip("10.5.0.77")));
    }

    #[test]
    #[should_panic(expected = "duplicate interface address")]
    fn duplicate_addr_rejected() {
        let (mut t, r1, _, _) = tiny();
        t.add_iface(r1, ip("10.0.0.1"));
    }

    #[test]
    #[should_panic(expected = "already linked")]
    fn double_connect_rejected() {
        let (mut t, r1, r2, _) = tiny();
        let i3 = t.add_iface(r1, ip("10.0.1.1"));
        let i4 = t.add_iface(r2, ip("10.0.1.2"));
        t.connect(i3, i4, LinkKind::Internal, 1.0, 1000.0, QueueModel::default(), None, None);
        // Reconnecting i3 must panic.
        let i5 = t.add_iface(r2, ip("10.0.2.2"));
        t.connect(i3, i5, LinkKind::Internal, 1.0, 1000.0, QueueModel::default(), None, None);
    }
}
